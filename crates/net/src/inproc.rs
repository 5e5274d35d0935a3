use crate::error::NetError;
use crate::wire::WireMessage;
use crate::{MsgReceiver, MsgSender};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A named-channel registry for in-process messaging.
///
/// Channels are multiple-producer, multiple-consumer: one
/// [`bind`](InprocHub::bind) per name, any number of
/// [`connect`](InprocHub::connect)s, and the bound [`InprocReceiver`] can be
/// cloned into additional competing consumers (each message is delivered to
/// exactly one of them). A connect looks the name up under the hub's lock,
/// so a hot path connects once and keeps the sender: the core runtime
/// resolves its pipelines' channels at deploy and uses no hub.
#[derive(Clone, Default)]
pub struct InprocHub {
    /// Channel name → sender side (the receiver was handed out at bind).
    channels: Arc<Mutex<HashMap<String, Sender<WireMessage>>>>,
}

impl InprocHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `name`, returning its receiving end.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AlreadyBound`] if the name is taken.
    pub fn bind(&self, name: &str) -> Result<InprocReceiver, NetError> {
        let mut channels = self.channels.lock();
        if channels.contains_key(name) {
            return Err(NetError::AlreadyBound(name.to_string()));
        }
        let (tx, rx) = unbounded();
        channels.insert(name.to_string(), tx);
        Ok(InprocReceiver {
            name: name.to_string(),
            rx,
        })
    }

    /// Connects to a bound `name`, returning a sending end.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotBound`] if nothing bound the name yet.
    pub fn connect(&self, name: &str) -> Result<InprocSender, NetError> {
        let tx = self
            .channels
            .lock()
            .get(name)
            .ok_or_else(|| NetError::NotBound(name.to_string()))?
            .clone();
        Ok(InprocSender {
            name: name.to_string(),
            tx,
        })
    }
}

impl fmt::Debug for InprocHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InprocHub")
            .field("channels", &self.channels.lock().len())
            .finish()
    }
}

/// Sending end of an in-process channel.
#[derive(Clone)]
pub struct InprocSender {
    name: String,
    tx: Sender<WireMessage>,
}

impl fmt::Debug for InprocSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InprocSender")
            .field("channel", &self.name)
            .finish()
    }
}

impl MsgSender for InprocSender {
    fn send(&self, msg: WireMessage) -> Result<(), NetError> {
        self.tx.send(msg).map_err(|_| NetError::Disconnected)
    }
}

/// Receiving end of an in-process channel.
///
/// Cloning produces another *competing* consumer on the same queue: every
/// message goes to exactly one clone (MPMC work sharing), not to all of
/// them.
#[derive(Clone)]
pub struct InprocReceiver {
    name: String,
    rx: Receiver<WireMessage>,
}

impl fmt::Debug for InprocReceiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InprocReceiver")
            .field("channel", &self.name)
            .field("pending", &self.rx.len())
            .finish()
    }
}

impl MsgReceiver for InprocReceiver {
    fn recv(&self) -> Result<WireMessage, NetError> {
        self.rx.recv().map_err(|_| NetError::Disconnected)
    }

    fn try_recv(&self) -> Result<WireMessage, NetError> {
        self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => NetError::WouldBlock,
            TryRecvError::Disconnected => NetError::Disconnected,
        })
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<WireMessage, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => NetError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }
}

#[cfg(test)]
impl InprocHub {
    /// Removes a binding (subsequent sends fail with disconnect).
    pub(crate) fn unbind(&self, name: &str) {
        self.channels.lock().remove(name);
    }

    /// Whether `name` is currently bound.
    pub(crate) fn is_bound(&self, name: &str) -> bool {
        self.channels.lock().contains_key(name)
    }

    /// Number of bound channels.
    pub(crate) fn len(&self) -> usize {
        self.channels.lock().len()
    }
}

#[cfg(test)]
impl InprocSender {
    /// The channel name this sender targets.
    pub(crate) fn channel(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
impl InprocReceiver {
    /// The bound channel name.
    pub(crate) fn channel(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn msg(channel: &str, seq: u64) -> WireMessage {
        WireMessage::data(channel, seq, 0, Bytes::new())
    }

    #[test]
    fn bind_connect_send_recv() {
        let hub = InprocHub::new();
        let rx = hub.bind("a").unwrap();
        let tx = hub.connect("a").unwrap();
        tx.send(msg("a", 1)).unwrap();
        assert_eq!(rx.recv().unwrap().seq, 1);
        assert_eq!(tx.channel(), "a");
        assert_eq!(rx.channel(), "a");
    }

    #[test]
    fn double_bind_fails() {
        let hub = InprocHub::new();
        let _rx = hub.bind("a").unwrap();
        assert!(matches!(hub.bind("a"), Err(NetError::AlreadyBound(_))));
    }

    #[test]
    fn connect_unbound_fails() {
        let hub = InprocHub::new();
        assert!(matches!(hub.connect("x"), Err(NetError::NotBound(_))));
    }

    #[test]
    fn try_recv_and_timeout() {
        let hub = InprocHub::new();
        let rx = hub.bind("a").unwrap();
        assert!(matches!(rx.try_recv(), Err(NetError::WouldBlock)));
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(NetError::Timeout)
        ));
        let tx = hub.connect("a").unwrap();
        tx.send(msg("a", 2)).unwrap();
        assert_eq!(rx.try_recv().unwrap().seq, 2);
    }

    #[test]
    fn multiple_senders_one_receiver() {
        let hub = InprocHub::new();
        let rx = hub.bind("sink").unwrap();
        let t1 = hub.connect("sink").unwrap();
        let t2 = hub.connect("sink").unwrap();
        t1.send(msg("sink", 1)).unwrap();
        t2.send(msg("sink", 2)).unwrap();
        let mut seqs = vec![rx.recv().unwrap().seq, rx.recv().unwrap().seq];
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn unbind_disconnects_senders() {
        let hub = InprocHub::new();
        let rx = hub.bind("a").unwrap();
        let tx = hub.connect("a").unwrap();
        hub.unbind("a");
        assert!(!hub.is_bound("a"));
        drop(rx);
        assert!(matches!(tx.send(msg("a", 1)), Err(NetError::Disconnected)));
    }

    #[test]
    fn hub_is_cloneable_and_shared() {
        let hub = InprocHub::new();
        let hub2 = hub.clone();
        let _rx = hub.bind("a").unwrap();
        assert!(hub2.is_bound("a"));
        assert_eq!(hub2.len(), 1);
    }

    #[test]
    fn cloned_receivers_compete_without_duplication() {
        // The executor-pool contract: N cloned receivers drain one queue,
        // every message is consumed exactly once.
        let hub = InprocHub::new();
        let rx = hub.bind("pool").unwrap();
        let tx = hub.connect("pool").unwrap();
        const MSGS: u64 = 1000;
        const WORKERS: usize = 4;
        let mut handles = Vec::new();
        for _ in 0..WORKERS {
            let rx = rx.clone();
            handles.push(std::thread::spawn(move || {
                let mut seqs = Vec::new();
                while let Ok(m) = rx.recv_timeout(Duration::from_millis(200)) {
                    seqs.push(m.seq);
                }
                seqs
            }));
        }
        for i in 0..MSGS {
            tx.send(msg("pool", i)).unwrap();
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..MSGS).collect();
        assert_eq!(all, expected, "lost or duplicated messages");
    }

    #[test]
    fn cross_thread_delivery() {
        let hub = InprocHub::new();
        let rx = hub.bind("worker").unwrap();
        let tx = hub.connect("worker").unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(msg("worker", i)).unwrap();
            }
        });
        let mut got = 0;
        while got < 100 {
            rx.recv().unwrap();
            got += 1;
        }
        handle.join().unwrap();
    }
}
