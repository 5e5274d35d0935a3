//! TCP transport with length-prefixed framing.
//!
//! **One way in.** Every TCP receiver is a [`PollEndpoint`] — a
//! non-blocking listener plus its accepted connections, each reading
//! straight into a pooled [`StreamDecoder`] chunk so payloads are shared
//! slices of the read buffer — and every endpoint is driven by the same
//! readiness loop, [`Ingress`]: wait on one [`Poller`], service exactly the
//! ready sockets under a budget, carry backlogs and paused listeners to the
//! next turn. The loop has three users, which differ only in the tag they
//! hang on an endpoint and the sink they hand to [`Ingress::turn`]: the
//! reactor's I/O thread (every pipeline's endpoints, tagged with the
//! pipeline), the threaded runtime's one ingress thread, and
//! [`TcpListenerHandle`] (one endpoint feeding a channel, the ZeroMQ PULL
//! shape the cluster control plane uses).
//!
//! **One way out.** [`TcpSender::send`] stages the frame in a
//! [`FrameBatch`] — header encoded into a pooled arena, payload shared, not
//! copied — re-dials if a [`ReconnectPolicy`] says so, and flushes with
//! vectored writes. There is nothing to select: no coalescing policy, no
//! background flusher.

use crate::error::NetError;
use crate::poller::Poller;
use crate::pool::BufferPool;
use crate::wire::{FrameBatch, StreamDecoder, WireMessage};
use crate::{MsgReceiver, MsgSender};
use crossbeam::channel::{unbounded, Receiver, TryRecvError};
use parking_lot::Mutex;
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bound TCP endpoint: one background thread runs an [`Ingress`] over it
/// and exposes the merged frame stream of every peer as a [`MsgReceiver`].
pub struct TcpListenerHandle {
    local_port: u16,
    rx: Receiver<WireMessage>,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Poller>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpListenerHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        let mut ingress = Ingress::new()?;
        ingress.add((), PollEndpoint::bind(addr)?)?;
        Ok(Self::spawn(ingress))
    }

    /// Starts the thread that turns `ingress`, over its one endpoint, into
    /// the channel.
    fn spawn(mut ingress: Ingress<()>) -> Self {
        let local_port = ingress.endpoints[0].1.local_port();
        let waker = ingress.waker();
        let (tx, rx) = unbounded();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name(format!("vp-tcp-listen-{local_port}"))
            .spawn(move || {
                // The handle owns the receiver and joins this thread before
                // dropping it, so a send cannot fail while the loop runs.
                // A failed wait ends the loop: the channel disconnects and
                // `recv*` says so.
                while !flag.load(Ordering::SeqCst) {
                    let turned = ingress.turn(|_, msg| {
                        let _ = tx.send(msg);
                    });
                    if turned.is_err() {
                        break;
                    }
                }
            })
            .expect("spawn tcp listener thread");
        TcpListenerHandle {
            local_port,
            rx,
            shutdown,
            waker,
            thread: Some(thread),
        }
    }

    /// The port actually bound (useful with port 0).
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Stops the ingress thread, which closes the listener and every peer
    /// connection; frames already received stay readable.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.notify();
    }
}

impl Drop for TcpListenerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for TcpListenerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpListenerHandle")
            .field("local_port", &self.local_port)
            .finish_non_exhaustive()
    }
}

impl MsgReceiver for TcpListenerHandle {
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

/// Reconnect behaviour for a [`TcpSender`].
///
/// With a policy installed, `send` never surfaces a disconnect: messages are
/// buffered (up to `buffer_limit`, oldest dropped first) while the sender
/// re-dials the peer with exponential backoff. Without one, a broken pipe is
/// reported as a typed [`NetError::Disconnected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Delay before the first re-dial after a failed attempt.
    pub base_backoff: Duration,
    /// Ceiling for the doubling backoff.
    pub max_backoff: Duration,
    /// Messages buffered while disconnected; beyond this the oldest is
    /// dropped (and counted) — bounded memory, like a ZeroMQ high-water mark.
    pub buffer_limit: usize,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            buffer_limit: 1024,
        }
    }
}

/// Ceiling on I/O slices per vectored write (≈ 2 per frame: header +
/// payload). Bounds per-syscall setup cost and stays well under the
/// kernel's `IOV_MAX`.
const DEFAULT_MAX_IOVECS: usize = 64;

/// Ceiling on a single batch write: bounds the bytes that can be torn or
/// resent around a mid-batch disconnect.
const FLUSH_CHUNK: usize = 64 * 1024;

/// Everything about the connection that changes over its lifetime.
struct SenderState {
    stream: Option<TcpStream>,
    /// Staged frames awaiting the wire: headers pre-encoded into pooled
    /// arenas, payloads shared — flushed with vectored writes.
    batch: FrameBatch,
    next_attempt: Instant,
    backoff: Duration,
}

impl SenderState {
    /// Writes as much of the backlog as the connection accepts, in order,
    /// flushing vectored batches of up to [`FLUSH_CHUNK`] bytes. On a
    /// disconnect-flavoured error the stream is dropped and the unsent
    /// tail stays staged for the next attempt, with the front frame's
    /// write cursor rewound so the replacement connection sees it whole.
    fn flush(&mut self) -> Result<(), NetError> {
        while !self.batch.is_empty() {
            let Some(stream) = self.stream.as_mut() else {
                break;
            };
            match self
                .batch
                .write_some(stream, FLUSH_CHUNK, DEFAULT_MAX_IOVECS)
            {
                Ok(_) => {}
                Err(e) if is_disconnect(e.kind()) => {
                    self.stream = None;
                    self.batch.reset_cursor();
                    self.next_attempt = Instant::now();
                    break;
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(())
    }
}

/// True for the error kinds a dead peer produces on write.
fn is_disconnect(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// The connecting side of a TCP edge.
pub struct TcpSender {
    state: Mutex<SenderState>,
    dropped: AtomicU64,
    reconnects: AtomicU64,
    peer: String,
    reconnect: Option<ReconnectPolicy>,
}

impl TcpSender {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpSender {
            state: Mutex::new(SenderState {
                stream: Some(stream),
                batch: FrameBatch::new(),
                next_attempt: Instant::now(),
                backoff: Duration::from_millis(5),
            }),
            dropped: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            peer: addr.to_string(),
            reconnect: None,
        })
    }

    /// Connects, retrying for up to `timeout` (used when the bind side races
    /// the connect side during deployment).
    ///
    /// # Errors
    ///
    /// Returns the last connection error after the deadline.
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<Self, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(addr) {
                Ok(sender) => return Ok(sender),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Installs a reconnect policy: mid-stream disconnects buffer and
    /// re-dial instead of erroring.
    #[must_use]
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.state.get_mut().backoff = policy.base_backoff;
        self.reconnect = Some(policy);
        self
    }

    /// The peer address.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Messages dropped because the reconnect buffer overflowed.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Successful re-dials after a mid-stream disconnect.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Messages currently buffered awaiting a reconnect.
    pub fn buffered(&self) -> usize {
        self.state.lock().batch.len()
    }

    /// Flushes whatever a reconnecting sender still holds staged, without
    /// waiting for the next `send`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, as [`MsgSender::send`] does.
    pub fn flush_now(&self) -> Result<(), NetError> {
        self.state.lock().flush()
    }

    /// Severs the current connection (chaos testing): the next send either
    /// reports [`NetError::Disconnected`] or, with a reconnect policy,
    /// buffers and re-dials. Returns whether a live connection was cut.
    pub fn inject_disconnect(&self) -> bool {
        let mut state = self.state.lock();
        state.next_attempt = Instant::now();
        // Any partially-written front frame must replay whole on the next
        // connection.
        state.batch.reset_cursor();
        if let Some(policy) = &self.reconnect {
            state.backoff = policy.base_backoff;
        }
        match state.stream.take() {
            Some(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
                true
            }
            None => false,
        }
    }

    /// Attempts to (re-)establish the connection if the backoff allows it.
    fn try_redial(&self, state: &mut SenderState, policy: &ReconnectPolicy) {
        let now = Instant::now();
        if state.stream.is_some() || now < state.next_attempt {
            return;
        }
        match TcpStream::connect(&self.peer) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                state.stream = Some(stream);
                state.backoff = policy.base_backoff;
                self.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                state.next_attempt = now + state.backoff;
                state.backoff = (state.backoff * 2).min(policy.max_backoff);
            }
        }
    }
}

impl Drop for TcpSender {
    fn drop(&mut self) {
        // Best-effort: push any staged backlog out before the socket closes.
        let _ = self.state.get_mut().flush();
    }
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("peer", &self.peer)
            .field("reconnect", &self.reconnect)
            .finish()
    }
}

impl MsgSender for TcpSender {
    fn send(&self, msg: WireMessage) -> Result<(), NetError> {
        let mut state = self.state.lock();
        // Without a reconnect policy a dead connection fails fast with a
        // typed error so callers can react.
        if self.reconnect.is_none() && state.stream.is_none() {
            return Err(NetError::Disconnected);
        }
        // Staging encodes the header now, so an unencodable message fails
        // here — at its own call site — and the batch is untouched.
        state.batch.stage(&msg)?;
        if let Some(policy) = &self.reconnect {
            if state.batch.len() > policy.buffer_limit && state.batch.drop_front().is_some() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            self.try_redial(&mut state, policy);
        }
        let result = state.flush();
        if self.reconnect.is_none() && state.stream.is_none() {
            // The write died mid-stream: report it and do not replay the
            // backlog into a future connection nobody asked for.
            state.batch.clear();
            return Err(NetError::Disconnected);
        }
        result
    }
}

/// A non-blocking TCP ingress — a listener and the connections it accepted
/// — with *zero* threads of its own. One caller drives it, in one of two
/// ways that share every line of the socket handling:
///
/// * **Readiness:** an [`Ingress`] registers the endpoint's sockets with its
///   [`Poller`] and services exactly those reported readable. An idle
///   endpoint then costs nothing at all. This is how the runtimes and
///   [`TcpListenerHandle`] run it.
/// * **Scan:** [`PollEndpoint::poll`] accepts pending peers and services
///   every connection; the caller decides when to come back. Kept as the
///   reference arm of the `both_drivers!` tests and for the benchmark's
///   receive cell, which polls one endpoint without sleeping.
///
/// Each connection reads straight into a pooled [`StreamDecoder`] chunk —
/// decoded payloads are zero-copy slices of the read buffer — and partial
/// frames persist across calls, so frames may arrive byte-by-byte without
/// ever blocking the caller.
pub struct PollEndpoint {
    listener: TcpListener,
    local_port: u16,
    /// Open connections, ascending by `id` (ids only grow, and removal
    /// keeps the order), so a key resolves by binary search.
    conns: Vec<PollConn>,
    /// Id for the next accepted connection. Ids are never reused: a
    /// readiness event for a connection that is gone resolves to nothing
    /// instead of to whichever connection took its place.
    next_conn: u32,
    accepted: u64,
    pool: Arc<BufferPool>,
    /// Where the sockets are registered, and the high half of their keys.
    registration: Option<(Arc<Poller>, u32)>,
    /// Set while the listener is paused after a hard `accept` error.
    accept_retry_at: Option<Instant>,
}

struct PollConn {
    id: u32,
    stream: TcpStream,
    decoder: StreamDecoder,
}

/// The low half of the listener's key; connections count up from 1.
const LISTENER_ID: u32 = 0;

/// How long a listener stays paused after `accept` failed with something
/// other than "nothing pending" (typically `EMFILE`: the process is out of
/// descriptors, and the pending peer keeps the listener readable).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// What [`Ingress`] owes a key after [`PollEndpoint::service`] ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Serviced {
    /// Nothing is left over: the key's next readiness event says when.
    Idle,
    /// The budget ran out with decoded frames still queued. No new bytes
    /// need arrive for them, so no readiness event will announce them:
    /// service the key again without waiting.
    Backlog,
    /// The listener hit a hard `accept` error and is off the readiness set
    /// until then: service the key again at this instant.
    RetryAt(Instant),
}

fn poll_key(token: u32, id: u32) -> u64 {
    u64::from(token) << 32 | u64::from(id)
}

impl PollEndpoint {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) in non-blocking mode with a
    /// private buffer pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        Self::bind_with_pool(addr, Arc::new(BufferPool::default()))
    }

    /// Binds `addr` drawing read chunks from `pool` — endpoints multiplexed
    /// on one I/O thread share a pool so chunks recycle across connections.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_with_pool(addr: &str, pool: Arc<BufferPool>) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_port = listener.local_addr()?.port();
        Ok(PollEndpoint {
            listener,
            local_port,
            conns: Vec::new(),
            next_conn: LISTENER_ID + 1,
            accepted: 0,
            pool,
            registration: None,
            accept_retry_at: None,
        })
    }

    /// The port actually bound (useful with port 0).
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Currently open peer connections.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Peers accepted over the endpoint's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Registers the listener and every open connection with `poller`;
    /// connections accepted later register themselves, and a connection is
    /// taken off the poller before its socket closes. Every key has
    /// `token` in its high 32 bits — the caller's way back from a ready
    /// key to this endpoint — and an id that is never reused in its low 32.
    ///
    /// # Errors
    ///
    /// Propagates the poller's registration failure (nothing stays
    /// registered then); `AlreadyExists` when called twice.
    fn register(&mut self, poller: &Arc<Poller>, token: u32) -> Result<(), NetError> {
        if self.registration.is_some() {
            return Err(std::io::Error::from(std::io::ErrorKind::AlreadyExists).into());
        }
        self.registration = Some((Arc::clone(poller), token));
        let added = poller
            .add(&self.listener, poll_key(token, LISTENER_ID))
            .and_then(|()| {
                self.conns
                    .iter()
                    .try_for_each(|conn| poller.add(&conn.stream, poll_key(token, conn.id)))
            });
        if let Err(e) = added {
            self.deregister();
            return Err(e.into());
        }
        Ok(())
    }

    /// Takes every socket off the poller (those never added just fail).
    fn deregister(&mut self) {
        if let Some((poller, _)) = self.registration.take() {
            let _ = poller.delete(&self.listener);
            for conn in &self.conns {
                let _ = poller.delete(&conn.stream);
            }
        }
    }

    /// Services the socket behind one ready `key`: the listener accepts
    /// every pending peer; a connection reads until the kernel has nothing
    /// more or `budget` frames went to `sink`. A key whose connection is
    /// gone (or that is not this endpoint's) does nothing. Never blocks;
    /// returns the frames delivered and what the key needs next.
    fn service(
        &mut self,
        key: u64,
        budget: usize,
        sink: &mut dyn FnMut(WireMessage),
    ) -> (usize, Serviced) {
        let token = self.registration.as_ref().map_or(0, |(_, token)| *token);
        // Truncation is the point: the low half of the key is the id.
        let id = key as u32;
        if key >> 32 != u64::from(token) {
            return (0, Serviced::Idle);
        }
        if id == LISTENER_ID {
            return (0, self.accept_pending());
        }
        let Ok(idx) = self.conns.binary_search_by_key(&id, |conn| conn.id) else {
            return (0, Serviced::Idle);
        };
        let (delivered, kept) = self.service_at(idx, budget, sink);
        if kept && self.conns[idx].decoder.pending_frames() > 0 {
            (delivered, Serviced::Backlog)
        } else {
            (delivered, Serviced::Idle)
        }
    }

    /// One scan pass: accepts pending peers, reads every connection until
    /// the kernel has nothing more, and feeds each completed frame to
    /// `sink`. Dead or corrupt connections are dropped. Never blocks;
    /// returns the number of frames delivered (0 means "nothing ready —
    /// come back later").
    pub fn poll(&mut self, sink: &mut dyn FnMut(WireMessage)) -> usize {
        self.poll_budget(usize::MAX, sink)
    }

    /// Like [`PollEndpoint::poll`], but stops reading once `budget` frames
    /// have been delivered in this pass; undelivered bytes stay in the
    /// kernel socket buffer (and the reassembly buffer) for the next pass.
    pub fn poll_budget(&mut self, budget: usize, sink: &mut dyn FnMut(WireMessage)) -> usize {
        self.accept_pending();
        let mut delivered = 0usize;
        let mut idx = 0usize;
        while idx < self.conns.len() && delivered < budget {
            let (n, kept) = self.service_at(idx, budget - delivered, sink);
            delivered += n;
            if kept {
                idx += 1;
            }
        }
        delivered
    }

    /// Accepts every pending peer. A hard `accept` error pauses the
    /// listener — off the poller, no `accept` calls — for
    /// [`ACCEPT_BACKOFF`]: with level-triggered readiness the peer that
    /// could not be accepted would otherwise wake the waiter at once,
    /// forever.
    fn accept_pending(&mut self) -> Serviced {
        if let Some(at) = self.accept_retry_at {
            if Instant::now() < at {
                return Serviced::RetryAt(at);
            }
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.adopt(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                    ) => {}
                Err(_) => return self.pause_accepts(),
            }
        }
        if self.accept_retry_at.take().is_some() {
            if let Some((poller, token)) = &self.registration {
                if poller
                    .add(&self.listener, poll_key(*token, LISTENER_ID))
                    .is_err()
                {
                    return self.pause_accepts();
                }
            }
        }
        Serviced::Idle
    }

    fn pause_accepts(&mut self) -> Serviced {
        if self.accept_retry_at.is_none() {
            if let Some((poller, _)) = &self.registration {
                let _ = poller.delete(&self.listener);
            }
        }
        let at = Instant::now() + ACCEPT_BACKOFF;
        self.accept_retry_at = Some(at);
        Serviced::RetryAt(at)
    }

    /// Takes ownership of an accepted peer. A peer that cannot be made
    /// non-blocking, numbered or registered is closed on the spot: nobody
    /// would ever service it.
    fn adopt(&mut self, stream: TcpStream) {
        let Some(next) = self.next_conn.checked_add(1) else {
            return;
        };
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let id = self.next_conn;
        if let Some((poller, token)) = &self.registration {
            if poller.add(&stream, poll_key(*token, id)).is_err() {
                return;
            }
        }
        self.next_conn = next;
        self.accepted += 1;
        self.conns.push(PollConn {
            id,
            stream,
            decoder: StreamDecoder::new(Arc::clone(&self.pool)),
        });
    }

    /// Services `conns[idx]`; a connection that is finished (EOF, corrupt
    /// stream, I/O error — each once its decoded frames are out) comes off
    /// the poller and is closed. Returns the frames delivered and whether
    /// the connection is still at `idx`.
    fn service_at(
        &mut self,
        idx: usize,
        budget: usize,
        sink: &mut dyn FnMut(WireMessage),
    ) -> (usize, bool) {
        let (delivered, keep) = self.conns[idx].drain(budget, sink);
        if !keep {
            let conn = self.conns.remove(idx);
            if let Some((poller, _)) = &self.registration {
                let _ = poller.delete(&conn.stream);
            }
        }
        (delivered, keep)
    }
}

impl PollConn {
    /// Hands queued frames to `sink` until `budget` is spent or none is
    /// left; returns how many.
    fn flush(&mut self, budget: usize, sink: &mut dyn FnMut(WireMessage)) -> usize {
        let mut delivered = 0usize;
        while delivered < budget {
            match self.decoder.next_frame() {
                Some(msg) => {
                    sink(msg);
                    delivered += 1;
                }
                None => break,
            }
        }
        delivered
    }

    /// Delivers up to `budget` frames: first those decoded but left over
    /// from a budget-capped call (they must drain even when the kernel has
    /// nothing new), then whatever can be read. Returns the frames
    /// delivered and whether the connection should be kept.
    fn drain(&mut self, budget: usize, sink: &mut dyn FnMut(WireMessage)) -> (usize, bool) {
        let mut delivered = self.flush(budget, sink);
        if self.decoder.is_corrupt() {
            // Good frames decoded before the poison point deliver first;
            // once the queue is dry the connection goes.
            return (delivered, self.decoder.pending_frames() > 0);
        }
        while delivered < budget {
            // Read straight into the decoder's pooled chunk: no
            // intermediate stack buffer, no copy into a reassembly Vec.
            let space = self.decoder.read_space();
            if space.is_empty() {
                break;
            }
            match self.stream.read(space) {
                Ok(0) => {
                    // Clean EOF: flush complete frames already decoded (up
                    // to the budget), then drop the connection — unless
                    // the budget cut the flush short, in which case it
                    // stays for the next call.
                    delivered += self.flush(budget - delivered, sink);
                    return (delivered, self.decoder.pending_frames() > 0);
                }
                Ok(n) => {
                    self.decoder.commit(n);
                    delivered += self.flush(budget - delivered, sink);
                    if self.decoder.is_corrupt() {
                        return (delivered, self.decoder.pending_frames() > 0);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return (delivered, false),
            }
        }
        // Nothing more to read, or the budget is spent: keep the connection
        // and whatever the kernel still holds for the next call.
        (delivered, true)
    }
}

impl Drop for PollEndpoint {
    fn drop(&mut self) {
        self.deregister();
    }
}

impl std::fmt::Debug for PollEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollEndpoint")
            .field("local_port", &self.local_port)
            .field("connections", &self.conns.len())
            .finish_non_exhaustive()
    }
}

/// Frames one socket may deliver per turn before the loop moves on to the
/// other ready sockets: one hot connection cannot pin the shared thread.
const TURN_BUDGET: usize = 256;

/// The readiness loop that drives [`PollEndpoint`]s: one [`Poller`], the
/// endpoints registered on it — each with a caller-chosen tag `T` that
/// comes back with its frames — and what a turn owes the next one.
///
/// One thread owns an `Ingress` and calls [`Ingress::turn`] in a loop;
/// everyone else holds the [`Ingress::waker`] and calls
/// [`Poller::notify`] to get that thread out of its wait (new endpoints to
/// [`Ingress::add`], shutdown). An idle loop costs nothing: the wait has no
/// timeout unless a turn left work behind.
pub struct Ingress<T> {
    poller: Arc<Poller>,
    /// Indexed by the token in the high half of each endpoint's keys.
    endpoints: Vec<(T, PollEndpoint)>,
    ready: Vec<u64>,
    /// Keys whose budget ran out with decoded frames still queued: no
    /// readiness event will announce those, so the next wait must not
    /// block and must service them again.
    backlog: Vec<u64>,
    /// Listeners paused after a hard `accept` error, with their retry
    /// time; normally empty.
    retries: Vec<(Instant, u64)>,
    budget: usize,
}

impl<T> Ingress<T> {
    /// Creates a loop with no endpoints.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the poller.
    pub fn new() -> Result<Self, NetError> {
        Ok(Ingress {
            poller: Arc::new(Poller::new()?),
            endpoints: Vec::new(),
            ready: Vec::new(),
            backlog: Vec::new(),
            retries: Vec::new(),
            budget: TURN_BUDGET,
        })
    }

    /// The handle other threads use to end a wait in [`Ingress::turn`].
    pub fn waker(&self) -> Arc<Poller> {
        Arc::clone(&self.poller)
    }

    /// Takes over `endpoint`: its listener and connections join the
    /// readiness set, and its frames reach the sink together with `tag`.
    ///
    /// # Errors
    ///
    /// Propagates a registration failure; the endpoint is closed then.
    pub fn add(&mut self, tag: T, mut endpoint: PollEndpoint) -> Result<(), NetError> {
        let token = u32::try_from(self.endpoints.len())
            .map_err(|_| std::io::Error::other("endpoint tokens exhausted"))?;
        endpoint.register(&self.poller, token)?;
        self.endpoints.push((tag, endpoint));
        Ok(())
    }

    /// The tags of every endpoint, in [`Ingress::add`] order.
    pub fn tags(&self) -> impl Iterator<Item = &T> {
        self.endpoints.iter().map(|(tag, _)| tag)
    }

    /// One turn: waits — not at all with a backlog, until the earliest
    /// paused listener's retry time, else until a socket is readable or the
    /// waker is notified — then services exactly the ready sockets, handing
    /// each completed frame and its endpoint's tag to `sink`. Returns the
    /// frames delivered (0 after a bare notify).
    ///
    /// # Errors
    ///
    /// Propagates a failed readiness wait; nothing was serviced.
    pub fn turn(&mut self, mut sink: impl FnMut(&T, WireMessage)) -> Result<usize, NetError> {
        let timeout = if self.backlog.is_empty() {
            let next_retry = self.retries.iter().map(|&(at, _)| at).min();
            next_retry.map(|at| at.saturating_duration_since(Instant::now()))
        } else {
            Some(Duration::ZERO)
        };
        self.ready.clear();
        self.poller.wait(&mut self.ready, timeout)?;
        self.ready.append(&mut self.backlog);
        if !self.retries.is_empty() {
            let now = Instant::now();
            let ready = &mut self.ready;
            self.retries.retain(|&(at, key)| {
                let due = at <= now;
                if due {
                    ready.push(key);
                }
                !due
            });
        }
        // A key can be both ready and carried over; run it once.
        self.ready.sort_unstable();
        self.ready.dedup();
        let mut delivered = 0;
        for &key in &self.ready {
            let Some((tag, endpoint)) = self.endpoints.get_mut((key >> 32) as usize) else {
                continue;
            };
            let (n, next) = endpoint.service(key, self.budget, &mut |msg| sink(tag, msg));
            delivered += n;
            match next {
                Serviced::Idle => {}
                Serviced::Backlog => self.backlog.push(key),
                Serviced::RetryAt(at) => self.retries.push((at, key)),
            }
        }
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};
    use std::io::Write;

    #[test]
    fn end_to_end_over_loopback() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        for i in 0..10u64 {
            sender
                .send(WireMessage::data(
                    "mod_b",
                    i,
                    i * 10,
                    Bytes::from(vec![i as u8; 100]),
                ))
                .unwrap();
        }
        for i in 0..10u64 {
            let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(msg.seq, i);
            assert_eq!(msg.payload.len(), 100);
        }
    }

    #[test]
    fn multiple_senders_merge() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let s1 = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        let s2 = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        s1.send(WireMessage::signal("x", 1)).unwrap();
        s2.send(WireMessage::signal("x", 2)).unwrap();
        let mut seqs = vec![
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
        ];
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn connect_to_dead_port_fails() {
        // Bind then drop to find a (very likely) free port.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        assert!(TcpSender::connect(&format!("127.0.0.1:{port}")).is_err());
    }

    #[test]
    fn large_payload_roundtrip() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        let payload = Bytes::from(vec![7u8; 512 * 1024]);
        sender
            .send(WireMessage::data("m", 0, 0, payload.clone()))
            .unwrap();
        let msg = listener.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg.payload, payload);
    }

    #[test]
    fn try_recv_empty_then_message() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        assert!(matches!(listener.try_recv(), Err(NetError::WouldBlock)));
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        sender.send(WireMessage::signal("s", 9)).unwrap();
        // Poll until the reader thread delivers.
        let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(msg.seq, 9);
    }

    #[test]
    fn shutdown_is_clean() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let port = listener.local_port();
        drop(listener); // must not hang
                        // Port becomes reusable shortly after.
        let _ = port;
    }

    #[test]
    fn mid_stream_listener_death_is_a_typed_error() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        sender.send(WireMessage::signal("x", 0)).unwrap();
        assert_eq!(
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
            0
        );
        // Kill the listener mid-stream: the reader thread exits and the
        // peer socket closes underneath the sender.
        drop(listener);
        // The kernel may accept a few writes into its buffer before the
        // reset surfaces; keep sending until the failure shows up.
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match sender.send(WireMessage::signal("x", 1)) {
                Ok(()) => {
                    assert!(Instant::now() < deadline, "disconnect never surfaced");
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, NetError::Disconnected),
            "expected Disconnected, got {err:?}"
        );
        // Once detected, subsequent sends fail fast.
        assert!(matches!(
            sender.send(WireMessage::signal("x", 2)),
            Err(NetError::Disconnected)
        ));
    }

    #[test]
    fn reconnect_policy_survives_mid_stream_disconnect() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_reconnect(ReconnectPolicy {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                buffer_limit: 64,
            });
        sender.send(WireMessage::signal("x", 0)).unwrap();
        assert_eq!(
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
            0
        );

        assert!(sender.inject_disconnect());
        // Sends during the outage buffer instead of erroring, and the
        // sender re-dials the (still listening) peer with backoff.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut seq = 1u64;
        let received = loop {
            sender.send(WireMessage::signal("x", seq)).unwrap();
            seq += 1;
            match listener.recv_timeout(Duration::from_millis(20)) {
                Ok(msg) => break msg,
                Err(_) => assert!(Instant::now() < deadline, "never reconnected"),
            }
        };
        // In-order delivery resumes from the buffered backlog.
        assert_eq!(received.seq, 1);
        assert!(sender.reconnects() >= 1);
        assert_eq!(sender.dropped_frames(), 0);
    }

    /// The two ways to drive a [`PollEndpoint`]; the `poll_*` tests below
    /// run once through each and must not be able to tell them apart.
    #[derive(Clone, Copy)]
    enum Driver {
        /// `poll_budget` over every socket, napping when nothing came.
        Scan,
        /// The production loop: [`Ingress::turn`].
        Readiness,
    }

    enum Driven {
        Scan(PollEndpoint),
        Readiness(Ingress<()>),
    }

    /// An [`Ingress`] over one endpoint, and that endpoint's address.
    fn ingress_of_one() -> (Ingress<()>, String) {
        let mut ingress = Ingress::new().unwrap();
        let ep = PollEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", ep.local_port());
        ingress.add((), ep).unwrap();
        (ingress, addr)
    }

    impl Driven {
        fn bind(driver: Driver) -> Self {
            match driver {
                Driver::Scan => Driven::Scan(PollEndpoint::bind("127.0.0.1:0").unwrap()),
                Driver::Readiness => Driven::Readiness(ingress_of_one().0),
            }
        }

        fn ep(&mut self) -> &mut PollEndpoint {
            match self {
                Driven::Scan(ep) => ep,
                Driven::Readiness(ingress) => &mut ingress.endpoints[0].1,
            }
        }

        fn addr(&mut self) -> String {
            format!("127.0.0.1:{}", self.ep().local_port())
        }

        /// One pass of the driver, at most `budget` frames per connection;
        /// naps a millisecond when there was nothing to do.
        fn pass(&mut self, budget: usize, sink: &mut dyn FnMut(WireMessage)) -> usize {
            let n = match self {
                Driven::Scan(ep) => ep.poll_budget(budget, sink),
                Driven::Readiness(ingress) => {
                    ingress.budget = budget;
                    // A turn waits for as long as nothing is readable; the
                    // callers check a deadline between passes, so end the
                    // wait the way another thread would.
                    ingress.poller.notify();
                    ingress.turn(|_, msg| sink(msg)).unwrap()
                }
            };
            if n == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            n
        }
    }

    /// Runs `$body(driver)` as two tests, `$name::scan` and
    /// `$name::readiness`.
    macro_rules! both_drivers {
        ($name:ident, $body:expr) => {
            mod $name {
                use super::*;

                #[test]
                fn scan() {
                    $body(Driver::Scan);
                }

                #[test]
                fn readiness() {
                    $body(Driver::Readiness);
                }
            }
        };
    }

    both_drivers!(poll_endpoint_merges_peers_without_threads, |driver| {
        let mut d = Driven::bind(driver);
        let s1 = TcpSender::connect_retry(&d.addr(), Duration::from_secs(2)).unwrap();
        let s2 = TcpSender::connect_retry(&d.addr(), Duration::from_secs(2)).unwrap();
        for i in 0..50u64 {
            s1.send(WireMessage::signal("a", i)).unwrap();
            s2.send(WireMessage::signal("b", i)).unwrap();
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 100 {
            assert!(Instant::now() < deadline, "only {} frames", got.len());
            d.pass(usize::MAX, &mut |msg| got.push(msg));
        }
        assert_eq!(d.ep().connections(), 2);
        assert_eq!(d.ep().accepted(), 2);
        // Per-peer ordering survives the merge.
        for chan in ["a", "b"] {
            let seqs: Vec<u64> = got
                .iter()
                .filter(|m| m.channel == chan)
                .map(|m| m.seq)
                .collect();
            assert_eq!(seqs, (0..50).collect::<Vec<_>>());
        }
    });

    both_drivers!(poll_budget_caps_one_pass_without_losing_frames, |driver| {
        let mut d = Driven::bind(driver);
        let sender = TcpSender::connect_retry(&d.addr(), Duration::from_secs(2)).unwrap();
        for i in 0..50u64 {
            sender.send(WireMessage::signal("x", i)).unwrap();
        }
        // Wait until a full budgeted pass actually hits the cap, proving
        // the kernel had more buffered than one pass was allowed to take.
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let n = d.pass(10, &mut |m| got.push(m));
            assert!(n <= 10, "budgeted pass delivered {n} frames");
            if n == 10 {
                break;
            }
            assert!(Instant::now() < deadline, "budget cap never reached");
        }
        assert_eq!(d.ep().connections(), 1, "capped pass must keep the peer");
        // The remainder drains across later passes with nothing lost and
        // per-peer ordering intact.
        while got.len() < 50 {
            assert!(Instant::now() < deadline, "only {} frames", got.len());
            d.pass(10, &mut |m| got.push(m));
        }
        let seqs: Vec<u64> = got.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
    });

    both_drivers!(poll_endpoint_reassembles_split_frames, |driver| {
        let mut d = Driven::bind(driver);
        let mut raw = TcpStream::connect(d.addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        let msg = WireMessage::data("chan", 42, 7, Bytes::from(vec![9u8; 300]));
        let mut framed = BytesMut::new();
        msg.encode_framed_into(&mut framed).unwrap();
        // Dribble the frame one byte per write. The first passes also
        // accept the peer, so every later byte is its own read.
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.ep().connections() == 0 {
            assert!(Instant::now() < deadline, "peer never accepted");
            d.pass(usize::MAX, &mut |m| got.push(m));
        }
        for byte in framed.iter() {
            raw.write_all(&[*byte]).unwrap();
            raw.flush().unwrap();
            d.pass(usize::MAX, &mut |m| got.push(m));
        }
        while got.is_empty() {
            assert!(Instant::now() < deadline, "frame never reassembled");
            d.pass(usize::MAX, &mut |m| got.push(m));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 42);
        assert_eq!(got[0].payload.len(), 300);
    });

    both_drivers!(poll_endpoint_drops_corrupt_connection, |driver| {
        let mut d = Driven::bind(driver);
        let mut raw = TcpStream::connect(d.addr()).unwrap();
        // An implausible length prefix (beyond MAX_FRAME_LEN).
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        raw.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            d.pass(usize::MAX, &mut |_| panic!("no frame should decode"));
            if d.ep().accepted() == 1 && d.ep().connections() == 0 {
                break; // accepted, then dropped as corrupt
            }
            assert!(Instant::now() < deadline, "corrupt peer never dropped");
        }
    });

    both_drivers!(poll_endpoint_handles_peer_disconnect, |driver| {
        let mut d = Driven::bind(driver);
        let sender = TcpSender::connect_retry(&d.addr(), Duration::from_secs(2)).unwrap();
        sender.send(WireMessage::signal("x", 1)).unwrap();
        drop(sender);
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.is_empty() || d.ep().connections() > 0 {
            assert!(Instant::now() < deadline, "disconnect never processed");
            d.pass(usize::MAX, &mut |m| got.push(m));
        }
        // The in-flight frame still arrived before the close was seen.
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 1);
    });

    both_drivers!(peer_hang_up_drops_exactly_that_connection, |driver| {
        let mut d = Driven::bind(driver);
        let leaver = TcpSender::connect_retry(&d.addr(), Duration::from_secs(2)).unwrap();
        let stayer = TcpSender::connect_retry(&d.addr(), Duration::from_secs(2)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.ep().connections() < 2 {
            assert!(Instant::now() < deadline, "peers never accepted");
            d.pass(usize::MAX, &mut |_| panic!("nothing was sent"));
        }
        // Accept order is connect order: the leaver holds the lower id.
        let (gone, kept) = (d.ep().conns[0].id, d.ep().conns[1].id);
        drop(leaver);
        while d.ep().connections() > 1 {
            assert!(Instant::now() < deadline, "hang-up never processed");
            d.pass(usize::MAX, &mut |_| panic!("nothing was sent"));
        }
        assert_eq!(d.ep().conns[0].id, kept);
        // An event still in flight for the dead key lands nowhere — above
        // all not on the connection that now sits in its slot.
        let token = d.ep().registration.as_ref().map_or(0, |(_, token)| *token);
        let stale = d.ep().service(poll_key(token, gone), usize::MAX, &mut |_| {
            panic!("a dead key delivered a frame")
        });
        assert_eq!(stale, (0, Serviced::Idle));
        assert_eq!(d.ep().connections(), 1);
        // The survivor still works, and a newcomer gets a fresh id.
        stayer.send(WireMessage::signal("x", 5)).unwrap();
        let _newcomer = TcpSender::connect_retry(&d.addr(), Duration::from_secs(2)).unwrap();
        let mut got = Vec::new();
        while got.is_empty() || d.ep().connections() < 2 {
            assert!(Instant::now() < deadline, "survivor went quiet");
            d.pass(usize::MAX, &mut |m| got.push(m));
        }
        assert_eq!(got[0].seq, 5);
        assert!(
            d.ep().conns[1].id > kept,
            "connection ids must never be reused"
        );
    });

    #[test]
    fn peer_connecting_while_the_waiter_is_blocked_is_served_promptly() {
        let (mut ingress, addr) = ingress_of_one();
        let waker = ingress.waker();
        let stop = Arc::new(AtomicBool::new(false));
        let (blocked_tx, blocked_rx) = std::sync::mpsc::channel();
        let (frame_tx, frame_rx) = std::sync::mpsc::channel();
        let io = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    blocked_tx.send(()).unwrap();
                    // No timeout: only the peer (or the final notify) can
                    // end this turn's wait.
                    ingress
                        .turn(|_, m| frame_tx.send((m.seq, Instant::now())).unwrap())
                        .unwrap();
                }
                ingress.endpoints[0].1.accepted()
            })
        };
        blocked_rx.recv().unwrap();
        let sent = Instant::now();
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2)).unwrap();
        sender.send(WireMessage::signal("x", 3)).unwrap();
        let (seq, at) = frame_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the blocked waiter never saw the new peer");
        assert_eq!(seq, 3);
        // Generous for a loaded CI box, yet far below any poll interval
        // that would have had to rescue a missed wake-up.
        assert!(
            at - sent < Duration::from_millis(250),
            "first frame took {:?}",
            at - sent
        );
        stop.store(true, Ordering::SeqCst);
        waker.notify();
        assert_eq!(io.join().unwrap(), 1);
    }

    /// What only real readiness can show: that nothing is reported for a
    /// socket with nothing to read. The portable `Poller` reports every
    /// key on every wait, so there these would fail by design.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod readiness_only {
        use super::*;

        #[test]
        fn budget_leftovers_are_delivered_with_no_new_bytes() {
            let (mut ingress, addr) = ingress_of_one();
            let mut raw = TcpStream::connect(addr).unwrap();
            let mut framed = BytesMut::new();
            for i in 0..25u64 {
                WireMessage::signal("x", i)
                    .encode_framed_into(&mut framed)
                    .unwrap();
            }
            raw.write_all(&framed).unwrap();
            let poller = ingress.waker();
            let ep = &mut ingress.endpoints[0].1;
            let deadline = Instant::now() + Duration::from_secs(5);
            while ep.connections() == 0 {
                assert!(Instant::now() < deadline, "peer never accepted");
                ep.accept_pending();
            }
            // Let the whole burst reach the socket, so one read takes it all
            // and everything after the first call is leftovers.
            let mut probe = vec![0u8; framed.len()];
            while ep.conns[0].stream.peek(&mut probe).unwrap_or(0) < framed.len() {
                assert!(Instant::now() < deadline, "burst never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
            let key = poll_key(0, ep.conns[0].id);
            let mut got = Vec::new();
            assert_eq!(
                ep.service(key, 10, &mut |m| got.push(m)),
                (10, Serviced::Backlog)
            );
            // The kernel is drained: readiness has nothing more to say...
            let mut ready = Vec::new();
            poller.wait(&mut ready, Some(Duration::ZERO)).unwrap();
            assert!(ready.is_empty(), "unexpected readiness: {ready:?}");
            // ...and only the backlog report gets the other 15 out.
            assert_eq!(
                ep.service(key, 10, &mut |m| got.push(m)),
                (10, Serviced::Backlog)
            );
            assert_eq!(
                ep.service(key, 10, &mut |m| got.push(m)),
                (5, Serviced::Idle)
            );
            let seqs: Vec<u64> = got.iter().map(|m| m.seq).collect();
            assert_eq!(seqs, (0..25).collect::<Vec<_>>());
        }

        #[test]
        fn hard_accept_error_pauses_the_listener_instead_of_spinning() {
            let (mut ingress, addr) = ingress_of_one();
            let poller = ingress.waker();
            let ep = &mut ingress.endpoints[0].1;
            // What `accept` failing with EMFILE leads to; the peer that could
            // not be accepted stays pending and keeps the listener readable.
            let Serviced::RetryAt(at) = ep.pause_accepts() else {
                panic!("a paused listener must name its retry time");
            };
            let _peer = TcpStream::connect(&addr).unwrap();
            let mut ready = Vec::new();
            poller
                .wait(&mut ready, Some(Duration::from_millis(5)))
                .unwrap();
            assert!(ready.is_empty(), "paused listener woke the waiter");
            // Early calls neither accept nor move the deadline.
            let listener = poll_key(0, LISTENER_ID);
            assert_eq!(
                ep.service(listener, 1, &mut |_| {}),
                (0, Serviced::RetryAt(at))
            );
            assert_eq!(ep.connections(), 0);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            assert_eq!(ep.service(listener, 1, &mut |_| {}), (0, Serviced::Idle));
            assert_eq!(ep.connections(), 1);
            // Back on the readiness set: the next peer is announced again.
            let _second = TcpStream::connect(&addr).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while !ready.contains(&listener) {
                assert!(Instant::now() < deadline, "listener never re-armed");
                poller
                    .wait(&mut ready, Some(Duration::from_millis(50)))
                    .unwrap();
            }
        }

        /// Pauses the one listener of `ingress` as a hard `accept` error
        /// does, and queues its key so the next turn hears the verdict from
        /// `service` — the way the loop learns it in production, where the
        /// failing `accept` happens inside a turn.
        fn pause_listener(ingress: &mut Ingress<()>) -> Instant {
            let Serviced::RetryAt(at) = ingress.endpoints[0].1.pause_accepts() else {
                panic!("a paused listener must name its retry time");
            };
            ingress.backlog.push(poll_key(0, LISTENER_ID));
            at
        }

        #[test]
        fn paused_listener_is_retried_by_the_turns_own_timeout() {
            let (mut ingress, addr) = ingress_of_one();
            let at = pause_listener(&mut ingress);
            // The kernel completes the handshake and holds the frame; the
            // listener is off the readiness set, so no event announces it.
            let sender = TcpSender::connect(&addr).unwrap();
            sender.send(WireMessage::signal("x", 11)).unwrap();
            // Turns run on their own thread so that a loop which never
            // comes back fails this test instead of hanging it.
            let (frame_tx, frame_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                // Nobody notifies: only the wait's own timeout can bring
                // the listener back, and only readiness the frame.
                let mut turns = 0;
                let mut got = None;
                while got.is_none() {
                    ingress.turn(|_, m| got = Some(m.seq)).unwrap();
                    turns += 1;
                }
                frame_tx.send((got, turns, Instant::now())).unwrap();
            });
            let (got, turns, when) = frame_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("the paused listener was never retried");
            assert_eq!(got, Some(11));
            assert!(when >= at, "the peer was accepted while paused");
            // Hear the pause, time out and accept, read the frame.
            assert!(turns <= 3, "{turns} turns: the loop spun through the pause");
        }

        #[test]
        fn listener_handle_paused_by_an_accept_error_still_merges_a_later_peer() {
            let (mut ingress, addr) = ingress_of_one();
            pause_listener(&mut ingress);
            let listener = TcpListenerHandle::spawn(ingress);
            let early = TcpSender::connect(&addr).unwrap();
            early.send(WireMessage::signal("x", 1)).unwrap();
            assert_eq!(
                listener.recv_timeout(Duration::from_secs(5)).unwrap().seq,
                1
            );
            let late = TcpSender::connect(&addr).unwrap();
            late.send(WireMessage::signal("x", 2)).unwrap();
            assert_eq!(
                listener.recv_timeout(Duration::from_secs(5)).unwrap().seq,
                2
            );
        }
    }

    #[test]
    fn reconnect_buffer_is_bounded_and_counts_drops() {
        // Connect to a real listener, then kill it so re-dials fail and the
        // buffer can only grow.
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_reconnect(ReconnectPolicy {
                base_backoff: Duration::from_millis(50),
                max_backoff: Duration::from_millis(50),
                buffer_limit: 8,
            });
        drop(listener);
        sender.inject_disconnect();
        for i in 0..20u64 {
            sender.send(WireMessage::signal("x", i)).unwrap();
        }
        assert!(
            sender.buffered() <= 8,
            "buffer grew to {}",
            sender.buffered()
        );
        assert!(sender.dropped_frames() >= 12 - 8);
    }
}
