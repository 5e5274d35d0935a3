//! TCP transport with length-prefixed framing.
//!
//! Cross-device pipeline edges use this transport: a [`TcpListenerHandle`]
//! accepts any number of peers and funnels their frames into one receiver
//! (matching ZeroMQ PULL semantics), and [`TcpSender`] is the connecting
//! side. Frames carry a `u32` length prefix; both directions run the
//! zero-copy wire path — receivers reassemble frames in pooled chunks via
//! [`StreamDecoder`] so payloads are shared slices of the read buffer, and
//! senders stage frames in a [`FrameBatch`] flushed with vectored writes so
//! a whole coalesced burst (see [`CoalescePolicy`]) is one syscall with no
//! payload copy.

use crate::error::NetError;
use crate::poller::Poller;
use crate::pool::BufferPool;
use crate::wire::{FrameBatch, StreamDecoder, WireMessage};
use crate::{MsgReceiver, MsgSender};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bound TCP endpoint: accepts peers in the background and exposes their
/// merged frame stream as a [`MsgReceiver`].
pub struct TcpListenerHandle {
    local_port: u16,
    rx: Receiver<WireMessage>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpListenerHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_port = listener.local_addr()?.port();
        let (tx, rx) = unbounded();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name(format!("vp-tcp-accept-{local_port}"))
            .spawn(move || accept_loop(listener, tx, flag))
            .expect("spawn accept thread");
        Ok(TcpListenerHandle {
            local_port,
            rx,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The port actually bound (useful with port 0).
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Requests shutdown of the accept loop (reader threads end when their
    /// peers disconnect).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Drop for TcpListenerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            // The accept loop polls every few ms; joining is quick.
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

fn accept_loop(listener: TcpListener, tx: Sender<WireMessage>, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let tx = tx.clone();
                let flag = Arc::clone(&shutdown);
                let _ = std::thread::Builder::new()
                    .name("vp-tcp-reader".into())
                    .spawn(move || reader_loop(stream, tx, flag));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn reader_loop(mut stream: TcpStream, tx: Sender<WireMessage>, shutdown: Arc<AtomicBool>) {
    // Blocking reads with a timeout so shutdown is honoured. Bytes land
    // directly in the decoder's pooled chunk; decoded payloads are
    // zero-copy slices of it.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut decoder = StreamDecoder::new(Arc::new(BufferPool::default()));
    while !shutdown.load(Ordering::SeqCst) {
        let space = decoder.read_space();
        if space.is_empty() {
            break; // corrupt stream
        }
        match stream.read(space) {
            Ok(0) => break, // clean EOF
            Ok(n) => {
                decoder.commit(n);
                while let Some(msg) = decoder.next_frame() {
                    if tx.send(msg).is_err() {
                        return; // receiver dropped
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break, // disconnect
        }
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

/// Small-message coalescing for a [`TcpSender`].
///
/// With a policy installed, messages are staged in the sender and flushed
/// as one vectored batch write when the pending bytes reach `max_bytes`
/// or the oldest staged message has waited `max_delay` (a background
/// flusher honours the deadline when sends pause). Trades a bounded,
/// sub-millisecond latency hit for one syscall per batch instead of one
/// per message — the classic Nagle trade, but with an explicit budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Flush once the staged batch reaches this many bytes.
    pub max_bytes: usize,
    /// Flush no later than this after the first message was staged.
    pub max_delay: Duration,
    /// Ceiling on I/O slices per vectored write (≈ 2 per frame: header +
    /// payload). Bounds per-syscall setup cost and stays well under the
    /// kernel's `IOV_MAX`.
    pub max_iovecs: usize,
}

impl Default for CoalescePolicy {
    fn default() -> Self {
        CoalescePolicy {
            max_bytes: 16 * 1024,
            max_delay: Duration::from_micros(500),
            max_iovecs: DEFAULT_MAX_IOVECS,
        }
    }
}

/// Default iovec ceiling per vectored write.
pub const DEFAULT_MAX_IOVECS: usize = 64;

/// Ceiling on a single batch write: bounds the bytes that can be torn or
/// resent around a mid-batch disconnect.
const FLUSH_CHUNK: usize = 64 * 1024;

/// Everything about the connection that changes over its lifetime.
struct SenderState {
    stream: Option<TcpStream>,
    /// Staged frames awaiting the wire: headers pre-encoded into pooled
    /// arenas, payloads shared — flushed with vectored writes.
    batch: FrameBatch,
    /// When the oldest staged message was queued (coalescing deadline).
    batch_since: Option<Instant>,
    next_attempt: Instant,
    backoff: Duration,
}

impl SenderState {
    fn new(stream: Option<TcpStream>) -> Self {
        SenderState {
            stream,
            batch: FrameBatch::new(),
            batch_since: None,
            next_attempt: Instant::now(),
            backoff: Duration::from_millis(5),
        }
    }

    fn clear_backlog(&mut self) {
        self.batch.clear();
        self.batch_since = None;
    }
}

/// State and counters shared with the background deadline flusher.
struct SenderShared {
    state: Mutex<SenderState>,
    dropped: AtomicU64,
    reconnects: AtomicU64,
    /// Vectored writes issued (each is one batch of frame segments).
    wire_writes: AtomicU64,
    /// Messages those writes carried.
    wire_messages: AtomicU64,
    /// Iovec ceiling per write (from [`CoalescePolicy::max_iovecs`]).
    max_iovecs: AtomicUsize,
}

impl SenderShared {
    /// Writes as much of the backlog as the connection accepts, in order,
    /// flushing vectored batches of up to [`FLUSH_CHUNK`] bytes. On a
    /// disconnect-flavoured error the stream is dropped and the unsent
    /// tail stays staged for the next attempt, with the front frame's
    /// write cursor rewound so the replacement connection sees it whole.
    fn flush(&self, state: &mut SenderState) -> Result<(), NetError> {
        let max_iovecs = self.max_iovecs.load(Ordering::Relaxed);
        let mut lost = false;
        while !state.batch.is_empty() {
            let Some(stream) = state.stream.as_mut() else {
                break;
            };
            match state.batch.write_some(stream, FLUSH_CHUNK, max_iovecs) {
                Ok((completed, _bytes)) => {
                    self.wire_writes.fetch_add(1, Ordering::Relaxed);
                    self.wire_messages
                        .fetch_add(completed as u64, Ordering::Relaxed);
                }
                Err(e) if is_disconnect(e.kind()) => {
                    lost = true;
                    break;
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        if state.batch.is_empty() {
            state.batch_since = None;
        }
        if lost {
            state.stream = None;
            state.batch.reset_cursor();
            state.next_attempt = Instant::now();
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
    shared: Arc<SenderShared>,
    peer: String,
    reconnect: Option<ReconnectPolicy>,
    coalesce: Option<CoalescePolicy>,
    stop_flusher: Arc<AtomicBool>,
    flusher: Option<std::thread::JoinHandle<()>>,
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
            shared: Arc::new(SenderShared {
                state: Mutex::new(SenderState::new(Some(stream))),
                dropped: AtomicU64::new(0),
                reconnects: AtomicU64::new(0),
                wire_writes: AtomicU64::new(0),
                wire_messages: AtomicU64::new(0),
                max_iovecs: AtomicUsize::new(DEFAULT_MAX_IOVECS),
            }),
            peer: addr.to_string(),
            reconnect: None,
            coalesce: None,
            stop_flusher: Arc::new(AtomicBool::new(false)),
            flusher: None,
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
        self.shared.state.lock().backoff = policy.base_backoff;
        self.reconnect = Some(policy);
        self
    }

    /// Installs a coalescing policy and starts the background deadline
    /// flusher; see [`CoalescePolicy`].
    #[must_use]
    pub fn with_coalescing(mut self, policy: CoalescePolicy) -> Self {
        self.coalesce = Some(policy);
        self.shared
            .max_iovecs
            .store(policy.max_iovecs.max(1), Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        let stop = Arc::clone(&self.stop_flusher);
        // Tick well inside the deadline so a staged batch overshoots
        // `max_delay` by at most ~half a tick.
        let tick = (policy.max_delay / 2).max(Duration::from_micros(100));
        let flusher = std::thread::Builder::new()
            .name("vp-tcp-flush".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    let mut state = shared.state.lock();
                    if state.stream.is_none() || state.batch.is_empty() {
                        continue;
                    }
                    let expired = state
                        .batch_since
                        .is_some_and(|since| since.elapsed() >= policy.max_delay);
                    if expired {
                        // Errors surface on the caller's next send.
                        let _ = shared.flush(&mut state);
                    }
                }
            })
            .expect("spawn tcp flusher thread");
        self.flusher = Some(flusher);
        self
    }

    /// The peer address.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Messages dropped because the reconnect buffer overflowed.
    pub fn dropped_frames(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Successful re-dials after a mid-stream disconnect.
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::Relaxed)
    }

    /// Messages currently buffered awaiting a flush or reconnect.
    pub fn buffered(&self) -> usize {
        self.shared.state.lock().batch.len()
    }

    /// Vectored stream writes issued so far (each carries one batch of
    /// one or more frames).
    pub fn wire_writes(&self) -> u64 {
        self.shared.wire_writes.load(Ordering::Relaxed)
    }

    /// Messages carried by those writes.
    pub fn wire_messages(&self) -> u64 {
        self.shared.wire_messages.load(Ordering::Relaxed)
    }

    /// Flushes any staged batch immediately (coalescing senders).
    ///
    /// # Errors
    ///
    /// Propagates encode and I/O errors, as [`MsgSender::send`] does.
    pub fn flush_now(&self) -> Result<(), NetError> {
        let mut state = self.shared.state.lock();
        self.shared.flush(&mut state)
    }

    /// Severs the current connection (chaos testing): the next send either
    /// reports [`NetError::Disconnected`] or, with a reconnect policy,
    /// buffers and re-dials. Returns whether a live connection was cut.
    pub fn inject_disconnect(&self) -> bool {
        let mut state = self.shared.state.lock();
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
                self.shared.reconnects.fetch_add(1, Ordering::Relaxed);
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
        self.stop_flusher.store(true, Ordering::SeqCst);
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
        // Best-effort: push any staged batch out before the socket closes.
        let mut state = self.shared.state.lock();
        let _ = self.shared.flush(&mut state);
    }
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("peer", &self.peer)
            .field("reconnect", &self.reconnect)
            .field("coalesce", &self.coalesce)
            .finish()
    }
}

impl MsgSender for TcpSender {
    fn send(&self, msg: WireMessage) -> Result<(), NetError> {
        let mut state = self.shared.state.lock();
        // Without a reconnect policy a dead connection fails fast with a
        // typed error so callers can react.
        if self.reconnect.is_none() && state.stream.is_none() {
            return Err(NetError::Disconnected);
        }
        if state.batch.is_empty() {
            state.batch_since = Some(Instant::now());
        }
        // Staging encodes the header now, so an unencodable message fails
        // here — at its own call site — and the batch is untouched.
        state.batch.stage(&msg)?;
        if let Some(policy) = &self.reconnect {
            if state.batch.len() > policy.buffer_limit && state.batch.drop_front().is_some() {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
            self.try_redial(&mut state, policy);
        }
        // Coalescing: hold the batch back while it is both small and
        // young; the background flusher honours the deadline.
        if let Some(policy) = &self.coalesce {
            if state.stream.is_some()
                && state.batch.pending_bytes() < policy.max_bytes
                && state
                    .batch_since
                    .is_some_and(|since| since.elapsed() < policy.max_delay)
            {
                return Ok(());
            }
        }
        let result = self.shared.flush(&mut state);
        if self.reconnect.is_none() && state.stream.is_none() {
            // The write died mid-stream: report it and do not replay the
            // backlog into a future connection nobody asked for.
            state.clear_backlog();
            return Err(NetError::Disconnected);
        }
        result
    }
}

/// A non-blocking poll-mode TCP ingress: the same wire format as
/// [`TcpListenerHandle`], but with *zero* background threads. One caller —
/// typically a reactor I/O thread multiplexing many endpoints — drives it,
/// in one of two ways that share every line of the socket handling:
///
/// * **Scan:** [`PollEndpoint::poll`] accepts pending peers and services
///   every connection. The caller decides when to come back.
/// * **Readiness:** after [`PollEndpoint::register`], a [`Poller`] reports
///   which of the endpoint's sockets have something to read, and the
///   caller hands each reported key to [`PollEndpoint::service`]. An idle
///   endpoint then costs nothing at all.
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

/// What the driver owes a key after [`PollEndpoint::service`] ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serviced {
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
    pub fn register(&mut self, poller: &Arc<Poller>, token: u32) -> Result<(), NetError> {
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
    pub fn service(
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

    #[test]
    fn coalescing_batches_small_messages_into_fewer_writes() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_coalescing(CoalescePolicy {
                max_bytes: 4 * 1024,
                max_delay: Duration::from_millis(5),
                ..CoalescePolicy::default()
            });
        for i in 0..100u64 {
            sender.send(WireMessage::signal("x", i)).unwrap();
        }
        // Everything arrives, in order.
        for i in 0..100u64 {
            let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(msg.seq, i);
        }
        assert_eq!(sender.wire_messages(), 100);
        assert!(
            sender.wire_writes() < 100,
            "100 small messages took {} writes — nothing coalesced",
            sender.wire_writes()
        );
    }

    #[test]
    fn coalescing_deadline_flushes_a_lone_message() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_coalescing(CoalescePolicy {
                max_bytes: 1024 * 1024,
                max_delay: Duration::from_millis(2),
                ..CoalescePolicy::default()
            });
        // One message, far below max_bytes: only the deadline can flush it.
        sender.send(WireMessage::signal("x", 7)).unwrap();
        let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(msg.seq, 7);
    }

    #[test]
    fn coalescing_oversized_batch_flushes_inline() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_coalescing(CoalescePolicy {
                max_bytes: 256,
                // A deadline long enough that only the size trigger can
                // explain a prompt flush.
                max_delay: Duration::from_secs(30),
                ..CoalescePolicy::default()
            });
        let payload = Bytes::from(vec![3u8; 512]);
        sender.send(WireMessage::data("m", 1, 0, payload)).unwrap();
        let msg = listener.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(msg.seq, 1);
        assert_eq!(msg.payload.len(), 512);
    }

    #[test]
    fn coalescing_composes_with_reconnect() {
        let listener = TcpListenerHandle::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", listener.local_port());
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
            .unwrap()
            .with_reconnect(ReconnectPolicy {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(20),
                buffer_limit: 256,
            })
            .with_coalescing(CoalescePolicy {
                max_bytes: 4 * 1024,
                max_delay: Duration::from_millis(2),
                ..CoalescePolicy::default()
            });
        sender.send(WireMessage::signal("x", 0)).unwrap();
        assert_eq!(
            listener.recv_timeout(Duration::from_secs(2)).unwrap().seq,
            0
        );
        assert!(sender.inject_disconnect());
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
        assert_eq!(received.seq, 1, "backlog must replay in order");
        assert!(sender.reconnects() >= 1);
        assert_eq!(sender.dropped_frames(), 0);
    }

    /// The two ways to drive a [`PollEndpoint`]; the `poll_*` tests below
    /// run once through each and must not be able to tell them apart.
    #[derive(Clone, Copy)]
    enum Driver {
        /// `poll_budget` over every socket, napping when nothing came.
        Scan,
        /// `Poller::wait`, then `service` for exactly the ready keys.
        Readiness,
    }

    struct Driven {
        ep: PollEndpoint,
        poller: Option<Arc<Poller>>,
        /// Keys `service` left with a backlog.
        carry: Vec<u64>,
    }

    impl Driven {
        fn bind(driver: Driver) -> Self {
            let mut ep = PollEndpoint::bind("127.0.0.1:0").unwrap();
            let poller = match driver {
                Driver::Scan => None,
                Driver::Readiness => {
                    let poller = Arc::new(Poller::new().unwrap());
                    ep.register(&poller, 7).unwrap();
                    Some(poller)
                }
            };
            Driven {
                ep,
                poller,
                carry: Vec::new(),
            }
        }

        fn addr(&self) -> String {
            format!("127.0.0.1:{}", self.ep.local_port())
        }

        /// One pass of the driver, at most `budget` frames per connection;
        /// waits up to a few milliseconds when there is nothing to do.
        fn pass(&mut self, budget: usize, sink: &mut dyn FnMut(WireMessage)) -> usize {
            let Some(poller) = &self.poller else {
                let n = self.ep.poll_budget(budget, sink);
                if n == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return n;
            };
            let timeout = if self.carry.is_empty() {
                Duration::from_millis(5)
            } else {
                Duration::ZERO
            };
            let mut ready = std::mem::take(&mut self.carry);
            poller.wait(&mut ready, Some(timeout)).unwrap();
            ready.sort_unstable();
            ready.dedup();
            let mut delivered = 0;
            for key in ready {
                let (n, next) = self.ep.service(key, budget, sink);
                delivered += n;
                if next == Serviced::Backlog {
                    self.carry.push(key);
                }
            }
            delivered
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
        assert_eq!(d.ep.connections(), 2);
        assert_eq!(d.ep.accepted(), 2);
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
        assert_eq!(d.ep.connections(), 1, "capped pass must keep the peer");
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
        while d.ep.connections() == 0 {
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
            if d.ep.accepted() == 1 && d.ep.connections() == 0 {
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
        while got.is_empty() || d.ep.connections() > 0 {
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
        while d.ep.connections() < 2 {
            assert!(Instant::now() < deadline, "peers never accepted");
            d.pass(usize::MAX, &mut |_| panic!("nothing was sent"));
        }
        // Accept order is connect order: the leaver holds the lower id.
        let (gone, kept) = (d.ep.conns[0].id, d.ep.conns[1].id);
        drop(leaver);
        while d.ep.connections() > 1 {
            assert!(Instant::now() < deadline, "hang-up never processed");
            d.pass(usize::MAX, &mut |_| panic!("nothing was sent"));
        }
        assert_eq!(d.ep.conns[0].id, kept);
        // An event still in flight for the dead key lands nowhere — above
        // all not on the connection that now sits in its slot.
        let token = d.ep.registration.as_ref().map_or(0, |(_, token)| *token);
        let stale = d.ep.service(poll_key(token, gone), usize::MAX, &mut |_| {
            panic!("a dead key delivered a frame")
        });
        assert_eq!(stale, (0, Serviced::Idle));
        assert_eq!(d.ep.connections(), 1);
        // The survivor still works, and a newcomer gets a fresh id.
        stayer.send(WireMessage::signal("x", 5)).unwrap();
        let _newcomer = TcpSender::connect_retry(&d.addr(), Duration::from_secs(2)).unwrap();
        let mut got = Vec::new();
        while got.is_empty() || d.ep.connections() < 2 {
            assert!(Instant::now() < deadline, "survivor went quiet");
            d.pass(usize::MAX, &mut |m| got.push(m));
        }
        assert_eq!(got[0].seq, 5);
        assert!(
            d.ep.conns[1].id > kept,
            "connection ids must never be reused"
        );
    });

    #[test]
    fn peer_connecting_while_the_waiter_is_blocked_is_served_promptly() {
        let mut ep = PollEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", ep.local_port());
        let poller = Arc::new(Poller::new().unwrap());
        ep.register(&poller, 0).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let (blocked_tx, blocked_rx) = std::sync::mpsc::channel();
        let (frame_tx, frame_rx) = std::sync::mpsc::channel();
        let io = {
            let (poller, stop) = (Arc::clone(&poller), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut ready = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    blocked_tx.send(()).unwrap();
                    // No timeout: only the peer (or the final notify) can
                    // end this wait.
                    poller.wait(&mut ready, None).unwrap();
                    for key in ready.drain(..) {
                        ep.service(key, usize::MAX, &mut |m| {
                            frame_tx.send((m.seq, Instant::now())).unwrap();
                        });
                    }
                }
                ep.accepted()
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
        poller.notify();
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
            let mut d = Driven::bind(Driver::Readiness);
            let mut raw = TcpStream::connect(d.addr()).unwrap();
            let mut framed = BytesMut::new();
            for i in 0..25u64 {
                WireMessage::signal("x", i)
                    .encode_framed_into(&mut framed)
                    .unwrap();
            }
            raw.write_all(&framed).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while d.ep.connections() == 0 {
                assert!(Instant::now() < deadline, "peer never accepted");
                d.ep.accept_pending();
            }
            // Let the whole burst reach the socket, so one read takes it all
            // and everything after the first call is leftovers.
            let mut probe = vec![0u8; framed.len()];
            while d.ep.conns[0].stream.peek(&mut probe).unwrap_or(0) < framed.len() {
                assert!(Instant::now() < deadline, "burst never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
            let key = poll_key(7, d.ep.conns[0].id);
            let mut got = Vec::new();
            assert_eq!(
                d.ep.service(key, 10, &mut |m| got.push(m)),
                (10, Serviced::Backlog)
            );
            // The kernel is drained: readiness has nothing more to say...
            let mut ready = Vec::new();
            d.poller
                .as_ref()
                .unwrap()
                .wait(&mut ready, Some(Duration::ZERO))
                .unwrap();
            assert!(ready.is_empty(), "unexpected readiness: {ready:?}");
            // ...and only the backlog report gets the other 15 out.
            assert_eq!(
                d.ep.service(key, 10, &mut |m| got.push(m)),
                (10, Serviced::Backlog)
            );
            assert_eq!(
                d.ep.service(key, 10, &mut |m| got.push(m)),
                (5, Serviced::Idle)
            );
            let seqs: Vec<u64> = got.iter().map(|m| m.seq).collect();
            assert_eq!(seqs, (0..25).collect::<Vec<_>>());
        }

        #[test]
        fn hard_accept_error_pauses_the_listener_instead_of_spinning() {
            let mut d = Driven::bind(Driver::Readiness);
            let poller = Arc::clone(d.poller.as_ref().unwrap());
            // What `accept` failing with EMFILE leads to; the peer that could
            // not be accepted stays pending and keeps the listener readable.
            let Serviced::RetryAt(at) = d.ep.pause_accepts() else {
                panic!("a paused listener must name its retry time");
            };
            let _peer = TcpStream::connect(d.addr()).unwrap();
            let mut ready = Vec::new();
            poller
                .wait(&mut ready, Some(Duration::from_millis(5)))
                .unwrap();
            assert!(ready.is_empty(), "paused listener woke the waiter");
            // Early calls neither accept nor move the deadline.
            let listener = poll_key(7, LISTENER_ID);
            assert_eq!(
                d.ep.service(listener, 1, &mut |_| {}),
                (0, Serviced::RetryAt(at))
            );
            assert_eq!(d.ep.connections(), 0);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            assert_eq!(d.ep.service(listener, 1, &mut |_| {}), (0, Serviced::Idle));
            assert_eq!(d.ep.connections(), 1);
            // Back on the readiness set: the next peer is announced again.
            let _second = TcpStream::connect(d.addr()).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while !ready.contains(&listener) {
                assert!(Instant::now() < deadline, "listener never re-armed");
                poller
                    .wait(&mut ready, Some(Duration::from_millis(50)))
                    .unwrap();
            }
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
