use crate::error::NetError;
use crate::pool::BufferPool;
use crate::telemetry;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::VecDeque;
use std::io::{IoSlice, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Maximum encoded frame length accepted by the stream decoder (16 MiB —
/// far above any encoded video frame, defensive against corrupt prefixes).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Maximum channel-name length on the wire.
pub const MAX_CHANNEL_LEN: usize = 255;

/// The kind of a wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MessageKind {
    /// Pipeline data flowing along a DAG edge (`call_module`).
    Data = 0,
    /// A service request (`call_service`).
    Request = 1,
    /// A service response.
    Response = 2,
    /// Flow-control signal (the final module's "send the next frame").
    Signal = 3,
    /// Runtime control (deploy, shutdown, telemetry).
    Control = 4,
}

impl MessageKind {
    /// Decodes the wire byte.
    pub fn from_u8(v: u8) -> Option<MessageKind> {
        match v {
            0 => Some(MessageKind::Data),
            1 => Some(MessageKind::Request),
            2 => Some(MessageKind::Response),
            3 => Some(MessageKind::Signal),
            4 => Some(MessageKind::Control),
            _ => None,
        }
    }
}

/// A message on the wire.
///
/// `channel` addresses the destination (module name, service name, or pub/sub
/// topic); `reply_to` carries the requester's inbox for REQ/REP; `corr_id`
/// correlates a response to its request; `seq`/`timestamp_ns` propagate the
/// frame identity end-to-end for latency accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMessage {
    /// Message kind.
    pub kind: MessageKind,
    /// Destination channel (module, service or topic name).
    pub channel: String,
    /// Reply inbox for requests (empty when unused).
    pub reply_to: String,
    /// Request/response correlation id (0 when unused).
    pub corr_id: u64,
    /// Source frame sequence number.
    pub seq: u64,
    /// Source frame capture timestamp (nanoseconds).
    pub timestamp_ns: u64,
    /// Pipeline failover epoch the message belongs to. Each confirmed
    /// device-loss failover bumps the epoch; receivers fence messages from
    /// dead epochs so redelivered frames cannot double-count.
    pub epoch: u64,
    /// Opaque payload bytes (the core crate defines the payload codec).
    pub payload: Bytes,
}

impl WireMessage {
    /// Creates a data message for `channel`.
    pub fn data(channel: impl Into<String>, seq: u64, timestamp_ns: u64, payload: Bytes) -> Self {
        WireMessage {
            kind: MessageKind::Data,
            channel: channel.into(),
            reply_to: String::new(),
            corr_id: 0,
            seq,
            timestamp_ns,
            epoch: 0,
            payload,
        }
    }

    /// Creates a request to `service` with a reply inbox and correlation id.
    pub fn request(
        service: impl Into<String>,
        reply_to: impl Into<String>,
        corr_id: u64,
        payload: Bytes,
    ) -> Self {
        WireMessage {
            kind: MessageKind::Request,
            channel: service.into(),
            reply_to: reply_to.into(),
            corr_id,
            seq: 0,
            timestamp_ns: 0,
            epoch: 0,
            payload,
        }
    }

    /// Creates the response to `request`.
    pub fn response_to(request: &WireMessage, payload: Bytes) -> Self {
        WireMessage {
            kind: MessageKind::Response,
            channel: request.reply_to.clone(),
            reply_to: String::new(),
            corr_id: request.corr_id,
            seq: request.seq,
            timestamp_ns: request.timestamp_ns,
            epoch: request.epoch,
            payload,
        }
    }

    /// Creates a flow-control signal addressed to `channel`.
    pub fn signal(channel: impl Into<String>, seq: u64) -> Self {
        WireMessage {
            kind: MessageKind::Signal,
            channel: channel.into(),
            reply_to: String::new(),
            corr_id: 0,
            seq,
            timestamp_ns: 0,
            epoch: 0,
            payload: Bytes::new(),
        }
    }

    /// Returns the message stamped with a failover epoch.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Encoded size in bytes (exact).
    pub fn encoded_len(&self) -> usize {
        // kind(1) + channel(1+len) + reply_to(1+len) + corr(8) + seq(8)
        // + ts(8) + epoch(8) + payload(4+len)
        1 + 1
            + self.channel.len()
            + 1
            + self.reply_to.len()
            + 8
            + 8
            + 8
            + 8
            + 4
            + self.payload.len()
    }

    /// Encodes into a fresh buffer (no length prefix).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFrame`] when a channel name exceeds
    /// [`MAX_CHANNEL_LEN`].
    pub fn encode(&self) -> Result<Bytes, NetError> {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.put_header(&mut buf)?;
        buf.put_slice(&self.payload);
        Ok(buf.freeze())
    }

    /// Appends every field up to and including the payload length — the
    /// message body minus the payload bytes. The one place that spells out
    /// the field order and checks the channel lengths; `buf` is untouched on
    /// error.
    fn put_header(&self, buf: &mut BytesMut) -> Result<(), NetError> {
        if self.channel.len() > MAX_CHANNEL_LEN {
            return Err(NetError::BadFrame("channel name too long"));
        }
        if self.reply_to.len() > MAX_CHANNEL_LEN {
            return Err(NetError::BadFrame("reply_to name too long"));
        }
        buf.put_u8(self.kind as u8);
        buf.put_u8(self.channel.len() as u8);
        buf.put_slice(self.channel.as_bytes());
        buf.put_u8(self.reply_to.len() as u8);
        buf.put_slice(self.reply_to.as_bytes());
        buf.put_u64(self.corr_id);
        buf.put_u64(self.seq);
        buf.put_u64(self.timestamp_ns);
        buf.put_u64(self.epoch);
        buf.put_u32(self.payload.len() as u32);
        Ok(())
    }

    /// Appends the *framed* encoding — u32 length prefix plus body — to
    /// `buf`, so several messages coalesce into one contiguous buffer and a
    /// single stream write.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFrame`] for oversized channel names and
    /// [`NetError::FrameTooLarge`] when the body exceeds [`MAX_FRAME_LEN`];
    /// `buf` is untouched on error.
    pub fn encode_framed_into(&self, buf: &mut BytesMut) -> Result<(), NetError> {
        buf.reserve(4 + self.encoded_len());
        self.encode_framed_header_into(buf)?;
        buf.put_slice(&self.payload);
        Ok(())
    }

    /// Appends only the *framed header* — the u32 length prefix plus every
    /// field up to and including the payload length, but **not** the
    /// payload bytes — to `buf`. Concatenating the appended bytes with the
    /// message's payload reproduces [`WireMessage::encode_framed_into`]
    /// exactly; this is the split the vectored send path uses to put an
    /// already-shared payload on the wire without copying it.
    ///
    /// # Errors
    ///
    /// Same contract as [`WireMessage::encode_framed_into`]; `buf` is
    /// untouched on error.
    fn encode_framed_header_into(&self, buf: &mut BytesMut) -> Result<(), NetError> {
        let body_len = self.encoded_len();
        if body_len > MAX_FRAME_LEN {
            return Err(NetError::FrameTooLarge { len: body_len });
        }
        let start = buf.len();
        buf.put_u32(body_len as u32);
        // Roll the prefix back so a failed append leaves no torn framing
        // in a coalescing buffer.
        self.put_header(buf).inspect_err(|_| buf.truncate(start))
    }

    /// Decodes a frame previously produced by [`WireMessage::encode`],
    /// copying the payload out of `buf`.
    ///
    /// Prefer [`WireMessage::decode_shared`] on the hot receive path: it
    /// borrows the payload from a shared read chunk instead of copying.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFrame`] on any truncation, bad kind byte, bad
    /// UTF-8 channel, or trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<WireMessage, NetError> {
        let (fields, payload_range) = decode_fields(buf)?;
        telemetry::RX_PAYLOAD_COPIES.fetch_add(1, Ordering::Relaxed);
        let payload = Bytes::copy_from_slice(&buf[payload_range]);
        Ok(fields.into_message(payload))
    }

    /// Decodes a frame whose bytes live in a shared buffer, returning a
    /// message whose payload is a zero-copy slice of `frame` — the frame
    /// simply bumps the chunk's refcount and the chunk stays alive until
    /// every payload decoded from it drops.
    ///
    /// # Errors
    ///
    /// Same contract as [`WireMessage::decode`].
    pub fn decode_shared(frame: &Bytes) -> Result<WireMessage, NetError> {
        let (fields, payload_range) = decode_fields(frame)?;
        telemetry::RX_ZERO_COPY_FRAMES.fetch_add(1, Ordering::Relaxed);
        let payload = frame.slice(payload_range);
        Ok(fields.into_message(payload))
    }
}

/// Everything in a frame except the payload bytes.
struct DecodedFields {
    kind: MessageKind,
    channel: String,
    reply_to: String,
    corr_id: u64,
    seq: u64,
    timestamp_ns: u64,
    epoch: u64,
}

impl DecodedFields {
    fn into_message(self, payload: Bytes) -> WireMessage {
        WireMessage {
            kind: self.kind,
            channel: self.channel,
            reply_to: self.reply_to,
            corr_id: self.corr_id,
            seq: self.seq,
            timestamp_ns: self.timestamp_ns,
            epoch: self.epoch,
            payload,
        }
    }
}

/// Parses every frame field, returning the payload's byte range within
/// `full` instead of materialising it — the caller decides whether the
/// payload is copied ([`WireMessage::decode`]) or borrowed
/// ([`WireMessage::decode_shared`]).
fn decode_fields(full: &[u8]) -> Result<(DecodedFields, std::ops::Range<usize>), NetError> {
    fn need(buf: &[u8], n: usize) -> Result<(), NetError> {
        if buf.remaining() < n {
            Err(NetError::BadFrame("truncated frame"))
        } else {
            Ok(())
        }
    }
    let mut buf = full;
    need(buf, 2)?;
    let kind =
        MessageKind::from_u8(buf.get_u8()).ok_or(NetError::BadFrame("unknown message kind"))?;
    let chan_len = buf.get_u8() as usize;
    need(buf, chan_len)?;
    let channel = std::str::from_utf8(&buf[..chan_len])
        .map_err(|_| NetError::BadFrame("channel not utf-8"))?
        .to_string();
    buf.advance(chan_len);
    need(buf, 1)?;
    let reply_len = buf.get_u8() as usize;
    need(buf, reply_len)?;
    let reply_to = std::str::from_utf8(&buf[..reply_len])
        .map_err(|_| NetError::BadFrame("reply_to not utf-8"))?
        .to_string();
    buf.advance(reply_len);
    need(buf, 8 + 8 + 8 + 8 + 4)?;
    let corr_id = buf.get_u64();
    let seq = buf.get_u64();
    let timestamp_ns = buf.get_u64();
    let epoch = buf.get_u64();
    let payload_len = buf.get_u32() as usize;
    if payload_len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge { len: payload_len });
    }
    need(buf, payload_len)?;
    let payload_start = full.len() - buf.remaining();
    buf.advance(payload_len);
    if buf.has_remaining() {
        return Err(NetError::BadFrame("trailing bytes"));
    }
    Ok((
        DecodedFields {
            kind,
            channel,
            reply_to,
            corr_id,
            seq,
            timestamp_ns,
            epoch,
        },
        payload_start..payload_start + payload_len,
    ))
}

/// Incremental, pooled frame decoder: the zero-copy receive path.
///
/// Bytes land directly in a pooled chunk (via [`StreamDecoder::read_space`]
/// / [`StreamDecoder::commit`], or [`StreamDecoder::feed`] when the caller
/// already owns the bytes). Whenever committed bytes complete one or more
/// frames, the chunk is *rotated*: a fresh pooled chunk takes over (the
/// trailing partial frame — usually a handful of bytes — is the only thing
/// copied), the filled chunk is frozen in O(1), and every completed frame
/// decodes as a zero-copy slice of the frozen chunk via
/// [`WireMessage::decode_shared`]. The frozen chunk is registered back with
/// the pool and is reclaimed, allocation intact, the moment the last
/// decoded payload drops.
///
/// Defensive properties, checked *before* buffering:
/// * a length prefix beyond [`MAX_FRAME_LEN`] poisons the stream
///   immediately — no body byte is ever buffered for it;
/// * a frame larger than the pooled chunk grows the buffer to exactly the
///   framed length (header-derived), so a slow-trickle peer holds at most
///   one frame's worth of memory, not an ever-growing backlog.
///
/// Decoded frames queue internally; callers drain them with
/// [`StreamDecoder::next_frame`], which lets a budgeted poll loop stop
/// mid-batch without losing frames.
pub struct StreamDecoder {
    pool: Arc<BufferPool>,
    /// Read window: `len()` is the writable size, `[0..filled]` is valid
    /// data, and the window always starts at the first unparsed byte.
    buf: BytesMut,
    filled: usize,
    pending: VecDeque<WireMessage>,
    /// Scratch list of completed frame body ranges (reused per commit).
    ranges: Vec<std::ops::Range<usize>>,
    corrupt: bool,
}

impl StreamDecoder {
    /// Creates a decoder drawing chunks from `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        StreamDecoder {
            pool,
            buf: BytesMut::new(),
            filled: 0,
            pending: VecDeque::new(),
            ranges: Vec::new(),
            corrupt: false,
        }
    }

    /// Writable space to read into; call [`StreamDecoder::commit`] with the
    /// number of bytes actually written. Returns an empty slice for a
    /// poisoned stream. Grows to exactly the framed length when the buffer
    /// is full mid-frame (never speculatively).
    pub fn read_space(&mut self) -> &mut [u8] {
        if self.corrupt {
            return &mut [];
        }
        if self.buf.is_empty() {
            self.buf = self.pool.get_scratch();
        }
        if self.filled == self.buf.len() {
            // The window is full with one partial frame (rotation drains
            // complete ones): the header is present — windows are far
            // larger than 4 bytes — so reserve exactly the framed length.
            let len =
                u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            debug_assert!(
                len <= MAX_FRAME_LEN,
                "oversized prefix must poison in commit"
            );
            let need = 4 + len;
            let mut bigger = BytesMut::with_capacity(need);
            bigger.resize(need, 0);
            bigger[..self.filled].copy_from_slice(&self.buf[..self.filled]);
            let old = std::mem::replace(&mut self.buf, bigger);
            self.pool.put(old);
        }
        &mut self.buf[self.filled..]
    }

    /// Marks `n` bytes of [`StreamDecoder::read_space`] as filled and
    /// decodes every frame they complete into the pending queue.
    pub fn commit(&mut self, n: usize) {
        assert!(
            self.filled + n <= self.buf.len(),
            "commit beyond read_space"
        );
        if self.corrupt {
            return;
        }
        self.filled += n;
        // Collect completed frame body ranges at the front of the window.
        self.ranges.clear();
        let mut consumed = 0usize;
        while self.filled - consumed >= 4 {
            let len = u32::from_be_bytes([
                self.buf[consumed],
                self.buf[consumed + 1],
                self.buf[consumed + 2],
                self.buf[consumed + 3],
            ]) as usize;
            if len > MAX_FRAME_LEN {
                // Poison before buffering a single body byte; frames
                // completed earlier in this commit still deliver below.
                self.corrupt = true;
                break;
            }
            if self.filled - consumed < 4 + len {
                break;
            }
            self.ranges.push(consumed + 4..consumed + 4 + len);
            consumed += 4 + len;
        }
        if self.ranges.is_empty() {
            return;
        }
        // Rotate: carry the partial tail into a fresh chunk, freeze the
        // filled chunk in place, and slice the completed frames out of it.
        let tail = self.filled - consumed;
        let mut next = self.pool.get_scratch();
        if next.len() < tail {
            next.resize(tail, 0);
        }
        next[..tail].copy_from_slice(&self.buf[consumed..self.filled]);
        let old = std::mem::replace(&mut self.buf, next);
        self.filled = tail;
        telemetry::RX_CHUNK_ROTATIONS.fetch_add(1, Ordering::Relaxed);
        telemetry::RX_TAIL_COPY_BYTES.fetch_add(tail as u64, Ordering::Relaxed);
        let frozen = old.freeze();
        for range in self.ranges.drain(..) {
            match WireMessage::decode_shared(&frozen.slice(range)) {
                Ok(msg) => self.pending.push_back(msg),
                Err(_) => {
                    self.corrupt = true;
                    break;
                }
            }
        }
        self.pool.recycle(frozen);
    }

    /// Copies `data` in as if it had been read into
    /// [`StreamDecoder::read_space`] — the convenience path for blocking
    /// readers and tests that already hold the bytes.
    pub fn feed(&mut self, mut data: &[u8]) {
        while !data.is_empty() && !self.corrupt {
            let space = self.read_space();
            let n = space.len().min(data.len());
            if n == 0 {
                break;
            }
            space[..n].copy_from_slice(&data[..n]);
            self.commit(n);
            data = &data[n..];
        }
    }

    /// Pops the next completed frame, if any.
    pub fn next_frame(&mut self) -> Option<WireMessage> {
        self.pending.pop_front()
    }

    /// Completed frames waiting to be drained.
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Whether the stream hit an unrecoverable framing error (implausible
    /// prefix or undecodable body). Frames completed before the poison
    /// point still drain via [`StreamDecoder::next_frame`].
    pub fn is_corrupt(&self) -> bool {
        self.corrupt
    }

    /// Whether a partial frame is buffered awaiting more bytes.
    pub fn has_partial(&self) -> bool {
        self.filled > 0
    }

    /// Bytes currently buffered for the partial frame at the front.
    pub fn buffered_bytes(&self) -> usize {
        self.filled
    }

    /// Capacity of the current read window (tests assert the exact-reserve
    /// behaviour for oversized frames through this).
    pub fn window_capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl std::fmt::Debug for StreamDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamDecoder")
            .field("buffered_bytes", &self.filled)
            .field("pending_frames", &self.pending.len())
            .field("corrupt", &self.corrupt)
            .finish_non_exhaustive()
    }
}

/// How a staged frame's header bytes are held.
enum HeaderRepr {
    /// Byte range within the batch's live arena (pre-freeze).
    Staged { start: usize, end: usize },
    /// Zero-copy slice of a frozen arena generation.
    Frozen(Bytes),
}

/// One frame staged for a vectored write: header bytes (prefix + fields +
/// payload length) and the payload itself, which is never copied — the
/// write references the caller's `Bytes` directly.
struct StagedFrame {
    header: HeaderRepr,
    payload: Bytes,
    framed_len: usize,
}

/// An ordered queue of encoded frames flushed with vectored writes: the
/// zero-copy send path.
///
/// [`FrameBatch::stage`] encodes a frame's header into a pooled arena
/// (surfacing encode errors immediately) and keeps the payload as a shared
/// `Bytes`. [`FrameBatch::write_some`] freezes the arena in O(1), builds an
/// `IoSlice` list over `[header, payload]` pairs and hands the whole batch
/// to one `write_vectored` syscall, resuming cleanly after short writes via
/// a byte cursor on the front frame. Frozen arenas recycle through the pool
/// once their frames are fully written.
pub struct FrameBatch {
    pool: Arc<BufferPool>,
    frames: VecDeque<StagedFrame>,
    arena: BytesMut,
    /// Frames whose header is still [`HeaderRepr::Staged`] in `arena`.
    staged: usize,
    /// Bytes of the front frame already written (short-write resume).
    cursor: usize,
    pending_bytes: usize,
}

impl FrameBatch {
    /// Creates a batch with a private pool.
    pub fn new() -> Self {
        Self::with_pool(Arc::new(BufferPool::default()))
    }

    /// Creates a batch whose header arenas come from `pool`.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        FrameBatch {
            pool,
            frames: VecDeque::new(),
            arena: BytesMut::new(),
            staged: 0,
            cursor: 0,
            pending_bytes: 0,
        }
    }

    /// Stages one frame. The payload is shared, not copied; the header is
    /// encoded now, so unencodable messages fail here — at the call site —
    /// rather than poisoning a later flush.
    ///
    /// # Errors
    ///
    /// Same contract as [`WireMessage::encode_framed_into`]; the batch is
    /// untouched on error.
    pub fn stage(&mut self, msg: &WireMessage) -> Result<(), NetError> {
        if self.arena.is_empty() && self.arena.capacity() == 0 {
            self.arena = self.pool.get_arena();
        }
        let start = self.arena.len();
        msg.encode_framed_header_into(&mut self.arena)?;
        let end = self.arena.len();
        let framed_len = (end - start) + msg.payload.len();
        self.frames.push_back(StagedFrame {
            header: HeaderRepr::Staged { start, end },
            payload: msg.payload.clone(),
            framed_len,
        });
        self.staged += 1;
        self.pending_bytes += framed_len;
        Ok(())
    }

    /// Staged frames not yet fully written.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frames are staged.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total framed bytes awaiting the wire.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Forgets write progress on the front frame. Call after a transport
    /// loss: the replacement connection must see the frame from byte 0,
    /// never a torn continuation of a stream that died elsewhere.
    pub fn reset_cursor(&mut self) {
        self.cursor = 0;
    }

    /// Drops every staged frame and all write progress (fail-fast senders
    /// abandoning a backlog nobody will replay).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.arena.clear();
        self.staged = 0;
        self.cursor = 0;
        self.pending_bytes = 0;
    }

    /// Drops the oldest staged frame (bounded-backlog policies), returning
    /// its framed length. Refuses (`None`) when the front frame is
    /// mid-write — dropping it would tear the live stream.
    pub fn drop_front(&mut self) -> Option<usize> {
        if self.cursor != 0 {
            return None;
        }
        let front = self.frames.pop_front()?;
        if matches!(front.header, HeaderRepr::Staged { .. }) {
            self.staged -= 1;
        }
        self.pending_bytes -= front.framed_len;
        Some(front.framed_len)
    }

    /// Converts every staged header into a zero-copy slice of the frozen
    /// arena, recycling the arena through the pool (it returns once the
    /// frames are written and dropped).
    fn freeze_headers(&mut self) {
        if self.staged == 0 {
            return;
        }
        let frozen = std::mem::replace(&mut self.arena, self.pool.get_arena()).freeze();
        for frame in self.frames.iter_mut() {
            if let HeaderRepr::Staged { start, end } = frame.header {
                frame.header = HeaderRepr::Frozen(frozen.slice(start..end));
            }
        }
        self.staged = 0;
        self.pool.recycle(frozen);
    }

    /// Issues one vectored write of up to `max_bytes` across at most
    /// `max_iovecs` slices, resuming after any prior short write. Returns
    /// `(frames_completed, bytes_written)`; `(0, 0)` when nothing is
    /// staged.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; a zero-length write of a
    /// non-empty batch surfaces as [`std::io::ErrorKind::WriteZero`]. On
    /// error the batch keeps every unwritten byte (and the cursor), so a
    /// retry or a reconnect-replay resumes exactly where the wire stopped.
    pub fn write_some<W: Write>(
        &mut self,
        writer: &mut W,
        max_bytes: usize,
        max_iovecs: usize,
    ) -> std::io::Result<(usize, usize)> {
        if self.frames.is_empty() {
            return Ok((0, 0));
        }
        self.freeze_headers();
        let n = {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(max_iovecs.min(64));
            let mut budget = max_bytes.max(1);
            let mut skip = self.cursor;
            'frames: for frame in &self.frames {
                let header: &[u8] = match &frame.header {
                    HeaderRepr::Frozen(b) => b,
                    HeaderRepr::Staged { .. } => unreachable!("headers frozen above"),
                };
                for seg in [header, &frame.payload[..]] {
                    let seg = if skip >= seg.len() {
                        skip -= seg.len();
                        continue;
                    } else {
                        let s = &seg[skip..];
                        skip = 0;
                        s
                    };
                    if seg.is_empty() {
                        continue;
                    }
                    let take = seg.len().min(budget);
                    slices.push(IoSlice::new(&seg[..take]));
                    budget -= take;
                    if budget == 0 || slices.len() >= max_iovecs.max(1) {
                        break 'frames;
                    }
                }
            }
            debug_assert!(!slices.is_empty(), "staged frames but nothing to write");
            let iovecs = slices.len() as u64;
            let n = writer.write_vectored(&slices)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "vectored write accepted zero bytes",
                ));
            }
            telemetry::TX_VECTORED_WRITES.fetch_add(1, Ordering::Relaxed);
            telemetry::TX_IOVECS.fetch_add(iovecs, Ordering::Relaxed);
            n
        };
        self.cursor += n;
        let mut completed = 0usize;
        while let Some(front) = self.frames.front() {
            if self.cursor < front.framed_len {
                break;
            }
            self.cursor -= front.framed_len;
            self.pending_bytes -= front.framed_len;
            self.frames.pop_front();
            completed += 1;
        }
        telemetry::TX_FRAMES.fetch_add(completed as u64, Ordering::Relaxed);
        Ok((completed, n))
    }
}

impl Default for FrameBatch {
    fn default() -> Self {
        FrameBatch::new()
    }
}

impl std::fmt::Debug for FrameBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameBatch")
            .field("frames", &self.frames.len())
            .field("pending_bytes", &self.pending_bytes)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WireMessage {
        WireMessage {
            kind: MessageKind::Request,
            channel: "pose_detector".into(),
            reply_to: "module_a_inbox".into(),
            corr_id: 77,
            seq: 1234,
            timestamp_ns: 999_999_999,
            epoch: 7,
            payload: Bytes::from_static(b"hello frame"),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let msg = sample();
        let encoded = msg.encode().unwrap();
        assert_eq!(encoded.len(), msg.encoded_len());
        let decoded = WireMessage::decode(&encoded).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn roundtrip_empty_fields() {
        let msg = WireMessage::signal("", 0);
        let decoded = WireMessage::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn constructors_set_kinds() {
        assert_eq!(
            WireMessage::data("m", 1, 2, Bytes::new()).kind,
            MessageKind::Data
        );
        let req = WireMessage::request("svc", "inbox", 9, Bytes::new());
        assert_eq!(req.kind, MessageKind::Request);
        let resp = WireMessage::response_to(&req, Bytes::from_static(b"r"));
        assert_eq!(resp.kind, MessageKind::Response);
        assert_eq!(resp.channel, "inbox");
        assert_eq!(resp.corr_id, 9);
        assert_eq!(WireMessage::signal("src", 3).kind, MessageKind::Signal);
    }

    #[test]
    fn epoch_survives_roundtrip_and_replies() {
        let msg = WireMessage::signal("src", 3).with_epoch(42);
        assert_eq!(msg.epoch, 42);
        let decoded = WireMessage::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(decoded.epoch, 42);
        let req = WireMessage::request("svc", "inbox", 9, Bytes::new()).with_epoch(5);
        let resp = WireMessage::response_to(&req, Bytes::new());
        assert_eq!(resp.epoch, 5, "responses belong to the request's epoch");
    }

    // Corruption resistance (truncation, bit flips, unknown kinds, bad
    // UTF-8, hostile length prefixes) is property-tested exhaustively in
    // `tests/prop_net.rs` — no example-based corruption tests here.

    #[test]
    fn encode_rejects_oversized_channel() {
        let msg = WireMessage::data("x".repeat(300), 0, 0, Bytes::new());
        assert!(msg.encode().is_err());
    }

    #[test]
    fn message_kind_roundtrip() {
        for kind in [
            MessageKind::Data,
            MessageKind::Request,
            MessageKind::Response,
            MessageKind::Signal,
            MessageKind::Control,
        ] {
            assert_eq!(MessageKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(MessageKind::from_u8(99), None);
    }

    /// Every frame the stream decoder gets out of `bytes`.
    fn decode_stream(bytes: &[u8]) -> Vec<WireMessage> {
        let mut dec = StreamDecoder::new(Arc::new(BufferPool::default()));
        dec.feed(bytes);
        std::iter::from_fn(|| dec.next_frame()).collect()
    }

    #[test]
    fn stream_framing_roundtrip() {
        let mut buf = BytesMut::new();
        let a = sample();
        let b = WireMessage::signal("src", 5);
        a.encode_framed_into(&mut buf).unwrap();
        b.encode_framed_into(&mut buf).unwrap();
        assert_eq!(decode_stream(&buf), [a, b]);
    }

    #[test]
    fn encode_framed_matches_prefix_plus_body() {
        let msg = sample();
        let mut framed = BytesMut::new();
        msg.encode_framed_into(&mut framed).unwrap();
        let body = msg.encode().unwrap();
        assert_eq!(&framed[..4], (body.len() as u32).to_be_bytes());
        assert_eq!(&framed[4..], &body[..]);
    }

    #[test]
    fn coalesced_frames_decode_in_order() {
        let a = sample();
        let b = WireMessage::signal("src", 5);
        let c = WireMessage::data("m", 7, 8, Bytes::from_static(b"xyz"));
        let mut batch = BytesMut::new();
        for msg in [&a, &b, &c] {
            msg.encode_framed_into(&mut batch).unwrap();
        }
        assert_eq!(decode_stream(&batch), [a, b, c]);
    }

    #[test]
    fn encode_framed_failure_leaves_buffer_untouched() {
        let good = WireMessage::signal("src", 1);
        let bad = WireMessage::data("x".repeat(300), 0, 0, Bytes::new());
        let mut batch = BytesMut::new();
        good.encode_framed_into(&mut batch).unwrap();
        let len_before = batch.len();
        assert!(bad.encode_framed_into(&mut batch).is_err());
        assert_eq!(batch.len(), len_before, "torn frame left in batch buffer");
        assert_eq!(decode_stream(&batch), [good]);
    }

    #[test]
    fn stream_decoder_holds_a_truncated_frame_as_partial() {
        let mut buf = BytesMut::new();
        sample().encode_framed_into(&mut buf).unwrap();
        let mut dec = StreamDecoder::new(Arc::new(BufferPool::default()));
        dec.feed(&buf[..buf.len() - 3]);
        assert!(dec.next_frame().is_none());
        assert!(dec.has_partial() && !dec.is_corrupt());
        dec.feed(&buf[buf.len() - 3..]);
        assert_eq!(dec.next_frame().unwrap(), sample());
    }

    #[test]
    fn decode_shared_matches_decode() {
        let msg = WireMessage::data("video.frames", 7, 99, Bytes::from_static(b"payload"));
        let mut framed = BytesMut::new();
        msg.encode_framed_into(&mut framed).unwrap();
        let frozen = framed.freeze();
        let body = frozen.slice(4..);
        let copied = WireMessage::decode(&body).unwrap();
        let shared = WireMessage::decode_shared(&body).unwrap();
        assert_eq!(copied, shared);
        assert_eq!(shared, msg);
    }

    #[test]
    fn decode_shared_payload_borrows_the_frame() {
        let msg = WireMessage::data("c", 1, 2, Bytes::from_static(b"borrowed-bytes"));
        let mut framed = BytesMut::new();
        msg.encode_framed_into(&mut framed).unwrap();
        let frozen = framed.freeze();
        let body = frozen.slice(4..);
        let decoded = WireMessage::decode_shared(&body).unwrap();
        let frame_range = frozen.as_ptr() as usize..frozen.as_ptr() as usize + frozen.len();
        let payload_ptr = decoded.payload.as_ptr() as usize;
        assert!(
            frame_range.contains(&payload_ptr),
            "payload must be a slice of the frame allocation"
        );
    }

    #[test]
    fn header_plus_payload_reproduces_framed_encoding() {
        let msg = WireMessage::request("svc", "reply.to", 42, Bytes::from_static(b"args"));
        let mut whole = BytesMut::new();
        msg.encode_framed_into(&mut whole).unwrap();
        let mut header = BytesMut::new();
        msg.encode_framed_header_into(&mut header).unwrap();
        let mut rebuilt = header.to_vec();
        rebuilt.extend_from_slice(&msg.payload);
        assert_eq!(rebuilt, whole.to_vec());
    }

    #[test]
    fn stream_decoder_roundtrips_across_arbitrary_splits() {
        let msgs = [
            sample(),
            WireMessage::signal("s", 3),
            WireMessage::data("ch", 8, 9, Bytes::from(vec![0xAB; 5000])),
        ];
        let mut stream = BytesMut::new();
        for m in &msgs {
            m.encode_framed_into(&mut stream).unwrap();
        }
        let stream = stream.freeze();
        for split in [1usize, 3, 7, 64, 1000, stream.len()] {
            let mut dec = StreamDecoder::new(Arc::new(BufferPool::new(256, 4)));
            for chunk in stream.chunks(split) {
                dec.feed(chunk);
            }
            let mut out = Vec::new();
            while let Some(m) = dec.next_frame() {
                out.push(m);
            }
            assert_eq!(out, msgs, "split size {split}");
            assert!(!dec.is_corrupt());
            assert!(!dec.has_partial());
        }
    }

    #[test]
    fn stream_decoder_reserves_exactly_for_oversized_frames() {
        let big = WireMessage::data("big", 1, 1, Bytes::from(vec![7u8; 10_000]));
        let mut stream = BytesMut::new();
        big.encode_framed_into(&mut stream).unwrap();
        let framed_len = stream.len();
        let mut dec = StreamDecoder::new(Arc::new(BufferPool::new(256, 4)));
        dec.feed(&stream);
        assert_eq!(dec.next_frame().unwrap(), big);
        // While mid-frame the window must have grown to exactly the framed
        // length — not doubled past it.
        let mut dec = StreamDecoder::new(Arc::new(BufferPool::new(256, 4)));
        dec.feed(&stream[..framed_len - 1]);
        assert_eq!(dec.window_capacity(), framed_len);
    }

    #[test]
    fn stream_decoder_poisons_on_giant_prefix_without_buffering() {
        let good = sample();
        let mut stream = BytesMut::new();
        good.encode_framed_into(&mut stream).unwrap();
        stream.put_u32(u32::MAX); // implausible next-frame prefix
        let mut dec = StreamDecoder::new(Arc::new(BufferPool::default()));
        dec.feed(&stream);
        assert_eq!(dec.next_frame().unwrap(), good, "good frames still deliver");
        assert!(dec.is_corrupt());
        assert!(
            dec.read_space().is_empty(),
            "poisoned stream accepts no bytes"
        );
    }

    #[test]
    fn stream_decoder_recycles_chunks_after_payloads_drop() {
        let pool = Arc::new(BufferPool::new(256, 4));
        let msg = WireMessage::data("ch", 1, 1, Bytes::from(vec![1u8; 64]));
        let mut framed = BytesMut::new();
        msg.encode_framed_into(&mut framed).unwrap();
        let mut dec = StreamDecoder::new(Arc::clone(&pool));
        dec.feed(&framed);
        let decoded = dec.next_frame().unwrap();
        assert!(pool.stats().awaiting_reclaim >= 1);
        drop(decoded);
        drop(dec);
        // With the payload gone the chunk handle is unique again.
        let _ = pool.get_scratch();
        assert!(pool.stats().reclaimed >= 1);
    }

    #[test]
    fn frame_batch_matches_legacy_framing() {
        let msgs = [
            sample(),
            WireMessage::signal("sig", 12),
            WireMessage::data("ch", 5, 6, Bytes::from(vec![0x5A; 900])),
        ];
        let mut legacy = BytesMut::new();
        let mut batch = FrameBatch::new();
        for m in &msgs {
            m.encode_framed_into(&mut legacy).unwrap();
            batch.stage(m).unwrap();
        }
        assert_eq!(batch.pending_bytes(), legacy.len());
        let mut wire = Vec::new();
        while !batch.is_empty() {
            batch.write_some(&mut wire, usize::MAX, 64).unwrap();
        }
        assert_eq!(wire, legacy.to_vec());
    }

    /// Writer that accepts at most `cap` bytes per call, exercising the
    /// short-write cursor.
    struct ShortWriter {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_batch_survives_short_writes() {
        let msgs = [
            WireMessage::data("a", 1, 1, Bytes::from(vec![1u8; 300])),
            WireMessage::data("b", 2, 2, Bytes::from(vec![2u8; 17])),
            WireMessage::signal("c", 3),
        ];
        let mut legacy = BytesMut::new();
        let mut batch = FrameBatch::new();
        for m in &msgs {
            m.encode_framed_into(&mut legacy).unwrap();
            batch.stage(m).unwrap();
        }
        for cap in [1usize, 2, 5, 13] {
            let mut b = FrameBatch::new();
            for m in &msgs {
                b.stage(m).unwrap();
            }
            let mut w = ShortWriter {
                out: Vec::new(),
                cap,
            };
            let mut completed = 0;
            while !b.is_empty() {
                let (done, n) = b.write_some(&mut w, 4096, 64).unwrap();
                assert!(n > 0);
                completed += done;
            }
            assert_eq!(completed, msgs.len());
            assert_eq!(w.out, legacy.to_vec(), "cap {cap}");
            assert_eq!(b.pending_bytes(), 0);
        }
    }

    #[test]
    fn frame_batch_respects_byte_and_iovec_caps() {
        let mut batch = FrameBatch::new();
        for i in 0..10u64 {
            batch
                .stage(&WireMessage::data(
                    "c",
                    i,
                    i,
                    Bytes::from(vec![i as u8; 100]),
                ))
                .unwrap();
        }
        let mut out = Vec::new();
        let (_, n) = batch.write_some(&mut out, 50, 64).unwrap();
        assert!(n <= 50, "byte cap honoured");
        let mut out2 = Vec::new();
        let (_, n2) = batch.write_some(&mut out2, usize::MAX, 1).unwrap();
        assert!(n2 > 0);
        // One iovec covers at most one contiguous segment (header or
        // payload), so the write cannot span a segment boundary.
        assert!(n2 <= 4 + MAX_CHANNEL_LEN + 100);
    }

    #[test]
    fn frame_batch_drop_front_refuses_mid_write() {
        let mut batch = FrameBatch::new();
        batch
            .stage(&WireMessage::data("c", 1, 1, Bytes::from(vec![9u8; 200])))
            .unwrap();
        batch.stage(&WireMessage::signal("s", 2)).unwrap();
        let mut w = ShortWriter {
            out: Vec::new(),
            cap: 10,
        };
        batch.write_some(&mut w, 4096, 64).unwrap();
        assert!(batch.drop_front().is_none(), "front frame is mid-write");
        batch.reset_cursor();
        assert!(batch.drop_front().is_some());
    }

    #[test]
    fn frame_batch_stage_error_leaves_batch_clean() {
        let mut batch = FrameBatch::new();
        batch.stage(&sample()).unwrap();
        let before = batch.pending_bytes();
        let bad = WireMessage::data("x".repeat(300), 0, 0, Bytes::new());
        assert!(batch.stage(&bad).is_err());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.pending_bytes(), before);
        let mut wire = Vec::new();
        while !batch.is_empty() {
            batch.write_some(&mut wire, usize::MAX, 64).unwrap();
        }
        let mut legacy = BytesMut::new();
        sample().encode_framed_into(&mut legacy).unwrap();
        assert_eq!(wire, legacy.to_vec());
    }
}
