//! Property tests for the messaging substrate.

use proptest::prelude::*;
use std::sync::Arc;
use videopipe_net::{
    BufferPool, Endpoint, FrameBatch, InprocHub, MsgReceiver, MsgSender, StreamDecoder,
    WireMessage, MAX_FRAME_LEN,
};

/// Writer that accepts at most `cap` bytes per call — models a kernel that
/// keeps returning short writes.
struct ShortWriter {
    out: Vec<u8>,
    cap: usize,
}

impl std::io::Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.cap);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The PR 9 codec: every frame batch-encoded contiguously. The zero-copy
/// path must stay byte-identical to this.
fn legacy_framing(msgs: &[WireMessage]) -> Vec<u8> {
    let mut buf = bytes::BytesMut::new();
    for msg in msgs {
        msg.encode_framed_into(&mut buf).unwrap();
    }
    buf.to_vec()
}

/// Strategy over well-formed wire messages (all kinds, arbitrary ids and
/// payload bytes) — the seed for the corruption properties below.
fn arb_wire_message() -> impl Strategy<Value = WireMessage> {
    (
        0u8..5,
        "[a-z0-9_/.]{0,32}",
        "[a-z0-9_/.]{0,32}",
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(kind, channel, reply_to, corr_id, seq, ts, payload)| {
            let mut msg = WireMessage::data(channel, seq, ts, bytes::Bytes::from(payload));
            msg.kind = videopipe_net::MessageKind::from_u8(kind).expect("kind in range");
            msg.reply_to = reply_to;
            msg.corr_id = corr_id;
            msg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-sender FIFO: messages from one sender arrive in send order.
    #[test]
    fn inproc_is_fifo_per_sender(count in 1usize..64) {
        let hub = InprocHub::new();
        let rx = hub.bind("sink").unwrap();
        let tx = hub.connect("sink").unwrap();
        for i in 0..count as u64 {
            tx.send(WireMessage::signal("sink", i)).unwrap();
        }
        for i in 0..count as u64 {
            prop_assert_eq!(rx.recv().unwrap().seq, i);
        }
    }

    /// Endpoint parsing never panics on arbitrary strings.
    #[test]
    fn endpoint_parse_never_panics(input in "\\PC{0,64}") {
        let _ = input.parse::<Endpoint>();
    }

    /// Whatever parses also displays back to something that reparses
    /// equal (full normalisation round trip).
    #[test]
    fn endpoint_parse_display_fixpoint(input in "(bind|connect)#(tcp://[a-z*][a-z0-9.*]{0,10}:[0-9]{1,5}|inproc://[a-z]{1,10})") {
        if let Ok(ep) = input.parse::<Endpoint>() {
            let redisplayed: Endpoint = ep.to_string().parse().unwrap();
            prop_assert_eq!(redisplayed, ep);
        }
    }

    /// Stream framing: any sequence of messages written to a buffer reads
    /// back identically, with nothing left over.
    #[test]
    fn stream_framing_roundtrip(seqs in proptest::collection::vec((any::<u64>(), 0usize..256), 0..12)) {
        let messages: Vec<WireMessage> = seqs
            .iter()
            .map(|(seq, len)| WireMessage::data("chan", *seq, 0, bytes::Bytes::from(vec![1u8; *len])))
            .collect();
        let mut decoder = StreamDecoder::new(Arc::new(BufferPool::default()));
        decoder.feed(&legacy_framing(&messages));
        let decoded: Vec<WireMessage> = std::iter::from_fn(|| decoder.next_frame()).collect();
        prop_assert_eq!(decoded, messages);
        prop_assert!(!decoder.has_partial() && !decoder.is_corrupt());
    }

    /// Decode is total on arbitrary bytes: it never panics, and when it
    /// does accept, the input was a canonical encoding (re-encoding the
    /// result reproduces the exact input — no bytes silently ignored).
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(msg) = WireMessage::decode(&bytes) {
            let reencoded = msg.encode().unwrap();
            prop_assert_eq!(reencoded.as_ref(), bytes.as_slice());
        }
    }

    /// Every proper prefix of a valid encoding is a typed error: a frame
    /// cut anywhere mid-stream can never decode (or panic).
    #[test]
    fn decode_truncation_is_typed_error(msg in arb_wire_message(), frac in 0.0f64..1.0) {
        let encoded = msg.encode().unwrap();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((encoded.len() as f64) * frac) as usize;
        let cut = cut.min(encoded.len().saturating_sub(1));
        prop_assert!(WireMessage::decode(&encoded[..cut]).is_err(), "prefix of {} bytes decoded", cut);
    }

    /// A single flipped bit anywhere in a valid encoding either yields a
    /// typed error or decodes to a message that canonically re-encodes to
    /// the corrupted bytes — never a panic, never a silent misparse.
    #[test]
    fn decode_bit_flip_never_panics(msg in arb_wire_message(), pos in any::<u64>(), bit in 0u8..8) {
        let mut encoded = msg.encode().unwrap().to_vec();
        #[allow(clippy::cast_possible_truncation)]
        let idx = (pos % encoded.len() as u64) as usize;
        encoded[idx] ^= 1 << bit;
        if let Ok(corrupted) = WireMessage::decode(&encoded) {
            let reencoded = corrupted.encode().unwrap();
            prop_assert_eq!(reencoded.as_ref(), encoded.as_slice());
        }
    }

    /// A hostile payload-length prefix (up to u32::MAX, far beyond the
    /// actual buffer) is rejected by bounds checks BEFORE any allocation:
    /// decode returns a typed error instead of reserving gigabytes.
    #[test]
    fn decode_hostile_payload_length_rejected(msg in arb_wire_message(), claimed in 0u32..u32::MAX) {
        let mut encoded = msg.encode().unwrap().to_vec();
        // The frame layout ends with payload_len(4) + payload bytes:
        // overwrite the length field with an arbitrary claim and drop the
        // real payload so the claim always exceeds what's present.
        let len_at = encoded.len() - msg.payload.len() - 4;
        encoded.truncate(len_at);
        encoded.extend_from_slice(&claimed.to_be_bytes());
        let result = WireMessage::decode(&encoded);
        if claimed == 0 {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err(), "claimed {} bytes with none present", claimed);
        }
    }

    /// Stream reads with a hostile frame-length prefix fail fast: any
    /// declared length beyond MAX_FRAME_LEN poisons the stream without
    /// buffering a byte of body.
    #[test]
    fn stream_decoder_hostile_length_rejected(extra in 1u32..u32::MAX - MAX_FRAME_LEN as u32, garbage in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut buf = (MAX_FRAME_LEN as u32 + extra).to_be_bytes().to_vec();
        buf.extend_from_slice(&garbage);
        let mut decoder = StreamDecoder::new(Arc::new(BufferPool::default()));
        decoder.feed(&buf);
        prop_assert!(decoder.is_corrupt());
        prop_assert!(decoder.next_frame().is_none());
        prop_assert!(decoder.read_space().is_empty(), "a poisoned stream took more bytes");
    }

    /// Fleet control-plane payloads inherit the same totality: arbitrary
    /// bytes never panic ControlMsg::decode, and valid messages roundtrip.
    #[test]
    fn control_decode_total_and_roundtrips(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        use videopipe_net::control::ControlMsg;
        let _ = ControlMsg::decode(&bytes);
        let msg = ControlMsg::Heartbeat { node_id: "n".into(), seq: bytes.len() as u64 };
        prop_assert_eq!(ControlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    /// Vectored encoding is byte-identical to the PR 9 contiguous codec,
    /// no matter how short the kernel cuts each write or how tight the
    /// per-flush byte/iovec caps are.
    #[test]
    fn vectored_encode_matches_legacy_codec(
        msgs in proptest::collection::vec(arb_wire_message(), 0..8),
        cap in 1usize..200,
        max_bytes in 16usize..4096,
        max_iovecs in 1usize..16,
    ) {
        let legacy = legacy_framing(&msgs);
        let mut batch = FrameBatch::new();
        for msg in &msgs {
            batch.stage(msg).unwrap();
        }
        prop_assert_eq!(batch.pending_bytes(), legacy.len());
        let mut writer = ShortWriter { out: Vec::new(), cap };
        while !batch.is_empty() {
            let (_, n) = batch.write_some(&mut writer, max_bytes, max_iovecs).unwrap();
            prop_assert!(n > 0, "write made no progress");
        }
        prop_assert_eq!(writer.out, legacy);
    }

    /// Pooled streaming decode recovers every message intact from the
    /// legacy byte stream, however the reads are chunked (partial-frame
    /// interleavings included), leaving neither residue nor corruption.
    #[test]
    fn pooled_decode_matches_legacy_codec(
        msgs in proptest::collection::vec(arb_wire_message(), 0..8),
        chunk in 1usize..300,
        pool_chunk in 64usize..2048,
    ) {
        let legacy = legacy_framing(&msgs);
        let mut decoder = StreamDecoder::new(Arc::new(BufferPool::new(pool_chunk, 4)));
        let mut decoded = Vec::new();
        for piece in legacy.chunks(chunk) {
            decoder.feed(piece);
            while let Some(msg) = decoder.next_frame() {
                decoded.push(msg);
            }
        }
        prop_assert_eq!(decoded, msgs);
        prop_assert!(!decoder.is_corrupt());
        prop_assert!(!decoder.has_partial(), "bytes left after whole frames");
    }

    /// Full-duplex closure: vectored-encode under short writes, then
    /// pooled-decode under partial reads, returns the original messages —
    /// the two zero-copy halves agree end to end.
    #[test]
    fn zero_copy_roundtrip_under_interleavings(
        msgs in proptest::collection::vec(arb_wire_message(), 0..8),
        cap in 1usize..100,
        chunk in 1usize..100,
    ) {
        let mut batch = FrameBatch::new();
        for msg in &msgs {
            batch.stage(msg).unwrap();
        }
        let mut writer = ShortWriter { out: Vec::new(), cap };
        while !batch.is_empty() {
            batch.write_some(&mut writer, 4096, 8).unwrap();
        }
        let mut decoder = StreamDecoder::new(Arc::new(BufferPool::new(256, 4)));
        let mut decoded = Vec::new();
        for piece in writer.out.chunks(chunk) {
            decoder.feed(piece);
            while let Some(msg) = decoder.next_frame() {
                decoded.push(msg);
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    /// The borrow-on-decode path agrees with the copying decode on every
    /// well-formed body (and on its payload bytes exactly).
    #[test]
    fn decode_shared_matches_decode(msg in arb_wire_message()) {
        let mut framed = bytes::BytesMut::new();
        msg.encode_framed_into(&mut framed).unwrap();
        let frozen = framed.freeze();
        let body = frozen.slice(4..);
        let copied = WireMessage::decode(&body).unwrap();
        let shared = WireMessage::decode_shared(&body).unwrap();
        prop_assert_eq!(&copied, &shared);
        prop_assert_eq!(&shared, &msg);
    }
}
