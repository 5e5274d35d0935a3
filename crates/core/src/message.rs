//! Pipeline messages and the typed payload codec.
//!
//! On-device edges carry [`Payload`]s by value (frames by
//! [`FrameId`] reference — paper §3: "rather than copying the full image
//! frames to the module, we pass on a reference id"); cross-device edges
//! serialise payloads with the hand-written codec in this module and ship
//! them inside [`WireMessage`](videopipe_net::WireMessage)s. Frames crossing
//! devices are transcoded to [`Payload::EncodedFrame`] by the runtime.

use crate::error::PipelineError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use videopipe_media::{FrameId, Keypoint, Pose, JOINT_COUNT};

/// A typed message payload.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Payload {
    /// No payload (signals, acks).
    Empty,
    /// A UTF-8 string (labels, logs, display text).
    Text(String),
    /// Opaque bytes.
    Blob(Bytes),
    /// A device-local frame reference (valid only on the device whose store
    /// issued it).
    FrameRef(FrameId),
    /// A codec-encoded frame (cross-device form).
    EncodedFrame(Bytes),
    /// A detected pose with a detection score.
    Pose {
        /// The keypoints.
        pose: Pose,
        /// Detector confidence in `[0, 1]`.
        score: f32,
    },
    /// A sequence of poses (calibration windows, pose batches).
    Poses(Vec<Pose>),
    /// A dense feature vector.
    Vector(Vec<f32>),
    /// A dense matrix (e.g. k-means centroids).
    Matrix(Vec<Vec<f32>>),
    /// A classification result.
    Label {
        /// Class label.
        label: String,
        /// Classifier confidence in `[0, 1]`.
        confidence: f32,
    },
    /// A counter value (rep counts, cluster ids).
    Count(u64),
    /// Axis-aligned boxes `(min_x, min_y, max_x, max_y)`.
    Boxes(Vec<(f32, f32, f32, f32)>),
    /// A failure description travelling in place of a result (e.g. a
    /// service executor reporting a failed request back to its caller, so
    /// the caller can retry instead of timing out).
    Error(String),
}

impl Payload {
    /// Approximate in-memory/wire size in bytes, used by the simulator's
    /// network model (a `FrameRef` is 8 bytes — that is the point of the
    /// paper's reference-passing design).
    pub fn size_hint(&self) -> usize {
        match self {
            Payload::Empty => 1,
            Payload::Text(s) => 5 + s.len(),
            Payload::Blob(b) => 5 + b.len(),
            Payload::FrameRef(_) => 9,
            Payload::EncodedFrame(b) => 5 + b.len(),
            Payload::Pose { .. } => 1 + 4 + JOINT_COUNT * 8,
            Payload::Poses(ps) => 5 + ps.len() * JOINT_COUNT * 8,
            Payload::Vector(v) => 5 + v.len() * 4,
            Payload::Matrix(m) => 5 + m.iter().map(|r| 4 + r.len() * 4).sum::<usize>(),
            Payload::Label { label, .. } => 5 + label.len() + 4,
            Payload::Count(_) => 9,
            Payload::Boxes(b) => 5 + b.len() * 16,
            Payload::Error(s) => 5 + s.len(),
        }
    }

    /// Short name of the payload variant (diagnostics and errors).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::Empty => "empty",
            Payload::Text(_) => "text",
            Payload::Blob(_) => "blob",
            Payload::FrameRef(_) => "frame_ref",
            Payload::EncodedFrame(_) => "encoded_frame",
            Payload::Pose { .. } => "pose",
            Payload::Poses(_) => "poses",
            Payload::Vector(_) => "vector",
            Payload::Matrix(_) => "matrix",
            Payload::Label { .. } => "label",
            Payload::Count(_) => "count",
            Payload::Boxes(_) => "boxes",
            Payload::Error(_) => "error",
        }
    }

    /// Encodes the payload with the wire codec.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.size_hint() + 8);
        match self {
            Payload::Empty => buf.put_u8(0),
            Payload::Text(s) => {
                buf.put_u8(1);
                put_str(&mut buf, s);
            }
            Payload::Blob(b) => {
                buf.put_u8(2);
                buf.put_u32(b.len() as u32);
                buf.put_slice(b);
            }
            Payload::FrameRef(id) => {
                buf.put_u8(3);
                buf.put_u64(id.as_u64());
            }
            Payload::EncodedFrame(b) => {
                buf.put_u8(4);
                buf.put_u32(b.len() as u32);
                buf.put_slice(b);
            }
            Payload::Pose { pose, score } => {
                buf.put_u8(5);
                buf.put_f32(*score);
                put_pose(&mut buf, pose);
            }
            Payload::Poses(poses) => {
                buf.put_u8(6);
                buf.put_u32(poses.len() as u32);
                for p in poses {
                    put_pose(&mut buf, p);
                }
            }
            Payload::Vector(v) => {
                buf.put_u8(7);
                buf.put_u32(v.len() as u32);
                for x in v {
                    buf.put_f32(*x);
                }
            }
            Payload::Matrix(m) => {
                buf.put_u8(8);
                buf.put_u32(m.len() as u32);
                for row in m {
                    buf.put_u32(row.len() as u32);
                    for x in row {
                        buf.put_f32(*x);
                    }
                }
            }
            Payload::Label { label, confidence } => {
                buf.put_u8(9);
                put_str(&mut buf, label);
                buf.put_f32(*confidence);
            }
            Payload::Count(n) => {
                buf.put_u8(10);
                buf.put_u64(*n);
            }
            Payload::Boxes(boxes) => {
                buf.put_u8(11);
                buf.put_u32(boxes.len() as u32);
                for (a, b, c, d) in boxes {
                    buf.put_f32(*a);
                    buf.put_f32(*b);
                    buf.put_f32(*c);
                    buf.put_f32(*d);
                }
            }
            Payload::Error(s) => {
                buf.put_u8(12);
                put_str(&mut buf, s);
            }
        }
        buf.freeze()
    }

    /// Decodes a payload previously produced by [`Payload::encode`].
    ///
    /// Takes the shared buffer the message arrived in: the byte-carrying
    /// variants ([`Payload::Blob`], [`Payload::EncodedFrame`]) come back as
    /// O(1) slices of it, not as copies.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadPayload`] on truncation, unknown tags or
    /// trailing bytes.
    pub fn decode(encoded: &Bytes) -> Result<Payload, PipelineError> {
        let mut buf: &[u8] = encoded;
        let payload = Self::decode_inner(encoded, &mut buf)?;
        if buf.has_remaining() {
            return Err(PipelineError::BadPayload("trailing bytes"));
        }
        Ok(payload)
    }

    /// `buf` is the unread tail of `encoded`.
    fn decode_inner(encoded: &Bytes, buf: &mut &[u8]) -> Result<Payload, PipelineError> {
        fn need(buf: &&[u8], n: usize) -> Result<(), PipelineError> {
            if buf.remaining() < n {
                Err(PipelineError::BadPayload("truncated payload"))
            } else {
                Ok(())
            }
        }
        need(buf, 1)?;
        let tag = buf.get_u8();
        Ok(match tag {
            0 => Payload::Empty,
            1 => Payload::Text(get_str(buf)?),
            2 => {
                need(buf, 4)?;
                let len = buf.get_u32() as usize;
                need(buf, len)?;
                let at = encoded.len() - buf.len();
                buf.advance(len);
                Payload::Blob(encoded.slice(at..at + len))
            }
            3 => {
                need(buf, 8)?;
                Payload::FrameRef(FrameId::from_u64(buf.get_u64()))
            }
            4 => {
                need(buf, 4)?;
                let len = buf.get_u32() as usize;
                need(buf, len)?;
                let at = encoded.len() - buf.len();
                buf.advance(len);
                Payload::EncodedFrame(encoded.slice(at..at + len))
            }
            5 => {
                need(buf, 4)?;
                let score = buf.get_f32();
                let pose = get_pose(buf)?;
                Payload::Pose { pose, score }
            }
            6 => {
                need(buf, 4)?;
                let n = buf.get_u32() as usize;
                if n > 1_000_000 {
                    return Err(PipelineError::BadPayload("pose list too long"));
                }
                let mut poses = Vec::with_capacity(n);
                for _ in 0..n {
                    poses.push(get_pose(buf)?);
                }
                Payload::Poses(poses)
            }
            7 => {
                need(buf, 4)?;
                let n = buf.get_u32() as usize;
                need(buf, n.saturating_mul(4))?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(buf.get_f32());
                }
                Payload::Vector(v)
            }
            8 => {
                need(buf, 4)?;
                let rows = buf.get_u32() as usize;
                if rows > 1_000_000 {
                    return Err(PipelineError::BadPayload("matrix too large"));
                }
                let mut m = Vec::with_capacity(rows);
                for _ in 0..rows {
                    need(buf, 4)?;
                    let cols = buf.get_u32() as usize;
                    need(buf, cols.saturating_mul(4))?;
                    let mut row = Vec::with_capacity(cols);
                    for _ in 0..cols {
                        row.push(buf.get_f32());
                    }
                    m.push(row);
                }
                Payload::Matrix(m)
            }
            9 => {
                let label = get_str(buf)?;
                need(buf, 4)?;
                let confidence = buf.get_f32();
                Payload::Label { label, confidence }
            }
            10 => {
                need(buf, 8)?;
                Payload::Count(buf.get_u64())
            }
            11 => {
                need(buf, 4)?;
                let n = buf.get_u32() as usize;
                need(buf, n.saturating_mul(16))?;
                let mut boxes = Vec::with_capacity(n);
                for _ in 0..n {
                    boxes.push((buf.get_f32(), buf.get_f32(), buf.get_f32(), buf.get_f32()));
                }
                Payload::Boxes(boxes)
            }
            12 => Payload::Error(get_str(buf)?),
            _ => return Err(PipelineError::BadPayload("unknown payload tag")),
        })
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, PipelineError> {
    if buf.remaining() < 4 {
        return Err(PipelineError::BadPayload("truncated string"));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(PipelineError::BadPayload("truncated string"));
    }
    let s = std::str::from_utf8(&buf[..len])
        .map_err(|_| PipelineError::BadPayload("string not utf-8"))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

fn put_pose(buf: &mut BytesMut, pose: &Pose) {
    for kp in pose.keypoints() {
        buf.put_f32(kp.x);
        buf.put_f32(kp.y);
    }
}

fn get_pose(buf: &mut &[u8]) -> Result<Pose, PipelineError> {
    if buf.remaining() < JOINT_COUNT * 8 {
        return Err(PipelineError::BadPayload("truncated pose"));
    }
    let mut kps = [Keypoint::default(); JOINT_COUNT];
    for kp in &mut kps {
        kp.x = buf.get_f32();
        kp.y = buf.get_f32();
    }
    Ok(Pose::new(kps))
}

/// The frame-identity header carried end-to-end through a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Source frame sequence number.
    pub frame_seq: u64,
    /// Source capture timestamp (nanoseconds, pipeline clock).
    pub capture_ts_ns: u64,
}

/// A message travelling along a pipeline edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Frame identity.
    pub header: Header,
    /// The payload.
    pub payload: Payload,
}

impl Message {
    /// Creates a message.
    pub fn new(header: Header, payload: Payload) -> Self {
        Message { header, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_payloads() -> Vec<Payload> {
        vec![
            Payload::Empty,
            Payload::Text("hello".into()),
            Payload::Blob(Bytes::from_static(b"\x00\x01\x02")),
            Payload::FrameRef(FrameId::from_u64(42)),
            Payload::EncodedFrame(Bytes::from_static(b"VPF1rest")),
            Payload::Pose {
                pose: Pose::default(),
                score: 0.87,
            },
            Payload::Poses(vec![Pose::default(); 3]),
            Payload::Vector(vec![1.0, -2.5, 3.25]),
            Payload::Matrix(vec![vec![1.0, 2.0], vec![3.0]]),
            Payload::Label {
                label: "squat".into(),
                confidence: 0.93,
            },
            Payload::Count(12345),
            Payload::Boxes(vec![(0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8)]),
            Payload::Error("service blew up".into()),
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for payload in all_payloads() {
            let encoded = payload.encode();
            let decoded = Payload::decode(&encoded).unwrap();
            assert_eq!(decoded, payload, "{}", payload.kind_name());
        }
    }

    #[test]
    fn byte_payloads_decode_as_slices_of_the_message_buffer() {
        for payload in [
            Payload::Blob(Bytes::from(vec![7u8; 64])),
            Payload::EncodedFrame(Bytes::from(vec![9u8; 64])),
        ] {
            let encoded = payload.encode();
            let (Payload::Blob(bytes) | Payload::EncodedFrame(bytes)) =
                Payload::decode(&encoded).unwrap()
            else {
                panic!("variant changed in the round trip");
            };
            // Tag byte + u32 length, then the bytes themselves: no copy.
            assert!(std::ptr::eq(bytes.as_ptr(), encoded[5..].as_ptr()));
            assert_eq!(bytes.len(), 64);
        }
    }

    #[test]
    fn truncation_always_errors() {
        for payload in all_payloads() {
            let encoded = payload.encode();
            for len in 0..encoded.len() {
                assert!(
                    Payload::decode(&encoded.slice(..len)).is_err(),
                    "{} decoded at {len}",
                    payload.kind_name()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = Payload::Count(1).encode().to_vec();
        encoded.push(0);
        assert!(Payload::decode(&encoded.into()).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(Payload::decode(&Bytes::from_static(&[99])).is_err());
    }

    #[test]
    fn frame_ref_is_tiny_on_wire() {
        // This is the heart of the reference-passing design: 9 bytes
        // instead of a whole frame.
        let payload = Payload::FrameRef(FrameId::from_u64(7));
        assert_eq!(payload.encode().len(), 9);
        assert_eq!(payload.size_hint(), 9);
    }

    #[test]
    fn size_hint_close_to_encoded_len() {
        for payload in all_payloads() {
            let hint = payload.size_hint();
            let real = payload.encode().len();
            assert!(
                (hint as i64 - real as i64).unsigned_abs() <= 16,
                "{}: hint {hint} vs real {real}",
                payload.kind_name()
            );
        }
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<_> = all_payloads().iter().map(|p| p.kind_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all_payloads().len());
    }

    #[test]
    fn message_construction() {
        let header = Header {
            frame_seq: 4,
            capture_ts_ns: 100,
        };
        let msg = Message::new(header, Payload::Empty);
        assert_eq!(msg.header.frame_seq, 4);
    }
}
