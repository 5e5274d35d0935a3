//! Fleet control-plane messages.
//!
//! The node ↔ coordinator control plane rides the same [`WireMessage`]
//! framing as the data plane (kind [`MessageKind::Control`], channel
//! `CONTROL_CHANNEL`): one TCP transport, one codec, one set of frame
//! limits. A [`ControlMsg`] is the typed payload — handshake, heartbeats,
//! tenant placement commands and epoch-stamped tenant reports carrying
//! module checkpoints for failover redeploys.
//!
//! The codec is hand-written and hostile-input safe like the rest of the
//! wire layer: every length is bounded *before* allocation, unknown tags
//! and trailing garbage are typed errors, and decode never panics.

use crate::error::NetError;
use crate::wire::{MessageKind, WireMessage, MAX_CHANNEL_LEN};
use bytes::Bytes;

/// Channel name carried by every control-plane frame.
pub(crate) const CONTROL_CHANNEL: &str = "fleet/ctrl";

/// Upper bound on one serialized module checkpoint (64 KiB). Checkpoints
/// are compact recoverable state (counters, small model state), not media;
/// a larger blob is a bug or an attack, and is rejected before allocation.
pub(crate) const MAX_CHECKPOINT_LEN: usize = 64 * 1024;

const TAG_HELLO: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_DEPLOY: u8 = 3;
const TAG_RETIRE: u8 = 4;
const TAG_REPORT: u8 = 5;
const TAG_DRAIN: u8 = 6;
const TAG_BYE: u8 = 7;

/// One fleet control-plane message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Node → coordinator: first message on connect (and on reconnect).
    /// `control_port` is the node's command listener; the coordinator
    /// dials back to it for deploys and retires.
    Hello {
        /// Stable node identity (survives restarts).
        node_id: String,
        /// TCP port of the node's command listener on the same host.
        control_port: u16,
    },
    /// Node → coordinator: liveness beacon feeding the lease detector.
    Heartbeat {
        /// Sending node.
        node_id: String,
        /// Monotonic per-process heartbeat counter.
        seq: u64,
    },
    /// Coordinator → node: host this tenant's pipeline. Checkpoints (when
    /// present) restore the tenant's modules to their pre-failover state.
    DeployTenant {
        /// Tenant id (also the pipeline name on the node).
        tenant: String,
        /// Tenant fence epoch; the node stamps every report with it and
        /// the coordinator ignores reports from older epochs.
        epoch: u64,
        /// Source frame rate, milli-fps (20.0 fps = 20_000).
        fps_millis: u32,
        /// Checkpoint for the tenant's source module, if one exists.
        /// Shared bytes: on the receive path this is a zero-copy slice of
        /// the frame the deploy arrived in.
        source_ckpt: Option<Bytes>,
        /// Checkpoint for the tenant's sink module, if one exists.
        sink_ckpt: Option<Bytes>,
    },
    /// Coordinator → node: stop hosting this tenant (rebalance). The node
    /// stops the pipeline, takes final checkpoints and answers with one
    /// last [`ControlMsg::TenantReport`] marked `retired`.
    RetireTenant {
        /// Tenant to retire.
        tenant: String,
        /// Epoch the coordinator believes the tenant is at; stale retires
        /// (epoch mismatch) are ignored by the node.
        epoch: u64,
    },
    /// Node → coordinator: periodic (and final) per-tenant progress,
    /// stamped with the tenant's epoch and carrying fresh checkpoints so
    /// the coordinator can redeploy elsewhere after a crash.
    TenantReport {
        /// Reporting node.
        node_id: String,
        /// Tenant the report is about.
        tenant: String,
        /// Tenant fence epoch the node is hosting under.
        epoch: u64,
        /// True on the final report after a retire/drain (the pipeline is
        /// stopped and the checkpoints are the freshest possible).
        retired: bool,
        /// Frames counted exactly-once by the tenant sink.
        counted: u64,
        /// Redelivered frames the sink recognised and refused to recount.
        duplicates: u64,
        /// Frames counted more than once (must stay 0; a non-zero value
        /// is an exactly-once violation).
        double_counted: u64,
        /// Highest frame seq the sink has accepted.
        last_seq: u64,
        /// Latest source-module checkpoint (shared bytes; zero-copy on the
        /// receive path).
        source_ckpt: Option<Bytes>,
        /// Latest sink-module checkpoint.
        sink_ckpt: Option<Bytes>,
    },
    /// Coordinator → node: drain and exit (graceful fleet shutdown).
    Drain,
    /// Node → coordinator: clean goodbye after a drain — every tenant has
    /// sent its final report and the node is about to exit.
    Bye {
        /// Departing node.
        node_id: String,
    },
}

impl ControlMsg {
    /// Serializes into bytes (the payload of a control frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            ControlMsg::Hello {
                node_id,
                control_port,
            } => {
                out.push(TAG_HELLO);
                put_str(&mut out, node_id);
                out.extend_from_slice(&control_port.to_be_bytes());
            }
            ControlMsg::Heartbeat { node_id, seq } => {
                out.push(TAG_HEARTBEAT);
                put_str(&mut out, node_id);
                out.extend_from_slice(&seq.to_be_bytes());
            }
            ControlMsg::DeployTenant {
                tenant,
                epoch,
                fps_millis,
                source_ckpt,
                sink_ckpt,
            } => {
                out.push(TAG_DEPLOY);
                put_str(&mut out, tenant);
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&fps_millis.to_be_bytes());
                put_blob(&mut out, source_ckpt.as_deref());
                put_blob(&mut out, sink_ckpt.as_deref());
            }
            ControlMsg::RetireTenant { tenant, epoch } => {
                out.push(TAG_RETIRE);
                put_str(&mut out, tenant);
                out.extend_from_slice(&epoch.to_be_bytes());
            }
            ControlMsg::TenantReport {
                node_id,
                tenant,
                epoch,
                retired,
                counted,
                duplicates,
                double_counted,
                last_seq,
                source_ckpt,
                sink_ckpt,
            } => {
                out.push(TAG_REPORT);
                put_str(&mut out, node_id);
                put_str(&mut out, tenant);
                out.extend_from_slice(&epoch.to_be_bytes());
                out.push(u8::from(*retired));
                out.extend_from_slice(&counted.to_be_bytes());
                out.extend_from_slice(&duplicates.to_be_bytes());
                out.extend_from_slice(&double_counted.to_be_bytes());
                out.extend_from_slice(&last_seq.to_be_bytes());
                put_blob(&mut out, source_ckpt.as_deref());
                put_blob(&mut out, sink_ckpt.as_deref());
            }
            ControlMsg::Drain => out.push(TAG_DRAIN),
            ControlMsg::Bye { node_id } => {
                out.push(TAG_BYE);
                put_str(&mut out, node_id);
            }
        }
        out
    }

    /// Decodes one control message from `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFrame`] on truncation, unknown tags,
    /// over-limit lengths, non-UTF-8 identifiers or trailing garbage —
    /// never panics, never allocates from an unchecked length.
    pub fn decode(buf: &[u8]) -> Result<Self, NetError> {
        Self::decode_cursor(Cursor {
            buf,
            pos: 0,
            owner: None,
        })
    }

    /// Decodes one control message whose bytes are a shared [`Bytes`]
    /// buffer: checkpoint blobs come out as zero-copy slices of `payload`
    /// instead of fresh allocations. Same validation as
    /// [`ControlMsg::decode`].
    ///
    /// # Errors
    ///
    /// Identical to [`ControlMsg::decode`].
    pub(crate) fn decode_shared(payload: &Bytes) -> Result<Self, NetError> {
        Self::decode_cursor(Cursor {
            buf: payload,
            pos: 0,
            owner: Some(payload),
        })
    }

    fn decode_cursor(mut cur: Cursor<'_>) -> Result<Self, NetError> {
        let tag = cur.u8()?;
        let msg = match tag {
            TAG_HELLO => ControlMsg::Hello {
                node_id: cur.str()?,
                control_port: u16::from_be_bytes(cur.array()?),
            },
            TAG_HEARTBEAT => ControlMsg::Heartbeat {
                node_id: cur.str()?,
                seq: cur.u64()?,
            },
            TAG_DEPLOY => ControlMsg::DeployTenant {
                tenant: cur.str()?,
                epoch: cur.u64()?,
                fps_millis: u32::from_be_bytes(cur.array()?),
                source_ckpt: cur.blob()?,
                sink_ckpt: cur.blob()?,
            },
            TAG_RETIRE => ControlMsg::RetireTenant {
                tenant: cur.str()?,
                epoch: cur.u64()?,
            },
            TAG_REPORT => ControlMsg::TenantReport {
                node_id: cur.str()?,
                tenant: cur.str()?,
                epoch: cur.u64()?,
                retired: match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(NetError::BadFrame("control: bad bool")),
                },
                counted: cur.u64()?,
                duplicates: cur.u64()?,
                double_counted: cur.u64()?,
                last_seq: cur.u64()?,
                source_ckpt: cur.blob()?,
                sink_ckpt: cur.blob()?,
            },
            TAG_DRAIN => ControlMsg::Drain,
            TAG_BYE => ControlMsg::Bye {
                node_id: cur.str()?,
            },
            _ => return Err(NetError::BadFrame("control: unknown tag")),
        };
        if cur.pos != cur.buf.len() {
            return Err(NetError::BadFrame("control: trailing garbage"));
        }
        Ok(msg)
    }

    /// Wraps the message in a control-plane [`WireMessage`] frame.
    pub fn into_wire(self) -> WireMessage {
        WireMessage {
            kind: MessageKind::Control,
            channel: CONTROL_CHANNEL.to_string(),
            reply_to: String::new(),
            corr_id: 0,
            seq: 0,
            timestamp_ns: 0,
            payload: bytes::Bytes::from(self.encode()),
        }
    }

    /// Extracts a control message from a received frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFrame`] when the frame is not a
    /// control-plane frame or its payload fails to decode.
    pub fn from_wire(msg: &WireMessage) -> Result<Self, NetError> {
        if msg.kind != MessageKind::Control || msg.channel != CONTROL_CHANNEL {
            return Err(NetError::BadFrame("control: not a control frame"));
        }
        // The payload is already shared bytes (a slice of the read chunk on
        // the zero-copy receive path): checkpoints decode as slices of it.
        Self::decode_shared(&msg.payload)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    // Identifiers share the wire channel-length cap; encode truncates
    // defensively (identifiers are short by construction).
    let bytes = s.as_bytes();
    let len = bytes.len().min(MAX_CHANNEL_LEN);
    out.push(len as u8);
    out.extend_from_slice(&bytes[..len]);
}

fn put_blob(out: &mut Vec<u8>, blob: Option<&[u8]>) {
    match blob {
        None => out.push(0),
        Some(b) => {
            let len = b.len().min(MAX_CHECKPOINT_LEN);
            out.push(1);
            out.extend_from_slice(&(len as u32).to_be_bytes());
            out.extend_from_slice(&b[..len]);
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When decoding from shared bytes, the owning buffer — blobs slice it
    /// instead of allocating. `buf` is always `owner.as_ref()` when set,
    /// so positions in `buf` are offsets into `owner`.
    owner: Option<&'a Bytes>,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], NetError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(NetError::BadFrame("control: length overflow"))?;
        if end > self.buf.len() {
            return Err(NetError::BadFrame("control: truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn str(&mut self) -> Result<String, NetError> {
        let len = self.u8()? as usize;
        if len > MAX_CHANNEL_LEN {
            return Err(NetError::BadFrame("control: identifier too long"));
        }
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| NetError::BadFrame("control: identifier not utf-8"))
    }

    fn blob(&mut self) -> Result<Option<Bytes>, NetError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let len = u32::from_be_bytes(self.array()?) as usize;
                if len > MAX_CHECKPOINT_LEN {
                    return Err(NetError::BadFrame("control: checkpoint too large"));
                }
                // Bounds-check against the remaining buffer BEFORE any
                // allocation: a hostile length cannot over-allocate.
                let start = self.pos;
                self.take(len)?;
                Ok(Some(match self.owner {
                    // Shared decode: the blob is a zero-copy slice of the
                    // frame's own allocation.
                    Some(owner) => owner.slice(start..start + len),
                    None => Bytes::copy_from_slice(&self.buf[start..start + len]),
                }))
            }
            _ => Err(NetError::BadFrame("control: bad blob flag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ControlMsg> {
        vec![
            ControlMsg::Hello {
                node_id: "node-1".into(),
                control_port: 45_001,
            },
            ControlMsg::Heartbeat {
                node_id: "node-1".into(),
                seq: 42,
            },
            ControlMsg::DeployTenant {
                tenant: "t017".into(),
                epoch: 3,
                fps_millis: 20_000,
                source_ckpt: Some(Bytes::from(vec![1, 0, 0, 0, 0, 0, 0, 0, 9])),
                sink_ckpt: None,
            },
            ControlMsg::RetireTenant {
                tenant: "t017".into(),
                epoch: 3,
            },
            ControlMsg::TenantReport {
                node_id: "node-2".into(),
                tenant: "t017".into(),
                epoch: 3,
                retired: true,
                counted: 812,
                duplicates: 4,
                double_counted: 0,
                last_seq: 815,
                source_ckpt: Some(Bytes::from(vec![7; 32])),
                sink_ckpt: Some(Bytes::from(vec![9; 48])),
            },
            ControlMsg::Drain,
            ControlMsg::Bye {
                node_id: "node-3".into(),
            },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for msg in samples() {
            let decoded = ControlMsg::decode(&msg.encode()).expect("decodes");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn wire_roundtrip() {
        for msg in samples() {
            let frame = msg.clone().into_wire();
            // Through the actual wire codec, like a real TCP hop.
            let mut buf = bytes::BytesMut::new();
            frame.encode_framed_into(&mut buf).expect("encodes");
            let decoded_frame = WireMessage::decode(&buf[4..]).expect("frame decodes");
            assert_eq!(ControlMsg::from_wire(&decoded_frame).expect("msg"), msg);
        }
    }

    #[test]
    fn truncations_are_typed_errors() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    ControlMsg::decode(&bytes[..cut]).is_err(),
                    "truncation at {cut} must fail for {msg:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = ControlMsg::Drain.encode();
        bytes.push(0xAA);
        assert!(ControlMsg::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(ControlMsg::decode(&[0xFF]).is_err());
        assert!(ControlMsg::decode(&[]).is_err());
    }

    #[test]
    fn hostile_checkpoint_length_rejected_before_allocation() {
        // DeployTenant with a blob claiming u32::MAX bytes.
        let mut bytes = Vec::new();
        bytes.push(3); // TAG_DEPLOY
        bytes.push(4);
        bytes.extend_from_slice(b"t001");
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&20_000u32.to_be_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            ControlMsg::decode(&bytes),
            Err(NetError::BadFrame(_))
        ));
    }

    #[test]
    fn non_control_frame_rejected() {
        let mut frame = ControlMsg::Drain.into_wire();
        frame.kind = MessageKind::Data;
        assert!(ControlMsg::from_wire(&frame).is_err());
    }

    #[test]
    fn decode_shared_matches_decode_and_borrows_blobs() {
        for msg in samples() {
            let payload = Bytes::from(msg.encode());
            let copied = ControlMsg::decode(&payload).expect("decode");
            let shared = ControlMsg::decode_shared(&payload).expect("decode_shared");
            assert_eq!(copied, shared);
            assert_eq!(shared, msg);
            if let ControlMsg::TenantReport {
                source_ckpt: Some(ckpt),
                ..
            } = &shared
            {
                let range = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
                assert!(
                    range.contains(&(ckpt.as_ptr() as usize)),
                    "checkpoint must be a slice of the payload allocation"
                );
            }
        }
    }
}
