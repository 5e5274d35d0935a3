//! Brokerless messaging substrate for VideoPipe.
//!
//! The paper uses ZeroMQ (§3.2): pipeline edges and service calls are direct
//! socket connections — explicitly *not* brokered like Kafka/RabbitMQ,
//! because "these brokers will incur extra data communication overheads".
//! This crate is the from-scratch equivalent:
//!
//! * [`WireMessage`] — the framed wire format (kind, channel, correlation
//!   id, sequence, timestamp, payload bytes) with a hand-written codec.
//! * [`Endpoint`] — endpoint strings exactly as they appear in the paper's
//!   pipeline configuration (`"bind#tcp://*:5861"`), plus `inproc://`.
//! * [`InprocHub`] — named in-process channels and PUB/SUB topics
//!   (crossbeam-backed).
//! * [`tcp`] — a real TCP transport with length-prefixed framing for
//!   cross-device edges, with one way in and one way out: every receiver
//!   is a [`PollEndpoint`] on an [`Ingress`] readiness loop (the reactor's
//!   I/O thread and [`tcp::TcpListenerHandle`] both turn the same loop), and
//!   [`tcp::TcpSender`] has one stage → flush send path.
//! * The ZeroMQ socket patterns are shapes of those pieces rather than
//!   types of their own: PUSH/PULL is an [`InprocHub`] channel or a
//!   `TcpSender` → `PollEndpoint` edge, REQ/REP is
//!   [`WireMessage::request`] / [`WireMessage::response_to`] matched by
//!   correlation id in the runtime, PUB/SUB is [`InprocHub::publish`].
//! * [`broker`] — a deliberately *brokered* relay used only as the ablation
//!   baseline that quantifies the paper's extra-hop claim.
//! * [`Poller`] — readiness waiting (`epoll` + `eventfd` on Linux) under
//!   [`Ingress`], so its thread blocks until a socket has something to
//!   read instead of scanning them all on a timer.
//! * [`exact_timer_wakeups`] — drops the calling thread's kernel timer
//!   slack to 1 ns, so the reactor's exact deadlines fire on time.

// `deny`, not `forbid`: the `poller` module alone opts back in, for the
// four `epoll`/`eventfd` calls and the one `prctl` no vendored crate wraps.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod control;
mod endpoint;
mod error;
mod inproc;
#[allow(unsafe_code)]
mod poller;
pub mod pool;
pub mod tcp;
pub mod telemetry;
mod wire;

pub use endpoint::{Endpoint, EndpointMode, EndpointTransport};
pub use error::NetError;
pub use inproc::{InprocHub, InprocReceiver, InprocSender};
pub use poller::{exact_timer_wakeups, Poller};
pub use pool::{BufferPool, PoolStats};
pub use tcp::{Ingress, PollEndpoint};
pub use wire::{
    FrameBatch, MessageKind, StreamDecoder, WireMessage, MAX_CHANNEL_LEN, MAX_FRAME_LEN,
};

use std::time::Duration;

/// Sending half of a message transport.
pub trait MsgSender: Send {
    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] when the peer is gone or the message cannot be
    /// encoded/transmitted.
    fn send(&self, msg: WireMessage) -> Result<(), NetError>;
}

/// Receiving half of a message transport.
pub trait MsgReceiver: Send {
    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] when every sender is gone.
    fn recv(&self) -> Result<WireMessage, NetError>;

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::WouldBlock`] when no message is ready and
    /// [`NetError::Disconnected`] when every sender is gone.
    fn try_recv(&self) -> Result<WireMessage, NetError>;

    /// Receive with a timeout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] on expiry and
    /// [`NetError::Disconnected`] when every sender is gone.
    fn recv_timeout(&self, timeout: Duration) -> Result<WireMessage, NetError>;
}
