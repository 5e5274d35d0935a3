//! # VideoPipe
//!
//! A Rust reproduction of *VideoPipe: Building Video Stream Processing
//! Pipelines at the Edge* (Salehe, Hu, Mortazavi, Capes, Mohomed —
//! Middleware Industry '19, <https://doi.org/10.1145/3366626.3368131>).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] — modules, stateless services, pipeline DAGs, configuration,
//!   deployment planning, flow control and metrics.
//! * [`net`] — the messaging substrate: wire codec, in-process and TCP
//!   transports (one ingress loop, one send path).
//! * [`media`] — frames, frame store, image codec, synthetic scenes and
//!   video sources.
//! * [`ml`] — the ML substrates built from scratch: k-means, k-NN, pose
//!   detection, activity recognition, rep counting, object/face detection.
//! * [`sim`] — the deterministic discrete-event simulator used by the
//!   evaluation harness.
//! * [`apps`] — the paper's applications (fitness, gesture-control IoT,
//!   fall detection) and the EdgeEye-style baseline.
//! * [`cluster`] — the multi-process fleet: node agent, coordinator,
//!   consistent-hash placement and the cluster chaos harness.
//!
//! See `README.md` for a tour and `examples/` for runnable pipelines.

pub use videopipe_apps as apps;
pub use videopipe_cluster as cluster;
pub use videopipe_core as core;
pub use videopipe_media as media;
pub use videopipe_ml as ml;
pub use videopipe_net as net;
pub use videopipe_sim as sim;

/// Convenient star-import of the most frequently used items.
pub mod prelude {
    pub use videopipe_core::prelude::*;
    pub use videopipe_media::{Frame, FrameId, FrameStore, Pose};
}
