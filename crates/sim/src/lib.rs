//! Deterministic discrete-event simulator for VideoPipe.
//!
//! The paper evaluates on real hardware (a 2018 flagship phone, a desktop
//! and a TV on Wi-Fi) that this reproduction does not have. This crate
//! replaces that testbed with a calibrated, deterministic simulation that
//! still executes the *real* pipeline code:
//!
//! * Modules and services run host-side exactly as on the local runtime —
//!   real frames, real pose detection, real classifiers. Because services
//!   are stateless (`&self`), their results are timing-independent, so data
//!   can be computed eagerly while **timing** is replayed on a virtual
//!   clock.
//! * Timing covers everything the paper's numbers depend on: per-module
//!   handler costs scaled by device speed, service-executor pools with FIFO
//!   queueing (shared across pipelines — Table 2's fourth column), Wi-Fi
//!   links with latency + bandwidth + jitter, the credit-based drop-at-
//!   source flow control, and the camera's capture overhead.
//!
//! Entry points: [`SimProfile`] (calibration constants), [`Scenario`]
//! (builds and runs one experiment), [`ScenarioReport`] (per-pipeline
//! metrics plus pool/link statistics).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod engine;
mod faults;
mod net_model;
mod pool;
mod profiles;
mod scenario;
mod time;

pub use engine::Engine;
pub use faults::{DeviceCrash, FaultPlan, LatencySpike, LinkPartition};
pub use net_model::{LinkModel, LinkStats};
pub use pool::{PoolStats, ServicePool};
pub use profiles::SimProfile;
pub use scenario::{
    FailoverConfig, FailoverEvent, LoadPlan, PipelineHandle, Scenario, ScenarioReport, SloSummary,
    SloTickRecord,
};
pub use time::SimTime;
