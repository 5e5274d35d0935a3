//! The VideoPipe core: modules, stateless services, pipeline DAGs,
//! configuration, deployment planning, flow control, metrics and the local
//! threaded runtime.
//!
//! This crate is the Rust reproduction of the paper's primary contribution
//! (*VideoPipe: Building Video Stream Processing Pipelines at the Edge*,
//! Middleware Industry '19): a FaaS-container hybrid runtime that places
//! lightweight pipeline **modules** on heterogeneous edge devices and
//! co-locates them with the stateless **services** they call.
//!
//! # The pieces
//!
//! * [`module`] — the [`Module`](module::Module) trait and
//!   [`ModuleCtx`](module::ModuleCtx) (the paper's Table 1 API:
//!   `init` / `event_received` / `call_service` / `call_module`).
//! * [`service`] — stateless [`Service`](service::Service)s with cost
//!   models, shareable across pipelines and horizontally scalable.
//! * [`spec`] / [`config`] — the pipeline DAG and the Listing-1-style
//!   configuration parser.
//! * [`deploy`] — devices, placements, service-binding resolution
//!   (co-located vs remote), and latency-model-driven automatic placement.
//! * [`flow`] — the no-queue, drop-at-source flow control (§2.3).
//! * [`health`] — heartbeat-based device failure detection feeding the
//!   self-healing failover path.
//! * [`resilience`] — retry policies, per-service circuit breakers and
//!   degradation policies that keep the §2.3 design from wedging when
//!   services fail.
//! * [`metrics`] — per-stage latency histograms and FPS accounting (the
//!   exact quantities of Fig. 6 and Table 2).
//! * [`runtime`] — the threaded local runtime executing deployments for
//!   real, with per-module isolation, transparent cross-device frame
//!   transcoding, and optional real-TCP cross-device transport.
//! * [`reactor`] — the event-driven multi-pipeline executor: one worker
//!   pool sized to cores runs module steps, service dispatch, pacer ticks
//!   and watchers as scheduled tasks, so thread count stays O(cores) while
//!   pipeline count scales to the tens of thousands. Both runtimes drive
//!   one crate-private engine that owns everything done per message; they
//!   differ only in when a step runs and how a wait is spent.
//! * [`slo`] — the per-pipeline SLO feedback controller: windowed-tail
//!   observation over the metrics histograms, an ordered degradation knob
//!   lattice, hysteresis and dwell.
//! * [`telemetry`] — pipeline monitoring snapshots over PUB/SUB (the
//!   paper's §7 future work).
//!
//! # Quickstart
//!
//! ```
//! let spec = videopipe_core::config::parse(r#"
//!     pipeline: demo
//!     modules: [
//!         { name: src include("Source.js") next_module: sink }
//!         { name: sink include("Sink.js") }
//!     ]"#)?;
//! assert_eq!(spec.modules.len(), 2);
//! # Ok::<(), videopipe_core::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod deploy;
mod engine;
mod error;
pub mod flow;
pub mod health;
pub mod message;
pub mod metrics;
pub mod module;
pub mod reactor;
pub mod resilience;
pub mod runtime;
pub mod service;
pub mod slo;
pub mod spec;
pub mod telemetry;

pub use error::PipelineError;

/// The most frequently used items.
pub mod prelude {
    pub use crate::deploy::{
        plan, replan_after_device_loss, DeploymentPlan, DeviceSpec, Placement,
    };
    pub use crate::error::PipelineError;
    pub use crate::health::{DeviceStatus, FailureDetector, HealthConfig};
    pub use crate::message::{Header, Message, Payload};
    pub use crate::metrics::PipelineMetrics;
    pub use crate::module::{Event, Module, ModuleCtx, ModuleRegistry};
    pub use crate::reactor::{ReactorConfig, ReactorRuntime};
    pub use crate::resilience::{DegradationPolicy, ResilienceConfig, RetryPolicy};
    pub use crate::runtime::{BatchConfig, LocalRuntime, RuntimeConfig};
    pub use crate::service::{Service, ServiceRegistry, ServiceRequest, ServiceResponse};
    pub use crate::slo::{Knob, Slo, SloConfig, SloController};
    pub use crate::spec::{ModuleSpec, PipelineSpec};
}
