//! Multi-process fleet layer for VideoPipe.
//!
//! Everything below this crate runs pipelines *inside* one OS process —
//! the event-driven [`ReactorRuntime`](videopipe_core::reactor::ReactorRuntime)
//! and the simulator. This crate is the step to a
//! real fleet: tenant pipelines sharded across **real processes over real
//! TCP**, surviving the loss of a machine.
//!
//! * `node` — the node agent behind the `videopipe-node` binary: hosts a
//!   [`ReactorRuntime`](videopipe_core::reactor::ReactorRuntime) of tenant
//!   pipelines, speaks the control plane ([`videopipe_net::control`]) to
//!   the coordinator, sends heartbeats, drains gracefully on SIGTERM.
//! * `coordinator` — the placement/failover brain behind
//!   `videopipe-coordinator`: consistent-hash placement validated through
//!   `deploy::autoplace_pinned`, lease-based failure detection via
//!   [`core::health`](videopipe_core::health) fed by TCP heartbeats,
//!   survivor-restricted replanning plus checkpoint redeploy on confirmed
//!   node death, epoch fencing of stale reports, rejoin with rebalance.
//! * `workload` — the counting tenant pipeline used fleet-wide: a source
//!   that mints a monotonic frame sequence and a sink that counts each
//!   sequence exactly once, both checkpointable, so delivery and
//!   exactly-once invariants are measurable from outside the process.
//! * `scenario` — the declarative chaos harness: a [`ClusterScenario`]
//!   ("3 nodes, 200 pipelines, SIGKILL node 2 at t=10s, heal at t=20s")
//!   plus a local-process runner that spawns/kills real child processes
//!   and asserts delivery, exactly-once counting and fleet MTTR.
//! * `ring` — deterministic consistent-hash ring with virtual nodes.
//! * `status` — the coordinator's crash-safe `key=value` status file,
//!   the observation channel the harness (and operators) read.
//! * `signals` — minimal POSIX signal plumbing (flag-setting handlers
//!   and `kill(2)` for fault injection), isolated here because the rest
//!   of the workspace forbids unsafe code.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod coordinator;
mod node;
mod ring;
mod scenario;
mod signals;
mod status;
mod workload;

pub use coordinator::{run_coordinator, CoordinatorOpts};
pub use node::{run_node, NodeOpts};
pub use scenario::{ClusterScenario, Fault, LocalProcessRunner};
pub use signals::{install_termination_handler, termination_requested};

use videopipe_net::{Ingress, NetError, PollEndpoint};

/// Binds a control listener at `addr` on an [`Ingress`] of its own, the
/// way the coordinator and every node receive control-plane frames;
/// returns it with the bound port.
fn bind_control(addr: &str) -> Result<(Ingress<()>, u16), NetError> {
    let endpoint = PollEndpoint::bind(addr)?;
    let port = endpoint.local_port();
    let mut ingress = Ingress::new()?;
    ingress.add((), endpoint)?;
    Ok((ingress, port))
}
