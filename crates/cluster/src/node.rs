//! The node agent: one OS process hosting many tenant pipelines.
//!
//! A node is a [`ReactorRuntime`] wrapped in a control-plane shell. On
//! start it dials the coordinator over TCP, introduces itself with
//! `Hello{node_id, control_port}` and then loops on the main thread:
//! per-tenant [`TenantReport`](ControlMsg::TenantReport)s (counters +
//! fresh checkpoints) on one cadence, coordinator commands (deploy /
//! retire / drain) whenever they arrive on its listener. In between it
//! sleeps in [`Ingress::turn`](videopipe_net::Ingress::turn) on that
//! listener until a command arrives or the next report is due; the
//! listener has no thread of its own. Heartbeats ride a dedicated thread
//! and a dedicated TCP connection: a report pass that stalls on a busy
//! module's checkpoint (or a slow control write) must not delay the
//! liveness signal — that coupling is exactly how a loaded-but-healthy
//! node would get falsely confirmed dead. A node thus runs `workers + 2`
//! threads: the main loop, the heartbeat thread and the reactor's workers
//! (plus its I/O thread once a tenant uses TCP).
//!
//! Shutdown is graceful by construction: SIGTERM/SIGINT (or a `Drain`
//! command) breaks the loop — the kernel hands a process-directed signal
//! to the main thread while it waits, which ends the wait — stops every
//! pipeline — which takes one final checkpoint per module — ships final
//! `retired` reports plus a `Bye`, flushes the TCP sender and exits 0. A
//! SIGKILL, by contrast, is exactly the machine-death the coordinator's
//! failure detector exists for.

use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use videopipe_core::reactor::{ReactorConfig, ReactorRuntime};
use videopipe_core::runtime::RuntimeConfig;
use videopipe_net::control::ControlMsg;
use videopipe_net::tcp::{ReconnectPolicy, TcpSender};
use videopipe_net::{MsgSender, WireMessage};

use crate::workload::{self, TenantStats, SINK_MODULE, SRC_MODULE};
use crate::{bind_control, signals};

/// Node agent configuration (mirrors the `videopipe-node` CLI flags).
#[derive(Debug, Clone)]
pub struct NodeOpts {
    /// Stable node identity (survives restarts; placement keys on it).
    pub node_id: String,
    /// Coordinator control address (`host:port`).
    pub coordinator: String,
    /// Command listener bind address (`127.0.0.1:0` = ephemeral).
    pub listen: String,
    /// Heartbeat cadence.
    pub hb_interval: Duration,
    /// Tenant report cadence.
    pub report_interval: Duration,
    /// Module checkpoint period handed to every tenant's runtime config.
    pub checkpoint_period: Duration,
    /// Reactor worker threads.
    pub workers: usize,
    /// Exit after this long even without a signal (None = run until
    /// signalled; scenarios always SIGTERM, this is a leak backstop).
    pub run_for: Option<Duration>,
}

impl Default for NodeOpts {
    fn default() -> Self {
        NodeOpts {
            node_id: "node-0".into(),
            coordinator: "127.0.0.1:7700".into(),
            listen: "127.0.0.1:0".into(),
            hb_interval: Duration::from_millis(100),
            report_interval: Duration::from_millis(150),
            checkpoint_period: Duration::from_millis(100),
            workers: 2,
            run_for: None,
        }
    }
}

struct HostedTenant {
    pipe_id: usize,
    epoch: u64,
    stats: Arc<TenantStats>,
}

/// Runs the node agent to completion (drain or deadline). Returns the
/// number of tenants that were still hosted at shutdown.
///
/// # Errors
///
/// Returns an error string when the listener cannot bind, the coordinator
/// cannot be reached within the connect deadline or waiting on the
/// listener fails (after the graceful drain).
pub fn run_node(opts: &NodeOpts) -> Result<usize, String> {
    signals::install_termination_handler();
    let (mut ingress, control_port) = bind_control(&opts.listen)
        .map_err(|e| format!("node {}: bind {}: {e}", opts.node_id, opts.listen))?;
    let coord = TcpSender::connect_retry(&opts.coordinator, Duration::from_secs(10))
        .map_err(|e| {
            format!(
                "node {}: dial coordinator {}: {e}",
                opts.node_id, opts.coordinator
            )
        })?
        .with_reconnect(ReconnectPolicy::default());
    coord
        .send(
            ControlMsg::Hello {
                node_id: opts.node_id.clone(),
                control_port,
            }
            .into_wire(),
        )
        .map_err(|e| format!("node {}: hello: {e}", opts.node_id))?;

    // Liveness is decoupled from the work loop by construction: the
    // heartbeat thread owns its own socket and never touches the runtime,
    // so nothing this process hosts can stall it.
    let hb_stop = Arc::new(AtomicBool::new(false));
    let hb_thread = {
        let stop = Arc::clone(&hb_stop);
        let node_id = opts.node_id.clone();
        let addr = opts.coordinator.clone();
        let interval = opts.hb_interval;
        std::thread::spawn(move || {
            let Ok(hb) = TcpSender::connect_retry(&addr, Duration::from_secs(10)) else {
                return;
            };
            let hb = hb.with_reconnect(ReconnectPolicy::default());
            let mut seq: u64 = 0;
            while !stop.load(Ordering::Relaxed) && !signals::termination_requested() {
                seq += 1;
                let _ = hb.send(
                    ControlMsg::Heartbeat {
                        node_id: node_id.clone(),
                        seq,
                    }
                    .into_wire(),
                );
                std::thread::sleep(interval);
            }
        })
    };

    let mut rt = ReactorRuntime::new(ReactorConfig {
        workers: opts.workers,
        ..ReactorConfig::default()
    });
    let mut tenants: HashMap<String, HostedTenant> = HashMap::new();
    let started = Instant::now();
    let end = opts.run_for.map(|limit| started + limit);
    let mut next_report = started + opts.report_interval;
    let mut draining = false;

    let turned = loop {
        let now = Instant::now();
        if signals::termination_requested() || draining || end.is_some_and(|end| now >= end) {
            break Ok(());
        }
        if now >= next_report {
            next_report = now + opts.report_interval;
            for (name, t) in &tenants {
                let report = tenant_report(opts, &rt, name, t, false);
                let _ = coord.send(report.into_wire());
            }
        }
        let until = end.map_or(next_report, |end| end.min(next_report));
        let turn = ingress.turn(Some(until), |_, frame| {
            draining |= on_command(&frame, opts, &mut rt, &mut tenants, &coord);
        });
        if let Err(e) = turn {
            break Err(format!("node {}: control listener: {e}", opts.node_id));
        }
    };

    // Graceful drain: stop heartbeating (so nothing lands after Bye),
    // stop every pipeline (final checkpoints), ship final reports, say
    // goodbye, flush, exit clean.
    hb_stop.store(true, Ordering::Relaxed);
    let _ = hb_thread.join();
    let hosted = tenants.len();
    for (name, t) in &tenants {
        rt.stop_pipeline(t.pipe_id);
        let report = tenant_report(opts, &rt, name, t, true);
        let _ = coord.send(report.into_wire());
    }
    let _ = coord.send(
        ControlMsg::Bye {
            node_id: opts.node_id.clone(),
        }
        .into_wire(),
    );
    let _ = coord.flush_now();
    drop(rt); // joins reactor threads
    turned.map(|()| hosted)
}

/// Carries out one coordinator command; returns whether it was `Drain`.
fn on_command(
    frame: &WireMessage,
    opts: &NodeOpts,
    rt: &mut ReactorRuntime,
    tenants: &mut HashMap<String, HostedTenant>,
    coord: &TcpSender,
) -> bool {
    match ControlMsg::from_wire(frame) {
        Ok(ControlMsg::DeployTenant {
            tenant,
            epoch,
            fps_millis,
            source_ckpt,
            sink_ckpt,
        }) => {
            deploy_tenant(
                rt,
                tenants,
                opts,
                &tenant,
                epoch,
                fps_millis,
                source_ckpt,
                sink_ckpt,
            );
        }
        Ok(ControlMsg::RetireTenant { tenant, epoch }) => {
            // Retire anything at-or-below the coordinator's epoch:
            // covers planned rebalance (equal) and zombie cleanup
            // after a partition heals (ours is stale, theirs newer).
            if tenants.get(&tenant).is_some_and(|t| t.epoch <= epoch) {
                if let Some(t) = tenants.remove(&tenant) {
                    rt.stop_pipeline(t.pipe_id);
                    let report = tenant_report(opts, rt, &tenant, &t, true);
                    let _ = coord.send(report.into_wire());
                }
            }
        }
        Ok(ControlMsg::Drain) => return true,
        Ok(_) | Err(_) => {}
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn deploy_tenant(
    rt: &mut ReactorRuntime,
    tenants: &mut HashMap<String, HostedTenant>,
    opts: &NodeOpts,
    tenant: &str,
    epoch: u64,
    fps_millis: u32,
    source_ckpt: Option<Bytes>,
    sink_ckpt: Option<Bytes>,
) {
    // A re-deploy (zombie instance, coordinator retry) replaces the old
    // pipeline: stop it first so two instances never count concurrently.
    if let Some(old) = tenants.remove(tenant) {
        if old.epoch >= epoch {
            // Stale or duplicate deploy: keep what we have.
            tenants.insert(tenant.to_string(), old);
            return;
        }
        rt.stop_pipeline(old.pipe_id);
    }
    let Ok(w) = workload::counting_workload(tenant, source_ckpt, sink_ckpt) else {
        return;
    };
    let config = RuntimeConfig {
        fps: f64::from(fps_millis) / 1000.0,
        checkpoint_period: Some(opts.checkpoint_period),
        dedup_window: 128,
        ..RuntimeConfig::default()
    };
    match rt.add_pipeline(&w.plan, &w.modules, &w.services, config) {
        Ok(pipe_id) => {
            tenants.insert(
                tenant.to_string(),
                HostedTenant {
                    pipe_id,
                    epoch,
                    stats: w.stats,
                },
            );
        }
        Err(e) => {
            eprintln!("node {}: deploy {tenant} failed: {e}", opts.node_id);
        }
    }
}

fn tenant_report(
    opts: &NodeOpts,
    rt: &ReactorRuntime,
    tenant: &str,
    t: &HostedTenant,
    retired: bool,
) -> ControlMsg {
    let next_expected = t.stats.next_expected.load(Ordering::Relaxed);
    ControlMsg::TenantReport {
        node_id: opts.node_id.clone(),
        tenant: tenant.to_string(),
        epoch: t.epoch,
        retired,
        counted: t.stats.counted.load(Ordering::Relaxed),
        duplicates: t.stats.duplicates.load(Ordering::Relaxed),
        double_counted: 0,
        last_seq: next_expected.saturating_sub(1),
        source_ckpt: rt.checkpoint_for(t.pipe_id, SRC_MODULE).map(Bytes::from),
        sink_ckpt: rt.checkpoint_for(t.pipe_id, SINK_MODULE).map(Bytes::from),
    }
}
