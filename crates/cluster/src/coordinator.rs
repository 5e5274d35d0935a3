//! The fleet coordinator: placement, failure detection, failover, rejoin.
//!
//! One control loop owns all fleet state — no locks, no shared mutability
//! — and reacts to control-plane traffic from nodes:
//!
//! * **Placement.** Tenant → node via the consistent-hash [`HashRing`],
//!   then *validated and recorded* through the real deployment machinery:
//!   [`autoplace_pinned`] builds the authoritative [`DeploymentPlan`] with
//!   every member node as a device and the ring's choice pinned, so the
//!   fleet's placement story is the same `deploy::` code path the
//!   in-process runtimes use.
//! * **Failure detection.** Node heartbeats over TCP feed a
//!   [`FailureDetector`] lease clock (the PR-4 detector, unchanged); a
//!   node that misses the confirmation threshold is Dead.
//! * **Failover.** On confirmed death, each orphaned tenant is replanned
//!   with [`replan_after_device_loss`] (survivor-restricted, ring target
//!   as affinity) and redeployed to the survivor with the freshest
//!   checkpoints from its last report — epoch bumped, so anything the
//!   dead node still says about that tenant is fenced.
//! * **Rejoin & rebalance.** A returning node (fresh Hello after a crash,
//!   or resumed heartbeats after a partition) is re-admitted; tenants
//!   whose ring home moved back migrate two-phase (retire → final
//!   checkpointed report → redeploy at the next epoch). Stale-epoch
//!   reports from zombie instances are counted and answered with a
//!   retire, never believed.
//!
//! Everything observable is published through the atomic [`StatusFile`]
//! every tick; the chaos harness asserts against exactly that file.

use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use videopipe_core::deploy::{
    autoplace_pinned, plan, replan_after_device_loss, CostParams, DeploymentPlan, DeviceSpec,
    Placement,
};
use videopipe_core::health::{DeviceStatus, FailureDetector, HealthConfig};
use videopipe_net::control::ControlMsg;
use videopipe_net::tcp::{ReconnectPolicy, TcpSender};
use videopipe_net::{Ingress, MsgSender, NetError, WireMessage};

use crate::bind_control;
use crate::ring::HashRing;
use crate::signals;
use crate::status::StatusFile;
use crate::workload::{tenant_spec, SINK_MODULE, SRC_MODULE};

/// Cadence of the liveness, placement and stuck-move sweeps.
const SWEEP_INTERVAL: Duration = Duration::from_millis(20);
/// On shutdown, the listener counts as drained after this long without a
/// frame…
const DRAIN_QUIET: Duration = Duration::from_millis(100);
/// …or after this long in total, however chatty the fleet still is.
const DRAIN_CAP: Duration = Duration::from_secs(2);

/// Coordinator configuration (mirrors the `videopipe-coordinator` CLI).
#[derive(Debug, Clone)]
pub struct CoordinatorOpts {
    /// Control listener bind address (`127.0.0.1:0` = ephemeral; the
    /// bound port is published in the status file as `control_port`).
    pub listen: String,
    /// Path of the atomic status file.
    pub status_path: std::path::PathBuf,
    /// Nodes to wait for before the initial placement.
    pub expect_nodes: usize,
    /// Tenant pipelines to place (named `t000`, `t001`, …).
    pub tenants: usize,
    /// Per-tenant source frame rate.
    pub fps: f64,
    /// Heartbeat cadence nodes were told to use.
    pub hb_interval: Duration,
    /// Lease: grace past the last heartbeat before a node is late at all.
    pub lease: Duration,
    /// Missed beats past the lease to confirm death.
    pub confirmation_threshold: u32,
    /// Status file rewrite cadence.
    pub status_interval: Duration,
    /// Exit after this long even without SIGTERM (leak backstop).
    pub run_for: Option<Duration>,
}

impl Default for CoordinatorOpts {
    fn default() -> Self {
        CoordinatorOpts {
            listen: "127.0.0.1:0".into(),
            status_path: std::path::PathBuf::from("coordinator.status"),
            expect_nodes: 3,
            tenants: 30,
            fps: 20.0,
            hb_interval: Duration::from_millis(100),
            lease: Duration::from_millis(300),
            confirmation_threshold: 3,
            status_interval: Duration::from_millis(100),
            run_for: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeHealth {
    Alive,
    Suspect,
    Down,
    Departed,
}

struct NodeState {
    control_port: u16,
    sender: Option<TcpSender>,
    health: NodeHealth,
    last_beat_wall: Instant,
}

struct TenantState {
    host: Option<String>,
    epoch: u64,
    counted: u64,
    duplicates: u64,
    last_seq: u64,
    source_ckpt: Option<Bytes>,
    sink_ckpt: Option<Bytes>,
    /// Authoritative placement record (devices = member nodes at plan
    /// time; kept current through `replan_after_device_loss` on failover).
    plan: Option<DeploymentPlan>,
    /// Two-phase rebalance target (waiting for the retire's final report).
    moving_to: Option<(String, Instant)>,
    /// Set while waiting for the first report at a bumped epoch.
    recovering_failover: Option<usize>,
}

struct FailoverEvent {
    node: String,
    confirm_at: Instant,
    detect_ms: f64,
    tenants: usize,
    recovered: usize,
    mttr_ms: Option<f64>,
}

/// The coordinator's full mutable state plus its control loop.
struct Coordinator {
    opts: CoordinatorOpts,
    started: Instant,
    /// The control listener's bound port, published in the status file.
    control_port: u16,
    status: StatusFile,
    detector: FailureDetector,
    nodes: BTreeMap<String, NodeState>,
    tenants: BTreeMap<String, TenantState>,
    params: CostParams,
    deployed: bool,
    first_deploy: Option<Instant>,
    failovers: Vec<FailoverEvent>,
    fenced_reports: u64,
    moves: u64,
    byes: u64,
}

/// Runs the coordinator to completion (SIGTERM/SIGINT or `run_for`).
/// Returns the number of confirmed node-loss failover events handled.
///
/// # Errors
///
/// Returns an error string when the listener cannot bind, the status file
/// cannot be written at startup or waiting on the listener fails.
pub fn run_coordinator(opts: &CoordinatorOpts) -> Result<usize, String> {
    signals::install_termination_handler();
    let (mut ingress, control_port) = bind_control(&opts.listen)
        .map_err(|e| format!("coordinator: bind {}: {e}", opts.listen))?;
    let status = StatusFile::new(&opts.status_path);
    let detector = FailureDetector::new(HealthConfig {
        heartbeat_interval: opts.hb_interval,
        lease: opts.lease,
        suspicion_threshold: 1,
        confirmation_threshold: opts.confirmation_threshold,
    });
    let mut c = Coordinator::new(opts, control_port, status, detector);
    // Publish the bound port immediately: the harness reads it to point
    // the nodes here.
    c.write_status()
        .map_err(|e| format!("coordinator: status: {e}"))?;
    c.run(&mut ingress, signals::termination_requested)
        .map_err(|e| format!("coordinator: control listener: {e}"))?;
    Ok(c.failovers.len())
}

impl Coordinator {
    fn new(
        opts: &CoordinatorOpts,
        control_port: u16,
        status: StatusFile,
        detector: FailureDetector,
    ) -> Self {
        Coordinator {
            started: Instant::now(),
            control_port,
            status,
            detector,
            nodes: BTreeMap::new(),
            tenants: (0..opts.tenants)
                .map(|i| {
                    (
                        format!("t{i:03}"),
                        TenantState {
                            host: None,
                            epoch: 0,
                            counted: 0,
                            duplicates: 0,
                            last_seq: 0,
                            source_ckpt: None,
                            sink_ckpt: None,
                            plan: None,
                            moving_to: None,
                            recovering_failover: None,
                        },
                    )
                })
                .collect(),
            params: CostParams::default(),
            deployed: false,
            first_deploy: None,
            failovers: Vec::new(),
            fenced_reports: 0,
            moves: 0,
            byes: 0,
            opts: opts.clone(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The control loop over `ingress`, until `stop` says so or `run_for`
    /// passes. It sleeps in [`Ingress::turn`] until a frame arrives or the
    /// next sweep, status write or `run_for` is due; the sweep and status
    /// deadlines step on fixed grids from the start, so with the default
    /// 100 ms status cadence every status write shares a sweep's wake-up.
    /// A termination signal ends the wait early (`EINTR`).
    ///
    /// # Errors
    ///
    /// A failed wait on `ingress`; the final status is written first.
    fn run(&mut self, ingress: &mut Ingress<()>, stop: impl Fn() -> bool) -> Result<(), NetError> {
        let end = self.opts.run_for.map(|limit| self.started + limit);
        let mut next_sweep = Instant::now();
        let mut next_status = next_sweep;
        let result = loop {
            if stop() {
                // Nodes drain before the coordinator is told to stop, so
                // their final reports and `Bye`s may still be in flight.
                break self.drain(ingress);
            }
            let now = Instant::now();
            if end.is_some_and(|end| now >= end) {
                break Ok(());
            }
            if step(&mut next_sweep, SWEEP_INTERVAL, now) {
                self.maybe_initial_deploy();
                self.sweep_liveness();
                self.sweep_stuck_moves();
            }
            if step(&mut next_status, self.opts.status_interval, now) {
                let _ = self.write_status();
            }
            let until = end.into_iter().chain([next_sweep, next_status]).min();
            if let Err(e) = ingress.turn(until, |_, frame| self.handle_frame(&frame)) {
                break Err(e);
            }
        };
        // Final snapshot so the harness reads end-of-run truth.
        let _ = self.write_status();
        result
    }

    /// Handles what `ingress` holds or still receives, until it has been
    /// quiet for [`DRAIN_QUIET`] or [`DRAIN_CAP`] has passed.
    fn drain(&mut self, ingress: &mut Ingress<()>) -> Result<(), NetError> {
        let cap = Instant::now() + DRAIN_CAP;
        let mut quiet_at = Instant::now() + DRAIN_QUIET;
        loop {
            let until = quiet_at.min(cap);
            if Instant::now() >= until {
                return Ok(());
            }
            if ingress.turn(Some(until), |_, frame| self.handle_frame(&frame))? > 0 {
                quiet_at = Instant::now() + DRAIN_QUIET;
            }
        }
    }

    // ---- control-plane handlers ------------------------------------

    fn handle_frame(&mut self, frame: &WireMessage) {
        if let Ok(msg) = ControlMsg::from_wire(frame) {
            self.handle(msg);
        }
    }

    fn handle(&mut self, msg: ControlMsg) {
        match msg {
            ControlMsg::Hello {
                node_id,
                control_port,
            } => self.on_hello(&node_id, control_port),
            ControlMsg::Heartbeat { node_id, .. } => self.on_heartbeat(&node_id),
            ControlMsg::TenantReport {
                node_id,
                tenant,
                epoch,
                retired,
                counted,
                duplicates,
                last_seq,
                source_ckpt,
                sink_ckpt,
                ..
            } => self.on_report(
                &node_id,
                &tenant,
                epoch,
                retired,
                counted,
                duplicates,
                last_seq,
                source_ckpt,
                sink_ckpt,
            ),
            ControlMsg::Bye { node_id } => self.on_bye(&node_id),
            // Node-bound messages are never valid here.
            ControlMsg::DeployTenant { .. }
            | ControlMsg::RetireTenant { .. }
            | ControlMsg::Drain => {}
        }
    }

    fn on_hello(&mut self, node_id: &str, control_port: u16) {
        let now_ns = self.now_ns();
        self.detector.expect(node_id, now_ns);
        self.detector.record_heartbeat(node_id, now_ns);
        let addr = format!("127.0.0.1:{control_port}");
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(5))
            .map(|s| s.with_reconnect(ReconnectPolicy::default()))
            .ok();
        let was_member = self.nodes.contains_key(node_id);
        self.nodes.insert(
            node_id.to_string(),
            NodeState {
                control_port,
                sender,
                health: NodeHealth::Alive,
                last_beat_wall: Instant::now(),
            },
        );
        // A fresh Hello from a known node is a rejoin (crash + restart):
        // fold it back in and rebalance toward the full ring.
        if was_member && self.deployed {
            self.rebalance();
        }
    }

    fn on_heartbeat(&mut self, node_id: &str) {
        let now_ns = self.now_ns();
        let Some(node) = self.nodes.get_mut(node_id) else {
            return; // heartbeat before hello: ignore until introduced
        };
        node.last_beat_wall = Instant::now();
        let was = node.health;
        match was {
            NodeHealth::Alive | NodeHealth::Suspect => {
                node.health = NodeHealth::Alive;
                self.detector.record_heartbeat(node_id, now_ns);
            }
            NodeHealth::Down => {
                // Zombie revival: a node we failed over resumed beating
                // (partition healed). Re-admit and rebalance; its stale
                // tenant instances are retired as their fenced reports
                // arrive.
                node.health = NodeHealth::Alive;
                self.detector.expect(node_id, now_ns);
                self.detector.record_heartbeat(node_id, now_ns);
                if self.deployed {
                    self.rebalance();
                }
            }
            NodeHealth::Departed => {} // said Bye; late beats are noise
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_report(
        &mut self,
        node_id: &str,
        tenant: &str,
        epoch: u64,
        retired: bool,
        counted: u64,
        duplicates: u64,
        last_seq: u64,
        source_ckpt: Option<Bytes>,
        sink_ckpt: Option<Bytes>,
    ) {
        let Some(t) = self.tenants.get_mut(tenant) else {
            return;
        };
        // Epoch fence: a report from an older epoch is a zombie instance
        // (paused node that healed, crashed node's buffered traffic).
        // Never believe it — and tell that node to retire its copy.
        if epoch < t.epoch || t.host.as_deref() != Some(node_id) {
            self.fenced_reports += 1;
            let current_epoch = t.epoch;
            self.send_to_node(
                node_id,
                ControlMsg::RetireTenant {
                    tenant: tenant.to_string(),
                    epoch: current_epoch,
                },
            );
            return;
        }
        t.counted = counted;
        t.duplicates = duplicates;
        t.last_seq = last_seq;
        if source_ckpt.is_some() {
            t.source_ckpt = source_ckpt;
        }
        if sink_ckpt.is_some() {
            t.sink_ckpt = sink_ckpt;
        }
        // First report at a bumped epoch = this tenant finished failover.
        if let Some(ev_idx) = t.recovering_failover.take() {
            if let Some(ev) = self.failovers.get_mut(ev_idx) {
                ev.recovered += 1;
                if ev.recovered == ev.tenants && ev.mttr_ms.is_none() {
                    ev.mttr_ms = Some(ev.confirm_at.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        if retired {
            if let Some((target, _)) = t.moving_to.take() {
                // Two-phase rebalance, phase 2: the old host stopped the
                // pipeline and this report carries its final checkpoints.
                t.epoch += 1;
                t.host = Some(target.clone());
                let epoch = t.epoch;
                let fps = self.opts.fps;
                let deploy = ControlMsg::DeployTenant {
                    tenant: tenant.to_string(),
                    epoch,
                    fps_millis: fps_millis(fps),
                    source_ckpt: self.tenants[tenant].source_ckpt.clone(),
                    sink_ckpt: self.tenants[tenant].sink_ckpt.clone(),
                };
                self.rebuild_plan(tenant, &target);
                self.send_to_node(&target, deploy);
                self.moves += 1;
            } else {
                // Graceful drain of the host: park the tenant; the
                // reconcile sweep redeploys it if live nodes remain.
                t.host = None;
            }
        }
    }

    fn on_bye(&mut self, node_id: &str) {
        self.byes += 1;
        self.detector.forget(node_id);
        if let Some(n) = self.nodes.get_mut(node_id) {
            n.health = NodeHealth::Departed;
            n.sender = None;
        }
    }

    // ---- periodic sweeps -------------------------------------------

    fn maybe_initial_deploy(&mut self) {
        if self.deployed {
            self.reconcile_parked();
            return;
        }
        let live: Vec<String> = self.live_node_ids();
        if live.len() < self.opts.expect_nodes {
            return;
        }
        let ring = HashRing::new(live.clone());
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        for tenant in names {
            let Some(target) = ring.lookup(&tenant).map(str::to_string) else {
                continue;
            };
            self.place(&tenant, &target, None);
        }
        self.deployed = true;
        self.first_deploy = Some(Instant::now());
    }

    /// Deploys `tenant` on `target` at the next epoch, recording the
    /// authoritative plan (optionally derived by `replan_after_device_loss`
    /// from the previous plan when a device just died).
    fn place(&mut self, tenant: &str, target: &str, lost_device: Option<&str>) {
        let replanned = match (lost_device, self.tenants[tenant].plan.as_ref()) {
            (Some(dead), Some(current)) => {
                // Survivor-restricted replan: the dead node is excluded,
                // the ring's choice rides in as affinity.
                let affinity = Placement::new()
                    .assign(SRC_MODULE, target)
                    .assign(SINK_MODULE, target);
                replan_after_device_loss(current, dead, &self.params, &affinity).ok()
            }
            _ => None,
        };
        let t = self.tenants.get_mut(tenant).expect("tenant exists");
        t.epoch += 1;
        t.host = Some(target.to_string());
        t.recovering_failover = None;
        let msg = ControlMsg::DeployTenant {
            tenant: tenant.to_string(),
            epoch: t.epoch,
            fps_millis: fps_millis(self.opts.fps),
            source_ckpt: t.source_ckpt.clone(),
            sink_ckpt: t.sink_ckpt.clone(),
        };
        match replanned {
            Some(p) => self.tenants.get_mut(tenant).expect("tenant").plan = Some(p),
            None => self.rebuild_plan(tenant, target),
        }
        self.send_to_node(target, msg);
    }

    /// Builds the authoritative plan from scratch: every live member node
    /// is a device, the chosen host is pinned, `autoplace_pinned` fills
    /// and validates the rest.
    fn rebuild_plan(&mut self, tenant: &str, target: &str) {
        let mut members = self.live_node_ids();
        if !members.iter().any(|m| m == target) {
            members.push(target.to_string());
        }
        let devices: Vec<DeviceSpec> = members.iter().map(|m| DeviceSpec::new(m, 1.0)).collect();
        let spec = tenant_spec(tenant);
        let pins = Placement::new()
            .assign(SRC_MODULE, target)
            .assign(SINK_MODULE, target);
        let built = autoplace_pinned(&spec, &devices, &self.params, &pins)
            .and_then(|(placement, _cost)| plan(&spec, &devices, &placement));
        if let Ok(p) = built {
            self.tenants.get_mut(tenant).expect("tenant").plan = Some(p);
        }
    }

    fn sweep_liveness(&mut self) {
        let now_ns = self.now_ns();
        let statuses: Vec<(String, DeviceStatus)> = self.detector.statuses(now_ns);
        for (node_id, status) in statuses {
            let Some(node) = self.nodes.get_mut(&node_id) else {
                continue;
            };
            match (node.health, status) {
                (NodeHealth::Alive, DeviceStatus::Suspect) => {
                    node.health = NodeHealth::Suspect;
                }
                (NodeHealth::Suspect, DeviceStatus::Alive) => {
                    node.health = NodeHealth::Alive;
                }
                (NodeHealth::Alive | NodeHealth::Suspect, DeviceStatus::Dead) => {
                    let detect_ms = node.last_beat_wall.elapsed().as_secs_f64() * 1e3;
                    node.health = NodeHealth::Down;
                    node.sender = None;
                    self.detector.forget(&node_id);
                    self.failover(&node_id, detect_ms);
                }
                _ => {}
            }
        }
    }

    /// Confirmed node loss: replan every orphaned tenant onto a survivor
    /// and redeploy from its freshest reported checkpoints.
    fn failover(&mut self, dead: &str, detect_ms: f64) {
        let survivors = self.live_node_ids();
        let orphans: Vec<String> = self
            .tenants
            .iter()
            .filter(|(_, t)| t.host.as_deref() == Some(dead))
            .map(|(name, _)| name.clone())
            .collect();
        let ev_idx = self.failovers.len();
        self.failovers.push(FailoverEvent {
            node: dead.to_string(),
            confirm_at: Instant::now(),
            detect_ms,
            tenants: orphans.len(),
            recovered: 0,
            mttr_ms: if orphans.is_empty() { Some(0.0) } else { None },
        });
        if survivors.is_empty() {
            return; // nothing to fail over onto; tenants stay parked
        }
        let ring = HashRing::new(survivors);
        for tenant in orphans {
            let Some(target) = ring.lookup(&tenant).map(str::to_string) else {
                continue;
            };
            self.place(&tenant, &target, Some(dead));
            self.tenants
                .get_mut(&tenant)
                .expect("tenant")
                .recovering_failover = Some(ev_idx);
        }
    }

    /// Rebalance toward the current ring (runs on rejoin): tenants whose
    /// ring home differs from their host migrate two-phase.
    fn rebalance(&mut self) {
        let ring = HashRing::new(self.live_node_ids());
        if ring.is_empty() {
            return;
        }
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        for tenant in names {
            let Some(want) = ring.lookup(&tenant).map(str::to_string) else {
                continue;
            };
            let t = self.tenants.get_mut(&tenant).expect("tenant");
            let Some(host) = t.host.clone() else {
                continue; // parked; the reconcile sweep owns it
            };
            if host == want || t.moving_to.is_some() || t.recovering_failover.is_some() {
                continue;
            }
            t.moving_to = Some((want, Instant::now()));
            let epoch = t.epoch;
            self.send_to_node(
                &host,
                ControlMsg::RetireTenant {
                    tenant: tenant.clone(),
                    epoch,
                },
            );
        }
    }

    /// Parked tenants (graceful host drain mid-run) get a new home as
    /// soon as live nodes exist.
    fn reconcile_parked(&mut self) {
        let live = self.live_node_ids();
        if live.is_empty() {
            return;
        }
        let ring = HashRing::new(live);
        let parked: Vec<String> = self
            .tenants
            .iter()
            .filter(|(_, t)| t.host.is_none())
            .map(|(name, _)| name.clone())
            .collect();
        for tenant in parked {
            if let Some(target) = ring.lookup(&tenant).map(str::to_string) {
                self.place(&tenant, &target, None);
                self.moves += 1;
            }
        }
    }

    /// A two-phase move whose retire never got answered (the old host
    /// died mid-move) falls back to a direct redeploy from cached state.
    fn sweep_stuck_moves(&mut self) {
        let stuck: Vec<(String, String)> = self
            .tenants
            .iter()
            .filter_map(|(name, t)| match &t.moving_to {
                Some((target, since)) if since.elapsed() > Duration::from_secs(2) => {
                    Some((name.clone(), target.clone()))
                }
                _ => None,
            })
            .collect();
        for (tenant, target) in stuck {
            self.tenants.get_mut(&tenant).expect("tenant").moving_to = None;
            self.place(&tenant, &target, None);
            self.moves += 1;
        }
    }

    // ---- plumbing ---------------------------------------------------

    fn live_node_ids(&self) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|(_, n)| matches!(n.health, NodeHealth::Alive | NodeHealth::Suspect))
            .map(|(id, _)| id.clone())
            .collect()
    }

    fn send_to_node(&mut self, node_id: &str, msg: ControlMsg) {
        let Some(node) = self.nodes.get_mut(node_id) else {
            return;
        };
        if node.sender.is_none() {
            let addr = format!("127.0.0.1:{}", node.control_port);
            node.sender = TcpSender::connect_retry(&addr, Duration::from_secs(2))
                .map(|s| s.with_reconnect(ReconnectPolicy::default()))
                .ok();
        }
        if let Some(sender) = &node.sender {
            if sender.send(msg.into_wire()).is_err() {
                node.sender = None;
            }
        }
    }

    fn write_status(&self) -> std::io::Result<()> {
        let mut e: BTreeMap<String, String> = BTreeMap::new();
        e.insert("schema".into(), "1".into());
        e.insert("control_port".into(), self.control_port.to_string());
        e.insert(
            "now_ms".into(),
            format!("{:.1}", self.started.elapsed().as_secs_f64() * 1e3),
        );
        e.insert("deployed".into(), u64::from(self.deployed).to_string());
        if let Some(fd) = self.first_deploy {
            e.insert(
                "first_deploy_ms".into(),
                format!("{:.1}", fd.duration_since(self.started).as_secs_f64() * 1e3),
            );
        }
        e.insert("fps".into(), format!("{}", self.opts.fps));
        e.insert("tenants_total".into(), self.tenants.len().to_string());
        e.insert("fenced_reports".into(), self.fenced_reports.to_string());
        e.insert("moves_total".into(), self.moves.to_string());
        e.insert("byes".into(), self.byes.to_string());

        let mut per_node: HashMap<&str, usize> = HashMap::new();
        let mut delivered = 0u64;
        let mut duplicates = 0u64;
        let mut double_counted = 0u64;
        let mut epoch_max = 0u64;
        for t in self.tenants.values() {
            delivered += t.counted;
            duplicates += t.duplicates;
            // Exactly-once violation detector: the sink's atomic
            // (counted, next_expected) pair can lose progress but never
            // run ahead of the distinct sequences it accepted.
            double_counted += t.counted.saturating_sub(t.last_seq + 1);
            epoch_max = epoch_max.max(t.epoch);
            if let Some(h) = &t.host {
                *per_node.entry(h.as_str()).or_insert(0) += 1;
            }
        }
        e.insert("delivered_total".into(), delivered.to_string());
        e.insert("duplicates_total".into(), duplicates.to_string());
        e.insert("double_counted_total".into(), double_counted.to_string());
        e.insert("epoch_max".into(), epoch_max.to_string());

        e.insert(
            "nodes".into(),
            self.nodes.keys().cloned().collect::<Vec<_>>().join(","),
        );
        for (id, n) in &self.nodes {
            let h = match n.health {
                NodeHealth::Alive => "alive",
                NodeHealth::Suspect => "suspect",
                NodeHealth::Down => "down",
                NodeHealth::Departed => "departed",
            };
            e.insert(format!("node.{id}.status"), h.to_string());
            e.insert(
                format!("node.{id}.tenants"),
                per_node.get(id.as_str()).copied().unwrap_or(0).to_string(),
            );
        }
        e.insert("failovers".into(), self.failovers.len().to_string());
        for (i, ev) in self.failovers.iter().enumerate() {
            e.insert(format!("failover.{i}.node"), ev.node.clone());
            e.insert(
                format!("failover.{i}.detect_ms"),
                format!("{:.1}", ev.detect_ms),
            );
            e.insert(format!("failover.{i}.tenants"), ev.tenants.to_string());
            e.insert(format!("failover.{i}.recovered"), ev.recovered.to_string());
            if let Some(mttr) = ev.mttr_ms {
                e.insert(format!("failover.{i}.mttr_ms"), format!("{mttr:.1}"));
            }
        }
        self.status.write(&e)
    }
}

/// Whether `deadline` is due at `now`; a due deadline moves on by whole
/// `every`s to the first grid point after `now`, so a late wake-up does not
/// shift the grid and ticks missed by a stall are skipped, not run back to
/// back.
fn step(deadline: &mut Instant, every: Duration, now: Instant) -> bool {
    if now < *deadline {
        return false;
    }
    let behind = now.duration_since(*deadline).as_nanos() / every.as_nanos().max(1);
    let ticks = u32::try_from(behind + 1).unwrap_or(u32::MAX);
    *deadline += every.saturating_mul(ticks);
    true
}

/// fps → wire milli-fps, clamped into `u32`.
fn fps_millis(fps: f64) -> u32 {
    let scaled = (fps * 1000.0).round().clamp(0.0, f64::from(u32::MAX));
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        scaled as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coordinator(status_path: std::path::PathBuf) -> (Coordinator, Ingress<()>) {
        let opts = CoordinatorOpts {
            status_path: status_path.clone(),
            tenants: 1,
            ..CoordinatorOpts::default()
        };
        let (ingress, port) = bind_control(&opts.listen).expect("bind");
        let detector = FailureDetector::new(HealthConfig::default());
        let status = StatusFile::new(status_path);
        (Coordinator::new(&opts, port, status, detector), ingress)
    }

    #[test]
    fn termination_still_counts_byes_and_reports_already_sent() {
        let path = std::env::temp_dir().join(format!(
            "vp-coordinator-drain-{}.status",
            std::process::id()
        ));
        let (mut c, mut ingress) = coordinator(path.clone());
        let t = c.tenants.get_mut("t000").expect("tenant");
        t.host = Some("n1".into());
        t.epoch = 1;
        let node = TcpSender::connect_retry(
            &format!("127.0.0.1:{}", c.control_port),
            Duration::from_secs(5),
        )
        .expect("connect");
        let report = ControlMsg::TenantReport {
            node_id: "n1".into(),
            tenant: "t000".into(),
            epoch: 1,
            retired: true,
            counted: 42,
            duplicates: 0,
            double_counted: 0,
            last_seq: 41,
            source_ckpt: None,
            sink_ckpt: None,
        };
        node.send(report.into_wire()).expect("send report");
        for id in ["n1", "n2"] {
            let bye = ControlMsg::Bye { node_id: id.into() };
            node.send(bye.into_wire()).expect("send bye");
        }
        node.flush_now().expect("flush");
        // Termination is already requested when the loop first looks.
        c.run(&mut ingress, || true).expect("run");
        let status = crate::status::StatusSnapshot::read(&path)
            .expect("status readable")
            .expect("status written");
        let _ = std::fs::remove_file(&path);
        assert_eq!(status.u64("byes"), 2);
        assert_eq!(status.u64("delivered_total"), 42, "final report lost");
        assert_eq!(c.tenants["t000"].host, None, "retired tenant not parked");
    }
}
