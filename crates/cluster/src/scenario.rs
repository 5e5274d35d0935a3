//! Declarative cluster chaos scenarios and the local-process runner.
//!
//! A [`ClusterScenario`] reads like the experiment it encodes — "3 nodes,
//! 200 pipelines, SIGKILL node 2 at t=10s, heal at t=20s" — and the
//! [`LocalProcessRunner`] executes it against *real* OS processes: it
//! spawns one `videopipe-coordinator` and N `videopipe-node` children,
//! injects timed faults (SIGKILL, SIGTERM, SIGSTOP/SIGCONT pauses,
//! restarts), then SIGTERMs the fleet and reads the coordinator's final
//! status file into a [`ClusterOutcome`] the caller asserts against:
//! detection latency, fleet MTTR, delivery ratio, exactly-once counting.
//!
//! The runner is also the `fleet_mttr` bench cell's engine — benches and
//! tests exercise the identical code path.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::signals;
use crate::status::StatusSnapshot;

/// A timed fault injected into the running fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// SIGKILL the node — machine death, no cleanup, detector must notice.
    KillNode {
        /// Index into the scenario's node list.
        node: usize,
        /// Offset from fleet-ready (all nodes spawned).
        at: Duration,
    },
    /// SIGTERM the node — graceful drain: final checkpoints + Bye.
    TermNode {
        /// Index into the scenario's node list.
        node: usize,
        /// Offset from fleet-ready.
        at: Duration,
    },
    /// Restart a previously killed/termed node under the same `node_id`
    /// (rejoin: the coordinator must re-admit and rebalance).
    RestartNode {
        /// Index into the scenario's node list.
        node: usize,
        /// Offset from fleet-ready.
        at: Duration,
    },
    /// SIGSTOP the node for `pause`, then SIGCONT — a partition/GC-stall
    /// stand-in: the process is alive but silent, then resumes as a
    /// zombie whose stale-epoch reports the coordinator must fence.
    PauseNode {
        /// Index into the scenario's node list.
        node: usize,
        /// Offset from fleet-ready.
        at: Duration,
        /// How long the node stays frozen.
        pause: Duration,
    },
}

impl Fault {
    fn at(&self) -> Duration {
        match self {
            Fault::KillNode { at, .. }
            | Fault::TermNode { at, .. }
            | Fault::RestartNode { at, .. }
            | Fault::PauseNode { at, .. } => *at,
        }
    }
}

/// A declarative cluster experiment.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    /// Scenario name (labels the scratch directory).
    pub name: String,
    /// Node count.
    pub nodes: usize,
    /// Tenant pipeline count across the fleet.
    pub tenants: usize,
    /// Per-tenant source frame rate.
    pub fps: f64,
    /// Total run time measured from fleet-ready.
    pub duration: Duration,
    /// Faults, any order (the runner sorts by offset).
    pub faults: Vec<Fault>,
    /// Reactor workers per node process.
    pub workers_per_node: usize,
}

impl ClusterScenario {
    /// A scenario with no faults: `nodes` nodes, `tenants` tenants.
    pub fn new(name: impl Into<String>, nodes: usize, tenants: usize) -> Self {
        ClusterScenario {
            name: name.into(),
            nodes,
            tenants,
            fps: 20.0,
            duration: Duration::from_secs(5),
            faults: Vec::new(),
            workers_per_node: 2,
        }
    }

    /// Sets the run duration (builder style).
    #[must_use]
    pub fn run_for(mut self, d: Duration) -> Self {
        self.duration = d;
        self
    }

    /// Sets the per-tenant frame rate (builder style).
    #[must_use]
    pub fn fps(mut self, fps: f64) -> Self {
        self.fps = fps;
        self
    }

    /// Adds a fault (builder style).
    #[must_use]
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }
}

/// What the fleet actually did, distilled from the coordinator's final
/// status file plus runner-side process observations.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Final status snapshot (every key the coordinator published).
    pub status: StatusSnapshot,
    /// Snapshot taken just before teardown began — the delivery window
    /// ends here, so ratio math is not diluted by shutdown time.
    pub pre_teardown: StatusSnapshot,
    /// Frames delivered fleet-wide (sum of per-tenant sink counts).
    pub delivered: u64,
    /// Expected frames had no fault occurred (tenants × fps × active secs).
    pub expected: u64,
    /// Duplicate deliveries absorbed by sinks (observed and dropped).
    pub duplicates: u64,
    /// Exactly-once violations: frames counted twice. Must be 0.
    pub double_counted: u64,
    /// Confirmed node-loss failover events.
    pub failovers: u64,
    /// Worst confirmed-loss detection latency (ms; 0 when no failovers).
    pub max_detect_ms: f64,
    /// Worst fleet MTTR — confirm → all orphaned tenants redeployed and
    /// reporting (ms; 0 when no failovers).
    pub max_mttr_ms: f64,
    /// Stale-epoch reports the coordinator fenced (zombie evidence).
    pub fenced_reports: u64,
    /// Planned tenant migrations (rebalance + reconcile).
    pub moves: u64,
    /// Coordinator exit status was clean.
    pub coordinator_clean_exit: bool,
    /// Per-node clean-exit flags, indexed like the scenario's nodes
    /// (SIGKILLed nodes are recorded `false`, as they should be).
    pub node_clean_exits: Vec<bool>,
}

impl ClusterOutcome {
    /// Delivered / expected (1.0 when nothing was expected).
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.delivered as f64 / self.expected as f64
            }
        }
    }
}

/// Errors from running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// Spawning or signalling a child process failed.
    Process(String),
    /// The coordinator never published a usable status file.
    NoStatus(String),
    /// The fleet missed a hard deadline (wedge suspicion).
    Timeout(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Process(m) => write!(f, "process: {m}"),
            ScenarioError::NoStatus(m) => write!(f, "no status: {m}"),
            ScenarioError::Timeout(m) => write!(f, "timeout: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Runs [`ClusterScenario`]s against real local child processes.
#[derive(Debug)]
pub struct LocalProcessRunner {
    coordinator_bin: PathBuf,
    node_bin: PathBuf,
    scratch_root: PathBuf,
}

/// Distinguishes scratch dirs across calls within one process.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

struct NodeSlot {
    node_id: String,
    child: Option<Child>,
    clean_exit: Option<bool>,
}

impl LocalProcessRunner {
    /// A runner using the given binaries (tests pass
    /// `env!("CARGO_BIN_EXE_videopipe-node")` etc.).
    pub fn new(coordinator_bin: impl Into<PathBuf>, node_bin: impl Into<PathBuf>) -> Self {
        LocalProcessRunner {
            coordinator_bin: coordinator_bin.into(),
            node_bin: node_bin.into(),
            scratch_root: std::env::temp_dir(),
        }
    }

    /// Executes the scenario end to end.
    ///
    /// # Errors
    ///
    /// `ScenarioError` when spawning fails, the coordinator never
    /// publishes status, or the fleet misses a shutdown deadline.
    pub fn run(&self, scenario: &ClusterScenario) -> Result<ClusterOutcome, ScenarioError> {
        let run_id = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = self.scratch_root.join(format!(
            "vp-cluster-{}-{}-{run_id}",
            scenario.name,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| ScenarioError::Process(format!("scratch dir: {e}")))?;
        let result = self.run_in(scenario, &dir);
        if result.is_ok() {
            std::fs::remove_dir_all(&dir).ok();
        }
        result
    }

    fn run_in(
        &self,
        scenario: &ClusterScenario,
        dir: &Path,
    ) -> Result<ClusterOutcome, ScenarioError> {
        let status_path = dir.join("coordinator.status");
        // Generous backstop: processes self-terminate even if the runner
        // itself dies and never sends SIGTERM.
        let backstop = scenario.duration + Duration::from_secs(60);

        let mut coordinator = Command::new(&self.coordinator_bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--status")
            .arg(&status_path)
            .arg("--expect-nodes")
            .arg(scenario.nodes.to_string())
            .arg("--tenants")
            .arg(scenario.tenants.to_string())
            .arg("--fps")
            .arg(scenario.fps.to_string())
            .arg("--run-for-ms")
            .arg(backstop.as_millis().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ScenarioError::Process(format!("spawn coordinator: {e}")))?;

        // The coordinator publishes its ephemeral port in the status file
        // before accepting anyone; poll for it.
        let control_port = match wait_for_port(&status_path, Duration::from_secs(10)) {
            Some(p) => p,
            None => {
                kill_child(&mut coordinator);
                return Err(ScenarioError::NoStatus(
                    "coordinator never published control_port".into(),
                ));
            }
        };
        let coordinator_addr = format!("127.0.0.1:{control_port}");

        let mut slots: Vec<NodeSlot> = (0..scenario.nodes)
            .map(|i| NodeSlot {
                node_id: format!("node-{i}"),
                child: None,
                clean_exit: None,
            })
            .collect();
        for slot in &mut slots {
            match self.spawn_node(&slot.node_id, &coordinator_addr, scenario, backstop) {
                Ok(child) => slot.child = Some(child),
                Err(e) => {
                    self.teardown(&mut coordinator, &mut slots);
                    return Err(e);
                }
            }
        }

        // Fleet-ready: all children exist. Scenario time starts here.
        let t0 = Instant::now();
        let mut timeline: Vec<Fault> = scenario.faults.clone();
        timeline.sort_by_key(Fault::at);
        // SIGCONT legs of pauses, scheduled as (deadline, node) pairs.
        let mut resumes: Vec<(Duration, usize)> = Vec::new();
        let mut next_fault = 0;

        while t0.elapsed() < scenario.duration {
            while next_fault < timeline.len() && t0.elapsed() >= timeline[next_fault].at() {
                let fault = timeline[next_fault].clone();
                next_fault += 1;
                match fault {
                    Fault::KillNode { node, .. } => {
                        if let Some(slot) = slots.get_mut(node) {
                            if let Some(child) = &mut slot.child {
                                kill_child(child);
                                slot.clean_exit = Some(false);
                                slot.child = None;
                            }
                        }
                    }
                    Fault::TermNode { node, .. } => {
                        if let Some(slot) = slots.get_mut(node) {
                            if let Some(child) = slot.child.take() {
                                slot.clean_exit =
                                    Some(term_and_reap(child, Duration::from_secs(10)));
                            }
                        }
                    }
                    Fault::RestartNode { node, .. } => {
                        if let Some(slot) = slots.get_mut(node) {
                            if slot.child.is_none() {
                                if let Ok(child) = self.spawn_node(
                                    &slot.node_id,
                                    &coordinator_addr,
                                    scenario,
                                    backstop,
                                ) {
                                    slot.child = Some(child);
                                    slot.clean_exit = None;
                                }
                            }
                        }
                    }
                    Fault::PauseNode { node, at, pause } => {
                        if let Some(slot) = slots.get_mut(node) {
                            if let Some(child) = &slot.child {
                                signals::kill(child.id(), signals::SIGSTOP);
                                resumes.push((at + pause, node));
                            }
                        }
                    }
                }
            }
            let now = t0.elapsed();
            resumes.retain(|&(deadline, node)| {
                if now < deadline {
                    return true;
                }
                if let Some(slot) = slots.get(node) {
                    if let Some(child) = &slot.child {
                        signals::kill(child.id(), signals::SIGCONT);
                    }
                }
                false
            });
            std::thread::sleep(Duration::from_millis(10));
        }
        // Un-freeze anything still paused so it can drain.
        for (_, node) in resumes {
            if let Some(slot) = slots.get(node) {
                if let Some(child) = &slot.child {
                    signals::kill(child.id(), signals::SIGCONT);
                }
            }
        }

        // The delivery window closes here; capture it before teardown so
        // the ratio denominator excludes shutdown time.
        let pre_teardown = StatusSnapshot::read(&status_path)
            .ok()
            .flatten()
            .unwrap_or_default();

        // Graceful fleet shutdown: nodes first (drain + Bye), then the
        // coordinator (final status write).
        let mut node_clean_exits = Vec::with_capacity(slots.len());
        let mut wedged = false;
        for slot in &mut slots {
            let clean = match (slot.child.take(), slot.clean_exit) {
                (Some(child), _) => {
                    let ok = term_and_reap(child, Duration::from_secs(10));
                    wedged |= !ok;
                    ok
                }
                (None, Some(recorded)) => recorded,
                (None, None) => false,
            };
            node_clean_exits.push(clean);
        }
        let coordinator_clean_exit = term_and_reap_child(&mut coordinator, Duration::from_secs(10));

        let status = StatusSnapshot::read(&status_path)
            .ok()
            .flatten()
            .ok_or_else(|| ScenarioError::NoStatus("final status unreadable".into()))?;
        if !coordinator_clean_exit || wedged {
            return Err(ScenarioError::Timeout(
                "fleet did not shut down within the deadline (wedge)".into(),
            ));
        }
        Ok(outcome_from(
            status,
            pre_teardown,
            scenario,
            node_clean_exits,
            coordinator_clean_exit,
        ))
    }

    fn spawn_node(
        &self,
        node_id: &str,
        coordinator_addr: &str,
        scenario: &ClusterScenario,
        backstop: Duration,
    ) -> Result<Child, ScenarioError> {
        Command::new(&self.node_bin)
            .arg("--node-id")
            .arg(node_id)
            .arg("--coordinator")
            .arg(coordinator_addr)
            .arg("--workers")
            .arg(scenario.workers_per_node.to_string())
            .arg("--run-for-ms")
            .arg(backstop.as_millis().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ScenarioError::Process(format!("spawn {node_id}: {e}")))
    }

    fn teardown(&self, coordinator: &mut Child, slots: &mut [NodeSlot]) {
        for slot in slots {
            if let Some(child) = &mut slot.child {
                kill_child(child);
            }
        }
        kill_child(coordinator);
    }
}

fn outcome_from(
    status: StatusSnapshot,
    pre_teardown: StatusSnapshot,
    scenario: &ClusterScenario,
    node_clean_exits: Vec<bool>,
    coordinator_clean_exit: bool,
) -> ClusterOutcome {
    let failovers = status.u64("failovers");
    let mut max_detect_ms = 0.0f64;
    let mut max_mttr_ms = 0.0f64;
    for i in 0..failovers {
        max_detect_ms = max_detect_ms.max(status.f64(&format!("failover.{i}.detect_ms")));
        max_mttr_ms = max_mttr_ms.max(status.f64(&format!("failover.{i}.mttr_ms")));
    }
    // Expected frames: tenants × fps × seconds the fleet was deployed,
    // measured over the pre-teardown window so shutdown time does not
    // dilute the ratio.
    let active_ms = (pre_teardown.f64("now_ms") - pre_teardown.f64("first_deploy_ms")).max(0.0);
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let expected = (scenario.tenants as f64 * scenario.fps * active_ms / 1000.0) as u64;
    ClusterOutcome {
        delivered: pre_teardown.u64("delivered_total"),
        expected,
        duplicates: status.u64("duplicates_total"),
        double_counted: status.u64("double_counted_total"),
        failovers,
        max_detect_ms,
        max_mttr_ms,
        fenced_reports: status.u64("fenced_reports"),
        moves: status.u64("moves_total"),
        coordinator_clean_exit,
        node_clean_exits,
        status,
        pre_teardown,
    }
}

/// Polls the status file until it carries a nonzero `control_port`.
fn wait_for_port(status_path: &Path, deadline: Duration) -> Option<u16> {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Ok(Some(snap)) = StatusSnapshot::read(status_path) {
            let port = snap.u64("control_port");
            if port > 0 && port <= u64::from(u16::MAX) {
                #[allow(clippy::cast_possible_truncation)]
                return Some(port as u16);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

fn kill_child(child: &mut Child) {
    let _ = child.kill(); // SIGKILL
    let _ = child.wait(); // reap; no zombies in the test runner
}

/// SIGTERM then bounded wait; SIGKILL on deadline. True iff exit was clean.
fn term_and_reap(mut child: Child, deadline: Duration) -> bool {
    term_and_reap_child(&mut child, deadline)
}

fn term_and_reap_child(child: &mut Child, deadline: Duration) -> bool {
    signals::kill(child.id(), signals::SIGTERM);
    let start = Instant::now();
    while start.elapsed() < deadline {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(_) => break,
        }
    }
    kill_child(child);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_sort_by_offset() {
        let s = ClusterScenario::new("t", 3, 9)
            .with_fault(Fault::KillNode {
                node: 1,
                at: Duration::from_secs(5),
            })
            .with_fault(Fault::RestartNode {
                node: 1,
                at: Duration::from_secs(2),
            });
        let mut faults = s.faults.clone();
        faults.sort_by_key(Fault::at);
        assert_eq!(faults[0].at(), Duration::from_secs(2));
    }

    #[test]
    fn outcome_ratio_handles_zero_expected() {
        let o = ClusterOutcome {
            status: StatusSnapshot::default(),
            pre_teardown: StatusSnapshot::default(),
            delivered: 0,
            expected: 0,
            duplicates: 0,
            double_counted: 0,
            failovers: 0,
            max_detect_ms: 0.0,
            max_mttr_ms: 0.0,
            fenced_reports: 0,
            moves: 0,
            coordinator_clean_exit: true,
            node_clean_exits: vec![],
        };
        assert!((o.delivery_ratio() - 1.0).abs() < f64::EPSILON);
    }
}
