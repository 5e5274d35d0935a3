//! Cluster chaos harness: real `videopipe-node` / `videopipe-coordinator`
//! processes under injected faults (ISSUE PR-9 acceptance).
//!
//! Each test declares a [`ClusterScenario`] and runs it through the
//! [`LocalProcessRunner`] against the freshly built binaries. The tests
//! serialize on a global gate: every scenario spawns several OS processes
//! hosting hundreds of pipelines, and timing assertions (detection < 1 s,
//! MTTR < 2 s) are only fair when scenarios do not fight for cores. The
//! `census` test holds the same gate while it counts an idle fleet's
//! threads and wake-ups from outside.

use std::sync::Mutex;
use std::time::Duration;

use videopipe::cluster::{ClusterScenario, Fault, LocalProcessRunner};

/// Serializes scenarios (see module docs).
static GATE: Mutex<()> = Mutex::new(());

fn runner() -> LocalProcessRunner {
    LocalProcessRunner::new(
        env!("CARGO_BIN_EXE_videopipe-coordinator"),
        env!("CARGO_BIN_EXE_videopipe-node"),
    )
}

/// The ISSUE acceptance scenario: 3 nodes, 200 pipelines, SIGKILL one
/// node mid-run. Detection < 1 s, fleet MTTR < 2 s, ≥ 90 % delivery,
/// exactly-once preserved, nobody wedges.
#[test]
fn three_node_kill_recover() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let scenario = ClusterScenario::new("kill-recover", 3, 200)
        .fps(20.0)
        .run_for(Duration::from_secs(7))
        .with_fault(Fault::KillNode {
            node: 1,
            at: Duration::from_millis(2500),
        });
    let outcome = runner().run(&scenario).expect("scenario runs");

    assert_eq!(outcome.failovers, 1, "exactly one confirmed node loss");
    assert!(
        outcome.max_detect_ms > 0.0 && outcome.max_detect_ms < 1000.0,
        "detection latency {} ms not under 1 s",
        outcome.max_detect_ms
    );
    assert!(
        outcome.max_mttr_ms > 0.0 && outcome.max_mttr_ms < 2000.0,
        "fleet MTTR {} ms not under 2 s",
        outcome.max_mttr_ms
    );
    assert!(
        outcome.delivery_ratio() >= 0.90,
        "delivery ratio {:.3} ({} / {}) below 90 %",
        outcome.delivery_ratio(),
        outcome.delivered,
        outcome.expected
    );
    assert_eq!(
        outcome.double_counted, 0,
        "exactly-once violated: {} frames counted twice",
        outcome.double_counted
    );
    // Nobody wedged: the coordinator and both survivors drained cleanly
    // on SIGTERM; the SIGKILLed node is rightly recorded as unclean.
    assert!(outcome.coordinator_clean_exit, "coordinator wedged");
    assert!(outcome.node_clean_exits[0], "node-0 wedged");
    assert!(!outcome.node_clean_exits[1], "node-1 was SIGKILLed");
    assert!(outcome.node_clean_exits[2], "node-2 wedged");
    // The orphaned third of the fleet all found a new home.
    let recovered = outcome.status.u64("failover.0.recovered");
    let orphaned = outcome.status.u64("failover.0.tenants");
    assert!(orphaned > 0, "the killed node should have hosted tenants");
    assert_eq!(recovered, orphaned, "not all orphaned tenants recovered");
}

/// Node rejoin: after confirmed loss + replan, a restarted node under the
/// same identity is re-admitted and rebalanced onto — without any frame
/// being counted twice (epoch fence + dedup across real processes).
#[test]
fn killed_node_rejoins_and_rebalances_without_double_counting() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let scenario = ClusterScenario::new("rejoin", 3, 30)
        .fps(20.0)
        .run_for(Duration::from_secs(8))
        .with_fault(Fault::KillNode {
            node: 1,
            at: Duration::from_millis(2000),
        })
        .with_fault(Fault::RestartNode {
            node: 1,
            at: Duration::from_millis(4500),
        });
    let outcome = runner().run(&scenario).expect("scenario runs");

    assert_eq!(outcome.failovers, 1, "one failover from the kill");
    assert_eq!(outcome.double_counted, 0, "rejoin double-counted frames");
    assert!(
        outcome.moves > 0,
        "rejoin should have rebalanced tenants back"
    );
    // Before teardown the restarted node was alive and hosting again.
    assert_eq!(
        outcome.pre_teardown.get("node.node-1.status"),
        Some("alive"),
        "restarted node was not re-admitted"
    );
    assert!(
        outcome.pre_teardown.u64("node.node-1.tenants") > 0,
        "restarted node hosts nothing after rebalance"
    );
    assert!(
        outcome.delivery_ratio() >= 0.85,
        "delivery ratio {:.3} collapsed across kill + rejoin",
        outcome.delivery_ratio()
    );
    // All three exit clean at the end — including the restarted node-1.
    assert!(outcome.coordinator_clean_exit, "coordinator wedged");
    assert!(
        outcome.node_clean_exits.iter().all(|&c| c),
        "a node wedged at final drain: {:?}",
        outcome.node_clean_exits
    );
}

/// Partition stand-in: SIGSTOP freezes a node past the lease (it is
/// failed over), SIGCONT revives it as a zombie still running stale
/// pipeline instances. Its stale-epoch reports must be fenced — counted
/// and refused — and exactly-once must hold fleet-wide.
#[test]
fn paused_node_resumes_as_zombie_and_is_fenced() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let scenario = ClusterScenario::new("zombie-fence", 3, 30)
        .fps(20.0)
        .run_for(Duration::from_secs(8))
        .with_fault(Fault::PauseNode {
            node: 1,
            at: Duration::from_millis(2000),
            pause: Duration::from_millis(2500),
        });
    let outcome = runner().run(&scenario).expect("scenario runs");

    assert_eq!(outcome.failovers, 1, "the frozen node must be failed over");
    assert!(
        outcome.fenced_reports > 0,
        "the revived zombie's stale-epoch reports were never fenced"
    );
    assert_eq!(
        outcome.double_counted, 0,
        "zombie reports leaked into delivery totals"
    );
    assert!(outcome.coordinator_clean_exit, "coordinator wedged");
}

/// Graceful shutdown: a faultless fleet TERMs clean — every node drains
/// (final checkpoints, retired reports, Bye), nothing is lost, nothing is
/// failed over.
#[test]
fn graceful_sigterm_drains_clean() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let scenario = ClusterScenario::new("graceful", 2, 10)
        .fps(20.0)
        .run_for(Duration::from_millis(3500));
    let outcome = runner().run(&scenario).expect("scenario runs");

    assert_eq!(outcome.failovers, 0, "faultless run reported a failover");
    assert_eq!(outcome.double_counted, 0);
    assert_eq!(outcome.duplicates, 0, "faultless run produced duplicates");
    assert!(
        outcome.delivery_ratio() >= 0.90,
        "delivery ratio {:.3} in a faultless run",
        outcome.delivery_ratio()
    );
    assert!(outcome.coordinator_clean_exit, "coordinator wedged");
    assert!(
        outcome.node_clean_exits.iter().all(|&c| c),
        "a node failed to drain on SIGTERM: {:?}",
        outcome.node_clean_exits
    );
    // Both nodes said goodbye.
    assert_eq!(outcome.status.u64("byes"), 2);
}

/// A bad flag is a command-line mistake and is answered with the usage
/// text; a failure past the command line (a listener that cannot bind) is
/// reported as `error: …` alone. Both exit 1, for either binary.
#[test]
fn usage_text_only_for_command_line_mistakes() {
    for bin in [
        env!("CARGO_BIN_EXE_videopipe-coordinator"),
        env!("CARGO_BIN_EXE_videopipe-node"),
    ] {
        let run = |args: &[&str]| {
            let out = std::process::Command::new(bin)
                .args(args)
                .output()
                .expect("the binary starts");
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            (out.status.code(), stderr)
        };
        let (code, stderr) = run(&["--listen", "nonsense:x"]);
        assert_eq!(code, Some(1), "{bin}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bin}: {stderr}");
        assert!(!stderr.contains("USAGE:"), "{bin}: {stderr}");
        let (code, stderr) = run(&["--no-such-flag"]);
        assert_eq!(code, Some(1), "{bin}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{bin}: {stderr}");
    }
}

/// An idle fleet of one node, counted from outside through `/proc`.
#[cfg(target_os = "linux")]
mod census {
    use super::GATE;
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    /// Ceiling on the idle coordinator's voluntary context switches per
    /// second.
    const COORDINATOR_WAKEUPS_PER_S: f64 = 170.0;
    /// Ceiling on an idle node's main-thread voluntary context switches per
    /// second.
    const NODE_WAKEUPS_PER_S: f64 = 20.0;

    /// Kills and reaps the child when the census ends, pass or fail.
    struct Reaped(Child);

    impl Drop for Reaped {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    /// `key`'s value in the coordinator's `key=value` status file.
    fn status_value(path: &std::path::Path, key: &str) -> Option<String> {
        let text = std::fs::read_to_string(path).ok()?;
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
            .map(str::to_string)
    }

    /// Voluntary context switches of task `tid` of process `pid`.
    fn voluntary_switches(pid: u32, tid: u32) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{pid}/task/{tid}/status"))
            .expect("task status readable");
        status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches in task status")
    }

    /// The tids of process `pid`.
    fn tasks(pid: u32) -> Vec<u32> {
        std::fs::read_dir(format!("/proc/{pid}/task"))
            .expect("task list readable")
            .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
            .collect()
    }

    /// The control loops sleep in their listener's readiness wait up to
    /// their next duty, so the coordinator is one thread and the node
    /// `workers + 2` (main loop, heartbeat thread, two reactor workers),
    /// and neither wakes on a polling timer: the coordinator switches out
    /// for its 20 ms sweeps, the node's heartbeats and inside each status
    /// write's `fsync`, the node's main thread for its report cadence. Each
    /// ceiling is at least 1.5× the highest of twenty measured runs
    /// (EXPERIMENTS.md, fleet census); a 5 ms / 10 ms receive poll reads
    /// about 250/s and 100/s.
    #[test]
    fn idle_fleet_threads_and_wakeups() {
        let _gate = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let status = std::env::temp_dir().join(format!("vp-census-{}.status", std::process::id()));
        let _ = std::fs::remove_file(&status);
        let spawn = |exe: &str, args: &[&str]| {
            Reaped(
                Command::new(exe)
                    .args(args)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("spawn fleet process"),
            )
        };
        let coordinator = spawn(
            env!("CARGO_BIN_EXE_videopipe-coordinator"),
            &[
                "--status",
                status.to_str().expect("utf-8 temp path"),
                "--expect-nodes",
                "1",
                "--tenants",
                "0",
                "--run-for-ms",
                "60000",
            ],
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let port = loop {
            if let Some(port) = status_value(&status, "control_port") {
                break port;
            }
            assert!(Instant::now() < deadline, "coordinator published no port");
            std::thread::sleep(Duration::from_millis(20));
        };
        let node = spawn(
            env!("CARGO_BIN_EXE_videopipe-node"),
            &[
                "--node-id",
                "census",
                "--coordinator",
                &format!("127.0.0.1:{port}"),
                "--workers",
                "2",
                "--run-for-ms",
                "60000",
            ],
        );
        while status_value(&status, "deployed").as_deref() != Some("1") {
            assert!(Instant::now() < deadline, "the node never joined");
            std::thread::sleep(Duration::from_millis(20));
        }
        // Past start-up: the node's heartbeat thread is beating.
        std::thread::sleep(Duration::from_millis(300));
        let (coordinator_pid, node_pid) = (coordinator.0.id(), node.0.id());
        let coordinator_tasks = tasks(coordinator_pid);
        assert_eq!(coordinator_tasks.len(), 1, "coordinator threads");
        assert_eq!(tasks(node_pid).len(), 2 + 2, "node threads (2 workers)");

        let coordinator_before = voluntary_switches(coordinator_pid, coordinator_pid);
        let node_before = voluntary_switches(node_pid, node_pid);
        let started = Instant::now();
        std::thread::sleep(Duration::from_secs(2));
        let seconds = started.elapsed().as_secs_f64();
        let coordinator_after = voluntary_switches(coordinator_pid, coordinator_pid);
        let node_after = voluntary_switches(node_pid, node_pid);
        assert_eq!(
            tasks(coordinator_pid),
            coordinator_tasks,
            "coordinator grew a thread"
        );
        drop((node, coordinator));
        let _ = std::fs::remove_file(status.with_extension("tmp"));
        let _ = std::fs::remove_file(&status);
        let coordinator_rate = (coordinator_after - coordinator_before) as f64 / seconds;
        let node_rate = (node_after - node_before) as f64 / seconds;
        eprintln!(
            "census: coordinator {coordinator_rate:.1} wake-ups/s, node main thread {node_rate:.1}/s"
        );
        assert!(
            coordinator_rate <= COORDINATOR_WAKEUPS_PER_S,
            "idle coordinator woke {coordinator_rate:.1} times/s"
        );
        assert!(
            node_rate <= NODE_WAKEUPS_PER_S,
            "idle node's main thread woke {node_rate:.1} times/s"
        );
    }
}
