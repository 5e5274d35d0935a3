//! Cluster chaos harness: real `videopipe-node` / `videopipe-coordinator`
//! processes under injected faults (ISSUE PR-9 acceptance).
//!
//! Each test declares a [`ClusterScenario`] and runs it through the
//! [`LocalProcessRunner`] against the freshly built binaries. The tests
//! serialize on a global gate: every scenario spawns several OS processes
//! hosting hundreds of pipelines, and timing assertions (detection < 1 s,
//! MTTR < 2 s) are only fair when scenarios do not fight for cores.

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
