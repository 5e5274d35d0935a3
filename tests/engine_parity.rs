//! Parity smoke: the same seeded scenario under two schedules and two
//! transports.
//!
//! The per-message logic is one engine (`crates/core/src/engine.rs`); what
//! varies is when a step runs — one worker with no stealing, or the default
//! work-stealing pool — and how a cross-device message travels — an
//! in-process channel or a loopback TCP socket. These tests hold every
//! combination to the same *observable* outcome on the fitness plan with a
//! pose service that fails every N-th call: each run reaches the delivery
//! target, satisfies the credit identity
//! (`admitted == delivered + faulted + in_flight_at_end`), restarts no
//! module, and reports the failures in the same words at the same per-call
//! rate.
//!
//! Bit-equal delivered sequence sets are deliberately NOT asserted: which
//! camera ticks win the single credit depends on wall-clock timing, so two
//! runs admit different frames. Going that far needs the runtime on
//! virtual time; this is the seed of that differential harness.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use videopipe::apps::fitness;
use videopipe::core::prelude::*;
use videopipe::core::runtime::{EdgeTransport, RunReport};
use videopipe::core::service::ChaosService;

const SEED: u64 = 4;
const FAIL_EVERY: u64 = 4;
const DELIVERIES: u64 = 40;
const PATIENCE: Duration = Duration::from_secs(30);

struct Outcome {
    report: RunReport,
    /// Calls the flaky pose service received.
    calls: u64,
}

fn chaotic_services() -> (ServiceRegistry, Arc<ChaosService>) {
    let mut services = fitness::service_registry(SEED);
    let pose = services.get("pose_detector").expect("pose installed");
    let chaos = Arc::new(ChaosService::new(pose, FAIL_EVERY));
    services.install(Arc::clone(&chaos) as Arc<dyn Service>);
    (services, chaos)
}

fn config(transport: EdgeTransport) -> RuntimeConfig {
    RuntimeConfig {
        fps: 100.0,
        transport,
        ..RuntimeConfig::default()
    }
}

/// One worker, no stealing: every step of the pipeline runs in turn.
fn serial() -> ReactorConfig {
    ReactorConfig {
        workers: 1,
        steal: false,
        ..ReactorConfig::default()
    }
}

fn run(reactor: ReactorConfig, transport: EdgeTransport) -> Outcome {
    let (services, chaos) = chaotic_services();
    let mut runtime = ReactorRuntime::new(reactor);
    runtime
        .add_pipeline(
            &fitness::videopipe_plan().unwrap(),
            &fitness::module_registry(SEED),
            &services,
            config(transport),
        )
        .unwrap();
    let mut reports = runtime.run_until_total_deliveries(DELIVERIES, PATIENCE);
    Outcome {
        report: reports.remove(0),
        calls: chaos.calls(),
    }
}

/// Error lines with every number blanked: the words a run uses.
fn vocabulary(report: &RunReport) -> BTreeSet<String> {
    report
        .errors
        .iter()
        .map(|line| {
            line.chars()
                .map(|c| if c.is_ascii_digit() { '#' } else { c })
                .collect()
        })
        .collect()
}

fn assert_envelope(transport: EdgeTransport, outcome: &Outcome) {
    let Outcome { report, calls } = outcome;
    let m = &report.metrics;
    assert!(
        m.frames_delivered >= DELIVERIES,
        "{transport:?}: wedged at {} deliveries; errors {:?}",
        m.frames_delivered,
        report.errors.iter().take(3).collect::<Vec<_>>()
    );
    assert!(m.credits_balanced(), "{transport:?}: credit leak: {m:?}");
    assert_eq!(
        report.restarts, 0,
        "{transport:?}: a failing call is not a crash"
    );
    // Every FAIL_EVERY-th call fails, each failure kills exactly one frame
    // and leaves exactly one error line; the call in flight at teardown may
    // go unreported.
    let failed = calls / FAIL_EVERY;
    let reported = report.errors.len() as u64;
    assert!(
        reported <= failed && failed <= reported + 1,
        "{transport:?}: {reported} error lines for {failed} failed calls of {calls}: {:?}",
        report.errors
    );
    assert!(
        m.frames_faulted <= failed && failed <= m.frames_faulted + 1,
        "{transport:?}: {} faulted frames for {failed} failed calls",
        m.frames_faulted
    );
}

/// The serial schedule and the default pool agree on `transport`.
fn assert_parity(transport: EdgeTransport) {
    let serial = run(serial(), transport);
    let pooled = run(ReactorConfig::default(), transport);
    assert_envelope(transport, &serial);
    assert_envelope(transport, &pooled);
    assert_eq!(
        vocabulary(&serial.report),
        vocabulary(&pooled.report),
        "{transport:?}: the schedules describe the same failures in different words"
    );
}

#[test]
fn drivers_agree_on_a_flaky_fitness_pipeline_inproc() {
    assert_parity(EdgeTransport::Inproc);
}

#[test]
fn drivers_agree_on_a_flaky_fitness_pipeline_over_tcp() {
    assert_parity(EdgeTransport::Tcp);
}

#[test]
fn transports_agree_on_a_flaky_fitness_pipeline() {
    let inproc = run(ReactorConfig::default(), EdgeTransport::Inproc);
    let tcp = run(ReactorConfig::default(), EdgeTransport::Tcp);
    assert_envelope(EdgeTransport::Inproc, &inproc);
    assert_envelope(EdgeTransport::Tcp, &tcp);
    assert_eq!(
        vocabulary(&inproc.report),
        vocabulary(&tcp.report),
        "the transports describe the same failures in different words"
    );
}
