//! End-to-end integration: the full applications running on the runtime's
//! real worker threads — real frames, real pose detection, real
//! classifiers, real inter-module channels — no simulation involved.

use std::time::Duration;
use videopipe::apps::fitness;
use videopipe::core::prelude::*;
use videopipe::core::runtime::RunReport;

/// Runs `plan` alone on a fresh runtime until it has delivered `frames`.
/// Generous deadline: the full-workspace debug test run executes many heavy
/// suites in parallel and these tests do real ML per frame.
fn run(
    plan: &DeploymentPlan,
    modules: &ModuleRegistry,
    services: &ServiceRegistry,
    config: RuntimeConfig,
    frames: u64,
) -> RunReport {
    let mut runtime = ReactorRuntime::new(ReactorConfig::default());
    runtime
        .add_pipeline(plan, modules, services, config)
        .expect("deploy");
    let mut reports = runtime.run_until_total_deliveries(frames, Duration::from_secs(120));
    reports.remove(0)
}

fn at_60_fps() -> RuntimeConfig {
    RuntimeConfig {
        fps: 60.0,
        ..RuntimeConfig::default()
    }
}

fn run_fitness(plan: &DeploymentPlan) -> RunReport {
    let modules = fitness::module_registry(9);
    let services = fitness::service_registry(9);
    run(plan, &modules, &services, at_60_fps(), 30)
}

#[test]
fn fitness_pipeline_runs_on_real_threads() {
    let report = run_fitness(&fitness::videopipe_plan().unwrap());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.metrics.frames_delivered >= 30,
        "only {} frames delivered",
        report.metrics.frames_delivered
    );
    // All five stages produced latency samples.
    for stage in [
        "video_streaming",
        "pose_detection",
        "activity_recognition",
        "rep_counter",
        "display",
    ] {
        assert!(
            report.metrics.stages[stage].count() > 0,
            "no samples for stage {stage}"
        );
    }
    // The display actually rendered frames with labels.
    assert!(
        report.logs.iter().any(|l| l.contains("activity=")),
        "no display output in {:?}",
        report.logs.iter().take(5).collect::<Vec<_>>()
    );
    // Rep counter calibrated during the run.
    assert!(report.logs.iter().any(|l| l.contains("calibrated")));
}

#[test]
fn fitness_pipeline_runs_over_real_tcp_sockets() {
    // Same application, but every cross-device hop (phone → desktop frame,
    // desktop → tv results, tv → phone completion signal) goes over real
    // loopback TCP with the wire codec.
    use videopipe::core::runtime::EdgeTransport;
    let modules = fitness::module_registry(9);
    let services = fitness::service_registry(9);
    let config = RuntimeConfig {
        transport: EdgeTransport::Tcp,
        ..at_60_fps()
    };
    let plan = fitness::videopipe_plan().unwrap();
    let report = run(&plan, &modules, &services, config, 30);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.metrics.frames_delivered >= 30,
        "only {} frames over TCP",
        report.metrics.frames_delivered
    );
    assert!(report.logs.iter().any(|l| l.contains("activity=")));
}

#[test]
fn baseline_topology_also_runs_on_real_threads() {
    let report = run_fitness(&fitness::baseline_plan().unwrap());
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.metrics.frames_delivered >= 30);
}

#[test]
fn gesture_pipeline_toggles_the_light_on_real_threads() {
    use std::sync::Arc;
    use videopipe::apps::gesture;
    use videopipe::apps::IotHub;
    use videopipe::media::motion::ExerciseKind;

    let hub = Arc::new(IotHub::new());
    let plan = gesture::videopipe_plan().unwrap();
    let modules = gesture::module_registry(5, ExerciseKind::Clap, Arc::clone(&hub));
    let services = gesture::service_registry(5);
    // Enough frames for the 15-pose window plus the 3-label confirmation.
    let report = run(&plan, &modules, &services, at_60_fps(), 50);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        hub.command_count() > 0,
        "clapping should toggle the light; logs: {:?}",
        report.logs.iter().take(10).collect::<Vec<_>>()
    );
    assert!(hub.light_on() || hub.command_count().is_multiple_of(2));
}
