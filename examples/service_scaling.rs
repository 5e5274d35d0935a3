//! Service sharing and horizontal scaling (paper §5.2.2 and the §7 future
//! work): the fitness and gesture pipelines share the desktop's pose
//! detector; once it saturates, the reactive autoscaler grows the stateless
//! pool and throughput recovers.
//!
//! Run with `cargo run --release --example service_scaling`.

use std::sync::Arc;
use std::time::Duration;
use videopipe::apps::IotHub;
use videopipe::apps::{fitness, gesture};
use videopipe::media::motion::ExerciseKind;
use videopipe::sim::{Scenario, SimProfile};

fn run(autoscale: bool) {
    let hub = Arc::new(IotHub::new());
    let mut scenario = Scenario::new(SimProfile::calibrated());
    let fh = scenario
        .add_pipeline(
            &fitness::videopipe_plan().unwrap(),
            &fitness::module_registry(3),
            &fitness::service_registry(3),
            30.0,
            1,
        )
        .unwrap();
    let gh = scenario
        .add_pipeline(
            &gesture::plan_on_fitness_devices().unwrap(),
            &gesture::module_registry(3, ExerciseKind::Wave, hub),
            &gesture::service_registry(3),
            30.0,
            1,
        )
        .unwrap();
    if autoscale {
        scenario.enable_autoscaler(
            "pose_detector",
            Duration::from_millis(8),
            Duration::from_secs(5),
            4,
        );
    }
    let report = scenario.run(Duration::from_secs(45));
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let pool = report.pool(fitness::DESKTOP, "pose_detector").unwrap();
    println!(
        "  fitness {:.2} fps | gesture {:.2} fps | pose instances {} | mean pool wait {:.1} ms | pool utilisation {:.0}%",
        report.metrics(fh).fps(),
        report.metrics(gh).fps(),
        pool.instances,
        pool.stats.mean_wait().as_secs_f64() * 1e3,
        pool.stats.utilization(report.duration, pool.instances) * 100.0,
    );
    for line in report.logs.iter().filter(|l| l.contains("autoscaler")) {
        println!("  {line}");
    }
}

fn main() {
    println!("two pipelines at 30 FPS each share one pose-detector instance:");
    run(false);
    println!();
    println!("same workload with the reactive autoscaler enabled:");
    run(true);
    println!();
    println!("(stateless services make this trivial: any instance can serve any request)");
}
