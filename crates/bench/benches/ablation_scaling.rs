//! **Ablation C** — horizontal scaling of the shared stateless services.
//!
//! Paper §5.2.2: once the shared pose detector saturates, "we should scale
//! the services at this point, which is convenient in our design as the
//! services are stateless"; §7 lists automatic scaling as future work.
//! Both are implemented here: a sweep over pose-detector instance counts
//! under the two-pipeline workload, plus a run with the reactive
//! autoscaler enabled.
//!
//! Run with `cargo bench -p videopipe-bench --bench ablation_scaling`.

use std::sync::Arc;
use std::time::Duration;
use videopipe_apps::{fitness, gesture};
use videopipe_bench::{banner, f2, Table};
use videopipe_media::motion::ExerciseKind;
use videopipe_sim::{Scenario, SimProfile};

const FPS: f64 = 30.0;
const DURATION: Duration = Duration::from_secs(60);

fn run_with(profile: SimProfile, autoscale: bool) -> (f64, f64, usize, Duration) {
    let hub = Arc::new(videopipe_apps::IotHub::new());
    let mut scenario = Scenario::new(profile);
    let fh = scenario
        .add_pipeline(
            &fitness::videopipe_plan().unwrap(),
            &fitness::module_registry(42),
            &fitness::service_registry(42),
            FPS,
            1,
        )
        .unwrap();
    let gh = scenario
        .add_pipeline(
            &gesture::plan_on_fitness_devices().unwrap(),
            &gesture::module_registry(42, ExerciseKind::Wave, hub),
            &gesture::service_registry(42),
            FPS,
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
    let report = scenario.run(DURATION);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let pool = report
        .pool(fitness::DESKTOP, "pose_detector")
        .expect("pose pool");
    (
        report.metrics(fh).fps(),
        report.metrics(gh).fps(),
        pool.instances,
        pool.stats.mean_wait(),
    )
}

fn main() {
    banner(
        "Ablation C — scaling the shared pose-detector service",
        "Fitness + gesture pipelines at 30 FPS each, shared desktop pool",
    );

    let mut table = Table::new([
        "pose instances",
        "fitness FPS",
        "gesture FPS",
        "combined FPS",
        "mean pool wait (ms)",
    ]);
    let mut series = Vec::new();
    for instances in [1usize, 2, 3, 4] {
        let profile = SimProfile::calibrated().with_service_instances("pose_detector", instances);
        let (f, g, _, wait) = run_with(profile, false);
        table.row([
            format!("{instances}"),
            f2(f),
            f2(g),
            f2(f + g),
            format!("{:.2}", wait.as_secs_f64() * 1e3),
        ]);
        series.push((instances, f, g, wait));
    }
    table.print();

    println!("\nReactive autoscaler (paper §7 future work), starting from 1 instance:");
    let (f, g, final_instances, wait) = run_with(SimProfile::calibrated(), true);
    println!(
        "  ended with {final_instances} instances; fitness {:.2} fps, gesture {:.2} fps, mean wait {:.2} ms",
        f,
        g,
        wait.as_secs_f64() * 1e3
    );

    let (_, f1, g1, wait1) = series[0];
    let (_, f2_, g2, wait2) = series[1];
    println!();
    println!("shape checks:");
    println!(
        "  [{}] one instance saturates under two pipelines (combined {:.2} fps, wait {:.1} ms)",
        if wait1 > Duration::from_millis(5) {
            "ok"
        } else {
            "FAIL"
        },
        f1 + g1,
        wait1.as_secs_f64() * 1e3
    );
    println!(
        "  [{}] a second instance restores per-pipeline throughput ({:.2}/{:.2} -> {:.2}/{:.2})",
        if f2_ + g2 > (f1 + g1) * 1.1 {
            "ok"
        } else {
            "FAIL"
        },
        f1,
        g1,
        f2_,
        g2
    );
    println!(
        "  [{}] scaling collapses queueing wait ({:.1} ms -> {:.1} ms)",
        if wait2 < wait1 / 2 { "ok" } else { "FAIL" },
        wait1.as_secs_f64() * 1e3,
        wait2.as_secs_f64() * 1e3
    );
    println!(
        "  [{}] the autoscaler discovers the needed capacity on its own (>{} instance)",
        if final_instances > 1 { "ok" } else { "FAIL" },
        1
    );
}
