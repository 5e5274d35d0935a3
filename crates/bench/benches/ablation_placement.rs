//! **Ablation D** — module placement and automatic deployment (paper §7
//! names "automatic deployment, scheduling" as future work; §4.1 places
//! modules by hand: "As computational resources on the phone are not
//! adequate for pose detection, we move this computation to a desktop").
//!
//! Compares representative placements of the fitness pipeline by modeled
//! latency (the planner's cost model) *and* by simulation, then shows that
//! the automatic placer picks a co-located assignment.
//!
//! Run with `cargo bench -p videopipe-bench --bench ablation_placement`.

use std::time::Duration;
use videopipe_apps::fitness;
use videopipe_apps::{run_fitness_placement, ExperimentConfig};
use videopipe_bench::{banner, f2, ms, Table};
use videopipe_core::deploy::{autoplace_pinned, estimate_latency, plan, Placement};
use videopipe_sim::SimProfile;

fn all_on(device: &str) -> Placement {
    let mut p = Placement::new();
    for m in &fitness::pipeline_spec().modules {
        p = p.assign(m.name.clone(), device.to_string());
    }
    p
}

fn main() {
    banner(
        "Ablation D — placement of the fitness pipeline",
        "Modeled (planner cost model) vs simulated per-frame latency",
    );

    let spec = fitness::pipeline_spec();
    let devices = fitness::devices();
    let profile = SimProfile::calibrated();
    let params = profile.to_cost_params(28_000);
    let config = ExperimentConfig::default()
        .with_fps(30.0)
        .with_duration(Duration::from_secs(40));

    let candidates: Vec<(&str, Placement)> = vec![
        ("VideoPipe (Fig. 4)", fitness::videopipe_placement()),
        (
            "baseline: all on phone (Fig. 5)",
            fitness::baseline_placement(),
        ),
        // Physically infeasible (the camera is on the phone, the screen on
        // the TV) but included to show what an unconstrained optimiser
        // would chase.
        ("all on desktop [infeasible]", all_on(fitness::DESKTOP)),
        (
            "camera+display right, ML wrong (tv)",
            Placement::new()
                .assign("video_streaming", fitness::PHONE)
                .assign("pose_detection", fitness::TV)
                .assign("activity_recognition", fitness::TV)
                .assign("rep_counter", fitness::TV)
                .assign("display", fitness::TV),
        ),
    ];

    let mut table = Table::new([
        "placement",
        "modeled latency (ms)",
        "simulated mean (ms)",
        "simulated FPS",
    ]);
    let mut sim_results = Vec::new();
    for (name, placement) in &candidates {
        let deployment = plan(&spec, &devices, placement).expect("valid placement");
        let modeled = estimate_latency(&deployment, &params) as f64 / 1e6;
        let run = run_fitness_placement(&config, placement).expect("simulated run");
        assert!(
            run.report.errors.is_empty(),
            "{name}: {:?}",
            run.report.errors
        );
        let sim_ms = run.metrics.end_to_end.mean_ms();
        table.row([
            name.to_string(),
            ms(modeled),
            ms(sim_ms),
            f2(run.metrics.fps()),
        ]);
        sim_results.push((name.to_string(), modeled, sim_ms));
    }
    table.print();

    // Automatic placement with device-affinity pins: the camera module is
    // physically on the phone, the display on the TV.
    let pins = Placement::new()
        .assign("video_streaming", fitness::PHONE)
        .assign("display", fitness::TV);
    let (auto_placement, auto_cost) =
        autoplace_pinned(&spec, &devices, &params, &pins).expect("autoplace");
    println!(
        "\nautoplace result with camera/display affinity pins (modeled {:.1} ms):",
        auto_cost as f64 / 1e6
    );
    for (module, device) in auto_placement.iter() {
        println!("  {module:<22} -> {device}");
    }
    let auto_run = run_fitness_placement(&config, &auto_placement).expect("auto run");
    println!(
        "  simulated: mean {:.1} ms, {:.2} fps",
        auto_run.metrics.end_to_end.mean_ms(),
        auto_run.metrics.fps()
    );

    println!();
    println!("shape checks:");
    let vp_sim = sim_results[0].2;
    let best_feasible_other = sim_results[1..]
        .iter()
        .filter(|(name, _, _)| !name.contains("infeasible"))
        .map(|(_, _, s)| *s)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  [{}] the VideoPipe placement beats every feasible alternative in simulation ({:.1} ms vs best other {:.1} ms)",
        if vp_sim < best_feasible_other { "ok" } else { "FAIL" },
        vp_sim,
        best_feasible_other
    );
    println!(
        "  [{}] autoplace under camera/display pins reproduces the paper's hand placement",
        if auto_placement == fitness::videopipe_placement() {
            "ok"
        } else {
            "FAIL"
        }
    );
    println!(
        "  [{}] autoplace co-locates pose detection with its service on the desktop",
        if auto_placement.device_for("pose_detection") == Some(fitness::DESKTOP) {
            "ok"
        } else {
            "FAIL"
        }
    );
    let model_orders = sim_results
        .iter()
        .all(|(_, m, s)| (m / s) > 0.5 && (m / s) < 2.0);
    println!(
        "  [{}] the planner's cost model tracks simulation within 2x on every placement",
        if model_orders { "ok" } else { "FAIL" }
    );
}
