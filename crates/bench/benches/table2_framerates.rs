//! **Table 2** — end-to-end frame rates vs source FPS.
//!
//! Columns 2–3: VideoPipe vs baseline for source FPS ∈ {5, 10, 20, 30, 60}.
//! Column 4: fitness + gesture pipelines running concurrently, sharing the
//! desktop's pose-detector service (source FPS ∈ {5, 10, 20}, as in the
//! paper).
//!
//! Run with `cargo bench -p videopipe-bench --bench table2_framerates`.

use std::time::Duration;
use videopipe_apps::{run_fitness, run_fitness_and_gesture, Arch, ExperimentConfig};
use videopipe_bench::{banner, f2, Table};

/// One row of the paper's Table 2: source FPS, VideoPipe, baseline, and
/// the optional two-pipeline pair.
type PaperRow = (f64, f64, f64, Option<(f64, f64)>);

/// The paper's Table 2.
const PAPER: [PaperRow; 5] = [
    (5.0, 4.53, 4.52, Some((4.56, 4.56))),
    (10.0, 8.21, 7.79, Some((7.83, 7.83))),
    (20.0, 11.00, 8.25, Some((9.44, 9.41))),
    (30.0, 10.72, 8.33, None),
    (60.0, 11.03, 8.01, None),
];

fn main() {
    banner(
        "Table 2 — end-to-end FPS vs source FPS",
        "60 s simulated per cell; two-pipeline column shares the pose service",
    );
    let base = ExperimentConfig::default().with_duration(Duration::from_secs(60));

    let mut table = Table::new([
        "Source FPS",
        "VideoPipe",
        "Baseline",
        "Two Pipelines",
        "paper VP",
        "paper BL",
        "paper 2P",
    ]);

    for (fps, paper_vp, paper_bl, paper_two) in PAPER {
        let config = base.clone().with_fps(fps);
        let vp = run_fitness(&config, Arch::VideoPipe).expect("videopipe run");
        let bl = run_fitness(&config, Arch::Baseline).expect("baseline run");
        assert!(vp.report.errors.is_empty(), "{:?}", vp.report.errors);
        assert!(bl.report.errors.is_empty(), "{:?}", bl.report.errors);

        let two = paper_two.map(|_| {
            let shared = run_fitness_and_gesture(&config).expect("shared run");
            assert!(
                shared.report.errors.is_empty(),
                "{:?}",
                shared.report.errors
            );
            (shared.fitness.fps(), shared.gesture.fps())
        });

        table.row([
            format!("{fps:.0}"),
            f2(vp.metrics.fps()),
            f2(bl.metrics.fps()),
            two.map(|(a, b)| format!("({}, {})", f2(a), f2(b)))
                .unwrap_or_else(|| "-".into()),
            f2(paper_vp),
            f2(paper_bl),
            paper_two
                .map(|(a, b)| format!("({a:.2}, {b:.2})"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    table.print();

    println!();
    println!("shape checks (the paper's qualitative claims):");
    let cap_vp = run_fitness(&base.clone().with_fps(60.0), Arch::VideoPipe)
        .unwrap()
        .metrics
        .fps();
    let cap_bl = run_fitness(&base.clone().with_fps(60.0), Arch::Baseline)
        .unwrap()
        .metrics
        .fps();
    println!(
        "  [{}] VideoPipe sustains a higher cap than the baseline ({:.2} vs {:.2}; paper ~11 vs ~8.3)",
        if cap_vp > cap_bl { "ok" } else { "FAIL" },
        cap_vp,
        cap_bl
    );
    let low = run_fitness(&base.clone().with_fps(5.0), Arch::VideoPipe)
        .unwrap()
        .metrics
        .fps();
    println!(
        "  [{}] at source 5 FPS both track the source (~4.5; got {:.2})",
        if (4.0..5.1).contains(&low) {
            "ok"
        } else {
            "FAIL"
        },
        low
    );
    let shared20 = run_fitness_and_gesture(&base.clone().with_fps(20.0)).unwrap();
    let shared5 = run_fitness_and_gesture(&base.clone().with_fps(5.0)).unwrap();
    let single20 = run_fitness(&base.clone().with_fps(20.0), Arch::VideoPipe)
        .unwrap()
        .metrics
        .fps();
    println!(
        "  [{}] sharing is free at low rate (5 FPS: {:.2}/{:.2})",
        if shared5.fitness.fps() > 4.0 && shared5.gesture.fps() > 4.0 {
            "ok"
        } else {
            "FAIL"
        },
        shared5.fitness.fps(),
        shared5.gesture.fps()
    );
    println!(
        "  [{}] at 20 FPS the shared pose service saturates (each {:.2}/{:.2} < single {:.2})",
        if shared20.fitness.fps() < single20 && shared20.gesture.fps() < single20 {
            "ok"
        } else {
            "FAIL"
        },
        shared20.fitness.fps(),
        shared20.gesture.fps(),
        single20
    );
    if let Some(pool) = shared20.report.pool("desktop", "pose_detector") {
        println!(
            "  shared pose pool at 20 FPS: {} requests, mean wait {:.1} ms, utilisation {:.0}%",
            pool.stats.requests,
            pool.stats.mean_wait().as_secs_f64() * 1e3,
            pool.stats
                .utilization(shared20.report.duration, pool.instances)
                * 100.0
        );
    }
}
