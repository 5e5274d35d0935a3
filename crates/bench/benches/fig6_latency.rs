//! **Fig. 6** — per-stage latency, VideoPipe vs the EdgeEye-style baseline.
//!
//! Paper: "VideoPipe achieves lower latency for loading frames, pose
//! detection, activity detection, rep counter and the pipeline. Among
//! which, the delay for the pose detection is much lower than the remote
//! API calls in the baseline as we call the pose detection service on the
//! same machine."
//!
//! Run with `cargo bench -p videopipe-bench --bench fig6_latency`.

use std::time::Duration;
use videopipe_apps::{run_fitness, stage_label, Arch, ExperimentConfig};
use videopipe_bench::{banner, ms, ratio, Table};

/// Approximate values read off the paper's Fig. 6 bar chart (ms).
const PAPER_VP: [(&str, f64); 5] = [
    ("Load Frame", 18.0),
    ("Pose", 55.0),
    ("Activity Detect", 10.0),
    ("Rep Count", 5.0),
    ("Total Duration", 90.0),
];
const PAPER_BL: [(&str, f64); 5] = [
    ("Load Frame", 22.0),
    ("Pose", 75.0),
    ("Activity Detect", 15.0),
    ("Rep Count", 10.0),
    ("Total Duration", 120.0),
];

fn mean_for(run: &videopipe_apps::ExperimentRun, label: &str) -> f64 {
    if label == "Total Duration" {
        return run.metrics.end_to_end.mean_ms();
    }
    run.metrics
        .stages
        .iter()
        .filter(|(module, _)| stage_label(module) == label)
        .map(|(_, hist)| hist.mean_ms())
        .sum()
}

fn main() {
    banner(
        "Fig. 6 — per-stage latency: VideoPipe vs baseline (fitness app)",
        "Source 30 FPS, 60 s simulated, calibrated device/Wi-Fi profile",
    );
    let config = ExperimentConfig::default()
        .with_fps(30.0)
        .with_duration(Duration::from_secs(60));
    let vp = run_fitness(&config, Arch::VideoPipe).expect("videopipe run");
    let bl = run_fitness(&config, Arch::Baseline).expect("baseline run");
    assert!(vp.report.errors.is_empty(), "{:?}", vp.report.errors);
    assert!(bl.report.errors.is_empty(), "{:?}", bl.report.errors);

    let mut table = Table::new([
        "Stage",
        "VideoPipe (ms)",
        "Baseline (ms)",
        "BL/VP",
        "paper VP",
        "paper BL",
    ]);
    for ((label, paper_vp), (_, paper_bl)) in PAPER_VP.iter().zip(PAPER_BL.iter()) {
        let v = mean_for(&vp, label);
        let b = mean_for(&bl, label);
        table.row([
            label.to_string(),
            ms(v),
            ms(b),
            ratio(b, v),
            format!("~{paper_vp:.0}"),
            format!("~{paper_bl:.0}"),
        ]);
    }
    table.print();

    println!();
    println!(
        "end-to-end p99: VideoPipe {:.1} ms, baseline {:.1} ms",
        vp.metrics.end_to_end.quantile_ns(0.99) as f64 / 1e6,
        bl.metrics.end_to_end.quantile_ns(0.99) as f64 / 1e6,
    );
    println!(
        "frames delivered: VideoPipe {}, baseline {}",
        vp.metrics.frames_delivered, bl.metrics.frames_delivered
    );
    println!();
    println!("shape checks (the paper's qualitative claims):");
    let pose_gap = mean_for(&bl, "Pose") - mean_for(&vp, "Pose");
    let biggest_other = ["Load Frame", "Activity Detect", "Rep Count"]
        .iter()
        .map(|l| mean_for(&bl, l) - mean_for(&vp, l))
        .fold(0.0f64, f64::max);
    let total_gap = mean_for(&bl, "Total Duration") - mean_for(&vp, "Total Duration");
    println!(
        "  [{}] VideoPipe lower on every stage",
        if PAPER_VP
            .iter()
            .all(|(l, _)| mean_for(&vp, l) <= mean_for(&bl, l))
        {
            "ok"
        } else {
            "FAIL"
        }
    );
    println!(
        "  [{}] pose detection is the largest single improvement ({:.1} ms; next largest stage {:.1} ms; {:.0}% of the total {:.1} ms gap)",
        if pose_gap > biggest_other { "ok" } else { "FAIL" },
        pose_gap,
        biggest_other,
        100.0 * pose_gap / total_gap.max(1e-9),
        total_gap
    );
}
