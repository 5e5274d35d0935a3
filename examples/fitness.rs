//! The fitness application of paper §4.1, end to end: a synthetic user
//! does squats in front of the phone camera; pose detection, activity
//! recognition and rep counting run on the desktop; the TV renders the
//! overlay. Runs in the calibrated simulator and prints the Fig. 6-style
//! latency table for both VideoPipe and the EdgeEye-style baseline.
//!
//! Run with `cargo run --release --example fitness`.

use std::time::Duration;
use videopipe::apps::{run_fitness, stage_label, Arch, ExperimentConfig};

fn main() {
    let config = ExperimentConfig::default()
        .with_fps(30.0)
        .with_duration(Duration::from_secs(30));

    println!("running the fitness pipeline (30 s simulated, source 30 FPS)...\n");
    let vp = run_fitness(&config, Arch::VideoPipe).expect("VideoPipe run");
    let bl = run_fitness(&config, Arch::Baseline).expect("baseline run");

    println!("what the TV displayed (last 6 frames):");
    for line in vp
        .report
        .logs
        .iter()
        .rev()
        .take(6)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("  {line}");
    }

    println!("\nper-stage latency (ms), VideoPipe vs baseline:");
    println!("{:<22} {:>10} {:>10}", "stage", "VideoPipe", "baseline");
    for (module, hist) in &vp.metrics.stages {
        let baseline_ms = bl
            .metrics
            .stages
            .get(module)
            .map(|h| h.mean_ms())
            .unwrap_or(0.0);
        println!(
            "{:<22} {:>10.1} {:>10.1}",
            stage_label(module),
            hist.mean_ms(),
            baseline_ms
        );
    }
    println!(
        "{:<22} {:>10.1} {:>10.1}",
        "total (end-to-end)",
        vp.metrics.end_to_end.mean_ms(),
        bl.metrics.end_to_end.mean_ms()
    );

    println!(
        "\nachieved frame rate: VideoPipe {:.2} fps vs baseline {:.2} fps (paper: ~10.7 vs ~8.3)",
        vp.metrics.fps(),
        bl.metrics.fps()
    );
    let reps = vp
        .report
        .logs
        .iter()
        .filter_map(|l| {
            l.rsplit("reps=")
                .next()
                .and_then(|s| s.split_whitespace().next())
                .and_then(|s| s.parse::<u32>().ok())
        })
        .max()
        .unwrap_or(0);
    println!("repetitions counted during the run: {reps}");
}
