//! **Ablation B** — the no-queue, drop-at-source flow control (paper §2.3).
//!
//! Paper: "Queuing the images anywhere inside the pipeline will introduce
//! delays which are undesired in real-time applications … We do not use any
//! queues in our design."
//!
//! This ablation generalises the completion signal to N credits (N frames
//! in flight) and sweeps N: with N = 1 (the paper's design) end-to-end
//! latency is minimal; more credits buy a little throughput at the cost of
//! queueing delay in front of the bottleneck pose service — exactly the
//! trade-off the paper's design argues against.
//!
//! Run with `cargo bench -p videopipe-bench --bench ablation_flowcontrol`.

use std::time::Duration;
use videopipe_apps::{run_fitness, Arch, ExperimentConfig};
use videopipe_bench::{banner, f2, ms, Table};

fn main() {
    banner(
        "Ablation B — flow-control credits (no-queue signaling vs queueing)",
        "Fitness pipeline, source 30 FPS, 60 s simulated per row",
    );

    let mut table = Table::new([
        "credits (frames in flight)",
        "achieved FPS",
        "mean latency (ms)",
        "p99 latency (ms)",
        "drop rate",
    ]);

    let mut results = Vec::new();
    for credits in [1u32, 2, 3, 4, 8] {
        let config = ExperimentConfig::default()
            .with_fps(30.0)
            .with_duration(Duration::from_secs(60))
            .with_credits(credits);
        let run = run_fitness(&config, Arch::VideoPipe).expect("run");
        assert!(run.report.errors.is_empty(), "{:?}", run.report.errors);
        let fps = run.metrics.fps();
        let mean = run.metrics.end_to_end.mean_ms();
        let p99 = run.metrics.end_to_end.quantile_ns(0.99) as f64 / 1e6;
        table.row([
            format!(
                "{credits}{}",
                if credits == 1 { " (paper design)" } else { "" }
            ),
            f2(fps),
            ms(mean),
            ms(p99),
            format!("{:.0}%", run.metrics.drop_rate() * 100.0),
        ]);
        results.push((credits, fps, mean));
    }
    table.print();

    let (_, fps1, lat1) = results[0];
    let (_, fps2, _) = results[1];
    let (_, fps8, lat8) = *results.last().unwrap();
    println!();
    println!("shape checks:");
    println!(
        "  [{}] one credit minimises latency ({:.1} ms vs {:.1} ms at 8 credits)",
        if lat1 < lat8 { "ok" } else { "FAIL" },
        lat1,
        lat8
    );
    println!(
        "  [{}] a second credit fills the pose service's idle time (+{:.0}% fps) — the throughput the paper's design deliberately trades for latency",
        if fps2 > fps1 { "ok" } else { "FAIL" },
        (fps2 / fps1 - 1.0) * 100.0
    );
    println!(
        "  [{}] beyond two credits throughput is pose-bound and flat ({:.2} -> {:.2} fps) while latency keeps growing ({:.1}x at 8 credits)",
        if (fps8 - fps2).abs() < fps2 * 0.1 && lat8 > lat1 * 1.5 {
            "ok"
        } else {
            "FAIL"
        },
        fps2,
        fps8,
        lat8 / lat1
    );
}
