//! Live pipeline monitoring (the paper's §7 future work): while the
//! fitness pipeline runs on the reactor, a monitor reads its metrics every
//! 250 ms, keeps the history itself and prints a dashboard line per read.
//!
//! Run with `cargo run --release --example monitoring`.

use std::time::{Duration, Instant};
use videopipe::apps::fitness;
use videopipe::core::prelude::*;

fn main() -> Result<(), PipelineError> {
    let mut runtime = ReactorRuntime::new(ReactorConfig::default());
    let id = runtime.add_pipeline(
        &fitness::videopipe_plan()?,
        &fitness::module_registry(2),
        &fitness::service_registry(2),
        RuntimeConfig {
            fps: 60.0,
            ..RuntimeConfig::default()
        },
    )?;

    println!("fitness pipeline running on the reactor; metrics read every 250 ms:\n");
    let mut history: Vec<PipelineMetrics> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(3);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(250));
        let metrics = runtime.metrics(id).expect("deployed above");
        println!(
            "  t={:.2}s {} delivered, {} dropped, {:.2} fps, p50 {:.1} ms, p99 {:.1} ms",
            metrics.run_duration_ns as f64 / 1e9,
            metrics.frames_delivered,
            metrics.frames_dropped,
            metrics.fps(),
            metrics.end_to_end.quantile_ns(0.5) as f64 / 1e6,
            metrics.end_to_end.quantile_ns(0.99) as f64 / 1e6,
        );
        history.push(metrics);
    }
    let report = runtime.finish().remove(id);

    println!(
        "\nfinal: {} reads; {} frames delivered at {:.1} fps",
        history.len(),
        report.metrics.frames_delivered,
        report.metrics.fps()
    );
    // Per-stage means from the last read (what a dashboard would plot).
    if let Some(last) = history.last() {
        println!("last read per-stage means:");
        for (stage, latency) in &last.stages {
            if latency.count() > 0 {
                println!("  {stage:<22} {:>7.2} ms", latency.mean_ms());
            }
        }
    }
    Ok(())
}
