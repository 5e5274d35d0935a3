//! Live pipeline monitoring (the paper's §7 future work): the runtime
//! publishes telemetry snapshots over PUB/SUB while the fitness pipeline
//! runs on real threads; a monitor subscribes and prints a dashboard line
//! per snapshot.
//!
//! Run with `cargo run --release --example monitoring`.

use std::time::Duration;
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
            telemetry_interval: Some(Duration::from_millis(250)),
            ..RuntimeConfig::default()
        },
    )?;
    let mut monitor = runtime.monitor(id)?;

    println!("fitness pipeline running on real threads; telemetry every 250 ms:\n");
    let report = {
        // Poll the monitor while the pipeline runs.
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            if monitor.poll() > 0 {
                if let Some(snapshot) = monitor.latest() {
                    println!("  {snapshot}");
                }
            }
        }
        runtime.finish().remove(id)
    };

    println!(
        "\nfinal: {} snapshots observed; {} frames delivered at {:.1} fps",
        monitor.history().len(),
        report.metrics.frames_delivered,
        report.metrics.fps()
    );
    // Per-stage means from the last snapshot (what a dashboard would plot).
    if let Some(last) = monitor.latest() {
        println!("last snapshot per-stage means:");
        for (stage, ms) in &last.stage_means_ms {
            println!("  {stage:<22} {ms:>7.2} ms");
        }
    }
    Ok(())
}
