//! The gesture-controlled IoT application of paper §4.2: clapping toggles
//! the living-room light, waving toggles the doorbell camera. Runs both
//! gestures through the pipeline in the simulator and prints the smart-home
//! command log.
//!
//! Run with `cargo run --release --example gesture_control`.

use std::sync::Arc;
use std::time::Duration;
use videopipe::apps::{fitness, gesture};
use videopipe::apps::{IotDevice, IotHub};
use videopipe::media::motion::ExerciseKind;
use videopipe::sim::{Scenario, SimProfile};

fn run_gesture(kind: ExerciseKind) -> Arc<IotHub> {
    let hub = Arc::new(IotHub::new());
    let mut scenario = Scenario::new(SimProfile::calibrated());
    let plan = gesture::videopipe_plan().expect("plan");
    let handle = scenario
        .add_pipeline(
            &plan,
            &gesture::module_registry(7, kind, Arc::clone(&hub)),
            &gesture::service_registry(7),
            20.0,
            1,
        )
        .expect("deploy");
    let report = scenario.run(Duration::from_secs(15));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    println!(
        "  {} pipeline: {:.2} fps, mean latency {:.1} ms, {} frames",
        kind.label(),
        report.metrics(handle).fps(),
        report.metrics(handle).end_to_end.mean_ms(),
        report.metrics(handle).frames_delivered
    );
    for line in report
        .logs
        .iter()
        .filter(|l| l.contains("toggling"))
        .take(3)
    {
        println!("    {line}");
    }
    hub
}

fn main() {
    println!(
        "devices: camera on {}, pose + gesture classifier on {} (co-located)\n",
        fitness::PHONE,
        fitness::DESKTOP
    );

    println!("user claps for 15 s:");
    let hub = run_gesture(ExerciseKind::Clap);
    let light_cmds = hub
        .log()
        .iter()
        .filter(|c| c.device == IotDevice::Light)
        .count();
    println!(
        "  -> light toggled {light_cmds} time(s); final state: {}\n",
        if hub.light_on() { "ON" } else { "off" }
    );

    println!("user waves for 15 s:");
    let hub = run_gesture(ExerciseKind::Wave);
    let bell_cmds = hub
        .log()
        .iter()
        .filter(|c| c.device == IotDevice::Doorbell)
        .count();
    println!(
        "  -> doorbell toggled {bell_cmds} time(s); final state: {}\n",
        if hub.doorbell_on() { "ON" } else { "off" }
    );

    println!("user idles for 15 s (nothing should happen):");
    let hub = run_gesture(ExerciseKind::Idle);
    println!("  -> {} command(s) issued", hub.command_count());
}
