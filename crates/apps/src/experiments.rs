//! One-call experiment runners: the glue between the applications and the
//! simulator that the benchmark harness (and integration tests) drive.
//!
//! Every table/figure of the paper's evaluation maps to a function here:
//!
//! * Fig. 6 — [`run_fitness`] with `Arch::VideoPipe` vs `Arch::Baseline`,
//!   per-stage latencies from the returned metrics.
//! * Table 2 cols 2–3 — [`run_fitness`] swept over source FPS.
//! * Table 2 col 4 — [`run_fitness_and_gesture`] (shared pose service).
//! * Ablations — the same runners with modified [`ExperimentConfig`]s
//!   (credits, service instances, placements).

use crate::iot::IotHub;
use crate::{fitness, gesture};
use std::sync::Arc;
use std::time::Duration;
use videopipe_core::deploy::{plan, DeploymentPlan, Placement};
use videopipe_core::metrics::PipelineMetrics;
use videopipe_core::PipelineError;
use videopipe_media::motion::ExerciseKind;
use videopipe_sim::{Scenario, ScenarioReport, SimProfile};

/// Which architecture to deploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// The paper's system: modules co-located with their services (Fig. 4).
    VideoPipe,
    /// The EdgeEye-style baseline: all modules on the phone, remote service
    /// calls (Fig. 5).
    Baseline,
}

/// Configuration of one simulated experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Source frame rate offered by the camera.
    pub fps: f64,
    /// Virtual duration of the run.
    pub duration: Duration,
    /// Flow-control credits (1 = the paper's design).
    pub credits: u32,
    /// Calibration profile.
    pub profile: SimProfile,
    /// Seed for training data and synthetic video.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            fps: 30.0,
            duration: Duration::from_secs(30),
            credits: 1,
            profile: SimProfile::calibrated(),
            seed: 42,
        }
    }
}

impl ExperimentConfig {
    /// Sets the source FPS.
    pub fn with_fps(mut self, fps: f64) -> Self {
        self.fps = fps;
        self
    }

    /// Sets the virtual run duration.
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the flow-control credits.
    pub fn with_credits(mut self, credits: u32) -> Self {
        self.credits = credits;
        self
    }

    /// Sets the profile.
    pub fn with_profile(mut self, profile: SimProfile) -> Self {
        self.profile = profile;
        self
    }
}

/// Result of a single-pipeline experiment.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// The pipeline's metrics.
    pub metrics: PipelineMetrics,
    /// The full scenario report (pools, links, logs).
    pub report: ScenarioReport,
}

/// Runs the fitness pipeline under `arch`.
///
/// # Errors
///
/// Propagates deployment/simulation setup errors.
pub fn run_fitness(config: &ExperimentConfig, arch: Arch) -> Result<ExperimentRun, PipelineError> {
    let plan = match arch {
        Arch::VideoPipe => fitness::videopipe_plan()?,
        Arch::Baseline => fitness::baseline_plan()?,
    };
    run_fitness_plan(config, &plan)
}

/// Runs the fitness pipeline under an explicit deployment plan (placement
/// ablation).
///
/// # Errors
///
/// Propagates deployment/simulation setup errors.
pub(crate) fn run_fitness_plan(
    config: &ExperimentConfig,
    plan: &DeploymentPlan,
) -> Result<ExperimentRun, PipelineError> {
    let modules = fitness::module_registry(config.seed);
    let services = fitness::service_registry(config.seed);
    let mut scenario = Scenario::new(config.profile.clone());
    let handle = scenario.add_pipeline(plan, &modules, &services, config.fps, config.credits)?;
    let report = scenario.run(config.duration);
    Ok(ExperimentRun {
        metrics: report.metrics(handle).clone(),
        report,
    })
}

/// Runs the fitness pipeline under a custom placement of the standard
/// fitness devices.
///
/// # Errors
///
/// Propagates planning errors (invalid placements).
pub fn run_fitness_placement(
    config: &ExperimentConfig,
    placement: &Placement,
) -> Result<ExperimentRun, PipelineError> {
    let plan = plan(&fitness::pipeline_spec(), &fitness::devices(), placement)?;
    run_fitness_plan(config, &plan)
}

/// Result of the two-pipeline sharing experiment (Table 2, column 4).
#[derive(Debug, Clone)]
pub struct SharedRun {
    /// Fitness pipeline metrics.
    pub fitness: PipelineMetrics,
    /// Gesture pipeline metrics.
    pub gesture: PipelineMetrics,
    /// The full scenario report.
    pub report: ScenarioReport,
    /// The IoT hub after the run (to inspect gesture actuations).
    pub hub: Arc<IotHub>,
}

/// Runs the fitness and gesture pipelines concurrently, sharing the
/// desktop's pose-detector service pool (§5.2.2).
///
/// # Errors
///
/// Propagates deployment/simulation setup errors.
pub fn run_fitness_and_gesture(config: &ExperimentConfig) -> Result<SharedRun, PipelineError> {
    let fitness_plan = fitness::videopipe_plan()?;
    let gesture_plan = gesture::plan_on_fitness_devices()?;
    let hub = Arc::new(IotHub::new());

    let mut scenario = Scenario::new(config.profile.clone());
    let fh = scenario.add_pipeline(
        &fitness_plan,
        &fitness::module_registry(config.seed),
        &fitness::service_registry(config.seed),
        config.fps,
        config.credits,
    )?;
    let gh = scenario.add_pipeline(
        &gesture_plan,
        &gesture::module_registry(config.seed, ExerciseKind::Clap, Arc::clone(&hub)),
        &gesture::service_registry(config.seed),
        config.fps,
        config.credits,
    )?;
    let report = scenario.run(config.duration);
    Ok(SharedRun {
        fitness: report.metrics(fh).clone(),
        gesture: report.metrics(gh).clone(),
        report,
        hub,
    })
}

/// The Fig. 6 stage labels, mapped from module names.
pub fn stage_label(module: &str) -> &'static str {
    match module {
        "video_streaming" => "Load Frame",
        "pose_detection" => "Pose",
        "activity_recognition" | "gesture_recognition" => "Activity Detect",
        "rep_counter" => "Rep Count",
        "display" => "Display",
        "iot_actuator" => "Actuate",
        "fall_alert" => "Fall Detect",
        _ => "Other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::default()
            .with_duration(Duration::from_secs(10))
            .with_profile(SimProfile::deterministic())
    }

    #[test]
    fn videopipe_beats_baseline_on_latency_and_fps() {
        // The paper's headline result, end to end.
        let vp = run_fitness(&quick().with_fps(30.0), Arch::VideoPipe).unwrap();
        let bl = run_fitness(&quick().with_fps(30.0), Arch::Baseline).unwrap();
        assert!(vp.report.errors.is_empty(), "{:?}", vp.report.errors);
        assert!(bl.report.errors.is_empty(), "{:?}", bl.report.errors);
        let vp_lat = vp.metrics.end_to_end.mean_ms();
        let bl_lat = bl.metrics.end_to_end.mean_ms();
        assert!(
            vp_lat < bl_lat,
            "VideoPipe {vp_lat:.1}ms should beat baseline {bl_lat:.1}ms"
        );
        assert!(
            vp.metrics.fps() > bl.metrics.fps(),
            "VideoPipe fps {} vs baseline {}",
            vp.metrics.fps(),
            bl.metrics.fps()
        );
    }

    #[test]
    fn per_stage_latencies_favor_videopipe() {
        let vp = run_fitness(&quick(), Arch::VideoPipe).unwrap();
        let bl = run_fitness(&quick(), Arch::Baseline).unwrap();
        for stage in ["pose_detection", "activity_recognition", "rep_counter"] {
            let v = vp.metrics.stages[stage].mean_ms();
            let b = bl.metrics.stages[stage].mean_ms();
            assert!(v < b, "{stage}: vp {v:.2}ms vs baseline {b:.2}ms");
        }
        // Pose dominates the gap (Fig. 6's key feature).
        let pose_gap = bl.metrics.stages["pose_detection"].mean_ms()
            - vp.metrics.stages["pose_detection"].mean_ms();
        let rep_gap =
            bl.metrics.stages["rep_counter"].mean_ms() - vp.metrics.stages["rep_counter"].mean_ms();
        assert!(
            pose_gap > rep_gap,
            "pose gap {pose_gap} vs rep gap {rep_gap}"
        );
    }

    #[test]
    fn fps_caps_near_eleven() {
        let vp = run_fitness(&quick().with_fps(60.0), Arch::VideoPipe).unwrap();
        let fps = vp.metrics.fps();
        assert!(
            (9.0..13.0).contains(&fps),
            "VideoPipe should cap near 11 fps, got {fps:.2}"
        );
    }

    #[test]
    fn low_fps_tracks_source() {
        let vp = run_fitness(&quick().with_fps(5.0), Arch::VideoPipe).unwrap();
        let fps = vp.metrics.fps();
        assert!(
            (4.0..5.0).contains(&fps),
            "at source 5 fps achieved should be ~4.5, got {fps:.2}"
        );
    }

    #[test]
    fn sharing_the_pose_service_works() {
        let run = run_fitness_and_gesture(&quick().with_fps(10.0)).unwrap();
        assert!(run.report.errors.is_empty(), "{:?}", run.report.errors);
        assert!(run.fitness.fps() > 5.0, "fitness {}", run.fitness.fps());
        assert!(run.gesture.fps() > 5.0, "gesture {}", run.gesture.fps());
        // The shared pool actually served both pipelines.
        let pool = run
            .report
            .pool(fitness::DESKTOP, "pose_detector")
            .expect("shared pose pool");
        let total_frames = run.fitness.frames_delivered + run.gesture.frames_delivered;
        assert!(
            pool.stats.requests >= total_frames,
            "pool requests {} < delivered {total_frames}",
            pool.stats.requests
        );
        // The clapping user toggled something.
        assert!(run.hub.command_count() > 0, "no IoT commands executed");
    }

    #[test]
    fn stage_labels() {
        assert_eq!(stage_label("video_streaming"), "Load Frame");
        assert_eq!(stage_label("pose_detection"), "Pose");
        assert_eq!(stage_label("nonsense"), "Other");
    }
}
