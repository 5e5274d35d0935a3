//! The fitness application (paper §4.1, Figs. 4 and 5).
//!
//! Pipeline: `video_streaming → pose_detection → activity_recognition →
//! {rep_counter, display}`, `rep_counter → display`, across three devices:
//!
//! * **phone** — runs the video streaming module (the camera).
//! * **desktop** — hosts the containerised pose/activity/rep services; in
//!   the VideoPipe placement it also runs the three processing modules
//!   co-located with them.
//! * **tv** — hosts the native display service and (VideoPipe placement)
//!   the display module.
//!
//! The baseline placement (Fig. 5, EdgeEye-style) keeps *all* modules on
//! the phone; every service call becomes a remote API call to the desktop.

use crate::modules::{
    ActivityRecognitionModule, DisplayModule, PoseDetectionModule, RepCounterModule,
    VideoStreamingModule,
};
use crate::services::{
    ActivityClassifierService, DisplayService, PoseDetectorService, RepCounterService,
};
use crate::training::trained_fitness_classifier;
use std::sync::Arc;
use std::time::Duration;
use videopipe_core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe_core::module::ModuleRegistry;
use videopipe_core::service::ServiceRegistry;
use videopipe_core::slo::{Knob, SloConfig};
use videopipe_core::spec::PipelineSpec;
use videopipe_core::PipelineError;
use videopipe_media::motion::{ExerciseKind, MotionClip};
use videopipe_media::SourceConfig;

/// The phone device name.
pub const PHONE: &str = "phone";
/// The desktop device name.
pub const DESKTOP: &str = "desktop";
/// The TV device name.
pub const TV: &str = "tv";

/// The Listing-1-style configuration text of the fitness pipeline (kept
/// parseable by `videopipe_core::config::parse`; see the round-trip test).
pub const CONFIG_TEXT: &str = r#"
// Fitness application pipeline (paper Fig. 4)
pipeline: fitness
modules : [
    { name: video_streaming
      include ("./VideoStreamingModule.js")
      endpoint: ["bind#tcp://*:5860"]
      next_module: pose_detection }
    { name: pose_detection
      include ("./PoseDetectionModule.js")
      service: ['pose_detector']
      endpoint: ["bind#tcp://*:5861"]
      next_module: activity_recognition }
    { name: activity_recognition
      include ("./ActivityRecognitionModule.js")
      service: ['activity_classifier']
      endpoint: ["bind#tcp://*:5862"]
      next_module: [rep_counter, display] }
    { name: rep_counter
      include ("./RepCounterModule.js")
      service: ['rep_counter']
      endpoint: ["bind#tcp://*:5863"]
      next_module: display }
    { name: display
      include ("./DisplayModule.js")
      service: ['display']
      endpoint: ["bind#tcp://*:5864"] }
]
"#;

/// The fitness pipeline DAG (parsed from [`CONFIG_TEXT`]).
pub fn pipeline_spec() -> PipelineSpec {
    videopipe_core::config::parse(CONFIG_TEXT).expect("fitness config is valid")
}

/// The three home devices of the paper's evaluation (§5.1).
///
/// Speed factors model the heterogeneity: the desktop is the reference × 2,
/// the 2018 flagship phone ×0.6, the TV ×0.8. The desktop supports
/// containers and hosts the ML services; the TV exposes its native display
/// service.
pub fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::new(PHONE, 0.6),
        DeviceSpec::new(DESKTOP, 2.0)
            .with_containers(2)
            .with_service(PoseDetectorService::NAME)
            .with_service(ActivityClassifierService::NAME)
            .with_service(RepCounterService::NAME)
            .with_service(DisplayService::NAME),
        DeviceSpec::new(TV, 0.8)
            .with_containers(1)
            .with_service(DisplayService::NAME),
    ]
}

/// The fitness app's SLO degradation priorities. The consumer is a human
/// watching guidance on the TV: mild codec degradation is nearly invisible
/// there, so quality goes first (it also shrinks the phone→desktop frame
/// transfer, the Fig. 6 bottleneck), then pose-service batching. Dropping
/// to half the frame rate is the next resort — rep counting survives it —
/// and shedding is last, because a workout with a frozen display is the
/// worst experience of the four.
pub fn slo_config(target_p99: Duration) -> SloConfig {
    SloConfig::p99(target_p99).with_lattice(vec![
        Knob::CodecQuality { shift: 4 },
        Knob::CodecQuality { shift: 6 },
        Knob::Batch { max_batch: 4 },
        Knob::SampleRate { divisor: 2 },
        Knob::Shed { keep_one_in: 4 },
    ])
}

/// The VideoPipe placement (Fig. 4): modules co-located with their
/// services.
pub fn videopipe_placement() -> Placement {
    Placement::new()
        .assign("video_streaming", PHONE)
        .assign("pose_detection", DESKTOP)
        .assign("activity_recognition", DESKTOP)
        .assign("rep_counter", DESKTOP)
        .assign("display", TV)
}

/// The baseline placement (Fig. 5): every module on the phone; all service
/// calls go to the desktop remotely.
pub fn baseline_placement() -> Placement {
    Placement::new()
        .assign("video_streaming", PHONE)
        .assign("pose_detection", PHONE)
        .assign("activity_recognition", PHONE)
        .assign("rep_counter", PHONE)
        .assign("display", PHONE)
}

/// The validated VideoPipe deployment plan.
///
/// # Errors
///
/// Propagates planning errors (none for the built-in spec).
pub fn videopipe_plan() -> Result<DeploymentPlan, PipelineError> {
    plan(&pipeline_spec(), &devices(), &videopipe_placement())
}

/// The validated baseline deployment plan.
///
/// # Errors
///
/// Propagates planning errors (none for the built-in spec).
pub fn baseline_plan() -> Result<DeploymentPlan, PipelineError> {
    plan(&pipeline_spec(), &devices(), &baseline_placement())
}

/// Source configuration used by the fitness app's camera.
pub fn source_config(seed: u64) -> SourceConfig {
    SourceConfig::new(30.0)
        .with_resolution(320, 240)
        .with_noise(1.5)
        .with_seed(seed)
}

/// The module registry for the fitness app: a user performing squats
/// (2 s per repetition, light jitter).
pub fn module_registry(seed: u64) -> ModuleRegistry {
    module_registry_with_motion(seed, ExerciseKind::Squat)
}

/// [`module_registry`] with a chosen exercise.
pub(crate) fn module_registry_with_motion(seed: u64, kind: ExerciseKind) -> ModuleRegistry {
    let mut registry = ModuleRegistry::new();
    registry.register("VideoStreamingModule", move || {
        Box::new(VideoStreamingModule::synthetic(
            source_config(seed),
            MotionClip::new(kind, 2.0).with_jitter(0.004),
            "pose_detection",
        ))
    });
    registry.register("PoseDetectionModule", || {
        Box::new(PoseDetectionModule::new(
            PoseDetectorService::NAME,
            vec!["activity_recognition".into()],
        ))
    });
    registry.register("ActivityRecognitionModule", || {
        Box::new(ActivityRecognitionModule::new(
            ActivityClassifierService::NAME,
            vec!["display".into()],
            vec!["rep_counter".into()],
        ))
    });
    registry.register("RepCounterModule", || {
        Box::new(RepCounterModule::new(RepCounterService::NAME, "display"))
    });
    registry.register("DisplayModule", || {
        Box::new(DisplayModule::new(Some(DisplayService::NAME.into()), 2))
    });
    registry
}

/// The service registry (trained classifier included).
pub fn service_registry(seed: u64) -> ServiceRegistry {
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(PoseDetectorService::new()));
    services.install(Arc::new(ActivityClassifierService::new(
        trained_fitness_classifier(seed),
    )));
    services.install(Arc::new(RepCounterService::new()));
    services.install(Arc::new(DisplayService::new()));
    services
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_core::spec::ModuleSpec;

    /// A programmatically built equivalent of [`pipeline_spec`] (used by tests
    /// to pin the parser).
    pub(crate) fn pipeline_spec_builder() -> PipelineSpec {
        PipelineSpec::new("fitness")
            .with_module(
                ModuleSpec::new("video_streaming", "VideoStreamingModule")
                    .with_next("pose_detection"),
            )
            .with_module(
                ModuleSpec::new("pose_detection", "PoseDetectionModule")
                    .with_service("pose_detector")
                    .with_next("activity_recognition"),
            )
            .with_module(
                ModuleSpec::new("activity_recognition", "ActivityRecognitionModule")
                    .with_service("activity_classifier")
                    .with_next("rep_counter")
                    .with_next("display"),
            )
            .with_module(
                ModuleSpec::new("rep_counter", "RepCounterModule")
                    .with_service("rep_counter")
                    .with_next("display"),
            )
            .with_module(ModuleSpec::new("display", "DisplayModule").with_service("display"))
    }

    #[test]
    fn config_text_matches_builder() {
        let parsed = pipeline_spec();
        let built = pipeline_spec_builder();
        assert_eq!(parsed.name, built.name);
        assert_eq!(parsed.modules.len(), built.modules.len());
        for (p, b) in parsed.modules.iter().zip(built.modules.iter()) {
            assert_eq!(p.name, b.name);
            assert_eq!(p.include, b.include);
            assert_eq!(p.services, b.services);
            assert_eq!(p.next_modules, b.next_modules);
        }
    }

    #[test]
    fn videopipe_plan_is_fully_colocated() {
        let plan = videopipe_plan().unwrap();
        assert_eq!(plan.remote_binding_count(), 0, "VideoPipe co-locates");
        // Frame crosses phone → desktop; the two display edges (from
        // activity_recognition and rep_counter) cross desktop → tv.
        let cross: Vec<_> = plan.edges.iter().filter(|e| e.cross_device).collect();
        assert_eq!(cross.len(), 3);
    }

    #[test]
    fn baseline_plan_is_fully_remote() {
        let plan = baseline_plan().unwrap();
        assert_eq!(
            plan.remote_binding_count(),
            4,
            "all four service bindings (pose, activity, rep, display) remote"
        );
        assert!(plan.edges.iter().all(|e| !e.cross_device));
        // All ML bindings land on the desktop (Fig. 5).
        for b in &plan.service_bindings {
            assert_eq!(b.device, DESKTOP, "{} on {}", b.service, b.device);
        }
    }

    #[test]
    fn registries_cover_the_spec() {
        let spec = pipeline_spec();
        let modules = module_registry(1);
        for m in &spec.modules {
            assert!(modules.contains(&m.include), "missing {}", m.include);
        }
        let services = service_registry(1);
        for s in spec.required_services() {
            assert!(services.contains(&s), "missing {s}");
        }
    }

    #[test]
    fn devices_match_paper_setup() {
        let ds = devices();
        assert_eq!(ds.len(), 3);
        let desktop = ds.iter().find(|d| d.name == DESKTOP).unwrap();
        assert!(desktop.supports_containers);
        assert!(desktop.has_service("pose_detector"));
        let phone = ds.iter().find(|d| d.name == PHONE).unwrap();
        assert!(!phone.supports_containers);
    }
}
