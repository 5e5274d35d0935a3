//! The gesture-controlled IoT application (paper §4.2).
//!
//! Pipeline: `video_streaming → pose_detection → gesture_recognition →
//! iot_actuator`. The gesture classifier is a separately trained instance
//! of the activity recogniser ("with the same pose detector service, we use
//! a similar activity classifier"); the pose detector service is the
//! *shared* one on the desktop — this sharing is what Table 2's fourth
//! column measures.

use crate::iot::IotHub;
use crate::modules::{
    ActivityRecognitionModule, IoTActuatorModule, PoseDetectionModule, VideoStreamingModule,
};
use crate::services::{ActivityClassifierService, PoseDetectorService};
use crate::training::trained_gesture_classifier;
use std::sync::Arc;
use std::time::Duration;
use videopipe_core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe_core::module::ModuleRegistry;
use videopipe_core::service::ServiceRegistry;
use videopipe_core::slo::{Knob, SloConfig};
use videopipe_core::spec::{ModuleSpec, PipelineSpec};
use videopipe_core::PipelineError;
use videopipe_media::motion::{ExerciseKind, MotionClip};
use videopipe_media::SourceConfig;

/// Service name of the gesture classifier instance.
pub(crate) const GESTURE_CLASSIFIER: &str = "gesture_classifier";

/// The gesture pipeline DAG.
pub(crate) fn pipeline_spec() -> PipelineSpec {
    PipelineSpec::new("gesture")
        .with_module(
            ModuleSpec::new("video_streaming", "GestureVideoModule").with_next("pose_detection"),
        )
        .with_module(
            ModuleSpec::new("pose_detection", "PoseDetectionModule")
                .with_service(PoseDetectorService::NAME)
                .with_next("gesture_recognition"),
        )
        .with_module(
            ModuleSpec::new("gesture_recognition", "GestureRecognitionModule")
                .with_service(GESTURE_CLASSIFIER)
                .with_next("iot_actuator"),
        )
        .with_module(ModuleSpec::new("iot_actuator", "IoTActuatorModule"))
}

/// Devices for the gesture app: the same phone and desktop as the fitness
/// app (the desktop additionally hosts the gesture classifier container).
pub(crate) fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::new(crate::fitness::PHONE, 0.6),
        DeviceSpec::new(crate::fitness::DESKTOP, 2.0)
            .with_containers(2)
            .with_service(PoseDetectorService::NAME)
            .with_service(GESTURE_CLASSIFIER),
    ]
}

/// VideoPipe placement: processing modules co-located with their services
/// on the desktop, actuation back on the phone (next to the IoT hub).
pub(crate) fn videopipe_placement() -> Placement {
    Placement::new()
        .assign("video_streaming", crate::fitness::PHONE)
        .assign("pose_detection", crate::fitness::DESKTOP)
        .assign("gesture_recognition", crate::fitness::DESKTOP)
        .assign("iot_actuator", crate::fitness::PHONE)
}

/// The validated deployment plan.
///
/// # Errors
///
/// Propagates planning errors (none for the built-in spec).
pub fn videopipe_plan() -> Result<DeploymentPlan, PipelineError> {
    plan(&pipeline_spec(), &devices(), &videopipe_placement())
}

/// A deployment plan against the *fitness* device set, so both apps can
/// run in one scenario sharing the desktop's pose-detector pool.
///
/// # Errors
///
/// Propagates planning errors.
pub fn plan_on_fitness_devices() -> Result<DeploymentPlan, PipelineError> {
    let mut devices = crate::fitness::devices();
    // The desktop additionally hosts the gesture classifier container.
    for d in &mut devices {
        if d.name == crate::fitness::DESKTOP {
            d.installed_services.push(GESTURE_CLASSIFIER.to_string());
        }
    }
    plan(&pipeline_spec(), &devices, &videopipe_placement())
}

/// The gesture app's SLO degradation priorities — the inverse of the
/// fitness app's. A gesture spans a couple of seconds, so halving or
/// quartering the frame rate first costs almost nothing; codec quality
/// comes later because the classifier eats quantisation noise long before
/// a human does, and only a mild shift (4) is allowed. A moderate shed
/// rung closes the lattice: a missed wave merely means waving again.
pub fn slo_config(target_p99: Duration) -> SloConfig {
    SloConfig::p99(target_p99).with_lattice(vec![
        Knob::SampleRate { divisor: 2 },
        Knob::SampleRate { divisor: 4 },
        Knob::CodecQuality { shift: 4 },
        Knob::Shed { keep_one_in: 2 },
    ])
}

/// Module registry: a user waving/clapping in front of the camera.
pub fn module_registry(seed: u64, gesture: ExerciseKind, hub: Arc<IotHub>) -> ModuleRegistry {
    let mut registry = ModuleRegistry::new();
    registry.register("GestureVideoModule", move || {
        Box::new(VideoStreamingModule::synthetic(
            SourceConfig::new(30.0)
                .with_resolution(320, 240)
                .with_noise(1.5)
                .with_seed(seed ^ 0x6357),
            MotionClip::new(gesture, 1.2).with_jitter(0.004),
            "pose_detection",
        ))
    });
    registry.register("PoseDetectionModule", || {
        Box::new(PoseDetectionModule::new(
            PoseDetectorService::NAME,
            vec!["gesture_recognition".into()],
        ))
    });
    registry.register("GestureRecognitionModule", || {
        Box::new(ActivityRecognitionModule::new(
            GESTURE_CLASSIFIER,
            vec!["iot_actuator".into()],
            vec![],
        ))
    });
    registry.register("IoTActuatorModule", move || {
        Box::new(IoTActuatorModule::new(Arc::clone(&hub)))
    });
    registry
}

/// Service registry for the gesture app (pose detector + trained gesture
/// classifier).
pub fn service_registry(seed: u64) -> ServiceRegistry {
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(PoseDetectorService::new()));
    services.install(Arc::new(ActivityClassifierService::with_name(
        GESTURE_CLASSIFIER,
        trained_gesture_classifier(seed),
    )));
    services
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_colocates_services() {
        let plan = videopipe_plan().unwrap();
        assert_eq!(plan.remote_binding_count(), 0);
        assert_eq!(plan.pipeline.sinks().len(), 1);
    }

    #[test]
    fn slo_priorities_are_the_inverse_of_fitness() {
        let target = Duration::from_millis(200);
        let gesture = slo_config(target);
        let fitness = crate::fitness::slo_config(target);
        gesture.validate().unwrap();
        fitness.validate().unwrap();
        // Gesture drops frame rate first (a wave spans seconds); fitness
        // trades codec quality first (a human is watching the TV).
        assert!(matches!(gesture.lattice[0], Knob::SampleRate { .. }));
        assert!(matches!(fitness.lattice[0], Knob::CodecQuality { .. }));
        // Both end in shedding, the last resort of the lattice ordering.
        assert!(matches!(gesture.lattice.last(), Some(Knob::Shed { .. })));
        assert!(matches!(fitness.lattice.last(), Some(Knob::Shed { .. })));
    }

    #[test]
    fn registries_cover_spec() {
        let spec = pipeline_spec();
        let hub = Arc::new(IotHub::new());
        let modules = module_registry(1, ExerciseKind::Clap, hub);
        for m in &spec.modules {
            assert!(modules.contains(&m.include), "missing {}", m.include);
        }
        let services = service_registry(1);
        for s in spec.required_services() {
            assert!(services.contains(&s), "missing {s}");
        }
    }

    #[test]
    fn shares_pose_detector_with_fitness_devices() {
        let plan = plan_on_fitness_devices().unwrap();
        let binding = plan
            .binding("pose_detection", PoseDetectorService::NAME)
            .unwrap();
        assert_eq!(binding.device, crate::fitness::DESKTOP);
        assert!(!binding.remote);
    }
}
