//! The fall-detection application (paper §4.3: "we also implement a fall
//! detection application pipeline with VideoPipe").
//!
//! Pipeline: `video_streaming → pose_detection → fall_alert`. The alert
//! module keeps the detector state; pose detection reuses the shared
//! service.

use crate::modules::{FallAlertModule, PoseDetectionModule, VideoStreamingModule};
use crate::services::PoseDetectorService;
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

/// The fall-detection pipeline DAG.
pub(crate) fn pipeline_spec() -> PipelineSpec {
    PipelineSpec::new("fall_detection")
        .with_module(
            ModuleSpec::new("video_streaming", "FallVideoModule").with_next("pose_detection"),
        )
        .with_module(
            ModuleSpec::new("pose_detection", "PoseDetectionModule")
                .with_service(PoseDetectorService::NAME)
                .with_next("fall_alert"),
        )
        .with_module(ModuleSpec::new("fall_alert", "FallAlertModule"))
}

/// Devices: phone camera + desktop pose service.
pub(crate) fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::new(crate::fitness::PHONE, 0.6),
        DeviceSpec::new(crate::fitness::DESKTOP, 2.0)
            .with_containers(2)
            .with_service(PoseDetectorService::NAME),
    ]
}

/// VideoPipe placement.
pub(crate) fn videopipe_placement() -> Placement {
    Placement::new()
        .assign("video_streaming", crate::fitness::PHONE)
        .assign("pose_detection", crate::fitness::DESKTOP)
        .assign("fall_alert", crate::fitness::PHONE)
}

/// The validated deployment plan.
///
/// # Errors
///
/// Propagates planning errors (none for the built-in spec).
pub fn videopipe_plan() -> Result<DeploymentPlan, PipelineError> {
    plan(&pipeline_spec(), &devices(), &videopipe_placement())
}

/// Module registry: the person falls once, `fall_delay_s` seconds in.
pub fn module_registry(seed: u64, fall_duration_s: f64) -> ModuleRegistry {
    let mut registry = ModuleRegistry::new();
    registry.register("FallVideoModule", move || {
        Box::new(VideoStreamingModule::synthetic(
            SourceConfig::new(30.0)
                .with_resolution(320, 240)
                .with_noise(1.5)
                .with_seed(seed ^ 0xFA11),
            MotionClip::new(ExerciseKind::Fall, fall_duration_s),
            "pose_detection",
        ))
    });
    registry.register("PoseDetectionModule", || {
        Box::new(PoseDetectionModule::new(
            PoseDetectorService::NAME,
            vec!["fall_alert".into()],
        ))
    });
    registry.register("FallAlertModule", || Box::new(FallAlertModule::new()));
    registry
}

/// The fall app's SLO degradation priorities. Fall detection is
/// safety-critical: a missed fall is the worst outcome, so the lattice
/// **never sheds frames**. Pressure is absorbed by batching the pose
/// service first (throughput for a little latency), then trading codec
/// quality (the pose detector tolerates coarse quantisation), and only
/// then halving the sampling rate — a fall spans many frames, so 2×
/// subsampling still observes it.
pub fn slo_config(target_p99: Duration) -> SloConfig {
    SloConfig::p99(target_p99).with_lattice(vec![
        Knob::Batch { max_batch: 4 },
        Knob::CodecQuality { shift: 4 },
        Knob::SampleRate { divisor: 2 },
    ])
}

/// Service registry (pose detector only).
pub fn service_registry() -> ServiceRegistry {
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(PoseDetectorService::new()));
    services
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_valid_and_colocated() {
        let plan = videopipe_plan().unwrap();
        assert_eq!(plan.remote_binding_count(), 0);
        assert_eq!(plan.pipeline.depth(), 3);
    }

    #[test]
    fn slo_preset_never_sheds() {
        let cfg = slo_config(Duration::from_millis(200));
        cfg.validate().unwrap();
        assert!(
            !cfg.lattice.iter().any(|k| matches!(k, Knob::Shed { .. })),
            "fall detection must never shed frames: {:?}",
            cfg.lattice
        );
        assert!(matches!(cfg.lattice[0], Knob::Batch { .. }));
    }

    #[test]
    fn registries_cover_spec() {
        let spec = pipeline_spec();
        let modules = module_registry(1, 1.0);
        for m in &spec.modules {
            assert!(modules.contains(&m.include), "missing {}", m.include);
        }
        assert!(service_registry().contains(PoseDetectorService::NAME));
    }
}
