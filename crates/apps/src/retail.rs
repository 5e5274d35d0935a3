//! A "cashierless checkout" pipeline (paper §1 motivates retail: "users can
//! checkout items by simply walking out with them and have a computer
//! vision system detect and process the purchase").
//!
//! Pipeline: `shelf_camera → object_detection → checkout`. The object
//! detector service finds items on the synthetic shelf; the checkout module
//! tracks them across frames with the IoU tracker and records a purchase
//! when a tracked item disappears from the shelf (was taken).

use crate::services::ObjectDetectorService;
use std::sync::Arc;
use videopipe_core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe_core::message::Payload;
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::service::{ServiceRegistry, ServiceRequest};
use videopipe_core::slo::{Knob, SloConfig};
use videopipe_core::spec::{ModuleSpec, PipelineSpec};
use videopipe_core::PipelineError;
use videopipe_media::motion::{ExerciseKind, MotionClip};
use videopipe_media::scene::SceneObject;
use videopipe_media::{SourceConfig, SyntheticVideoSource};
use videopipe_ml::IouTracker;

/// A shelf camera: renders a scene whose items disappear over time
/// (customers taking them).
pub(crate) struct ShelfCameraModule {
    source_seed: u64,
    /// `(object, taken_at_ns)` — the item leaves the shelf at that time.
    items: Vec<(SceneObject, Option<u64>)>,
    next: String,
    seq_source: Option<SyntheticVideoSource>,
}

impl ShelfCameraModule {
    /// Creates a shelf with `items`; entries with `Some(t)` vanish at `t`.
    pub(crate) fn new(
        seed: u64,
        items: Vec<(SceneObject, Option<u64>)>,
        next: impl Into<String>,
    ) -> Self {
        ShelfCameraModule {
            source_seed: seed,
            items,
            next: next.into(),
            seq_source: None,
        }
    }

    fn source(&mut self) -> &mut SyntheticVideoSource {
        let seed = self.source_seed;
        self.seq_source.get_or_insert_with(|| {
            SyntheticVideoSource::new(
                SourceConfig::new(30.0)
                    .with_resolution(320, 240)
                    .with_noise(1.0)
                    .with_seed(seed),
                // An idle person browsing in front of the shelf.
                MotionClip::new(ExerciseKind::Idle, 3.0),
            )
        })
    }
}

impl Module for ShelfCameraModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::FrameTick { t_ns } = event else {
            return Ok(());
        };
        let visible: Vec<SceneObject> = self
            .items
            .iter()
            .filter(|(_, taken)| taken.map(|t| t_ns < t).unwrap_or(true))
            .map(|(obj, _)| *obj)
            .collect();
        // Re-target the source's objects for this frame.
        let seed = self.source_seed;
        let _ = seed;
        let frame = {
            let source = self.source();
            // The source renders pose + objects; rebuild with current
            // visibility (objects change over time).
            let pose = source.ground_truth_pose(t_ns);
            let renderer = videopipe_media::scene::SceneRenderer::new(320, 240);
            renderer.render_scene(&pose, &visible, ctx.header().frame_seq, t_ns)
        };
        let id = ctx.frame_store().insert(frame);
        ctx.call_module(&self.next, Payload::FrameRef(id))
    }
}

impl std::fmt::Debug for ShelfCameraModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShelfCameraModule")
            .field("items", &self.items.len())
            .finish_non_exhaustive()
    }
}

/// Calls the object detector and forwards the boxes.
#[derive(Debug)]
pub(crate) struct ObjectDetectionModule {
    next: String,
}

impl ObjectDetectionModule {
    /// Creates the module.
    pub(crate) fn new(next: impl Into<String>) -> Self {
        ObjectDetectionModule { next: next.into() }
    }
}

impl Module for ObjectDetectionModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::Message(msg) = event else {
            return Ok(());
        };
        let Payload::FrameRef(id) = msg.payload else {
            return Err(PipelineError::BadPayload("expected a frame reference"));
        };
        let resp = ctx.call_service(
            ObjectDetectorService::NAME,
            ServiceRequest::new("detect", Payload::FrameRef(id)),
        )?;
        ctx.frame_store().release(id);
        ctx.call_module(&self.next, resp.payload)
    }
}

/// Tracks shelf items and records a purchase when a track disappears.
#[derive(Debug)]
pub(crate) struct CheckoutModule {
    tracker: IouTracker,
    /// Tracks seen alive on the previous frame.
    live_tracks: Vec<u64>,
    purchases: u64,
    /// Tracks must have been seen this many frames to count as real items.
    min_hits: u32,
}

impl CheckoutModule {
    /// Creates the checkout with an IoU gate of 0.3 and a 3-frame track
    /// maturity requirement.
    pub(crate) fn new() -> Self {
        CheckoutModule {
            tracker: IouTracker::new(0.3, 2),
            live_tracks: Vec::new(),
            purchases: 0,
            min_hits: 3,
        }
    }
}

impl Default for CheckoutModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for CheckoutModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::Message(msg) = event else {
            return Ok(());
        };
        if let Payload::Boxes(boxes) = &msg.payload {
            self.tracker.update(boxes);
            let now_live: Vec<u64> = self
                .tracker
                .tracks()
                .iter()
                .filter(|t| t.hits >= self.min_hits && t.age == 0)
                .map(|t| t.id)
                .collect();
            for gone in self.live_tracks.iter().filter(|id| !now_live.contains(id)) {
                self.purchases += 1;
                ctx.log(&format!(
                    "item (track {gone}) left the shelf — purchase #{} recorded",
                    self.purchases
                ));
            }
            self.live_tracks = now_live;
        }
        ctx.signal_source()
    }
}

/// The retail pipeline DAG.
pub(crate) fn pipeline_spec() -> PipelineSpec {
    PipelineSpec::new("retail_checkout")
        .with_module(
            ModuleSpec::new("shelf_camera", "ShelfCameraModule").with_next("object_detection"),
        )
        .with_module(
            ModuleSpec::new("object_detection", "ObjectDetectionModule")
                .with_service(ObjectDetectorService::NAME)
                .with_next("checkout"),
        )
        .with_module(ModuleSpec::new("checkout", "CheckoutModule"))
}

/// Devices: a shelf camera (edge sensor) and the store's edge server.
pub(crate) fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::new("shelf-cam", 0.5),
        DeviceSpec::new("edge-server", 2.5)
            .with_containers(4)
            .with_service(ObjectDetectorService::NAME),
    ]
}

/// VideoPipe placement: detection co-located with its service.
pub(crate) fn videopipe_placement() -> Placement {
    Placement::new()
        .assign("shelf_camera", "shelf-cam")
        .assign("object_detection", "edge-server")
        .assign("checkout", "edge-server")
}

/// The validated deployment plan.
///
/// # Errors
///
/// Propagates planning errors (none for the built-in spec).
pub fn videopipe_plan() -> Result<DeploymentPlan, PipelineError> {
    plan(&pipeline_spec(), &devices(), &videopipe_placement())
}

/// A default shelf: three items; two get taken at the given times.
pub fn default_shelf() -> Vec<(SceneObject, Option<u64>)> {
    vec![
        (
            SceneObject::Rect {
                x: 0.04,
                y: 0.06,
                w: 0.10,
                h: 0.08,
                intensity: 250,
            },
            Some(3_000_000_000), // taken at t = 3 s
        ),
        (
            SceneObject::Disc {
                cx: 0.85,
                cy: 0.12,
                r: 0.05,
                intensity: 244,
            },
            Some(6_000_000_000), // taken at t = 6 s
        ),
        (
            SceneObject::Rect {
                x: 0.82,
                y: 0.78,
                w: 0.12,
                h: 0.10,
                intensity: 238,
            },
            None, // never taken
        ),
    ]
}

/// Module registry for the retail app.
pub fn module_registry(seed: u64, shelf: Vec<(SceneObject, Option<u64>)>) -> ModuleRegistry {
    let mut registry = ModuleRegistry::new();
    let shelf_for_factory = shelf;
    registry.register("ShelfCameraModule", move || {
        Box::new(ShelfCameraModule::new(
            seed,
            shelf_for_factory.clone(),
            "object_detection",
        ))
    });
    registry.register("ObjectDetectionModule", || {
        Box::new(ObjectDetectionModule::new("checkout"))
    });
    registry.register("CheckoutModule", || Box::new(CheckoutModule::new()));
    registry
}

/// Service registry (object detector only).
pub fn service_registry() -> ServiceRegistry {
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(ObjectDetectorService::new()));
    services
}

/// The retail app's SLO degradation priorities. The IoU tracker loses
/// tracks when consecutive observations are too far apart, so **sampling
/// is never reduced** — a skipped frame is a potential missed purchase.
/// Quality goes first (the detector thresholds coarse intensity anyway),
/// then detector batching (the edge server has four containers to fill),
/// and only under extreme pressure a conservative 1-in-4 shed.
pub fn slo_config(target_p99: std::time::Duration) -> SloConfig {
    SloConfig::p99(target_p99).with_lattice(vec![
        Knob::CodecQuality { shift: 4 },
        Knob::Batch { max_batch: 8 },
        Knob::Shed { keep_one_in: 4 },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use videopipe_sim::{Scenario, SimProfile};

    #[test]
    fn slo_preset_never_subsamples() {
        let cfg = slo_config(Duration::from_millis(200));
        cfg.validate().unwrap();
        assert!(
            !cfg.lattice
                .iter()
                .any(|k| matches!(k, Knob::SampleRate { .. })),
            "the IoU tracker cannot survive subsampling: {:?}",
            cfg.lattice
        );
    }

    #[test]
    fn plan_is_valid() {
        let plan = videopipe_plan().unwrap();
        assert_eq!(plan.remote_binding_count(), 0);
        assert_eq!(plan.pipeline.depth(), 3);
    }

    #[test]
    fn checkout_records_exactly_the_taken_items() {
        let mut scenario = Scenario::new(SimProfile::deterministic());
        let handle = scenario
            .add_pipeline(
                &videopipe_plan().unwrap(),
                &module_registry(5, default_shelf()),
                &service_registry(),
                15.0,
                1,
            )
            .unwrap();
        let report = scenario.run(Duration::from_secs(10));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let purchases = report
            .logs
            .iter()
            .filter(|l| l.contains("purchase"))
            .count();
        assert_eq!(
            purchases, 2,
            "two items were taken; logs: {:?}",
            report.logs
        );
        assert!(report.metrics(handle).frames_delivered > 50);
    }

    #[test]
    fn nothing_taken_means_no_purchases() {
        let shelf: Vec<_> = default_shelf()
            .into_iter()
            .map(|(obj, _)| (obj, None))
            .collect();
        let mut scenario = Scenario::new(SimProfile::deterministic());
        scenario
            .add_pipeline(
                &videopipe_plan().unwrap(),
                &module_registry(5, shelf),
                &service_registry(),
                15.0,
                1,
            )
            .unwrap();
        let report = scenario.run(Duration::from_secs(8));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(
            !report.logs.iter().any(|l| l.contains("purchase")),
            "{:?}",
            report.logs
        );
    }
}
