//! The pipeline modules (the paper's Fig. 2/Fig. 4 boxes).
//!
//! Modules hold the per-pipeline state (pose windows, rep-counter state
//! machines, display fan-in buffers — "self-contained units with
//! encapsulated states", §2.1) and delegate the heavy lifting to the
//! stateless services. Every module here runs unchanged on the runtime
//! and on the simulator.

use crate::services::{rep_classify_request, rep_model_from_payload};
use crate::IotHub;
use std::collections::BTreeMap;
use std::sync::Arc;
use videopipe_core::message::Payload;
use videopipe_core::module::{Event, Module, ModuleCtx};
use videopipe_core::service::ServiceRequest;
use videopipe_core::PipelineError;
use videopipe_media::{Pose, SourceConfig, SyntheticVideoSource};
use videopipe_ml::{FallDetector, FallState};
use videopipe_ml::{PoseWindow, WINDOW_LEN};
use videopipe_ml::{RepCounter, RepCounterModel};

fn module_err(module: &str, reason: impl Into<String>) -> PipelineError {
    PipelineError::Module {
        module: module.to_string(),
        reason: reason.into(),
    }
}

/// `VideoStreamingModule` — the camera source. On every admitted tick it
/// captures a synthetic frame, registers it in the device frame store, and
/// forwards the frame *reference* downstream.
pub(crate) struct VideoStreamingModule {
    source: SyntheticVideoSource,
    next: String,
}

impl VideoStreamingModule {
    /// Creates the source forwarding to `next`.
    pub(crate) fn new(source: SyntheticVideoSource, next: impl Into<String>) -> Self {
        VideoStreamingModule {
            source,
            next: next.into(),
        }
    }

    /// Convenience constructor from a [`SourceConfig`] and motion clip.
    pub(crate) fn synthetic(
        config: SourceConfig,
        clip: videopipe_media::motion::MotionClip,
        next: impl Into<String>,
    ) -> Self {
        Self::new(SyntheticVideoSource::new(config, clip), next)
    }
}

impl Module for VideoStreamingModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::FrameTick { t_ns } = event else {
            return Ok(()); // sources ignore stray messages
        };
        let frame = self.source.capture(t_ns);
        let id = ctx.frame_store().insert(frame);
        ctx.call_module(&self.next, Payload::FrameRef(id))
    }
}

impl std::fmt::Debug for VideoStreamingModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VideoStreamingModule")
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

/// `PoseDetectionModule` — calls the pose detector service on each frame
/// and forwards the detected pose. Frames with no detection return their
/// flow-control credit immediately (the frame leaves the pipeline here).
#[derive(Debug)]
pub(crate) struct PoseDetectionModule {
    service: String,
    nexts: Vec<String>,
}

impl PoseDetectionModule {
    /// Creates the module calling `service` and forwarding to `nexts`.
    pub(crate) fn new(service: impl Into<String>, nexts: Vec<String>) -> Self {
        PoseDetectionModule {
            service: service.into(),
            nexts,
        }
    }
}

impl Module for PoseDetectionModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::Message(msg) = event else {
            return Ok(());
        };
        let Payload::FrameRef(id) = msg.payload else {
            return Err(module_err("pose_detection", "expected a frame reference"));
        };
        let resp = ctx.call_service(
            &self.service,
            ServiceRequest::new("detect", Payload::FrameRef(id)),
        )?;
        ctx.frame_store().release(id);
        match resp.payload {
            Payload::Pose { pose, score } => {
                for next in &self.nexts {
                    ctx.call_module(
                        next,
                        Payload::Pose {
                            pose: pose.clone(),
                            score,
                        },
                    )?;
                }
                Ok(())
            }
            _ => {
                // No person in frame: the frame dies here, return credit.
                ctx.signal_source()
            }
        }
    }
}

/// `ActivityRecognitionModule` — keeps the sliding 15-pose window (module
/// state) and asks the classifier service for a label. Until the window
/// fills it emits a `warming_up` label so downstream fan-in stays in step.
#[derive(Debug)]
pub(crate) struct ActivityRecognitionModule {
    service: String,
    window: PoseWindow,
    label_targets: Vec<String>,
    pose_targets: Vec<String>,
}

impl ActivityRecognitionModule {
    /// Label emitted while the pose window is still filling.
    pub(crate) const WARMING_UP: &'static str = "warming_up";

    /// Creates the module: labels go to `label_targets`, the raw pose is
    /// passed through to `pose_targets` (the rep counter).
    pub(crate) fn new(
        service: impl Into<String>,
        label_targets: Vec<String>,
        pose_targets: Vec<String>,
    ) -> Self {
        ActivityRecognitionModule {
            service: service.into(),
            window: PoseWindow::new(),
            label_targets,
            pose_targets,
        }
    }
}

impl Module for ActivityRecognitionModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::Message(msg) = event else {
            return Ok(());
        };
        let Payload::Pose { pose, .. } = msg.payload else {
            return Err(module_err("activity_recognition", "expected a pose"));
        };
        for target in &self.pose_targets {
            ctx.call_module(
                target,
                Payload::Pose {
                    pose: pose.clone(),
                    score: 1.0,
                },
            )?;
        }
        let features = self.window.push(pose);
        let label_payload = match features {
            Some(features) => {
                let resp = ctx.call_service(
                    &self.service,
                    ServiceRequest::new("classify", Payload::Vector(features)),
                )?;
                match resp.payload {
                    Payload::Label { label, confidence } => Payload::Label { label, confidence },
                    other => {
                        return Err(module_err(
                            "activity_recognition",
                            format!("classifier returned {}", other.kind_name()),
                        ))
                    }
                }
            }
            None => Payload::Label {
                label: Self::WARMING_UP.to_string(),
                confidence: 0.0,
            },
        };
        for target in &self.label_targets {
            ctx.call_module(target, label_payload.clone())?;
        }
        Ok(())
    }
}

/// `RepCounterModule` — calibrates a k-means model through the stateless
/// rep-counter service, then streams cluster queries and keeps the
/// debounced state machine locally (paper §4.1.3).
#[derive(Debug)]
pub(crate) struct RepCounterModule {
    service: String,
    next: String,
    calibration_frames: usize,
    calibration: Vec<Pose>,
    counter: Option<RepCounter>,
}

impl RepCounterModule {
    /// Default calibration window: one full repetition at 15 FPS.
    pub(crate) const DEFAULT_CALIBRATION_FRAMES: usize = 2 * WINDOW_LEN;

    /// Creates the module calling `service` and reporting counts to
    /// `next`.
    pub(crate) fn new(service: impl Into<String>, next: impl Into<String>) -> Self {
        RepCounterModule {
            service: service.into(),
            next: next.into(),
            calibration_frames: Self::DEFAULT_CALIBRATION_FRAMES,
            calibration: Vec::new(),
            counter: None,
        }
    }
}

/// Rep-counter snapshot format version.
const REP_SNAPSHOT_V1: u8 = 1;

/// Decodes a [`RepCounterModule`] checkpoint produced by
/// [`Module::snapshot`]: version, reps, state-machine flags, then the
/// fitted model (initial cluster + two centroids). Returns `None` on any
/// malformation — restore is best-effort and falls back to recalibration.
fn decode_rep_snapshot(bytes: &[u8]) -> Option<RepCounter> {
    let (&version, rest) = bytes.split_first()?;
    if version != REP_SNAPSHOT_V1 || rest.len() < 11 {
        return None;
    }
    let reps = u32::from_be_bytes(rest[0..4].try_into().ok()?);
    let state = rest[4] as usize;
    let away = rest[5] != 0;
    let initial = rest[6] as usize;
    if state > 1 || initial > 1 {
        return None;
    }
    let dim = u32::from_be_bytes(rest[7..11].try_into().ok()?) as usize;
    let body = &rest[11..];
    if body.len() != dim.checked_mul(8)? {
        return None;
    }
    let mut centroids = Vec::with_capacity(2);
    for c in 0..2 {
        let mut centroid = Vec::with_capacity(dim);
        for i in 0..dim {
            let off = (c * dim + i) * 4;
            centroid.push(f32::from_be_bytes(body[off..off + 4].try_into().ok()?));
        }
        centroids.push(centroid);
    }
    Some(RepCounter::resume(
        RepCounterModel::from_parts(centroids, initial),
        state,
        away,
        reps,
    ))
}

impl Module for RepCounterModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::Message(msg) = event else {
            return Ok(());
        };
        let Payload::Pose { pose, .. } = msg.payload else {
            return Err(module_err("rep_counter", "expected a pose"));
        };
        let reps = match &mut self.counter {
            Some(counter) => {
                let resp =
                    ctx.call_service(&self.service, rep_classify_request(counter.model(), &pose))?;
                let Payload::Count(cluster) = resp.payload else {
                    return Err(module_err("rep_counter", "service returned non-count"));
                };
                counter.push_cluster(cluster as usize);
                counter.reps()
            }
            None => {
                self.calibration.push(pose);
                if self.calibration.len() >= self.calibration_frames {
                    let resp = ctx.call_service(
                        &self.service,
                        ServiceRequest::new("fit", Payload::Poses(self.calibration.clone())),
                    )?;
                    let model = rep_model_from_payload(&resp.payload)?;
                    ctx.log("rep counter calibrated");
                    self.counter = Some(RepCounter::new(model));
                    self.calibration.clear();
                }
                0
            }
        };
        ctx.call_module(&self.next, Payload::Count(u64::from(reps)))
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        // Uncalibrated modules are cheap to rebuild from scratch; only the
        // fitted model and rep progress are worth checkpointing. The
        // in-flight calibration window and the debounce run are transient
        // by design — restore resumes *near* where the module died.
        let counter = self.counter.as_ref()?;
        let model = counter.model();
        let centroids = model.centroids();
        let dim = centroids[0].len();
        let mut out = Vec::with_capacity(12 + dim * 8);
        out.push(REP_SNAPSHOT_V1);
        out.extend_from_slice(&counter.reps().to_be_bytes());
        out.push(counter.state() as u8);
        out.push(u8::from(counter.away_from_initial()));
        out.push(model.initial_cluster() as u8);
        out.extend_from_slice(&(dim as u32).to_be_bytes());
        for centroid in centroids {
            for v in centroid {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        Some(out)
    }

    fn restore(&mut self, snapshot: &[u8]) {
        if let Some(counter) = decode_rep_snapshot(snapshot) {
            self.counter = Some(counter);
            self.calibration.clear();
        }
    }
}

/// `DisplayModule` — the sink of the fitness pipeline. Collects the fan-in
/// per frame (activity label + rep count), renders through the display
/// service, and returns the flow-control credit (paper §2.3: "when the
/// final module is done with its current data, it signals the source").
#[derive(Debug)]
pub(crate) struct DisplayModule {
    service: Option<String>,
    fan_in: usize,
    pending: BTreeMap<u64, Vec<Payload>>,
    frames_displayed: u64,
}

impl DisplayModule {
    /// Creates a display expecting `fan_in` messages per frame, rendering
    /// through `service` (or only logging when `None`).
    pub(crate) fn new(service: Option<String>, fan_in: usize) -> Self {
        DisplayModule {
            service,
            fan_in: fan_in.max(1),
            pending: BTreeMap::new(),
            frames_displayed: 0,
        }
    }
}

impl Module for DisplayModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::Message(msg) = event else {
            return Ok(());
        };
        let seq = msg.header.frame_seq;
        let entry = self.pending.entry(seq).or_default();
        entry.push(msg.payload);
        if entry.len() < self.fan_in {
            // Bound the map of half-collected frames. A frame only goes
            // stale after its other branch failed, and that failure already
            // returned the frame's credit through the error path — so an
            // eviction returns nothing. Signalling here would complete the
            // *current* frame (the context's header) before it is shown.
            while self.pending.len() > 8 {
                self.pending.pop_first();
            }
            return Ok(());
        }
        let parts = self.pending.remove(&seq).expect("entry exists");
        let mut summary = String::new();
        for part in &parts {
            match part {
                Payload::Label { label, .. } => summary.push_str(&format!("activity={label} ")),
                Payload::Count(n) => summary.push_str(&format!("reps={n} ")),
                other => summary.push_str(&format!("{} ", other.kind_name())),
            }
        }
        if let Some(service) = &self.service {
            let _ = ctx.call_service(
                service,
                ServiceRequest::new("render", Payload::Text(summary.trim().to_string())),
            )?;
        }
        self.frames_displayed += 1;
        ctx.log(&format!("frame {seq}: {}", summary.trim()));
        ctx.signal_source()
    }
}

/// `IoTActuatorModule` — the sink of the gesture pipeline: maps recognised
/// gestures to smart-home commands (§4.2: "'clapping' to toggle the light
/// … 'waving' to toggle a doorbell camera").
#[derive(Debug)]
pub(crate) struct IoTActuatorModule {
    hub: Arc<IotHub>,
    /// Consecutive identical labels required before acting (prevents one
    /// noisy window from toggling the lights).
    confirm: usize,
    last_label: String,
    streak: usize,
    /// The label that most recently triggered an action (readable state).
    last_action: Option<String>,
}

impl IoTActuatorModule {
    /// Creates the actuator with a 3-window confirmation streak.
    pub(crate) fn new(hub: Arc<IotHub>) -> Self {
        IoTActuatorModule {
            hub,
            confirm: 3,
            last_label: String::new(),
            streak: 0,
            last_action: None,
        }
    }
}

impl Module for IoTActuatorModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::Message(msg) = event else {
            return Ok(());
        };
        if let Payload::Label { label, .. } = &msg.payload {
            if label == &self.last_label {
                self.streak += 1;
            } else {
                self.last_label = label.clone();
                self.streak = 1;
            }
            if self.streak == self.confirm {
                match label.as_str() {
                    "clap" => {
                        self.hub.toggle_light(ctx.now_ns());
                        self.last_action = Some("clap -> toggle light".into());
                        ctx.log("clap detected: toggling living-room light");
                    }
                    "wave" => {
                        self.hub.toggle_doorbell(ctx.now_ns());
                        self.last_action = Some("wave -> toggle doorbell".into());
                        ctx.log("wave detected: toggling doorbell camera");
                    }
                    _ => {}
                }
            }
        }
        ctx.signal_source()
    }
}

/// `FallAlertModule` — the sink of the fall-detection pipeline (§4.3):
/// watches the pose stream and raises an alert once per fall.
#[derive(Debug)]
pub(crate) struct FallAlertModule {
    detector: FallDetector,
    alerts: u64,
    was_latched: bool,
}

impl FallAlertModule {
    /// Creates the module with default detector thresholds.
    pub(crate) fn new() -> Self {
        FallAlertModule {
            detector: FallDetector::new(),
            alerts: 0,
            was_latched: false,
        }
    }
}

impl Default for FallAlertModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for FallAlertModule {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::Message(msg) = event else {
            return Ok(());
        };
        if let Payload::Pose { pose, .. } = &msg.payload {
            let state = self.detector.push(pose, msg.header.capture_ts_ns);
            let latched = matches!(state, FallState::Fallen { .. });
            if latched && !self.was_latched {
                self.alerts += 1;
                ctx.log(&format!(
                    "FALL DETECTED at t={:.2}s (alert #{})",
                    msg.header.capture_ts_ns as f64 / 1e9,
                    self.alerts
                ));
            }
            self.was_latched = latched;
        }
        ctx.signal_source()
    }
}

#[cfg(test)]
impl RepCounterModule {
    /// The trained model, once calibrated.
    pub(crate) fn model(&self) -> Option<&RepCounterModel> {
        self.counter.as_ref().map(|c| c.model())
    }
}

#[cfg(test)]
impl DisplayModule {
    /// Frames fully rendered so far.
    pub(crate) fn frames_displayed(&self) -> u64 {
        self.frames_displayed
    }
}

#[cfg(test)]
impl IoTActuatorModule {
    /// The most recent action taken.
    pub(crate) fn last_action(&self) -> Option<&str> {
        self.last_action.as_deref()
    }
}

#[cfg(test)]
impl FallAlertModule {
    /// Alerts raised so far.
    pub(crate) fn alerts(&self) -> u64 {
        self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_core::message::Header;
    use videopipe_core::message::Message;
    use videopipe_core::service::{Service, ServiceResponse};
    use videopipe_media::FrameStore;

    /// A ModuleCtx stub recording interactions.
    struct StubCtx {
        store: FrameStore,
        header: Header,
        sent: Vec<(String, Payload)>,
        signalled: u32,
        logs: Vec<String>,
        services: Vec<Arc<dyn Service>>,
        now: u64,
    }

    impl StubCtx {
        fn new() -> Self {
            StubCtx {
                store: FrameStore::new(),
                header: Header::default(),
                sent: Vec::new(),
                signalled: 0,
                logs: Vec::new(),
                services: Vec::new(),
                now: 0,
            }
        }

        fn with_service(mut self, svc: Arc<dyn Service>) -> Self {
            self.services.push(svc);
            self
        }
    }

    impl ModuleCtx for StubCtx {
        fn call_service(
            &mut self,
            service: &str,
            request: ServiceRequest,
        ) -> Result<ServiceResponse, PipelineError> {
            for s in &self.services {
                if s.name() == service {
                    return s.handle(&request, &self.store);
                }
            }
            Err(PipelineError::ServiceUnavailable {
                module: "stub".into(),
                service: service.into(),
            })
        }
        fn call_module(&mut self, target: &str, payload: Payload) -> Result<(), PipelineError> {
            self.sent.push((target.to_string(), payload));
            Ok(())
        }
        fn signal_source(&mut self) -> Result<(), PipelineError> {
            self.signalled += 1;
            Ok(())
        }
        fn now_ns(&self) -> u64 {
            self.now
        }
        fn module_name(&self) -> &str {
            "stub"
        }
        fn device_name(&self) -> &str {
            "stub-dev"
        }
        fn frame_store(&self) -> &FrameStore {
            &self.store
        }
        fn header(&self) -> Header {
            self.header
        }
        fn set_header(&mut self, header: Header) {
            self.header = header;
        }
        fn log(&mut self, text: &str) {
            self.logs.push(text.to_string());
        }
    }

    fn msg(payload: Payload, seq: u64) -> Event {
        Event::Message(Message::new(
            Header {
                frame_seq: seq,
                capture_ts_ns: seq * 66_000_000,
            },
            payload,
        ))
    }

    #[test]
    fn video_streaming_captures_and_forwards() {
        use videopipe_media::motion::{ExerciseKind, MotionClip};
        let mut ctx = StubCtx::new();
        let mut module = VideoStreamingModule::synthetic(
            SourceConfig::new(30.0)
                .with_resolution(64, 48)
                .with_noise(0.0),
            MotionClip::new(ExerciseKind::Idle, 2.0),
            "pose",
        );
        module
            .on_event(Event::FrameTick { t_ns: 123 }, &mut ctx)
            .unwrap();
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.sent[0].0, "pose");
        assert!(matches!(ctx.sent[0].1, Payload::FrameRef(_)));
        assert_eq!(ctx.store.len(), 1);
    }

    #[test]
    fn pose_detection_forwards_pose_and_releases_frame() {
        use crate::services::PoseDetectorService;
        use videopipe_media::scene::SceneRenderer;
        let mut ctx = StubCtx::new().with_service(Arc::new(PoseDetectorService::new()));
        let frame = SceneRenderer::new(320, 240).render(&Pose::default(), 0, 0);
        let id = ctx.store.insert(frame);
        let mut module = PoseDetectionModule::new("pose_detector", vec!["activity".into()]);
        module
            .on_event(msg(Payload::FrameRef(id), 0), &mut ctx)
            .unwrap();
        assert_eq!(ctx.sent.len(), 1);
        assert!(matches!(ctx.sent[0].1, Payload::Pose { .. }));
        assert!(ctx.store.is_empty(), "frame should be released");
        assert_eq!(ctx.signalled, 0);
    }

    #[test]
    fn pose_detection_signals_on_empty_frame() {
        use crate::services::PoseDetectorService;
        let mut ctx = StubCtx::new().with_service(Arc::new(PoseDetectorService::new()));
        let id = ctx
            .store
            .insert(videopipe_media::FrameBuf::new(32, 32).freeze(0, 0));
        let mut module = PoseDetectionModule::new("pose_detector", vec!["activity".into()]);
        module
            .on_event(msg(Payload::FrameRef(id), 0), &mut ctx)
            .unwrap();
        assert!(ctx.sent.is_empty());
        assert_eq!(ctx.signalled, 1);
    }

    #[test]
    fn activity_module_warms_up_then_labels() {
        use crate::services::ActivityClassifierService;
        use videopipe_media::motion::{ExerciseKind, MotionClip};
        use videopipe_ml::ActivityRecognizer;
        use videopipe_ml::DatasetConfig;

        let recognizer = ActivityRecognizer::train_synthetic(
            &ExerciseKind::FITNESS,
            &DatasetConfig {
                windows_per_class: 20,
                ..DatasetConfig::default()
            },
        );
        let svc = ActivityClassifierService::new(recognizer.model().clone());
        let mut ctx = StubCtx::new().with_service(Arc::new(svc));
        let mut module = ActivityRecognitionModule::new(
            "activity_classifier",
            vec!["display".into()],
            vec!["reps".into()],
        );
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
        for i in 0..WINDOW_LEN as u64 + 3 {
            let pose = clip.pose_at(i * 66_000_000);
            module
                .on_event(msg(Payload::Pose { pose, score: 1.0 }, i), &mut ctx)
                .unwrap();
        }
        // Every frame: one pose to reps + one label to display.
        let labels: Vec<&Payload> = ctx
            .sent
            .iter()
            .filter(|(t, _)| t == "display")
            .map(|(_, p)| p)
            .collect();
        let poses = ctx.sent.iter().filter(|(t, _)| t == "reps").count();
        assert_eq!(labels.len(), WINDOW_LEN + 3);
        assert_eq!(poses, WINDOW_LEN + 3);
        // Warm-up labels first, then real ones.
        match labels[0] {
            Payload::Label { label, .. } => {
                assert_eq!(label, ActivityRecognitionModule::WARMING_UP)
            }
            other => panic!("expected label, got {}", other.kind_name()),
        }
        match labels.last().unwrap() {
            Payload::Label { label, .. } => assert_eq!(label, "squat"),
            other => panic!("expected label, got {}", other.kind_name()),
        }
    }

    #[test]
    fn rep_module_calibrates_then_counts() {
        use crate::services::RepCounterService;
        use videopipe_media::motion::{ExerciseKind, MotionClip};
        let mut ctx = StubCtx::new().with_service(Arc::new(RepCounterService::new()));
        let mut module = RepCounterModule::new("rep_counter", "display");
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
        // 15 fps for 8 seconds = 4 squats; calibration eats the first 30
        // frames (2 s = 1 squat).
        let mut last_count = 0;
        for i in 0..120u64 {
            let pose = clip.pose_at(i * 66_666_667);
            module
                .on_event(msg(Payload::Pose { pose, score: 1.0 }, i), &mut ctx)
                .unwrap();
            if let Some((_, Payload::Count(n))) = ctx.sent.last() {
                last_count = *n;
            }
        }
        assert!(module.model().is_some(), "calibration should complete");
        assert!(
            (2..=4).contains(&last_count),
            "should count ~3 post-calibration squats, got {last_count}"
        );
        assert!(ctx.logs.iter().any(|l| l.contains("calibrated")));
    }

    #[test]
    fn rep_module_snapshot_survives_restart() {
        use crate::services::RepCounterService;
        use videopipe_media::motion::{ExerciseKind, MotionClip};
        let mut ctx = StubCtx::new().with_service(Arc::new(RepCounterService::new()));
        let mut module = RepCounterModule::new("rep_counter", "display");
        // Uncalibrated modules have nothing worth checkpointing.
        assert!(module.snapshot().is_none());
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
        for i in 0..120u64 {
            let pose = clip.pose_at(i * 66_666_667);
            module
                .on_event(msg(Payload::Pose { pose, score: 1.0 }, i), &mut ctx)
                .unwrap();
        }
        let reps_before = match ctx.sent.last() {
            Some((_, Payload::Count(n))) => *n,
            other => panic!("expected a count, got {other:?}"),
        };
        assert!(reps_before > 0, "should have counted reps pre-crash");

        // "Crash": a fresh instance restored from the checkpoint continues
        // from the same model and rep total instead of recalibrating.
        let snapshot = module.snapshot().expect("calibrated module checkpoints");
        let mut revived = RepCounterModule::new("rep_counter", "display");
        revived.restore(&snapshot);
        assert_eq!(revived.model(), module.model());
        ctx.sent.clear();
        for i in 120..210u64 {
            let pose = clip.pose_at(i * 66_666_667);
            revived
                .on_event(msg(Payload::Pose { pose, score: 1.0 }, i), &mut ctx)
                .unwrap();
        }
        let reps_after = match ctx.sent.last() {
            Some((_, Payload::Count(n))) => *n,
            other => panic!("expected a count, got {other:?}"),
        };
        assert!(
            reps_after > reps_before,
            "restored counter must keep counting past {reps_before}, got {reps_after}"
        );
        // Garbage snapshots are ignored, not fatal.
        let mut fresh = RepCounterModule::new("rep_counter", "display");
        fresh.restore(b"not a snapshot");
        assert!(fresh.model().is_none());
    }

    #[test]
    fn display_waits_for_fan_in_then_signals() {
        use crate::services::DisplayService;
        let mut ctx = StubCtx::new().with_service(Arc::new(DisplayService::new()));
        let mut module = DisplayModule::new(Some("display".into()), 2);
        module
            .on_event(
                msg(
                    Payload::Label {
                        label: "squat".into(),
                        confidence: 1.0,
                    },
                    5,
                ),
                &mut ctx,
            )
            .unwrap();
        assert_eq!(ctx.signalled, 0, "must wait for the rep count");
        module
            .on_event(msg(Payload::Count(3), 5), &mut ctx)
            .unwrap();
        assert_eq!(ctx.signalled, 1);
        assert_eq!(module.frames_displayed(), 1);
        assert!(ctx.logs.iter().any(|l| l.contains("reps=3")));
    }

    #[test]
    fn display_evicts_stale_half_frames_without_signalling() {
        let mut ctx = StubCtx::new();
        let mut module = DisplayModule::new(None, 2);
        for seq in 0..9u64 {
            ctx.set_header(Header {
                frame_seq: seq,
                capture_ts_ns: 0,
            });
            module
                .on_event(msg(Payload::Count(1), seq), &mut ctx)
                .unwrap();
        }
        assert_eq!(ctx.signalled, 0, "an eviction must not return a credit");
        assert_eq!(module.frames_displayed(), 0);
    }

    #[test]
    fn actuator_requires_confirmation_streak() {
        let hub = Arc::new(IotHub::new());
        let mut ctx = StubCtx::new();
        let mut module = IoTActuatorModule::new(Arc::clone(&hub));
        let clap = |seq| {
            msg(
                Payload::Label {
                    label: "clap".into(),
                    confidence: 1.0,
                },
                seq,
            )
        };
        module.on_event(clap(0), &mut ctx).unwrap();
        module.on_event(clap(1), &mut ctx).unwrap();
        assert!(!hub.light_on(), "two claps are not enough");
        module.on_event(clap(2), &mut ctx).unwrap();
        assert!(hub.light_on(), "third consecutive clap toggles");
        // Staying on "clap" does not re-toggle.
        module.on_event(clap(3), &mut ctx).unwrap();
        assert!(hub.light_on());
        assert_eq!(module.last_action(), Some("clap -> toggle light"));
        // Every frame returned its credit.
        assert_eq!(ctx.signalled, 4);
    }

    #[test]
    fn fall_alert_fires_once_per_fall() {
        use videopipe_media::motion::{ExerciseKind, MotionClip};
        let mut ctx = StubCtx::new();
        let mut module = FallAlertModule::new();
        let clip = MotionClip::new(ExerciseKind::Fall, 1.0);
        for i in 0..45u64 {
            let t = i * 66_666_667;
            let pose = clip.pose_at(t);
            module
                .on_event(
                    Event::Message(Message::new(
                        Header {
                            frame_seq: i,
                            capture_ts_ns: t,
                        },
                        Payload::Pose { pose, score: 1.0 },
                    )),
                    &mut ctx,
                )
                .unwrap();
        }
        assert_eq!(module.alerts(), 1, "exactly one alert per fall");
        assert!(ctx.logs.iter().any(|l| l.contains("FALL DETECTED")));
        assert_eq!(ctx.signalled, 45);
    }
}
