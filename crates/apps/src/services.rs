//! The stateless container services.
//!
//! Each service wraps a `videopipe-ml` kernel behind the
//! [`Service`] trait. All of them take
//! their inputs from the request (or the device-local frame store, for
//! frame references) and keep no mutable state, so they can be shared
//! across pipelines and scaled horizontally (paper §2.2).

use std::sync::Arc;
use std::time::Duration;
use videopipe_core::message::Payload;
use videopipe_core::service::{
    wrong_payload, Service, ServiceCost, ServiceRequest, ServiceResponse,
};
use videopipe_core::PipelineError;
use videopipe_media::{Frame, FrameStore, Pose};
use videopipe_ml::ActivityModel;
use videopipe_ml::FaceDetector;
use videopipe_ml::ImageClassifier;
use videopipe_ml::ObjectDetector;
use videopipe_ml::PoseDetector;
use videopipe_ml::RepCounterModel;

fn service_err(service: &str, reason: impl Into<String>) -> PipelineError {
    PipelineError::Service {
        service: service.to_string(),
        reason: reason.into(),
    }
}

/// `pose_detector` — the 2D pose detection service (§4.1.1).
///
/// Request: `detect` with a [`Payload::FrameRef`].
/// Response: [`Payload::Pose`] (pose + score), or [`Payload::Empty`] when
/// no person is detected.
#[derive(Debug, Default)]
pub(crate) struct PoseDetectorService {
    detector: PoseDetector,
}

impl PoseDetectorService {
    /// Canonical service name.
    pub(crate) const NAME: &'static str = "pose_detector";

    /// Creates the service with the default detector.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Service for PoseDetectorService {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let Payload::FrameRef(id) = request.payload else {
            return Err(wrong_payload(Self::NAME, "frame_ref", &request.payload));
        };
        let frame = store.get(id)?;
        Ok(match self.detector.detect(&frame) {
            Some(detected) => ServiceResponse::new(Payload::Pose {
                pose: detected.pose,
                score: detected.score,
            }),
            None => ServiceResponse::new(Payload::Empty),
        })
    }

    fn handle_batch(
        &self,
        requests: &[ServiceRequest],
        store: &FrameStore,
    ) -> Vec<Result<ServiceResponse, PipelineError>> {
        // Resolve every frame first so per-request failures stay
        // per-request, then run the fused batch kernel over the
        // resolvable frames in one pass.
        let resolved: Vec<Result<Arc<Frame>, PipelineError>> = requests
            .iter()
            .map(|request| match request.payload {
                Payload::FrameRef(id) => store.get(id).map_err(PipelineError::from),
                ref other => Err(wrong_payload(Self::NAME, "frame_ref", other)),
            })
            .collect();
        let frames: Vec<&Frame> = resolved
            .iter()
            .filter_map(|slot| slot.as_deref().ok())
            .collect();
        let mut detections = self.detector.detect_batch(&frames).into_iter();
        resolved
            .into_iter()
            .map(|slot| {
                slot.map(
                    |_| match detections.next().expect("one detection per resolved frame") {
                        Some(detected) => ServiceResponse::new(Payload::Pose {
                            pose: detected.pose,
                            score: detected.score,
                        }),
                        None => ServiceResponse::new(Payload::Empty),
                    },
                )
            })
            .collect()
    }

    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        // Reference-device cost; the calibrated profile matches this.
        // Batched followers amortise the model setup + raster passes that
        // the fused kernel shares across a batch; the word-wide threshold
        // scan cut the per-frame raster cost by >3x, so followers now pay
        // only the fused single-pass scan.
        ServiceCost::flat(Duration::from_millis(106)).with_batched_base(Duration::from_millis(12))
    }
}

/// `activity_classifier` / `gesture_classifier` — k-NN over pose windows
/// (§4.1.2).
///
/// Request: `classify` with [`Payload::Poses`] (a full window) or
/// [`Payload::Vector`] (pre-extracted features).
/// Response: [`Payload::Label`].
#[derive(Debug)]
pub struct ActivityClassifierService {
    name: String,
    model: ActivityModel,
}

impl ActivityClassifierService {
    /// Canonical name of the fitness-app instance.
    pub(crate) const NAME: &'static str = "activity_classifier";

    /// Creates the service under a custom name (the gesture app deploys its
    /// own instance as `gesture_classifier`).
    pub(crate) fn with_name(name: impl Into<String>, model: ActivityModel) -> Self {
        ActivityClassifierService {
            name: name.into(),
            model,
        }
    }

    /// Creates the fitness-app instance.
    pub fn new(model: ActivityModel) -> Self {
        Self::with_name(Self::NAME, model)
    }
}

impl Service for ActivityClassifierService {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let label = match &request.payload {
            Payload::Poses(window) => self.model.classify_window(window).ok_or_else(|| {
                service_err(
                    &self.name,
                    format!("window must have 15 poses, got {}", window.len()),
                )
            })?,
            Payload::Vector(features) => self
                .model
                .classify_features(features)
                .map_err(|e| service_err(&self.name, e.to_string()))?
                .to_string(),
            other => return Err(wrong_payload(&self.name, "poses or vector", other)),
        };
        Ok(ServiceResponse::new(Payload::Label {
            label,
            confidence: 1.0,
        }))
    }

    fn handle_batch(
        &self,
        requests: &[ServiceRequest],
        _store: &FrameStore,
    ) -> Vec<Result<ServiceResponse, PipelineError>> {
        use std::borrow::Cow;
        use videopipe_ml::window_features;
        // Extract features per request so per-slot failures stay per-slot
        // (wrong payload kind, wrong window length, wrong feature dim), then
        // run the k-NN batch kernel — one fused distance matrix per query
        // tile — over every valid slot at once.
        let extracted: Vec<Result<Cow<'_, [f32]>, PipelineError>> = requests
            .iter()
            .map(|request| match &request.payload {
                Payload::Poses(window) => {
                    window_features(window).map(Cow::Owned).ok_or_else(|| {
                        service_err(
                            &self.name,
                            format!("window must have 15 poses, got {}", window.len()),
                        )
                    })
                }
                Payload::Vector(features) if features.len() == self.model.dim() => {
                    Ok(Cow::Borrowed(features.as_slice()))
                }
                Payload::Vector(features) => Err(service_err(
                    &self.name,
                    format!(
                        "dimension {} does not match training dimension {}",
                        features.len(),
                        self.model.dim()
                    ),
                )),
                other => Err(wrong_payload(&self.name, "poses or vector", other)),
            })
            .collect();
        let valid: Vec<&Cow<'_, [f32]>> =
            extracted.iter().filter_map(|e| e.as_ref().ok()).collect();
        let labels = self
            .model
            .classify_features_batch(&valid)
            .expect("dimensions validated per slot");
        let mut labels = labels.into_iter();
        extracted
            .into_iter()
            .map(|slot| {
                slot.map(|_| {
                    ServiceResponse::new(Payload::Label {
                        label: labels.next().expect("one label per valid slot").to_string(),
                        confidence: 1.0,
                    })
                })
            })
            .collect()
    }

    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        // Followers share one batch's buffers and the index built at fit
        // (the bound-pruned search on the deployed model) instead of paying
        // a whole call each.
        ServiceCost::flat(Duration::from_millis(9)).with_batched_base(Duration::from_millis(3))
    }
}

/// Encodes a [`RepCounterModel`] as a payload: a matrix whose first two
/// rows are the centroids and whose third row is `[initial_cluster]`.
pub(crate) fn rep_model_to_payload(model: &RepCounterModel) -> Payload {
    let mut rows = model.centroids().to_vec();
    rows.push(vec![model.initial_cluster() as f32]);
    Payload::Matrix(rows)
}

/// Decodes a [`RepCounterModel`] from [`rep_model_to_payload`]'s encoding.
///
/// # Errors
///
/// Returns [`PipelineError::BadPayload`] when the matrix shape is wrong.
pub(crate) fn rep_model_from_payload(payload: &Payload) -> Result<RepCounterModel, PipelineError> {
    let Payload::Matrix(rows) = payload else {
        return Err(PipelineError::BadPayload("rep model must be a matrix"));
    };
    if rows.len() != 3 || rows[2].len() != 1 {
        return Err(PipelineError::BadPayload(
            "rep model needs 2 centroids + initial row",
        ));
    }
    let initial = rows[2][0] as usize;
    if initial > 1 || rows[0].len() != rows[1].len() || rows[0].is_empty() {
        return Err(PipelineError::BadPayload("rep model rows inconsistent"));
    }
    Ok(RepCounterModel::from_parts(
        vec![rows[0].clone(), rows[1].clone()],
        initial,
    ))
}

/// Builds the `classify` request: model rows plus the flattened pose as a
/// fourth row.
pub(crate) fn rep_classify_request(model: &RepCounterModel, pose: &Pose) -> ServiceRequest {
    let mut rows = model.centroids().to_vec();
    rows.push(vec![model.initial_cluster() as f32]);
    rows.push(pose.flatten());
    ServiceRequest::new("classify", Payload::Matrix(rows))
}

/// `rep_counter` — the k-means rep counting service (§4.1.3).
///
/// Stateless by design: the *model* travels in the request.
///
/// * op `fit`: [`Payload::Poses`] (a calibration window starting at the
///   initial position) → the encoded model (see [`rep_model_to_payload`]).
/// * op `classify`: model rows + flattened pose (see
///   [`rep_classify_request`]) → [`Payload::Count`] with the cluster id.
#[derive(Debug, Default)]
pub(crate) struct RepCounterService;

impl RepCounterService {
    /// Canonical service name.
    pub(crate) const NAME: &'static str = "rep_counter";

    /// Creates the service.
    pub(crate) fn new() -> Self {
        RepCounterService
    }
}

impl Service for RepCounterService {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        match request.op.as_str() {
            "fit" => {
                let Payload::Poses(calibration) = &request.payload else {
                    return Err(wrong_payload(Self::NAME, "poses", &request.payload));
                };
                let model = RepCounterModel::fit(calibration)
                    .map_err(|e| service_err(Self::NAME, e.to_string()))?;
                Ok(ServiceResponse::new(rep_model_to_payload(&model)))
            }
            "classify" => {
                let Payload::Matrix(rows) = &request.payload else {
                    return Err(wrong_payload(Self::NAME, "matrix", &request.payload));
                };
                if rows.len() != 4 {
                    return Err(service_err(
                        Self::NAME,
                        "classify needs 2 centroids + initial + pose rows",
                    ));
                }
                let model = rep_model_from_payload(&Payload::Matrix(rows[..3].to_vec()))?;
                let pose = Pose::from_flat(&rows[3])
                    .ok_or(PipelineError::BadPayload("pose row has wrong length"))?;
                let cluster = model.classify(&pose);
                Ok(ServiceResponse::new(Payload::Count(cluster as u64)))
            }
            other => Err(service_err(Self::NAME, format!("unknown op {other:?}"))),
        }
    }

    fn cost(&self, request: &ServiceRequest) -> ServiceCost {
        match request.op.as_str() {
            "fit" => ServiceCost::flat(Duration::from_millis(30)),
            _ => ServiceCost::flat(Duration::from_millis(5)),
        }
    }
}

/// `display` — renders overlay text for the TV (the native display service
/// of Fig. 4).
///
/// Request: `render` with any payload.
/// Response: [`Payload::Text`] describing what was drawn.
#[derive(Debug, Default)]
pub(crate) struct DisplayService;

impl DisplayService {
    /// Canonical service name.
    pub(crate) const NAME: &'static str = "display";

    /// Creates the service.
    pub(crate) fn new() -> Self {
        DisplayService
    }
}

impl Service for DisplayService {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let text = match &request.payload {
            Payload::Text(t) => format!("overlay[{t}]"),
            Payload::Label { label, .. } => format!("overlay[activity={label}]"),
            Payload::Count(n) => format!("overlay[reps={n}]"),
            Payload::Pose { score, .. } => format!("overlay[skeleton score={score:.2}]"),
            other => format!("overlay[{}]", other.kind_name()),
        };
        Ok(ServiceResponse::new(Payload::Text(text)))
    }

    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        ServiceCost::flat(Duration::from_millis(3))
    }
}

/// `object_detector` — connected-component object detection.
///
/// Request: `detect` with a [`Payload::FrameRef`].
/// Response: [`Payload::Boxes`].
#[derive(Debug, Default)]
pub(crate) struct ObjectDetectorService {
    detector: ObjectDetector,
}

impl ObjectDetectorService {
    /// Canonical service name.
    pub(crate) const NAME: &'static str = "object_detector";

    /// Creates the service with default thresholds.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Service for ObjectDetectorService {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let Payload::FrameRef(id) = request.payload else {
            return Err(wrong_payload(Self::NAME, "frame_ref", &request.payload));
        };
        let frame = store.get(id)?;
        let boxes = self
            .detector
            .detect(&frame)
            .into_iter()
            .map(|o| o.bbox)
            .collect();
        Ok(ServiceResponse::new(Payload::Boxes(boxes)))
    }

    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        ServiceCost::flat(Duration::from_millis(40))
    }
}

/// `face_detector` — head-landmark face detection.
///
/// Request: `detect` with a [`Payload::FrameRef`].
/// Response: [`Payload::Boxes`] with zero or one box.
#[derive(Debug, Default)]
pub struct FaceDetectorService {
    detector: FaceDetector,
}

impl FaceDetectorService {
    /// Canonical service name.
    pub(crate) const NAME: &'static str = "face_detector";

    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Service for FaceDetectorService {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let Payload::FrameRef(id) = request.payload else {
            return Err(wrong_payload(Self::NAME, "frame_ref", &request.payload));
        };
        let frame = store.get(id)?;
        let boxes = self
            .detector
            .detect(&frame)
            .map(|f| vec![f.bbox])
            .unwrap_or_default();
        Ok(ServiceResponse::new(Payload::Boxes(boxes)))
    }

    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        ServiceCost::flat(Duration::from_millis(30))
    }
}

/// `image_classifier` — nearest-centroid whole-frame classification.
///
/// Request: `classify` with a [`Payload::FrameRef`].
/// Response: [`Payload::Label`].
#[derive(Debug)]
pub struct ImageClassifierService {
    classifier: ImageClassifier,
}

impl ImageClassifierService {
    /// Canonical service name.
    pub(crate) const NAME: &'static str = "image_classifier";

    /// Creates the service from a trained classifier.
    pub fn new(classifier: ImageClassifier) -> Self {
        ImageClassifierService { classifier }
    }
}

impl Service for ImageClassifierService {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let Payload::FrameRef(id) = request.payload else {
            return Err(wrong_payload(Self::NAME, "frame_ref", &request.payload));
        };
        let frame = store.get(id)?;
        let (label, dist) = self.classifier.classify(&frame);
        Ok(ServiceResponse::new(Payload::Label {
            label: label.to_string(),
            confidence: 1.0 / (1.0 + dist),
        }))
    }

    fn handle_batch(
        &self,
        requests: &[ServiceRequest],
        store: &FrameStore,
    ) -> Vec<Result<ServiceResponse, PipelineError>> {
        let resolved: Vec<Result<Arc<Frame>, PipelineError>> = requests
            .iter()
            .map(|request| match request.payload {
                Payload::FrameRef(id) => store.get(id).map_err(PipelineError::from),
                ref other => Err(wrong_payload(Self::NAME, "frame_ref", other)),
            })
            .collect();
        let frames: Vec<&Frame> = resolved
            .iter()
            .filter_map(|slot| slot.as_deref().ok())
            .collect();
        let mut labels = self.classifier.classify_batch(&frames).into_iter();
        resolved
            .into_iter()
            .map(|slot| {
                slot.map(|_| {
                    let (label, dist) = labels.next().expect("one label per resolved frame");
                    ServiceResponse::new(Payload::Label {
                        label: label.to_string(),
                        confidence: 1.0 / (1.0 + dist),
                    })
                })
            })
            .collect()
    }

    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        // Followers share the pooled-feature scratch buffers, and the SWAR
        // byte-sum feature kernel more than halved the per-frame cost.
        ServiceCost::flat(Duration::from_millis(25)).with_batched_base(Duration::from_millis(4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_media::motion::{ExerciseKind, MotionClip};
    use videopipe_media::scene::SceneRenderer;
    use videopipe_ml::ActivityRecognizer;
    use videopipe_ml::DatasetConfig;

    fn store_with_pose_frame() -> (FrameStore, videopipe_media::FrameId) {
        let store = FrameStore::new();
        let frame = SceneRenderer::new(320, 240).render(&Pose::default(), 0, 0);
        let id = store.insert(frame);
        (store, id)
    }

    #[test]
    fn pose_service_detects() {
        let (store, id) = store_with_pose_frame();
        let svc = PoseDetectorService::new();
        let resp = svc
            .handle(
                &ServiceRequest::new("detect", Payload::FrameRef(id)),
                &store,
            )
            .unwrap();
        match resp.payload {
            Payload::Pose { score, .. } => assert!(score > 0.5),
            other => panic!("expected pose, got {}", other.kind_name()),
        }
    }

    #[test]
    fn pose_service_rejects_wrong_payload_and_misses() {
        let (store, _) = store_with_pose_frame();
        let svc = PoseDetectorService::new();
        assert!(svc
            .handle(&ServiceRequest::new("detect", Payload::Count(1)), &store)
            .is_err());
        let ghost = videopipe_media::FrameId::from_u64(999);
        assert!(svc
            .handle(
                &ServiceRequest::new("detect", Payload::FrameRef(ghost)),
                &store
            )
            .is_err());
    }

    #[test]
    fn pose_service_empty_frame_returns_empty() {
        let store = FrameStore::new();
        let id = store.insert(videopipe_media::FrameBuf::new(32, 32).freeze(0, 0));
        let svc = PoseDetectorService::new();
        let resp = svc
            .handle(
                &ServiceRequest::new("detect", Payload::FrameRef(id)),
                &store,
            )
            .unwrap();
        assert_eq!(resp.payload, Payload::Empty);
    }

    #[test]
    fn activity_service_classifies_window() {
        let recognizer = ActivityRecognizer::train_synthetic(
            &ExerciseKind::FITNESS,
            &DatasetConfig {
                windows_per_class: 20,
                ..DatasetConfig::default()
            },
        );
        let svc = ActivityClassifierService::new(recognizer.model().clone());
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
        let window: Vec<Pose> = (0..15).map(|i| clip.pose_at(i * 66_000_000)).collect();
        let store = FrameStore::new();
        let resp = svc
            .handle(
                &ServiceRequest::new("classify", Payload::Poses(window)),
                &store,
            )
            .unwrap();
        match resp.payload {
            Payload::Label { label, .. } => assert_eq!(label, "squat"),
            other => panic!("expected label, got {}", other.kind_name()),
        }
        // Wrong window length errors.
        assert!(svc
            .handle(
                &ServiceRequest::new("classify", Payload::Poses(vec![Pose::default(); 3])),
                &store
            )
            .is_err());
    }

    #[test]
    fn rep_model_payload_roundtrip() {
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
        let poses: Vec<Pose> = (0..30).map(|i| clip.pose_at(i * 66_000_000)).collect();
        let model = RepCounterModel::fit(&poses).unwrap();
        let payload = rep_model_to_payload(&model);
        let back = rep_model_from_payload(&payload).unwrap();
        assert_eq!(back, model);
        assert!(rep_model_from_payload(&Payload::Count(1)).is_err());
        assert!(rep_model_from_payload(&Payload::Matrix(vec![vec![1.0]])).is_err());
    }

    #[test]
    fn rep_service_fit_then_classify() {
        let svc = RepCounterService::new();
        let store = FrameStore::new();
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
        let calibration: Vec<Pose> = (0..30).map(|i| clip.pose_at(i * 66_000_000)).collect();
        let fit = svc
            .handle(
                &ServiceRequest::new("fit", Payload::Poses(calibration.clone())),
                &store,
            )
            .unwrap();
        let model = rep_model_from_payload(&fit.payload).unwrap();
        // Standing (phase 0) should classify as the initial cluster.
        let resp = svc
            .handle(&rep_classify_request(&model, &calibration[0]), &store)
            .unwrap();
        assert_eq!(resp.payload, Payload::Count(model.initial_cluster() as u64));
        // Bottom of the squat is the other cluster.
        let resp = svc
            .handle(&rep_classify_request(&model, &calibration[15]), &store)
            .unwrap();
        assert_ne!(resp.payload, Payload::Count(model.initial_cluster() as u64));
        // Unknown op errors.
        assert!(svc
            .handle(&ServiceRequest::new("bogus", Payload::Empty), &store)
            .is_err());
    }

    #[test]
    fn display_service_renders_payload_kinds() {
        let svc = DisplayService::new();
        let store = FrameStore::new();
        for (payload, needle) in [
            (
                Payload::Label {
                    label: "squat".into(),
                    confidence: 1.0,
                },
                "activity=squat",
            ),
            (Payload::Count(7), "reps=7"),
            (Payload::Text("hi".into()), "hi"),
        ] {
            let resp = svc
                .handle(&ServiceRequest::new("render", payload), &store)
                .unwrap();
            match resp.payload {
                Payload::Text(t) => assert!(t.contains(needle), "{t}"),
                other => panic!("expected text, got {}", other.kind_name()),
            }
        }
    }

    #[test]
    fn object_and_face_services() {
        use videopipe_media::scene::SceneObject;
        let store = FrameStore::new();
        let frame = SceneRenderer::new(320, 240).render_scene(
            &Pose::default(),
            &[SceneObject::Rect {
                x: 0.05,
                y: 0.05,
                w: 0.15,
                h: 0.1,
                intensity: 250,
            }],
            0,
            0,
        );
        let id = store.insert(frame);
        let objs = ObjectDetectorService::new()
            .handle(
                &ServiceRequest::new("detect", Payload::FrameRef(id)),
                &store,
            )
            .unwrap();
        match objs.payload {
            Payload::Boxes(b) => assert_eq!(b.len(), 1),
            other => panic!("expected boxes, got {}", other.kind_name()),
        }
        let faces = FaceDetectorService::new()
            .handle(
                &ServiceRequest::new("detect", Payload::FrameRef(id)),
                &store,
            )
            .unwrap();
        match faces.payload {
            Payload::Boxes(b) => assert_eq!(b.len(), 1),
            other => panic!("expected boxes, got {}", other.kind_name()),
        }
    }

    #[test]
    fn image_classifier_service() {
        let renderer = SceneRenderer::new(160, 120);
        let standing = renderer.render(&ExerciseKind::Idle.pose_at_phase(0.0), 0, 0);
        let plank = renderer.render(&ExerciseKind::Pushup.pose_at_phase(0.0), 0, 0);
        let clf = ImageClassifier::train([(&standing, "standing"), (&plank, "plank")]).unwrap();
        let svc = ImageClassifierService::new(clf);
        let store = FrameStore::new();
        let id = store.insert(renderer.render(&ExerciseKind::Idle.pose_at_phase(0.3), 0, 0));
        let resp = svc
            .handle(
                &ServiceRequest::new("classify", Payload::FrameRef(id)),
                &store,
            )
            .unwrap();
        match resp.payload {
            Payload::Label { label, .. } => assert_eq!(label, "standing"),
            other => panic!("expected label, got {}", other.kind_name()),
        }
    }

    #[test]
    fn pose_batch_matches_sequential_and_isolates_errors() {
        let store = FrameStore::new();
        let renderer = SceneRenderer::new(320, 240);
        let mut requests: Vec<ServiceRequest> = (0..4)
            .map(|i| {
                let pose = ExerciseKind::Squat.pose_at_phase(i as f32 / 4.0);
                let id = store.insert(renderer.render(&pose, i, i));
                ServiceRequest::new("detect", Payload::FrameRef(id))
            })
            .collect();
        // An empty frame (no person), a wrong payload, and a dangling ref.
        let empty = store.insert(videopipe_media::FrameBuf::new(32, 32).freeze(9, 9));
        requests.push(ServiceRequest::new("detect", Payload::FrameRef(empty)));
        requests.push(ServiceRequest::new("detect", Payload::Count(3)));
        requests.push(ServiceRequest::new(
            "detect",
            Payload::FrameRef(videopipe_media::FrameId::from_u64(9999)),
        ));

        let svc = PoseDetectorService::new();
        let batched = svc.handle_batch(&requests, &store);
        assert_eq!(batched.len(), requests.len());
        for (request, batched) in requests.iter().zip(batched) {
            match (svc.handle(request, &store), batched) {
                (Ok(single), Ok(batched)) => assert_eq!(single.payload, batched.payload),
                (Err(_), Err(_)) => {}
                (single, batched) => {
                    panic!("batch/sequential disagree: {single:?} vs {batched:?}")
                }
            }
        }
        assert!(svc.handle_batch(&[], &store).is_empty());
    }

    #[test]
    fn image_classifier_batch_matches_sequential() {
        let renderer = SceneRenderer::new(160, 120);
        let standing = renderer.render(&ExerciseKind::Idle.pose_at_phase(0.0), 0, 0);
        let plank = renderer.render(&ExerciseKind::Pushup.pose_at_phase(0.0), 0, 0);
        let clf = ImageClassifier::train([(&standing, "standing"), (&plank, "plank")]).unwrap();
        let svc = ImageClassifierService::new(clf);
        let store = FrameStore::new();
        let mut requests: Vec<ServiceRequest> = (0..5)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    ExerciseKind::Idle
                } else {
                    ExerciseKind::Pushup
                };
                let id = store.insert(renderer.render(&kind.pose_at_phase(0.3), i, i));
                ServiceRequest::new("classify", Payload::FrameRef(id))
            })
            .collect();
        requests.insert(2, ServiceRequest::new("classify", Payload::Empty));

        let batched = svc.handle_batch(&requests, &store);
        assert_eq!(batched.len(), requests.len());
        for (request, batched) in requests.iter().zip(batched) {
            match (svc.handle(request, &store), batched) {
                (Ok(single), Ok(batched)) => assert_eq!(single.payload, batched.payload),
                (Err(_), Err(_)) => {}
                (single, batched) => {
                    panic!("batch/sequential disagree: {single:?} vs {batched:?}")
                }
            }
        }
    }

    #[test]
    fn activity_batch_matches_sequential_and_isolates_errors() {
        use videopipe_ml::window_features;
        let recognizer = ActivityRecognizer::train_synthetic(
            &ExerciseKind::FITNESS,
            &DatasetConfig {
                windows_per_class: 20,
                ..DatasetConfig::default()
            },
        );
        let svc = ActivityClassifierService::new(recognizer.model().clone());
        let store = FrameStore::new();
        let mut requests: Vec<ServiceRequest> = [ExerciseKind::Squat, ExerciseKind::JumpingJack]
            .iter()
            .flat_map(|&kind| {
                let clip = MotionClip::new(kind, 2.0);
                let window: Vec<Pose> = (0..15).map(|i| clip.pose_at(i * 66_000_000)).collect();
                let features = window_features(&window).unwrap();
                [
                    ServiceRequest::new("classify", Payload::Poses(window)),
                    ServiceRequest::new("classify", Payload::Vector(features)),
                ]
            })
            .collect();
        // A short window, a wrong-dimension vector, and a wrong payload kind.
        requests.insert(
            1,
            ServiceRequest::new("classify", Payload::Poses(vec![Pose::default(); 3])),
        );
        requests.push(ServiceRequest::new(
            "classify",
            Payload::Vector(vec![0.0; 3]),
        ));
        requests.push(ServiceRequest::new("classify", Payload::Count(1)));

        let batched = svc.handle_batch(&requests, &store);
        assert_eq!(batched.len(), requests.len());
        let mut successes = 0;
        for (request, batched) in requests.iter().zip(batched) {
            match (svc.handle(request, &store), batched) {
                (Ok(single), Ok(batched)) => {
                    assert_eq!(single.payload, batched.payload);
                    successes += 1;
                }
                (Err(_), Err(_)) => {}
                (single, batched) => {
                    panic!("batch/sequential disagree: {single:?} vs {batched:?}")
                }
            }
        }
        assert_eq!(successes, 4);
        assert!(svc.handle_batch(&[], &store).is_empty());
    }

    #[test]
    fn activity_single_query_batch_matches_handle_on_the_squat_ring() {
        // The production shape: the deployed 450 × 510 model, a 2 s squat
        // at the 15 fps camera rate replayed as a ring of 30 poses, one
        // `Payload::Vector` window per request and — as the reactor always
        // dispatches it — one request per `handle_batch` call.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use videopipe_ml::{window_features, WINDOW_LEN};
        const RING: usize = 30;
        let svc = ActivityClassifierService::new(crate::training::trained_fitness_classifier(42));
        let store = FrameStore::new();
        let ring = MotionClip::new(ExerciseKind::Squat, 2.0)
            .with_jitter(0.004)
            .sample_sequence(
                0,
                2_000_000_000 / RING as u64,
                RING,
                &mut StdRng::seed_from_u64(42),
            );
        let requests: Vec<ServiceRequest> = (0..RING)
            .map(|start| {
                let window: Vec<Pose> = (0..WINDOW_LEN)
                    .map(|i| ring[(start + i) % RING].clone())
                    .collect();
                let features = window_features(&window).expect("full window");
                ServiceRequest::new("classify", Payload::Vector(features))
            })
            .collect();
        let whole = svc.handle_batch(&requests, &store);
        assert_eq!(whole.len(), RING);
        let mut squats = 0;
        for (request, batched) in requests.iter().zip(whole) {
            let single = svc.handle(request, &store).unwrap().payload;
            assert_eq!(batched.unwrap().payload, single);
            let [alone] = &svc.handle_batch(std::slice::from_ref(request), &store)[..] else {
                panic!("one result per request");
            };
            assert_eq!(alone.as_ref().unwrap().payload, single);
            squats +=
                usize::from(matches!(&single, Payload::Label { label, .. } if label == "squat"));
        }
        assert!(
            squats >= RING * 95 / 100,
            "{squats}/{RING} windows are squats"
        );
    }

    #[test]
    fn batched_costs_discount_followers_only() {
        let req = ServiceRequest::new("x", Payload::Empty);
        let recognizer = ActivityRecognizer::train_synthetic(
            &[ExerciseKind::Squat],
            &DatasetConfig {
                windows_per_class: 10,
                ..DatasetConfig::default()
            },
        );
        for cost in [
            PoseDetectorService::new().cost(&req),
            ActivityClassifierService::new(recognizer.model().clone()).cost(&req),
            ImageClassifierService::new(
                ImageClassifier::train([(
                    &SceneRenderer::new(32, 32).render(&Pose::default(), 0, 0),
                    "x",
                )])
                .unwrap(),
            )
            .cost(&req),
        ] {
            assert_eq!(cost.for_batch_item(true, 0), cost.base);
            assert!(cost.for_batch_item(false, 0) < cost.base);
        }
    }

    #[test]
    fn costs_are_ordered_pose_heaviest() {
        let store_req = ServiceRequest::new("x", Payload::Empty);
        let pose = PoseDetectorService::new().cost(&store_req).base;
        assert!(pose > ObjectDetectorService::new().cost(&store_req).base);
        assert!(pose > DisplayService::new().cost(&store_req).base);
    }
}
