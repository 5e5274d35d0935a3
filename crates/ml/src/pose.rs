//! The 2D pose detector service kernel.
//!
//! Paper §4.1.1: "The 2D pose detector first detects a human and places a
//! bounding box around them. Within that bounding box, it detects 17
//! keypoints."
//!
//! This implementation does honest raster work on the synthetic scenes
//! rendered by `videopipe-media`: it scans the raster for body pixels,
//! finds the human's bounding box, and accumulates per-joint blob centroids
//! using the intensity-band coding. Sensor noise pushes pixels across band
//! boundaries, so detection accuracy genuinely degrades with noise and
//! small blobs can be missed — the detector returns per-joint confidences
//! and an overall score.
//!
//! The production path ([`PoseDetector::detect`]) is a word-wide fused
//! kernel: one pass, 8 pixels per `u64` load, branchless threshold masks
//! from [`videopipe_media::scan`], and an intensity → joint lookup table.
//! The pre-kernel two-pass implementation stays available as the
//! bit-identical [`PoseDetector::detect_scalar`] oracle.

use crate::math::scalar_mean;
use videopipe_media::scan::scan_at_least;
use videopipe_media::scene::joint_for_intensity;
use videopipe_media::{Frame, Joint, Keypoint, Pose, JOINT_COUNT};

/// Anything at least this bright counts as a body pixel (bone or joint,
/// with a small margin below the joint bands). Kept below the lowest joint
/// band: that containment is what lets the fused batch kernel merge the
/// bbox and centroid passes exactly.
const BODY_THRESHOLD: u8 = 30;

/// A detected pose: keypoints in scene coordinates, a bounding box, and
/// per-joint confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedPose {
    /// Recovered keypoints (scene coordinates in `[0, 1]²`).
    pub pose: Pose,
    /// Bounding box `(min_x, min_y, max_x, max_y)` in scene coordinates.
    pub bbox: (f32, f32, f32, f32),
    /// Per-joint confidence in `[0, 1]` (fraction of expected blob pixels
    /// found).
    pub joint_confidence: [f32; JOINT_COUNT],
    /// Overall detection score: mean joint confidence.
    pub score: f32,
}

impl DetectedPose {}

/// Sentinel in the intensity → joint lookup table: "not a joint band".
const NO_JOINT: u8 = 0xFF;

/// Configuration and kernel of the pose detection service.
#[derive(Debug, Clone)]
pub struct PoseDetector {
    /// Minimum pixels a joint blob needs to be trusted at all.
    min_blob_pixels: usize,
    /// Expected blob pixel count at full confidence (≈ π r² of the rendered
    /// joint discs; confidences saturate at 1).
    expected_blob_pixels: f32,
    /// Minimum overall score for a detection to be reported.
    min_score: f32,
    /// Intensity → joint index lookup ([`NO_JOINT`] outside every band);
    /// replaces the per-pixel `joint_for_intensity` banding arithmetic in
    /// the word-wide scan.
    joint_lut: [u8; 256],
}

impl PoseDetector {
    /// Creates a detector with defaults matched to the default scene
    /// renderer (joint radius = min(w, h) / 80).
    pub fn new() -> Self {
        let mut joint_lut = [NO_JOINT; 256];
        for (value, slot) in joint_lut.iter_mut().enumerate() {
            if let Some(joint) = joint_for_intensity(value as u8) {
                *slot = joint.index() as u8;
            }
        }
        PoseDetector {
            min_blob_pixels: 3,
            expected_blob_pixels: 28.0,
            min_score: 0.35,
            joint_lut,
        }
    }

    /// Detects the (single) person in `frame`.
    ///
    /// Returns `None` when no plausible human is present — e.g. an empty or
    /// hopelessly noisy frame.
    ///
    /// This is the word-wide fused kernel: one pass over the raster, 8
    /// pixels per `u64` load, with the branchless threshold mask from
    /// [`videopipe_media::scan`] skipping background words and an intensity
    /// → joint lookup table replacing the banding arithmetic on the (rare)
    /// foreground pixels. Bounding box and per-joint centroids accumulate
    /// together in that single pass. The result is **bit-identical** to
    /// [`detect_scalar`]: the word scan replays matching pixels in row-major
    /// order, the fusion is exact because every joint band starts at
    /// `JOINT_BASE_INTENSITY - JOINT_BAND_HALF_WIDTH`, above the body
    /// threshold (a joint pixel is always a body pixel, so it is always
    /// inside the box the restricted scalar second pass would have scanned),
    /// and the LUT reproduces `joint_for_intensity` for all 256 intensities.
    ///
    /// [`detect_scalar`]: PoseDetector::detect_scalar
    pub fn detect(&self, frame: &Frame) -> Option<DetectedPose> {
        let width = frame.width() as usize;
        let height = frame.height() as usize;
        let pixels = frame.pixels();

        let mut min_x = usize::MAX;
        let mut min_y = usize::MAX;
        let mut max_x = 0usize;
        let mut max_y = 0usize;
        let mut body_pixels = 0usize;
        let mut sum_x = [0f64; JOINT_COUNT];
        let mut sum_y = [0f64; JOINT_COUNT];
        let mut count = [0usize; JOINT_COUNT];
        for y in 0..height {
            let row = &pixels[y * width..(y + 1) * width];
            scan_at_least(row, BODY_THRESHOLD, |x, p| {
                body_pixels += 1;
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
                let j = self.joint_lut[p as usize];
                if j != NO_JOINT {
                    let j = j as usize;
                    sum_x[j] += x as f64;
                    sum_y[j] += y as f64;
                    count[j] += 1;
                }
            });
        }
        if body_pixels < self.min_blob_pixels * 4 || min_x > max_x || min_y > max_y {
            return None;
        }

        self.finish(
            width,
            height,
            (min_x, min_y, max_x, max_y),
            body_pixels,
            &sum_x,
            &sum_y,
            &count,
        )
    }

    /// Scalar reference oracle for [`detect`]: the pre-kernel two-pass
    /// implementation (bounding-box pass over every pixel, then a per-joint
    /// centroid pass restricted to the box), branching on each pixel and
    /// calling `joint_for_intensity` directly. Kept public so tests and the
    /// benchmark can pin the word-wide kernel against it.
    ///
    /// [`detect`]: PoseDetector::detect
    pub fn detect_scalar(&self, frame: &Frame) -> Option<DetectedPose> {
        let width = frame.width() as usize;
        let height = frame.height() as usize;
        let pixels = frame.pixels();

        // Pass 1: bounding box of all "body" pixels (anything bright enough
        // to be bone or joint, with a small margin below the joint bands).
        let mut min_x = usize::MAX;
        let mut min_y = usize::MAX;
        let mut max_x = 0usize;
        let mut max_y = 0usize;
        let mut body_pixels = 0usize;
        for y in 0..height {
            let row = &pixels[y * width..(y + 1) * width];
            for (x, &p) in row.iter().enumerate() {
                if p >= BODY_THRESHOLD {
                    body_pixels += 1;
                    min_x = min_x.min(x);
                    min_y = min_y.min(y);
                    max_x = max_x.max(x);
                    max_y = max_y.max(y);
                }
            }
        }
        if body_pixels < self.min_blob_pixels * 4 || min_x > max_x || min_y > max_y {
            return None;
        }

        // Pass 2: per-joint centroid accumulation inside the bounding box.
        let mut sum_x = [0f64; JOINT_COUNT];
        let mut sum_y = [0f64; JOINT_COUNT];
        let mut count = [0usize; JOINT_COUNT];
        for y in min_y..=max_y {
            let row = &pixels[y * width..(y + 1) * width];
            for (x, &p) in row.iter().enumerate().take(max_x + 1).skip(min_x) {
                if let Some(joint) = joint_for_intensity(p) {
                    let j = joint.index();
                    sum_x[j] += x as f64;
                    sum_y[j] += y as f64;
                    count[j] += 1;
                }
            }
        }

        self.finish(
            width,
            height,
            (min_x, min_y, max_x, max_y),
            body_pixels,
            &sum_x,
            &sum_y,
            &count,
        )
    }

    /// Detects poses in a batch of frames, one result per frame in order —
    /// each frame through the same word-wide fused kernel as [`detect`],
    /// so batched and per-frame results are identical by construction.
    ///
    /// [`detect`]: PoseDetector::detect
    pub fn detect_batch(&self, frames: &[&Frame]) -> Vec<Option<DetectedPose>> {
        frames.iter().map(|frame| self.detect(frame)).collect()
    }

    /// Everything after the pixel scans: centroids → keypoints, confidence,
    /// bbox-centre imputation of missing joints, and the score gate. Shared
    /// by [`detect`] and the fused batch kernel so the two stay identical.
    ///
    /// [`detect`]: PoseDetector::detect
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        width: usize,
        height: usize,
        bbox: (usize, usize, usize, usize),
        body_pixels: usize,
        sum_x: &[f64; JOINT_COUNT],
        sum_y: &[f64; JOINT_COUNT],
        count: &[usize; JOINT_COUNT],
    ) -> Option<DetectedPose> {
        let (min_x, min_y, max_x, max_y) = bbox;
        if body_pixels < self.min_blob_pixels * 4 || min_x > max_x || min_y > max_y {
            return None;
        }

        let mut keypoints = [Keypoint::default(); JOINT_COUNT];
        let mut confidence = [0f32; JOINT_COUNT];
        let mut found_any = false;
        for j in 0..JOINT_COUNT {
            if count[j] >= self.min_blob_pixels {
                keypoints[j] = Keypoint::new(
                    (sum_x[j] / count[j] as f64) as f32 / width as f32,
                    (sum_y[j] / count[j] as f64) as f32 / height as f32,
                );
                confidence[j] = (count[j] as f32 / self.expected_blob_pixels).min(1.0);
                found_any = true;
            }
        }
        if !found_any {
            return None;
        }

        // Missing joints are imputed from the body bbox centre so downstream
        // feature vectors stay well-formed (a real detector also emits
        // low-confidence guesses).
        let cx = (min_x + max_x) as f32 / 2.0 / width as f32;
        let cy = (min_y + max_y) as f32 / 2.0 / height as f32;
        for j in 0..JOINT_COUNT {
            if count[j] < self.min_blob_pixels {
                keypoints[j] = Keypoint::new(cx, cy);
            }
        }

        let score = scalar_mean(&confidence);
        if score < self.min_score {
            return None;
        }

        Some(DetectedPose {
            pose: Pose::new(keypoints),
            bbox: (
                min_x as f32 / width as f32,
                min_y as f32 / height as f32,
                (max_x + 1) as f32 / width as f32,
                (max_y + 1) as f32 / height as f32,
            ),
            joint_confidence: confidence,
            score,
        })
    }
}

impl Default for PoseDetector {
    fn default() -> Self {
        Self::new()
    }
}

/// Mean per-joint detection error (scene units) of `detected` against the
/// ground-truth `truth`, considering only joints above the confidence
/// threshold.
pub fn detection_error(detected: &DetectedPose, truth: &Pose, min_confidence: f32) -> f32 {
    let mut errs = Vec::new();
    for j in Joint::ALL {
        if detected.joint_confidence[j.index()] >= min_confidence {
            errs.push(detected.pose.joint(j).distance(&truth.joint(j)));
        }
    }
    scalar_mean(&errs)
}

#[cfg(test)]
impl DetectedPose {
    /// Number of joints detected with confidence above `threshold`.
    pub(crate) fn joints_above(&self, threshold: f32) -> usize {
        self.joint_confidence
            .iter()
            .filter(|&&c| c >= threshold)
            .count()
    }
}

#[cfg(test)]
impl PoseDetector {
    /// Sets the minimum overall score for a detection to be reported.
    pub(crate) fn with_min_score(mut self, score: f32) -> Self {
        self.min_score = score.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use videopipe_media::motion::{ExerciseKind, MotionClip};
    use videopipe_media::scene::SceneRenderer;
    use videopipe_media::FrameBuf;

    fn render(pose: &Pose) -> Frame {
        SceneRenderer::new(320, 240).render(pose, 0, 0)
    }

    #[test]
    fn detects_standing_pose_accurately() {
        let truth = Pose::default();
        let detected = PoseDetector::new().detect(&render(&truth)).unwrap();
        let err = detection_error(&detected, &truth, 0.5);
        assert!(err < 0.01, "mean joint error {err}");
        assert!(detected.score > 0.8, "score {}", detected.score);
        assert_eq!(detected.joints_above(0.5), JOINT_COUNT);
    }

    #[test]
    fn bbox_contains_all_keypoints() {
        let truth = Pose::default();
        let d = PoseDetector::new().detect(&render(&truth)).unwrap();
        let (x0, y0, x1, y1) = d.bbox;
        for kp in d.pose.keypoints() {
            assert!(kp.x >= x0 - 0.02 && kp.x <= x1 + 0.02);
            assert!(kp.y >= y0 - 0.02 && kp.y <= y1 + 0.02);
        }
    }

    #[test]
    fn empty_frame_yields_none() {
        let frame = FrameBuf::new(320, 240).freeze(0, 0);
        assert!(PoseDetector::new().detect(&frame).is_none());
    }

    #[test]
    fn tracks_motion_across_phases() {
        let detector = PoseDetector::new();
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
        for phase in [0.0, 0.25, 0.5, 0.75] {
            let truth = clip.pose_at_phase(phase);
            let detected = detector.detect(&render(&truth)).unwrap();
            let err = detection_error(&detected, &truth, 0.5);
            assert!(err < 0.015, "phase {phase}: error {err}");
        }
    }

    #[test]
    fn light_noise_tolerated_heavy_noise_degrades() {
        let detector = PoseDetector::new();
        let renderer = SceneRenderer::new(320, 240);
        let truth = Pose::default();
        let mut rng = StdRng::seed_from_u64(3);

        let light = renderer.render_noisy(&truth, 2.0, &mut rng, 0, 0);
        let d_light = detector.detect(&light).expect("light noise should detect");
        let err_light = detection_error(&d_light, &truth, 0.5);
        assert!(err_light < 0.02, "light-noise error {err_light}");

        let heavy = renderer.render_noisy(&truth, 60.0, &mut rng, 0, 0);
        let err_heavy = match detector.detect(&heavy) {
            None => f32::INFINITY, // acceptable: detection lost
            Some(d) => detection_error(&d, &truth, 0.0),
        };
        assert!(
            err_heavy > err_light,
            "heavy noise should be worse: {err_heavy} vs {err_light}"
        );
    }

    #[test]
    fn small_resolution_still_detects() {
        let truth = Pose::default();
        let frame = SceneRenderer::new(96, 72).render(&truth, 0, 0);
        let detected = PoseDetector::new().detect(&frame).unwrap();
        assert!(detected.score > 0.3);
    }

    #[test]
    fn min_score_filters_detections() {
        let truth = Pose::default();
        let frame = render(&truth);
        let strict = PoseDetector::new().with_min_score(0.999);
        // Confidence saturation makes a perfect render pass even 0.999 only
        // if every blob is complete; off-frame joints would fail. Shift the
        // pose half off-screen to lose joints.
        let off = truth.translated(0.45, 0.0);
        let off_frame = render(&off);
        let lenient = PoseDetector::new().with_min_score(0.0);
        let d_off = lenient.detect(&off_frame);
        if let Some(d) = &d_off {
            assert!(d.score < 1.0);
        }
        assert!(strict.detect(&frame).is_some() || lenient.detect(&frame).is_some());
    }

    #[test]
    fn word_detect_and_batch_are_bit_identical_to_scalar_oracle() {
        use videopipe_media::scene::{joint_intensity, JOINT_BAND_HALF_WIDTH};
        // The fused kernel's exactness argument requires every joint band to
        // sit above the body threshold; pin that invariant here so a future
        // retune of the scene constants can't silently break the fused path.
        for joint in Joint::ALL {
            assert!(joint_intensity(joint) - JOINT_BAND_HALF_WIDTH >= BODY_THRESHOLD);
        }

        let detector = PoseDetector::new();
        let renderer = SceneRenderer::new(320, 240);
        let mut rng = StdRng::seed_from_u64(7);
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
        let mut frames: Vec<Frame> = [0.0, 0.3, 0.6, 0.9]
            .iter()
            .map(|&phase| renderer.render(&clip.pose_at_phase(phase), 0, 0))
            .collect();
        // Include noisy frames (light and heavy, so joint bands get both
        // diluted and crossed), an empty frame (None), a half off-screen
        // pose, and a non-multiple-of-8 width so the word scan's remainder
        // path runs — every finish() branch is compared.
        frames.push(renderer.render_noisy(&Pose::default(), 8.0, &mut rng, 0, 0));
        frames.push(FrameBuf::new(320, 240).freeze(0, 0));
        frames.push(renderer.render(&Pose::default().translated(0.45, 0.0), 0, 0));
        frames.push(renderer.render_noisy(&Pose::default(), 40.0, &mut rng, 0, 0));
        frames.push(SceneRenderer::new(157, 113).render(&Pose::default(), 0, 0));

        let refs: Vec<&Frame> = frames.iter().collect();
        let batched = detector.detect_batch(&refs);
        assert_eq!(batched.len(), frames.len());
        for (frame, batched) in frames.iter().zip(&batched) {
            let scalar = detector.detect_scalar(frame);
            assert_eq!(batched, &detector.detect(frame));
            assert_eq!(batched, &scalar, "word kernel diverged from oracle");
        }
        assert!(batched[5].is_none(), "empty frame must stay undetected");
        assert!(detector.detect_batch(&[]).is_empty());
    }

    #[test]
    fn joint_lut_matches_joint_for_intensity_everywhere() {
        let detector = PoseDetector::new();
        for v in 0..=255u8 {
            let expected = joint_for_intensity(v).map(|j| j.index() as u8);
            let got = detector.joint_lut[v as usize];
            assert_eq!(got, expected.unwrap_or(NO_JOINT), "intensity {v}");
        }
    }

    #[test]
    fn detection_error_respects_confidence_threshold() {
        let truth = Pose::default();
        let d = PoseDetector::new().detect(&render(&truth)).unwrap();
        // With an impossible threshold no joints qualify → mean of empty = 0.
        assert_eq!(detection_error(&d, &truth, 2.0), 0.0);
    }
}
