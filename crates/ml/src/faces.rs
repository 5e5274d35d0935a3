//! Face detection on the synthetic scenes.
//!
//! A face in the synthetic world is the head cluster: the nose/eyes/ears
//! joint blobs in close proximity. The detector finds nose-band pixels,
//! verifies that at least one eye-band blob lies within a head-sized
//! neighbourhood, and reports a square face box. This mirrors the structure
//! of cascade detectors (cheap candidate test + verification) at a scale the
//! synthetic scenes support.

use videopipe_media::scene::joint_for_intensity;
use videopipe_media::{Frame, Joint};

/// A detected face.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedFace {
    /// Face box `(min_x, min_y, max_x, max_y)` in scene coordinates.
    pub bbox: (f32, f32, f32, f32),
    /// Centre of the face (nose centroid).
    pub center: (f32, f32),
    /// Confidence: fraction of head landmarks (nose, eyes, ears) found.
    pub confidence: f32,
}

/// The face detector.
#[derive(Debug, Clone)]
pub struct FaceDetector {
    min_landmarks: usize,
}

impl FaceDetector {
    /// Default detector: requires at least 3 of the 5 head landmarks.
    pub(crate) fn new() -> Self {
        FaceDetector { min_landmarks: 3 }
    }

    /// Detects the (single) face in the frame, if present.
    pub fn detect(&self, frame: &Frame) -> Option<DetectedFace> {
        let width = frame.width() as usize;
        let height = frame.height() as usize;
        let pixels = frame.pixels();

        const HEAD_JOINTS: [Joint; 5] = [
            Joint::Nose,
            Joint::LeftEye,
            Joint::RightEye,
            Joint::LeftEar,
            Joint::RightEar,
        ];

        let mut sum = [(0f64, 0f64); 5];
        let mut count = [0usize; 5];
        for y in 0..height {
            let row = &pixels[y * width..(y + 1) * width];
            for (x, &p) in row.iter().enumerate() {
                if let Some(joint) = joint_for_intensity(p) {
                    if let Some(slot) = HEAD_JOINTS.iter().position(|&h| h == joint) {
                        sum[slot].0 += x as f64;
                        sum[slot].1 += y as f64;
                        count[slot] += 1;
                    }
                }
            }
        }

        let found = count.iter().filter(|&&c| c >= 2).count();
        if found < self.min_landmarks || count[0] < 2 {
            return None;
        }

        let centroid = |i: usize| {
            (
                (sum[i].0 / count[i] as f64) as f32 / width as f32,
                (sum[i].1 / count[i] as f64) as f32 / height as f32,
            )
        };
        let nose = centroid(0);

        // Face box spans the found landmarks, padded by the max landmark
        // spread (a head-sized margin).
        let mut min_x = f32::INFINITY;
        let mut min_y = f32::INFINITY;
        let mut max_x = f32::NEG_INFINITY;
        let mut max_y = f32::NEG_INFINITY;
        for (i, &n) in count.iter().enumerate() {
            if n >= 2 {
                let (x, y) = centroid(i);
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
            }
        }
        let pad = ((max_x - min_x).max(max_y - min_y)).max(0.02);
        Some(DetectedFace {
            bbox: (
                (min_x - pad).max(0.0),
                (min_y - pad).max(0.0),
                (max_x + pad).min(1.0),
                (max_y + pad).min(1.0),
            ),
            center: nose,
            confidence: found as f32 / 5.0,
        })
    }
}

impl Default for FaceDetector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl FaceDetector {
    /// Sets the minimum number of head landmarks (1–5).
    pub(crate) fn with_min_landmarks(mut self, n: usize) -> Self {
        self.min_landmarks = n.clamp(1, 5);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_media::motion::ExerciseKind;
    use videopipe_media::scene::SceneRenderer;
    use videopipe_media::{FrameBuf, Pose};

    #[test]
    fn detects_face_on_standing_pose() {
        let pose = Pose::default();
        let frame = SceneRenderer::new(320, 240).render(&pose, 0, 0);
        let face = FaceDetector::new().detect(&frame).expect("face present");
        let nose = pose.joint(Joint::Nose);
        assert!((face.center.0 - nose.x).abs() < 0.02);
        assert!((face.center.1 - nose.y).abs() < 0.02);
        assert!(face.confidence >= 0.6);
        // Box contains the nose.
        let (x0, y0, x1, y1) = face.bbox;
        assert!(nose.x > x0 && nose.x < x1 && nose.y > y0 && nose.y < y1);
    }

    #[test]
    fn no_face_in_empty_frame() {
        let frame = FrameBuf::new(320, 240).freeze(0, 0);
        assert!(FaceDetector::new().detect(&frame).is_none());
    }

    #[test]
    fn face_follows_fallen_pose() {
        let pose = ExerciseKind::Fall.pose_at_phase(1.0);
        let frame = SceneRenderer::new(320, 240).render(&pose, 0, 0);
        if let Some(face) = FaceDetector::new().detect(&frame) {
            let nose = pose.joint(Joint::Nose);
            assert!((face.center.0 - nose.x).abs() < 0.05);
            assert!((face.center.1 - nose.y).abs() < 0.05);
        }
        // (Off-frame heads may legitimately be undetected.)
    }

    #[test]
    fn strict_landmark_requirement() {
        let pose = Pose::default();
        let frame = SceneRenderer::new(320, 240).render(&pose, 0, 0);
        // All five landmarks render on a full standing figure.
        assert!(FaceDetector::new()
            .with_min_landmarks(5)
            .detect(&frame)
            .is_some());
    }
}
