//! Pose-window feature extraction.
//!
//! Paper §4.1.2: "we take a list of 15 consecutive frames … We normalize the
//! coordinates framewise so that (0,0) is located at the average of the left
//! and right hips of the human in that frame."

use videopipe_media::{Pose, JOINT_COUNT};

/// The window length used by the activity recogniser (paper value).
pub const WINDOW_LEN: usize = 15;

/// Feature dimensionality of a full window.
pub(crate) const WINDOW_DIM: usize = WINDOW_LEN * JOINT_COUNT * 2;

/// Normalises one pose framewise: hips to the origin.
pub(crate) fn normalize_pose(pose: &Pose) -> Pose {
    pose.hip_normalized()
}

/// Flattens a window of poses into a single feature vector, normalising each
/// frame to its own hip centre.
///
/// Returns `None` unless exactly [`WINDOW_LEN`] poses are supplied.
pub fn window_features(window: &[Pose]) -> Option<Vec<f32>> {
    let mut out = Vec::new();
    window_features_into(window, &mut out).then_some(out)
}

/// Allocation-reusing variant of [`window_features`] for batch callers:
/// clears `out` and fills it with the window's [`WINDOW_DIM`] features.
/// Returns `false` (leaving `out` empty) unless exactly [`WINDOW_LEN`]
/// poses are supplied. One buffer carried across a batch of windows
/// replaces one `Vec` allocation per window (plus the per-pose flatten
/// temporaries the old path paid).
pub(crate) fn window_features_into(window: &[Pose], out: &mut Vec<f32>) -> bool {
    out.clear();
    if window.len() != WINDOW_LEN {
        return false;
    }
    out.reserve(WINDOW_DIM);
    for pose in window {
        append_normalized(pose, out);
    }
    true
}

/// Appends a hip-normalised flattened pose to `out` without allocating.
fn append_normalized(pose: &Pose, out: &mut Vec<f32>) {
    let normalized = normalize_pose(pose);
    for kp in normalized.keypoints() {
        out.push(kp.x);
        out.push(kp.y);
    }
}

/// A sliding pose window that yields a feature vector once full.
///
/// Modules keep one of these as their encapsulated state; the stateless
/// activity service receives the already-extracted features.
#[derive(Debug, Clone, Default)]
pub struct PoseWindow {
    poses: Vec<Pose>,
}

impl PoseWindow {
    /// Creates an empty window.
    pub fn new() -> Self {
        PoseWindow { poses: Vec::new() }
    }

    /// Pushes a pose; once the window holds [`WINDOW_LEN`] poses it returns
    /// the feature vector for the current window (and keeps sliding).
    pub fn push(&mut self, pose: Pose) -> Option<Vec<f32>> {
        self.poses.push(pose);
        if self.poses.len() > WINDOW_LEN {
            self.poses.remove(0);
        }
        if self.poses.len() == WINDOW_LEN {
            window_features(&self.poses)
        } else {
            None
        }
    }
}

/// Per-frame feature for the rep counter: the hip-normalised flattened pose
/// (34 values). The rep counter clusters these with k-means.
pub(crate) fn frame_features(pose: &Pose) -> Vec<f32> {
    let mut out = Vec::with_capacity(FRAME_DIM);
    frame_features_into(pose, &mut out);
    out
}

/// Allocation-reusing variant of [`frame_features`]: clears `out` and fills
/// it with the pose's [`FRAME_DIM`] features.
pub(crate) fn frame_features_into(pose: &Pose, out: &mut Vec<f32>) {
    out.clear();
    out.reserve(FRAME_DIM);
    append_normalized(pose, out);
}

/// Dimensionality of [`frame_features`].
pub(crate) const FRAME_DIM: usize = JOINT_COUNT * 2;

#[cfg(test)]
impl PoseWindow {
    /// Number of poses currently buffered.
    pub(crate) fn len(&self) -> usize {
        self.poses.len()
    }

    /// Whether the window is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.poses.is_empty()
    }

    /// Clears the buffered poses.
    pub(crate) fn clear(&mut self) {
        self.poses.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_media::motion::ExerciseKind;

    #[test]
    fn window_features_require_exact_length() {
        let poses = vec![Pose::default(); WINDOW_LEN];
        assert_eq!(window_features(&poses).unwrap().len(), WINDOW_DIM);
        assert!(window_features(&poses[..14]).is_none());
        let too_many = vec![Pose::default(); WINDOW_LEN + 1];
        assert!(window_features(&too_many).is_none());
    }

    #[test]
    fn normalisation_removes_translation() {
        let pose = Pose::default();
        let moved = pose.translated(0.3, -0.2);
        let a = window_features(&vec![pose; WINDOW_LEN]).unwrap();
        let b = window_features(&vec![moved; WINDOW_LEN]).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn different_motions_have_different_features() {
        let squat: Vec<Pose> = (0..WINDOW_LEN)
            .map(|i| ExerciseKind::Squat.pose_at_phase(i as f32 / WINDOW_LEN as f32))
            .collect();
        let jack: Vec<Pose> = (0..WINDOW_LEN)
            .map(|i| ExerciseKind::JumpingJack.pose_at_phase(i as f32 / WINDOW_LEN as f32))
            .collect();
        let fa = window_features(&squat).unwrap();
        let fb = window_features(&jack).unwrap();
        let dist = crate::math::distance(&fa, &fb);
        assert!(dist > 0.1, "feature distance {dist}");
    }

    #[test]
    fn sliding_window_emits_after_fill_then_every_push() {
        let mut window = PoseWindow::new();
        for i in 0..WINDOW_LEN - 1 {
            assert!(window.push(Pose::default()).is_none(), "emitted at {i}");
        }
        assert!(window.push(Pose::default()).is_some());
        assert!(window.push(Pose::default()).is_some());
        assert_eq!(window.len(), WINDOW_LEN);
    }

    #[test]
    fn clear_resets_the_window() {
        let mut window = PoseWindow::new();
        for _ in 0..WINDOW_LEN {
            window.push(Pose::default());
        }
        window.clear();
        assert!(window.is_empty());
        assert!(window.push(Pose::default()).is_none());
    }

    #[test]
    fn frame_features_dimension() {
        assert_eq!(frame_features(&Pose::default()).len(), FRAME_DIM);
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let windows: Vec<Vec<Pose>> = (0..4)
            .map(|w| {
                (0..WINDOW_LEN)
                    .map(|i| ExerciseKind::Squat.pose_at_phase((w * WINDOW_LEN + i) as f32 / 60.0))
                    .collect()
            })
            .collect();
        // One buffer reused across the whole batch produces exactly what
        // the allocating path produces, window after window.
        let mut buf = Vec::new();
        for window in &windows {
            assert!(window_features_into(window, &mut buf));
            assert_eq!(Some(buf.clone()), window_features(window));
        }
        assert!(!window_features_into(&windows[0][..3], &mut buf));
        assert!(buf.is_empty(), "failed extraction must leave buffer empty");

        let pose = ExerciseKind::JumpingJack.pose_at_phase(0.4);
        frame_features_into(&pose, &mut buf);
        assert_eq!(buf, frame_features(&pose));
    }
}
