//! Fall detection over pose streams (paper §4.3: "we also implement a fall
//! detection application pipeline with VideoPipe").
//!
//! The detector combines two signals over a short pose history:
//!
//! 1. **Aspect ratio** — a fallen body's bounding box is wide, a standing
//!    one is tall.
//! 2. **Descent velocity** — the hip centre must have dropped quickly in the
//!    recent past (distinguishes falling from lying down deliberately or
//!    from a pushup posture held from the start).

use videopipe_media::Pose;

/// Outcome of feeding one pose to the [`FallDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FallState {
    /// Person upright (or undetermined).
    Upright,
    /// Body horizontal but no rapid descent observed (e.g. exercising).
    Lying,
    /// A fall was detected: rapid descent ending horizontal.
    Fallen {
        /// Hip descent speed (scene units per second) that triggered it.
        descent_speed: f32,
    },
}

/// Sliding-window fall detector. Module-side state; the pure per-pose
/// geometry (`aspect`, hip height) is trivially recomputable by a stateless
/// service.
#[derive(Debug, Clone)]
pub struct FallDetector {
    /// `(timestamp_ns, hip_y)` history.
    history: Vec<(u64, f32)>,
    window_ns: u64,
    min_aspect: f32,
    min_descent_speed: f32,
    latched: bool,
}

impl FallDetector {
    /// Creates a detector with a 1.5 s descent window, aspect gate 1.2 and
    /// descent threshold 0.25 scene-units/second.
    pub fn new() -> Self {
        FallDetector {
            history: Vec::new(),
            window_ns: 1_500_000_000,
            min_aspect: 1.2,
            min_descent_speed: 0.25,
            latched: false,
        }
    }

    /// Feeds one timestamped pose.
    pub fn push(&mut self, pose: &Pose, timestamp_ns: u64) -> FallState {
        let hip_y = pose.hip_center().y;
        self.history.push((timestamp_ns, hip_y));
        let cutoff = timestamp_ns.saturating_sub(self.window_ns);
        self.history.retain(|&(t, _)| t >= cutoff);

        let (x0, y0, x1, y1) = pose.bbox();
        let w = x1 - x0;
        let h = y1 - y0;
        let horizontal = h > 1e-6 && w / h >= self.min_aspect;
        if !horizontal {
            if self.latched {
                // Person back upright: clear the latch automatically.
                self.latched = false;
            }
            return FallState::Upright;
        }

        // Max descent speed across the window.
        let mut max_speed = 0.0f32;
        if let Some(&(t_now, y_now)) = self.history.last() {
            for &(t, y) in &self.history {
                if t_now > t {
                    let dt_s = (t_now - t) as f32 / 1e9;
                    if dt_s > 0.05 {
                        let speed = (y_now - y) / dt_s;
                        max_speed = max_speed.max(speed);
                    }
                }
            }
        }

        if self.latched || max_speed >= self.min_descent_speed {
            self.latched = true;
            FallState::Fallen {
                descent_speed: max_speed,
            }
        } else {
            FallState::Lying
        }
    }
}

impl Default for FallDetector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl FallDetector {
    /// Whether a fall has been detected and not yet cleared.
    pub(crate) fn is_latched(&self) -> bool {
        self.latched
    }

    /// Clears a latched fall (e.g. after the person stood back up and an
    /// operator acknowledged the alert).
    pub(crate) fn clear(&mut self) {
        self.latched = false;
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_media::motion::{ExerciseKind, MotionClip};

    fn feed_clip(
        detector: &mut FallDetector,
        kind: ExerciseKind,
        period_s: f64,
        duration_s: f64,
        fps: f64,
    ) -> Vec<FallState> {
        let clip = MotionClip::new(kind, period_s);
        let dt = (1e9 / fps) as u64;
        let n = (duration_s * fps) as u64;
        (0..n)
            .map(|i| {
                let t = i * dt;
                detector.push(&clip.pose_at(t), t)
            })
            .collect()
    }

    #[test]
    fn detects_a_fall() {
        let mut detector = FallDetector::new();
        let states = feed_clip(&mut detector, ExerciseKind::Fall, 1.0, 2.0, 15.0);
        assert!(
            states.iter().any(|s| matches!(s, FallState::Fallen { .. })),
            "fall not detected: {states:?}"
        );
        assert!(detector.is_latched());
    }

    #[test]
    fn squats_do_not_trigger() {
        let mut detector = FallDetector::new();
        let states = feed_clip(&mut detector, ExerciseKind::Squat, 2.0, 6.0, 15.0);
        assert!(
            states.iter().all(|s| *s == FallState::Upright),
            "false positive: {states:?}"
        );
    }

    #[test]
    fn pushups_read_lying_not_fallen() {
        let mut detector = FallDetector::new();
        let states = feed_clip(&mut detector, ExerciseKind::Pushup, 2.0, 4.0, 15.0);
        assert!(
            !states.iter().any(|s| matches!(s, FallState::Fallen { .. })),
            "pushup misread as fall"
        );
        assert!(states.contains(&FallState::Lying));
    }

    #[test]
    fn latch_clears_when_person_stands_up() {
        let mut detector = FallDetector::new();
        feed_clip(&mut detector, ExerciseKind::Fall, 1.0, 2.0, 15.0);
        assert!(detector.is_latched());
        // Standing poses afterwards clear the latch.
        let state = detector.push(&Pose::default(), 10_000_000_000);
        assert_eq!(state, FallState::Upright);
        assert!(!detector.is_latched());
    }

    #[test]
    fn manual_clear() {
        let mut detector = FallDetector::new();
        feed_clip(&mut detector, ExerciseKind::Fall, 1.0, 2.0, 15.0);
        detector.clear();
        assert!(!detector.is_latched());
    }

    #[test]
    fn slow_descent_reads_lying() {
        // A fall spread over 20 s is "lying down", not a fall.
        let mut detector = FallDetector::new();
        let states = feed_clip(&mut detector, ExerciseKind::Fall, 20.0, 22.0, 15.0);
        assert!(
            !states.iter().any(|s| matches!(s, FallState::Fallen { .. })),
            "slow descent misread as fall"
        );
        assert!(states.contains(&FallState::Lying));
    }
}
