//! Parametric motion generators: the synthetic stand-in for a human
//! performing exercises and gestures in front of the camera.
//!
//! Each [`ExerciseKind`] defines a deterministic pose trajectory over a
//! *phase* in `[0, 1)` (one repetition cycle). [`MotionClip`] maps wall time
//! to phase and optionally injects per-joint Gaussian jitter, so that two
//! repetitions are never pixel-identical — this is what gives the activity
//! recogniser and rep counter honest (non-trivial) inputs.

use crate::pose::{standing_pose, Joint, Keypoint, Pose};
use rand::Rng;
use std::f32::consts::PI;
use std::fmt;

/// The motion classes supported by the synthetic scene generator.
///
/// The first five are the fitness exercises (paper §4.1); `Wave` and `Clap`
/// are the IoT-control gestures (paper §4.2); `Fall` drives the fall
/// detection pipeline (paper §4.3); `Idle` is the negative class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ExerciseKind {
    Squat,
    JumpingJack,
    Pushup,
    Lunge,
    ArmRaise,
    Wave,
    Clap,
    Fall,
    Idle,
}

impl ExerciseKind {
    /// All motion classes.
    pub const ALL: [ExerciseKind; 9] = [
        ExerciseKind::Squat,
        ExerciseKind::JumpingJack,
        ExerciseKind::Pushup,
        ExerciseKind::Lunge,
        ExerciseKind::ArmRaise,
        ExerciseKind::Wave,
        ExerciseKind::Clap,
        ExerciseKind::Fall,
        ExerciseKind::Idle,
    ];

    /// The fitness-app exercise classes (paper §4.1).
    pub const FITNESS: [ExerciseKind; 5] = [
        ExerciseKind::Squat,
        ExerciseKind::JumpingJack,
        ExerciseKind::Pushup,
        ExerciseKind::Lunge,
        ExerciseKind::ArmRaise,
    ];

    /// The gesture classes used by the IoT-control app (paper §4.2).
    pub const GESTURES: [ExerciseKind; 3] =
        [ExerciseKind::Wave, ExerciseKind::Clap, ExerciseKind::Idle];

    /// Stable lowercase label (used as the class label in ML stages).
    pub fn label(self) -> &'static str {
        match self {
            ExerciseKind::Squat => "squat",
            ExerciseKind::JumpingJack => "jumping_jack",
            ExerciseKind::Pushup => "pushup",
            ExerciseKind::Lunge => "lunge",
            ExerciseKind::ArmRaise => "arm_raise",
            ExerciseKind::Wave => "wave",
            ExerciseKind::Clap => "clap",
            ExerciseKind::Fall => "fall",
            ExerciseKind::Idle => "idle",
        }
    }

    /// Parses a label produced by [`ExerciseKind::label`].
    pub fn from_label(label: &str) -> Option<ExerciseKind> {
        ExerciseKind::ALL
            .iter()
            .copied()
            .find(|k| k.label() == label)
    }

    /// Whether the motion is cyclic (repetitions) or one-shot (`Fall`).
    pub fn is_cyclic(self) -> bool {
        !matches!(self, ExerciseKind::Fall)
    }

    /// The ground-truth pose at `phase ∈ [0, 1)` of one repetition.
    ///
    /// Phase `0` is always the exercise's *initial position* (the paper's rep
    /// counter relies on "all exercises start and return to an initial
    /// position", §4.1.3).
    pub fn pose_at_phase(self, phase: f32) -> Pose {
        // Cyclic motions wrap; one-shot motions (Fall) clamp and stay down.
        let phase = if self.is_cyclic() {
            phase.rem_euclid(1.0)
        } else {
            phase.clamp(0.0, 1.0)
        };
        // `s` rises 0 → 1 → 0 over one cycle: distance from initial position.
        let s = 0.5 - 0.5 * (2.0 * PI * phase).cos();
        let mut pose = standing_pose();
        match self {
            ExerciseKind::Squat => squat(&mut pose, s),
            ExerciseKind::JumpingJack => jumping_jack(&mut pose, s),
            ExerciseKind::Pushup => pushup(&mut pose, s),
            ExerciseKind::Lunge => lunge(&mut pose, s),
            ExerciseKind::ArmRaise => arm_raise(&mut pose, s),
            ExerciseKind::Wave => wave(&mut pose, phase),
            ExerciseKind::Clap => clap(&mut pose, s),
            ExerciseKind::Fall => fall(&mut pose, phase),
            ExerciseKind::Idle => idle(&mut pose, phase),
        }
        pose
    }
}

impl fmt::Display for ExerciseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

fn shift(pose: &mut Pose, joint: Joint, dx: f32, dy: f32) {
    let kp = pose.joint(joint);
    pose.set_joint(joint, Keypoint::new(kp.x + dx, kp.y + dy));
}

fn shift_upper_body(pose: &mut Pose, dx: f32, dy: f32) {
    use Joint::*;
    for j in [
        Nose,
        LeftEye,
        RightEye,
        LeftEar,
        RightEar,
        LeftShoulder,
        RightShoulder,
        LeftElbow,
        RightElbow,
        LeftWrist,
        RightWrist,
    ] {
        shift(pose, j, dx, dy);
    }
}

/// Squat: hips and torso drop, knees bend outwards.
fn squat(pose: &mut Pose, s: f32) {
    use Joint::*;
    let drop = 0.16 * s;
    shift_upper_body(pose, 0.0, drop);
    shift(pose, LeftHip, 0.0, drop);
    shift(pose, RightHip, 0.0, drop);
    shift(pose, LeftKnee, 0.05 * s, drop * 0.35);
    shift(pose, RightKnee, -0.05 * s, drop * 0.35);
    // Arms extend forward for balance.
    shift(pose, LeftWrist, 0.04 * s, -0.12 * s);
    shift(pose, RightWrist, -0.04 * s, -0.12 * s);
}

/// Jumping jack: arms sweep overhead, legs spread.
fn jumping_jack(pose: &mut Pose, s: f32) {
    use Joint::*;
    shift(pose, LeftElbow, 0.03 * s, -0.20 * s);
    shift(pose, RightElbow, -0.03 * s, -0.20 * s);
    shift(pose, LeftWrist, 0.02 * s, -0.42 * s);
    shift(pose, RightWrist, -0.02 * s, -0.42 * s);
    shift(pose, LeftKnee, 0.06 * s, 0.0);
    shift(pose, RightKnee, -0.06 * s, 0.0);
    shift(pose, LeftAnkle, 0.12 * s, -0.01 * s);
    shift(pose, RightAnkle, -0.12 * s, -0.01 * s);
}

/// Pushup: the whole body pivots towards horizontal, elbows flex.
fn pushup(pose: &mut Pose, s: f32) {
    use Joint::*;
    // Body is already horizontal (plank); `s` drives the elbow flexion and
    // torso drop. Rebuild from the standing pose by rotating 90°: head to the
    // left, feet to the right.
    let base = 0.62; // plank torso height
    let drop = 0.10 * s;
    let set = |pose: &mut Pose, j: Joint, x: f32, y: f32| pose.set_joint(j, Keypoint::new(x, y));
    set(pose, Nose, 0.16, base + drop);
    set(pose, LeftEye, 0.17, base - 0.02 + drop);
    set(pose, RightEye, 0.15, base - 0.02 + drop);
    set(pose, LeftEar, 0.185, base - 0.015 + drop);
    set(pose, RightEar, 0.135, base - 0.015 + drop);
    set(pose, LeftShoulder, 0.28, base - 0.015 + drop);
    set(pose, RightShoulder, 0.27, base + 0.015 + drop);
    set(pose, LeftElbow, 0.285, base + 0.10 + drop * 0.5);
    set(pose, RightElbow, 0.275, base + 0.11 + drop * 0.5);
    set(pose, LeftWrist, 0.30, base + 0.22);
    set(pose, RightWrist, 0.29, base + 0.23);
    set(pose, LeftHip, 0.52, base + 0.01 + drop * 0.8);
    set(pose, RightHip, 0.51, base + 0.03 + drop * 0.8);
    set(pose, LeftKnee, 0.68, base + 0.05 + drop * 0.5);
    set(pose, RightKnee, 0.67, base + 0.07 + drop * 0.5);
    set(pose, LeftAnkle, 0.84, base + 0.10);
    set(pose, RightAnkle, 0.83, base + 0.12);
}

/// Lunge: left leg steps forward and the body sinks.
fn lunge(pose: &mut Pose, s: f32) {
    use Joint::*;
    let sink = 0.10 * s;
    shift_upper_body(pose, 0.02 * s, sink);
    shift(pose, LeftHip, 0.02 * s, sink);
    shift(pose, RightHip, 0.02 * s, sink);
    shift(pose, LeftKnee, 0.14 * s, sink * 0.6);
    shift(pose, LeftAnkle, 0.16 * s, 0.0);
    shift(pose, RightKnee, -0.06 * s, sink + 0.04 * s);
}

/// Arm raise: both arms lift straight to the sides until horizontal.
fn arm_raise(pose: &mut Pose, s: f32) {
    use Joint::*;
    shift(pose, LeftElbow, 0.05 * s, -0.14 * s);
    shift(pose, RightElbow, -0.05 * s, -0.14 * s);
    shift(pose, LeftWrist, 0.12 * s, -0.26 * s);
    shift(pose, RightWrist, -0.12 * s, -0.26 * s);
}

/// Wave: right arm overhead, wrist oscillating side to side (two sweeps per
/// cycle — faster than the exercise motions, like a real wave).
fn wave(pose: &mut Pose, phase: f32) {
    use Joint::*;
    shift(pose, RightElbow, -0.02, -0.26);
    let sway = 0.07 * (4.0 * PI * phase).sin();
    shift(pose, RightWrist, -0.04 + sway, -0.50);
}

/// Clap: both wrists meet in front of the chest.
fn clap(pose: &mut Pose, s: f32) {
    use Joint::*;
    let lw = pose.joint(LeftWrist);
    let rw = pose.joint(RightWrist);
    let target = Keypoint::new(0.5, 0.36);
    pose.set_joint(
        LeftWrist,
        Keypoint::new(
            lw.x + (target.x + 0.012 - lw.x) * s,
            lw.y + (target.y - lw.y) * s,
        ),
    );
    pose.set_joint(
        RightWrist,
        Keypoint::new(
            rw.x + (target.x - 0.012 - rw.x) * s,
            rw.y + (target.y - rw.y) * s,
        ),
    );
    shift(pose, LeftElbow, -0.03 * s, -0.05 * s);
    shift(pose, RightElbow, 0.03 * s, -0.05 * s);
}

/// Fall: a one-shot transition from standing to lying on the ground.
/// `phase` is clamped: by `phase = 1` the person is horizontal.
fn fall(pose: &mut Pose, phase: f32) {
    let t = phase.clamp(0.0, 1.0);
    // Rotate every keypoint about the ankles' midpoint towards horizontal.
    let pivot = Keypoint::new(0.5, 0.92);
    let angle = t * (PI / 2.0) * 0.95;
    let (sin, cos) = angle.sin_cos();
    let mut kps = *pose.keypoints();
    for kp in &mut kps {
        let dx = kp.x - pivot.x;
        let dy = kp.y - pivot.y;
        kp.x = pivot.x + dx * cos - dy * sin;
        kp.y = pivot.y + dx * sin + dy * cos;
    }
    *pose = Pose::new(kps);
}

/// Idle: barely perceptible sway.
fn idle(pose: &mut Pose, phase: f32) {
    let sway = 0.008 * (2.0 * PI * phase).sin();
    let breathe = 0.004 * (4.0 * PI * phase).sin();
    shift_upper_body(pose, sway, breathe);
}

/// Samples a standard-normal variate via the Box–Muller transform.
///
/// `rand_distr` is not in the approved offline dependency set, so the few
/// places that need Gaussian noise use this helper.
pub(crate) fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 <= f32::EPSILON {
            continue;
        }
        let u2: f32 = rng.gen::<f32>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos();
    }
}

/// A motion clip: an [`ExerciseKind`] performed at a fixed repetition period,
/// with optional per-joint jitter.
#[derive(Debug, Clone)]
pub struct MotionClip {
    kind: ExerciseKind,
    period_s: f64,
    jitter: f32,
}

impl MotionClip {
    /// Creates a clip of `kind` with one repetition every `period_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not strictly positive and finite.
    pub fn new(kind: ExerciseKind, period_s: f64) -> Self {
        assert!(
            period_s.is_finite() && period_s > 0.0,
            "repetition period must be positive"
        );
        MotionClip {
            kind,
            period_s,
            jitter: 0.0,
        }
    }

    /// Sets the per-joint Gaussian jitter (standard deviation in scene
    /// units). Typical realistic values are `0.003 – 0.01`.
    pub fn with_jitter(mut self, sigma: f32) -> Self {
        assert!(sigma >= 0.0, "jitter must be non-negative");
        self.jitter = sigma;
        self
    }

    /// Ground-truth pose at the given phase (no jitter applied).
    pub fn pose_at_phase(&self, phase: f32) -> Pose {
        self.kind.pose_at_phase(phase)
    }

    /// Ground-truth pose at absolute time `t_ns` nanoseconds (no jitter).
    pub fn pose_at(&self, t_ns: u64) -> Pose {
        let t_s = t_ns as f64 / 1e9;
        let phase = if self.kind.is_cyclic() {
            (t_s / self.period_s).fract() as f32
        } else {
            (t_s / self.period_s).min(1.0) as f32
        };
        self.kind.pose_at_phase(phase)
    }

    /// Pose at time `t_ns` with this clip's jitter applied from `rng`.
    pub(crate) fn sample_at<R: Rng + ?Sized>(&self, t_ns: u64, rng: &mut R) -> Pose {
        let mut pose = self.pose_at(t_ns);
        if self.jitter > 0.0 {
            let mut kps = *pose.keypoints();
            for kp in &mut kps {
                kp.x += self.jitter * sample_gaussian(rng);
                kp.y += self.jitter * sample_gaussian(rng);
            }
            pose = Pose::new(kps);
        }
        pose
    }

    /// Generates a sequence of `n` poses sampled every `dt_ns` nanoseconds
    /// starting at `start_ns`, with jitter.
    pub fn sample_sequence<R: Rng + ?Sized>(
        &self,
        start_ns: u64,
        dt_ns: u64,
        n: usize,
        rng: &mut R,
    ) -> Vec<Pose> {
        (0..n)
            .map(|i| self.sample_at(start_ns + i as u64 * dt_ns, rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels_roundtrip() {
        for kind in ExerciseKind::ALL {
            assert_eq!(ExerciseKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(ExerciseKind::from_label("moonwalk"), None);
    }

    #[test]
    fn phase_zero_is_initial_position_for_cyclic_motions() {
        for kind in ExerciseKind::ALL.iter().filter(|k| k.is_cyclic()) {
            let p0 = kind.pose_at_phase(0.0);
            let p1 = kind.pose_at_phase(1.0); // wraps to 0
            assert!(
                p0.mean_joint_error(&p1) < 1e-4,
                "{kind:?} does not return to initial position"
            );
        }
    }

    #[test]
    fn squat_lowers_the_hips() {
        let top = ExerciseKind::Squat.pose_at_phase(0.0);
        let bottom = ExerciseKind::Squat.pose_at_phase(0.5);
        assert!(bottom.hip_center().y > top.hip_center().y + 0.1);
    }

    #[test]
    fn jumping_jack_raises_wrists_and_spreads_ankles() {
        let closed = ExerciseKind::JumpingJack.pose_at_phase(0.0);
        let open = ExerciseKind::JumpingJack.pose_at_phase(0.5);
        assert!(open.joint(Joint::LeftWrist).y < closed.joint(Joint::LeftWrist).y - 0.2);
        let spread_closed = closed.joint(Joint::LeftAnkle).x - closed.joint(Joint::RightAnkle).x;
        let spread_open = open.joint(Joint::LeftAnkle).x - open.joint(Joint::RightAnkle).x;
        assert!(spread_open > spread_closed + 0.1);
    }

    #[test]
    fn pushup_is_horizontal() {
        let plank = ExerciseKind::Pushup.pose_at_phase(0.0);
        let (_, y0, _, y1) = plank.bbox();
        let (x0, _, x1, _) = plank.bbox();
        assert!(x1 - x0 > (y1 - y0) * 1.5, "pushup pose should be wide");
    }

    #[test]
    fn clap_brings_wrists_together() {
        let apart = ExerciseKind::Clap.pose_at_phase(0.0);
        let together = ExerciseKind::Clap.pose_at_phase(0.5);
        let d_apart = apart
            .joint(Joint::LeftWrist)
            .distance(&apart.joint(Joint::RightWrist));
        let d_together = together
            .joint(Joint::LeftWrist)
            .distance(&together.joint(Joint::RightWrist));
        assert!(d_together < 0.1 && d_apart > 0.2);
    }

    #[test]
    fn fall_ends_horizontal_and_is_one_shot() {
        assert!(!ExerciseKind::Fall.is_cyclic());
        let upright = ExerciseKind::Fall.pose_at_phase(0.0);
        let down = ExerciseKind::Fall.pose_at_phase(0.999);
        let (ux0, uy0, ux1, uy1) = upright.bbox();
        let (dx0, dy0, dx1, dy1) = down.bbox();
        assert!((uy1 - uy0) > (ux1 - ux0), "upright should be tall");
        assert!((dx1 - dx0) > (dy1 - dy0), "fallen should be wide");
        // One-shot: past the period the pose stays down.
        let clip = MotionClip::new(ExerciseKind::Fall, 1.0);
        let after = clip.pose_at(5_000_000_000);
        assert!(after.mean_joint_error(&clip.pose_at(1_000_000_000)) < 1e-4);
    }

    #[test]
    fn idle_barely_moves() {
        let a = ExerciseKind::Idle.pose_at_phase(0.0);
        let b = ExerciseKind::Idle.pose_at_phase(0.5);
        assert!(a.mean_joint_error(&b) < 0.02);
    }

    #[test]
    fn distinct_kinds_produce_distinct_mid_poses() {
        // Mid-cycle poses must be pairwise distinguishable, otherwise the
        // activity classifier has an impossible task.
        let kinds = ExerciseKind::FITNESS;
        for (i, a) in kinds.iter().enumerate() {
            for b in kinds.iter().skip(i + 1) {
                let pa = a.pose_at_phase(0.5);
                let pb = b.pose_at_phase(0.5);
                assert!(
                    pa.mean_joint_error(&pb) > 0.02,
                    "{a:?} and {b:?} are too similar"
                );
            }
        }
    }

    #[test]
    fn clip_maps_time_to_phase() {
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
        let p0 = clip.pose_at(0);
        let p_half = clip.pose_at(1_000_000_000); // 1 s = half a period
        let p_full = clip.pose_at(2_000_000_000);
        assert!(p0.mean_joint_error(&p_full) < 1e-4);
        assert!(p0.mean_joint_error(&p_half) > 0.05);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = MotionClip::new(ExerciseKind::Squat, 0.0);
    }

    #[test]
    fn jitter_perturbs_but_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(42);
        let clip = MotionClip::new(ExerciseKind::Squat, 2.0).with_jitter(0.005);
        let clean = clip.pose_at(500_000_000);
        let noisy = clip.sample_at(500_000_000, &mut rng);
        let err = clean.mean_joint_error(&noisy);
        assert!(err > 0.0 && err < 0.05, "err {err}");
    }

    #[test]
    fn sample_sequence_has_requested_length_and_varies() {
        let mut rng = StdRng::seed_from_u64(7);
        let clip = MotionClip::new(ExerciseKind::Wave, 1.0).with_jitter(0.003);
        let seq = clip.sample_sequence(0, 33_000_000, 15, &mut rng);
        assert_eq!(seq.len(), 15);
        // The wave moves mostly the right wrist; check it sweeps.
        let w0 = seq[0].joint(Joint::RightWrist);
        let w4 = seq[4].joint(Joint::RightWrist);
        assert!(w0.distance(&w4) > 0.02, "wrist did not sweep");
    }

    #[test]
    fn gaussian_sample_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| sample_gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
