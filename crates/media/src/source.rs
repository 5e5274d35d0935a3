use crate::frame::Frame;
use crate::motion::MotionClip;
use crate::scene::{SceneObject, SceneRenderer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Configuration of a synthetic video source (the stand-in for the paper's
/// phone camera).
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Frames per second offered by the camera.
    pub fps: f64,
    /// Time to capture/load one frame once admitted (the paper's "Load
    /// Frame" stage has nonzero cost; calibrated ≈ 20 ms).
    pub capture_overhead_ns: u64,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Sensor noise standard deviation in intensity levels.
    pub noise_sigma: f32,
    /// RNG seed for noise and motion jitter (determinism).
    pub seed: u64,
}

impl SourceConfig {
    /// A typical configuration: 320×240 @ 30 FPS, light sensor noise.
    pub fn new(fps: f64) -> Self {
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        SourceConfig {
            fps,
            capture_overhead_ns: 20_000_000,
            width: 320,
            height: 240,
            noise_sigma: 2.0,
            seed: 0xC0FFEE,
        }
    }

    /// Sets the frame resolution.
    pub fn with_resolution(mut self, width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "resolution must be nonzero");
        self.width = width;
        self.height = height;
        self
    }

    /// Sets the sensor noise level.
    pub fn with_noise(mut self, sigma: f32) -> Self {
        assert!(sigma >= 0.0, "noise must be non-negative");
        self.noise_sigma = sigma;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A deterministic synthetic video source: a [`MotionClip`] performed in
/// front of a virtual camera.
///
/// The source is *pull-based* to match the paper's flow control: the runtime
/// decides (via the credit controller) when a camera tick is admitted into
/// the pipeline and then calls [`SyntheticVideoSource::capture`] with the
/// tick's timestamp.
pub struct SyntheticVideoSource {
    config: SourceConfig,
    clip: MotionClip,
    renderer: SceneRenderer,
    objects: Vec<SceneObject>,
    rng: StdRng,
    next_seq: u64,
}

impl SyntheticVideoSource {
    /// Creates a source producing frames of `clip` under `config`.
    pub fn new(config: SourceConfig, clip: MotionClip) -> Self {
        let renderer = SceneRenderer::new(config.width, config.height);
        let rng = StdRng::seed_from_u64(config.seed);
        SyntheticVideoSource {
            config,
            clip,
            renderer,
            objects: Vec::new(),
            rng,
            next_seq: 0,
        }
    }

    /// Captures the frame at absolute time `t_ns`, assigning the next
    /// sequence number.
    ///
    /// Rendering happens here (real pixels every time); the *timing* cost of
    /// capture is [`SourceConfig::capture_overhead_ns`] and is accounted by
    /// the runtime, not by wall-clock time spent in this call.
    pub fn capture(&mut self, t_ns: u64) -> Frame {
        let pose = self.clip.sample_at(t_ns, &mut self.rng);
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.objects.is_empty() && self.config.noise_sigma > 0.0 {
            self.renderer
                .render_noisy(&pose, self.config.noise_sigma, &mut self.rng, seq, t_ns)
        } else if self.objects.is_empty() {
            self.renderer.render(&pose, seq, t_ns)
        } else {
            // Objects + noise: render scene then perturb.
            let frame = self.renderer.render_scene(&pose, &self.objects, seq, t_ns);
            if self.config.noise_sigma > 0.0 {
                let mut buf = frame.to_buf();
                crate::scene::add_noise(&mut buf, self.config.noise_sigma, &mut self.rng);
                buf.freeze(seq, t_ns)
            } else {
                frame
            }
        }
    }

    /// The ground-truth pose at time `t_ns` (no jitter) — used by accuracy
    /// evaluations to compare detector output against truth.
    pub fn ground_truth_pose(&self, t_ns: u64) -> crate::pose::Pose {
        self.clip.pose_at(t_ns)
    }
}

impl fmt::Debug for SyntheticVideoSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyntheticVideoSource")
            .field("config", &self.config)
            .field("clip", &self.clip)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
impl SyntheticVideoSource {
    /// Adds static scene objects (for object-detection pipelines).
    pub(crate) fn with_objects(mut self, objects: Vec<SceneObject>) -> Self {
        self.objects = objects;
        self
    }

    /// Number of frames captured so far.
    pub(crate) fn frames_captured(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
impl SourceConfig {
    /// Interval between consecutive camera frames, in nanoseconds.
    pub(crate) fn frame_interval_ns(&self) -> u64 {
        (1e9 / self.fps).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::ExerciseKind;

    fn source(fps: f64) -> SyntheticVideoSource {
        SyntheticVideoSource::new(
            SourceConfig::new(fps).with_noise(0.0),
            MotionClip::new(ExerciseKind::Squat, 2.0),
        )
    }

    #[test]
    fn frame_interval_matches_fps() {
        assert_eq!(SourceConfig::new(5.0).frame_interval_ns(), 200_000_000);
        assert_eq!(SourceConfig::new(30.0).frame_interval_ns(), 33_333_333);
        assert_eq!(SourceConfig::new(60.0).frame_interval_ns(), 16_666_667);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fps_panics() {
        let _ = SourceConfig::new(0.0);
    }

    #[test]
    fn capture_assigns_sequential_seq_numbers() {
        let mut src = source(30.0);
        let f0 = src.capture(0);
        let f1 = src.capture(33_000_000);
        assert_eq!(f0.seq(), 0);
        assert_eq!(f1.seq(), 1);
        assert_eq!(f1.timestamp_ns(), 33_000_000);
        assert_eq!(src.frames_captured(), 2);
    }

    #[test]
    fn capture_uses_configured_resolution() {
        let config = SourceConfig::new(10.0)
            .with_resolution(128, 96)
            .with_noise(0.0);
        let mut src = SyntheticVideoSource::new(config, MotionClip::new(ExerciseKind::Idle, 2.0));
        let frame = src.capture(0);
        assert_eq!((frame.width(), frame.height()), (128, 96));
    }

    #[test]
    fn motion_advances_between_frames() {
        let mut src = source(30.0);
        let top = src.capture(0);
        let bottom = src.capture(1_000_000_000); // half a squat period
        assert!(top.mean_abs_diff(&bottom) > 0.1, "figure did not move");
    }

    #[test]
    fn same_seed_same_frames() {
        let mut a = SyntheticVideoSource::new(
            SourceConfig::new(30.0).with_seed(7),
            MotionClip::new(ExerciseKind::Wave, 1.0).with_jitter(0.004),
        );
        let mut b = SyntheticVideoSource::new(
            SourceConfig::new(30.0).with_seed(7),
            MotionClip::new(ExerciseKind::Wave, 1.0).with_jitter(0.004),
        );
        for i in 0..5 {
            let t = i * 33_000_000;
            assert_eq!(a.capture(t).pixels(), b.capture(t).pixels());
        }
    }

    #[test]
    fn different_seeds_differ_with_noise() {
        let mk = |seed| {
            SyntheticVideoSource::new(
                SourceConfig::new(30.0).with_seed(seed).with_noise(3.0),
                MotionClip::new(ExerciseKind::Idle, 2.0),
            )
        };
        let (mut a, mut b) = (mk(1), mk(2));
        assert_ne!(a.capture(0).pixels(), b.capture(0).pixels());
    }

    #[test]
    fn objects_appear_in_captured_frames() {
        let config = SourceConfig::new(10.0).with_noise(0.0);
        let mut src = SyntheticVideoSource::new(config, MotionClip::new(ExerciseKind::Idle, 2.0))
            .with_objects(vec![SceneObject::Rect {
                x: 0.02,
                y: 0.02,
                w: 0.1,
                h: 0.1,
                intensity: 251,
            }]);
        let frame = src.capture(0);
        assert!(frame.pixels().contains(&251));
    }

    #[test]
    fn ground_truth_matches_clip() {
        let src = source(30.0);
        let truth = src.ground_truth_pose(500_000_000);
        let expected = MotionClip::new(ExerciseKind::Squat, 2.0).pose_at(500_000_000);
        assert_eq!(truth, expected);
    }
}
