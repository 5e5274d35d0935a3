//! Synthetic labelled datasets for training and evaluating the classifiers.
//!
//! Paper §4.1.2: "The algorithm is trained on all available labelled data
//! except for a withheld test set." This module generates that labelled
//! data: pose windows sampled from the motion generators with per-sample
//! random phase offsets, periods and jitter, then split train/test.

use crate::features::{window_features, WINDOW_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use videopipe_media::motion::{ExerciseKind, MotionClip};
use videopipe_media::Pose;

/// A labelled pose-window dataset.
#[derive(Debug, Clone, Default)]
pub struct WindowDataset {
    /// Feature vectors (`WINDOW_DIM` long).
    pub features: Vec<Vec<f32>>,
    /// Class label per feature vector.
    pub labels: Vec<String>,
}

impl WindowDataset {
    /// Splits into `(train, test)` with the given test fraction, shuffled
    /// deterministically by `seed`.
    pub(crate) fn split(mut self, test_fraction: f64, seed: u64) -> (WindowDataset, WindowDataset) {
        assert!(
            (0.0..1.0).contains(&test_fraction),
            "test fraction must be in [0, 1)"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Fisher-Yates shuffle of index order.
        let n = self.features.len();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            self.features.swap(i, j);
            self.labels.swap(i, j);
        }
        let test_n = (n as f64 * test_fraction).round() as usize;
        let test = WindowDataset {
            features: self.features.split_off(n - test_n),
            labels: self.labels.split_off(n - test_n),
        };
        (self, test)
    }
}

/// Configuration of the dataset generator.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Windows generated per class.
    pub windows_per_class: usize,
    /// Sampling rate of the virtual camera (frames per second).
    pub fps: f64,
    /// Range of repetition periods, seconds (uniformly sampled per window).
    pub period_range: (f64, f64),
    /// Per-joint Gaussian jitter (scene units).
    pub jitter: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            windows_per_class: 120,
            fps: 15.0,
            period_range: (1.6, 2.8),
            jitter: 0.006,
            seed: 0xDA7A,
        }
    }
}

/// Generates a labelled window dataset over `classes`.
pub(crate) fn generate_windows(classes: &[ExerciseKind], config: &DatasetConfig) -> WindowDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let dt_ns = (1e9 / config.fps).round() as u64;
    let mut dataset = WindowDataset::default();
    for &class in classes {
        for _ in 0..config.windows_per_class {
            let period = rng.gen_range(config.period_range.0..config.period_range.1);
            let clip = MotionClip::new(class, period).with_jitter(config.jitter);
            // Random phase offset so windows cover the whole cycle.
            let start_ns = rng.gen_range(0..(period * 1e9) as u64);
            let poses = clip.sample_sequence(start_ns, dt_ns, WINDOW_LEN, &mut rng);
            let features = window_features(&poses).expect("window has WINDOW_LEN poses");
            dataset.features.push(features);
            dataset.labels.push(class.label().to_string());
        }
    }
    dataset
}

/// A labelled sequence of poses for rep-counting evaluation: the ground
/// truth is the number of completed repetitions.
#[derive(Debug, Clone)]
pub struct RepSequence {
    /// Poses sampled at the camera rate.
    pub poses: Vec<Pose>,
    /// Ground-truth completed repetitions.
    pub true_reps: u32,
    /// The exercise performed.
    pub kind: ExerciseKind,
}

/// Generates rep sequences: `reps` full cycles of `kind` sampled at `fps`,
/// with jitter.
pub fn generate_rep_sequence(
    kind: ExerciseKind,
    reps: u32,
    fps: f64,
    jitter: f32,
    seed: u64,
) -> RepSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let period = 2.0;
    let clip = MotionClip::new(kind, period).with_jitter(jitter);
    let dt_ns = (1e9 / fps).round() as u64;
    let total_ns = (f64::from(reps) * period * 1e9) as u64;
    let n = (total_ns / dt_ns) as usize + 1;
    let poses = clip.sample_sequence(0, dt_ns, n, &mut rng);
    RepSequence {
        poses,
        true_reps: reps,
        kind,
    }
}

#[cfg(test)]
impl WindowDataset {
    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.features.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::WINDOW_DIM;

    #[test]
    fn generates_requested_counts() {
        let config = DatasetConfig {
            windows_per_class: 10,
            ..DatasetConfig::default()
        };
        let ds = generate_windows(&ExerciseKind::FITNESS, &config);
        assert_eq!(ds.len(), 50);
        assert!(ds.features.iter().all(|f| f.len() == WINDOW_DIM));
        // Every class present.
        for kind in ExerciseKind::FITNESS {
            assert!(ds.labels.iter().any(|l| l == kind.label()));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let config = DatasetConfig {
            windows_per_class: 5,
            ..DatasetConfig::default()
        };
        let a = generate_windows(&[ExerciseKind::Squat], &config);
        let b = generate_windows(&[ExerciseKind::Squat], &config);
        assert_eq!(a.features, b.features);
    }

    #[test]
    fn split_preserves_totals_and_is_disjoint() {
        let config = DatasetConfig {
            windows_per_class: 20,
            ..DatasetConfig::default()
        };
        let ds = generate_windows(&[ExerciseKind::Squat, ExerciseKind::Wave], &config);
        let total = ds.len();
        let (train, test) = ds.split(0.25, 1);
        assert_eq!(train.len() + test.len(), total);
        assert_eq!(test.len(), 10);
        assert_eq!(train.features.len(), train.labels.len());
    }

    #[test]
    #[should_panic(expected = "test fraction")]
    fn split_rejects_bad_fraction() {
        let ds = WindowDataset::default();
        let _ = ds.split(1.0, 0);
    }

    #[test]
    fn rep_sequence_covers_requested_reps() {
        let seq = generate_rep_sequence(ExerciseKind::Squat, 5, 15.0, 0.004, 3);
        assert_eq!(seq.true_reps, 5);
        // 5 reps at 2 s each, 15 fps → ~150 poses.
        assert!(seq.poses.len() >= 145 && seq.poses.len() <= 155);
        assert_eq!(seq.kind, ExerciseKind::Squat);
    }
}
