//! Training and accuracy evaluation for the learned services.
//!
//! Paper §4.1.2: "The algorithm is trained on all available labelled data
//! except for a withheld test set. The test accuracy on a withheld test set
//! was above 90%." — reproduced by [`activity_test_accuracy`].
//!
//! Paper §4.1.3: "On our withheld test set, 83.3% accuracy is achieved." —
//! reproduced by [`rep_counter_accuracy`], which counts synthetic rep
//! sequences under pose jitter and scores exact-count trials.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use videopipe_media::codec::{self, Quality};
use videopipe_media::motion::{ExerciseKind, MotionClip};
use videopipe_media::scene::SceneRenderer;
use videopipe_ml::activity::{synthetic_split, ActivityModel, ActivityRecognizer};
use videopipe_ml::dataset::{generate_rep_sequence, DatasetConfig};
use videopipe_ml::features::WINDOW_LEN;
use videopipe_ml::reps::count_sequence;
use videopipe_ml::PoseDetector;

/// Trains the fitness activity classifier (five exercise classes). This is
/// what every deploy runs, so it trains and nothing else — the withheld
/// test set is [`activity_test_accuracy`]'s business.
pub fn trained_fitness_classifier(seed: u64) -> ActivityModel {
    let config = DatasetConfig {
        seed,
        ..DatasetConfig::default()
    };
    ActivityModel::train_synthetic(&ExerciseKind::FITNESS, &config)
}

/// Trains the gesture classifier (wave / clap / idle).
pub fn trained_gesture_classifier(seed: u64) -> ActivityModel {
    let config = DatasetConfig {
        seed: seed ^ 0x6E57,
        ..DatasetConfig::default()
    };
    ActivityModel::train_synthetic(&ExerciseKind::GESTURES, &config)
}

/// Trains on `classes` and reports accuracy on the withheld test set
/// (the paper's §4.1.2 protocol).
pub fn activity_test_accuracy(classes: &[ExerciseKind], seed: u64) -> f32 {
    let config = DatasetConfig {
        seed,
        ..DatasetConfig::default()
    };
    ActivityRecognizer::train_synthetic(classes, &config).test_accuracy()
}

/// The §4.1.2 protocol evaluated *through the codec*: each test window is
/// rendered to frames, encode→decode roundtripped at `quality`, and the
/// poses re-detected from the decoded rasters before classification. The
/// model itself is trained exactly as [`activity_test_accuracy`] trains it
/// (on clean poses); only the evaluation path carries the transport, so
/// the delta against the clean number prices the SLO controller's
/// codec-quality knob rather than hand-waving it.
///
/// `windows_per_class` trades evaluation fidelity for runtime (the bench
/// quick mode shrinks it).
pub fn activity_test_accuracy_at_quality(
    classes: &[ExerciseKind],
    seed: u64,
    quality: Quality,
    windows_per_class: usize,
) -> f32 {
    let config = DatasetConfig {
        seed,
        ..DatasetConfig::default()
    };
    let model = ActivityModel::train_synthetic(classes, &config);
    let renderer = SceneRenderer::new(320, 240);
    let detector = PoseDetector::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DEC);
    let dt_ns = (1e9 / config.fps).round() as u64;
    let mut correct = 0u32;
    let mut total = 0u32;
    for &class in classes {
        for _ in 0..windows_per_class {
            let period = rng.gen_range(config.period_range.0..config.period_range.1);
            let clip = MotionClip::new(class, period).with_jitter(config.jitter);
            let start_ns = rng.gen_range(0..(period * 1e9) as u64);
            let truth = clip.sample_sequence(start_ns, dt_ns, WINDOW_LEN, &mut rng);
            let mut window = Vec::with_capacity(WINDOW_LEN);
            for (i, pose) in truth.iter().enumerate() {
                let frame = renderer.render(pose, i as u64, start_ns + i as u64 * dt_ns);
                let decoded =
                    codec::decode(&codec::encode(&frame, quality)).expect("codec roundtrip");
                // A misdetection repeats the last usable pose — the
                // classifier pays for the frozen frame, exactly as the
                // live pipeline would.
                let recovered = detector
                    .detect(&decoded)
                    .map(|d| d.pose)
                    .or_else(|| window.last().cloned())
                    .unwrap_or_default();
                window.push(recovered);
            }
            total += 1;
            if model.classify_window(&window).as_deref() == Some(class.label()) {
                correct += 1;
            }
        }
    }
    correct as f32 / total.max(1) as f32
}

/// Per-class test accuracy, for the accuracy-evaluation bench.
pub fn activity_per_class_accuracy(classes: &[ExerciseKind], seed: u64) -> Vec<(String, f32)> {
    let config = DatasetConfig {
        seed,
        ..DatasetConfig::default()
    };
    let (train, test) = synthetic_split(classes, &config);
    let model = ActivityModel::train(ActivityRecognizer::DEFAULT_K, train)
        .expect("synthetic dataset is valid");
    classes
        .iter()
        .map(|class| {
            let label = class.label();
            let (features, labels): (Vec<_>, Vec<_>) = test
                .features
                .iter()
                .zip(test.labels.iter())
                .filter(|(_, l)| l.as_str() == label)
                .map(|(f, l)| (f.clone(), l.clone()))
                .unzip();
            let subset = videopipe_ml::dataset::WindowDataset { features, labels };
            (label.to_string(), model.accuracy(&subset))
        })
        .collect()
}

/// Result of the rep-counter accuracy evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepAccuracyReport {
    /// Trials evaluated.
    pub trials: u32,
    /// Trials counted exactly right.
    pub exact: u32,
    /// `exact / trials`.
    pub accuracy: f32,
    /// Mean absolute counting error in reps.
    pub mean_abs_error: f32,
}

/// Counts noisy synthetic rep sequences (6 reps each, mixed exercises) and
/// scores the fraction counted exactly (the paper's §4.1.3 metric).
pub fn rep_counter_accuracy(trials: u32, jitter: f32, seed: u64) -> RepAccuracyReport {
    let kinds = [
        ExerciseKind::Squat,
        ExerciseKind::JumpingJack,
        ExerciseKind::ArmRaise,
    ];
    let mut exact = 0;
    let mut abs_err = 0.0f32;
    for t in 0..trials {
        let kind = kinds[t as usize % kinds.len()];
        let true_reps = 6;
        let seq = generate_rep_sequence(kind, true_reps, 15.0, jitter, seed + u64::from(t));
        let counted = count_sequence(&seq.poses, 30).unwrap_or(0);
        if counted == true_reps {
            exact += 1;
        }
        abs_err += (counted as f32 - true_reps as f32).abs();
    }
    RepAccuracyReport {
        trials,
        exact,
        accuracy: exact as f32 / trials.max(1) as f32,
        mean_abs_error: abs_err / trials.max(1) as f32,
    }
}

/// The jitter level at which the rep counter lands near the paper's 83.3%
/// (between the 0.038 → 96% and 0.045 → 67% cliffs of the synthetic
/// motions; see the accuracy bench for the measured sweep).
pub const PAPER_REP_JITTER: f32 = 0.040;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitness_accuracy_above_90() {
        let acc = activity_test_accuracy(&ExerciseKind::FITNESS, 42);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn gesture_accuracy_above_90() {
        let acc = activity_test_accuracy(&ExerciseKind::GESTURES, 42);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn per_class_accuracy_covers_all_classes() {
        let rows = activity_per_class_accuracy(&ExerciseKind::GESTURES, 7);
        assert_eq!(rows.len(), 3);
        for (label, acc) in rows {
            assert!(acc > 0.5, "{label} accuracy {acc}");
        }
    }

    #[test]
    fn rep_accuracy_clean_sequences_are_exact() {
        let report = rep_counter_accuracy(6, 0.0, 1);
        assert_eq!(report.exact, report.trials);
        assert_eq!(report.mean_abs_error, 0.0);
    }

    #[test]
    fn rep_accuracy_degrades_with_jitter() {
        let clean = rep_counter_accuracy(12, 0.0, 3);
        let noisy = rep_counter_accuracy(12, 0.03, 3);
        assert!(noisy.accuracy <= clean.accuracy);
    }

    #[test]
    fn paper_jitter_lands_near_83_percent() {
        let report = rep_counter_accuracy(24, PAPER_REP_JITTER, 42);
        assert!(
            (0.6..=0.95).contains(&report.accuracy),
            "accuracy {} should be imperfect but usable (paper: 83.3%)",
            report.accuracy
        );
    }

    #[test]
    fn codec_quality_costs_accuracy_not_more_than_clean() {
        // Default quality (shift 2) preserves the joint bands, so the
        // end-to-end number stays usable; the deep SLO rung (shift 6)
        // may cost accuracy but can never gain it.
        let clean =
            activity_test_accuracy_at_quality(&ExerciseKind::GESTURES, 42, Quality::default(), 6);
        let degraded =
            activity_test_accuracy_at_quality(&ExerciseKind::GESTURES, 42, Quality::new(6), 6);
        assert!(clean > 0.5, "clean end-to-end accuracy {clean}");
        assert!(
            degraded <= clean,
            "quantisation cannot add information: {degraded} > {clean}"
        );
    }

    #[test]
    fn trained_models_have_expected_classes() {
        let fitness = trained_fitness_classifier(1);
        assert_eq!(fitness.classes().len(), 5);
        let gesture = trained_gesture_classifier(1);
        assert_eq!(gesture.classes().len(), 3);
        assert!(gesture.classes().iter().any(|c| c == "wave"));
    }
}
