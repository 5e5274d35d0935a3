//! Activity recognition over pose windows.
//!
//! Paper §4.1.2: a nearest-neighbour classifier over hip-normalised
//! 15-frame pose sequences, trained on all labelled data except a withheld
//! test set; test accuracy above 90%.

use crate::dataset::{generate_windows, DatasetConfig, WindowDataset};
use crate::features::{window_features, WINDOW_DIM};
use crate::knn::{KnnClassifier, KnnError};
use std::collections::BTreeSet;
use videopipe_media::motion::ExerciseKind;
use videopipe_media::Pose;

/// A trained activity model (a k-NN classifier plus its class list).
#[derive(Debug, Clone)]
pub struct ActivityModel {
    knn: KnnClassifier,
    classes: Vec<String>,
}

/// The §4.1.2 protocol's data: synthetic windows for `classes`, shuffled
/// and split into `(train, withheld test)` at 75 % / 25 %. Every trainer
/// below goes through this one split, so a deployed model and the model
/// whose test accuracy is reported are the same model.
pub fn synthetic_split(
    classes: &[ExerciseKind],
    config: &DatasetConfig,
) -> (WindowDataset, WindowDataset) {
    generate_windows(classes, config).split(0.25, config.seed ^ 0x7E57)
}

impl ActivityModel {
    /// Trains on an explicit dataset, which the model takes over (the
    /// feature vectors become the k-NN training set without a copy).
    ///
    /// # Errors
    ///
    /// Propagates [`KnnError`] for malformed datasets.
    pub fn train(k: usize, dataset: WindowDataset) -> Result<Self, KnnError> {
        let classes: BTreeSet<&String> = dataset.labels.iter().collect();
        let classes = classes.into_iter().cloned().collect();
        let knn = KnnClassifier::fit(k, dataset.features, dataset.labels)?;
        Ok(ActivityModel { knn, classes })
    }

    /// Trains the deployable model on the training side of
    /// [`synthetic_split`] and stops there: the withheld windows are not
    /// classified (see [`ActivityRecognizer::train_synthetic`] for the
    /// evaluated form — same split, so the same model).
    pub fn train_synthetic(classes: &[ExerciseKind], config: &DatasetConfig) -> Self {
        let (train, _withheld) = synthetic_split(classes, config);
        Self::train(ActivityRecognizer::DEFAULT_K, train).expect("synthetic dataset is valid")
    }

    /// The class labels the model can emit.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Number of memorised training windows.
    pub fn training_size(&self) -> usize {
        self.knn.len()
    }

    /// Classifies a pre-extracted feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`KnnError::DimensionMismatch`] when the vector is not
    /// `WINDOW_DIM` long.
    pub fn classify_features(&self, features: &[f32]) -> Result<&str, KnnError> {
        self.knn.predict(features)
    }

    /// Classifies a batch of pre-extracted feature vectors, one label per
    /// vector in order. Window features are high-dimensional and a trained
    /// set of hundreds of windows outgrows the cache, so this rides the
    /// k-NN bound-pruned search: per query, one pass over the training
    /// sketches, then exact distances for the rows they do not rule out.
    ///
    /// # Errors
    ///
    /// Returns [`KnnError::DimensionMismatch`] on the first wrong-sized
    /// vector.
    pub fn classify_features_batch<Q: AsRef<[f32]>>(
        &self,
        features: &[Q],
    ) -> Result<Vec<&str>, KnnError> {
        self.knn.predict_batch(features)
    }

    /// Classifies a window of [`WINDOW_LEN`](crate::features::WINDOW_LEN)
    /// poses. Returns `None` when the window length is wrong.
    pub fn classify_window(&self, window: &[Pose]) -> Option<String> {
        let features = window_features(window)?;
        self.classify_features(&features).ok().map(str::to_owned)
    }

    /// Accuracy over a labelled dataset.
    pub fn accuracy(&self, dataset: &WindowDataset) -> f32 {
        self.knn.accuracy(&dataset.features, &dataset.labels)
    }

    /// Feature dimensionality (always [`WINDOW_DIM`]).
    pub fn dim(&self) -> usize {
        WINDOW_DIM
    }
}

/// The full activity recogniser: training + evaluation convenience wrapper
/// used by the applications.
#[derive(Debug, Clone)]
pub struct ActivityRecognizer {
    model: ActivityModel,
    test_accuracy: f32,
}

impl ActivityRecognizer {
    /// Default number of neighbours.
    pub const DEFAULT_K: usize = 5;

    /// Trains a recogniser on synthetic data for `classes`, withholding a
    /// test set and recording its accuracy (the paper's >90% claim is
    /// checked in the evaluation harness).
    pub fn train_synthetic(classes: &[ExerciseKind], config: &DatasetConfig) -> Self {
        let (train, test) = synthetic_split(classes, config);
        let model =
            ActivityModel::train(Self::DEFAULT_K, train).expect("synthetic dataset is valid");
        let test_accuracy = model.accuracy(&test);
        ActivityRecognizer {
            model,
            test_accuracy,
        }
    }

    /// The trained model.
    pub fn model(&self) -> &ActivityModel {
        &self.model
    }

    /// Accuracy on the withheld test set measured at training time.
    pub fn test_accuracy(&self) -> f32 {
        self.test_accuracy
    }

    /// Classifies a pose window.
    pub fn classify_window(&self, window: &[Pose]) -> Option<String> {
        self.model.classify_window(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::WINDOW_LEN;
    use videopipe_media::motion::MotionClip;

    fn small_config() -> DatasetConfig {
        DatasetConfig {
            windows_per_class: 30,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn fitness_accuracy_exceeds_90_percent() {
        // The paper's §4.1.2 claim, on the withheld test set.
        let recognizer =
            ActivityRecognizer::train_synthetic(&ExerciseKind::FITNESS, &small_config());
        assert!(
            recognizer.test_accuracy() > 0.9,
            "accuracy {}",
            recognizer.test_accuracy()
        );
    }

    #[test]
    fn gesture_classes_are_recognised() {
        let recognizer =
            ActivityRecognizer::train_synthetic(&ExerciseKind::GESTURES, &small_config());
        let clip = MotionClip::new(ExerciseKind::Wave, 1.0);
        let window: Vec<Pose> = (0..WINDOW_LEN)
            .map(|i| clip.pose_at(i as u64 * 66_000_000))
            .collect();
        assert_eq!(recognizer.classify_window(&window).unwrap(), "wave");
    }

    #[test]
    fn classify_fresh_squat_window() {
        let recognizer =
            ActivityRecognizer::train_synthetic(&ExerciseKind::FITNESS, &small_config());
        let clip = MotionClip::new(ExerciseKind::Squat, 2.2);
        let window: Vec<Pose> = (0..WINDOW_LEN)
            .map(|i| clip.pose_at(i as u64 * 66_000_000))
            .collect();
        assert_eq!(recognizer.classify_window(&window).unwrap(), "squat");
    }

    #[test]
    fn wrong_window_length_yields_none() {
        let recognizer =
            ActivityRecognizer::train_synthetic(&[ExerciseKind::Squat], &small_config());
        assert!(recognizer
            .classify_window(&vec![Pose::default(); WINDOW_LEN - 1])
            .is_none());
    }

    #[test]
    fn model_lists_classes_sorted() {
        let recognizer =
            ActivityRecognizer::train_synthetic(&ExerciseKind::GESTURES, &small_config());
        let classes = recognizer.model().classes();
        assert_eq!(classes, &["clap", "idle", "wave"]);
    }

    #[test]
    fn classify_features_rejects_wrong_dim() {
        let recognizer =
            ActivityRecognizer::train_synthetic(&[ExerciseKind::Squat], &small_config());
        assert!(recognizer.model().classify_features(&[0.0; 3]).is_err());
    }

    #[test]
    fn batch_classification_matches_per_window() {
        use crate::features::window_features;
        let recognizer =
            ActivityRecognizer::train_synthetic(&ExerciseKind::FITNESS, &small_config());
        let model = recognizer.model();
        let mut features = Vec::new();
        for kind in [
            ExerciseKind::Squat,
            ExerciseKind::JumpingJack,
            ExerciseKind::Idle,
        ] {
            let clip = MotionClip::new(kind, 2.0);
            let window: Vec<Pose> = (0..WINDOW_LEN)
                .map(|i| clip.pose_at(i as u64 * 66_000_000))
                .collect();
            features.push(window_features(&window).unwrap());
        }
        let batch = model.classify_features_batch(&features).unwrap();
        for (f, &b) in features.iter().zip(batch.iter()) {
            assert_eq!(b, model.classify_features(f).unwrap());
        }
        assert!(model.classify_features_batch(&[vec![0.0; 3]]).is_err());
    }

    #[test]
    fn translation_invariance() {
        // The same motion performed elsewhere in the room classifies
        // identically thanks to hip normalisation.
        let recognizer =
            ActivityRecognizer::train_synthetic(&ExerciseKind::FITNESS, &small_config());
        let clip = MotionClip::new(ExerciseKind::JumpingJack, 2.0);
        let window: Vec<Pose> = (0..WINDOW_LEN)
            .map(|i| clip.pose_at(i as u64 * 66_000_000).translated(0.2, 0.05))
            .collect();
        assert_eq!(recognizer.classify_window(&window).unwrap(), "jumping_jack");
    }

    #[test]
    fn bounded_search_measures_a_fraction_of_the_deployed_model() {
        // The deployed fitness model (450 windows × 510 dims) queried by a
        // 2 s squat at the camera rate, replayed as a ring of 30 windows,
        // and by the withheld windows. Counting rows rather than timing
        // them: a search that falls back to scanning the whole model reads
        // 450 per query.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        const RING: usize = 30;
        const CEILING: f64 = 150.0;
        let config = DatasetConfig {
            seed: 42,
            ..DatasetConfig::default()
        };
        let (train, withheld) = synthetic_split(&ExerciseKind::FITNESS, &config);
        let model = ActivityModel::train(ActivityRecognizer::DEFAULT_K, train).unwrap();
        let poses = MotionClip::new(ExerciseKind::Squat, 2.0)
            .with_jitter(0.004)
            .sample_sequence(
                0,
                2_000_000_000 / RING as u64,
                RING,
                &mut StdRng::seed_from_u64(42),
            );
        let ring = (0..RING).map(|start| {
            let window: Vec<Pose> = (0..WINDOW_LEN)
                .map(|i| poses[(start + i) % RING].clone())
                .collect();
            window_features(&window).expect("full window")
        });
        let queries: Vec<Vec<f32>> = ring.chain(withheld.features).collect();
        let measured: Vec<usize> = queries
            .iter()
            .map(|q| model.knn.bounded_rows_measured(q).expect("bounded shape"))
            .collect();
        let mean = measured.iter().sum::<usize>() as f64 / measured.len() as f64;
        println!(
            "bounded k-NN on the fitness model: {mean:.1} of {} rows measured per query \
             (max {}, {} queries; ceiling {CEILING})",
            model.training_size(),
            measured.iter().max().unwrap(),
            measured.len(),
        );
        assert!(mean < CEILING, "mean {mean:.1} rows per query");
    }
}
