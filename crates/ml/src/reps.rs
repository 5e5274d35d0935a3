//! Repetition counting over pose streams.
//!
//! Paper §4.1.3: "We use k-means with k = 2 to classify the frames into a
//! cluster that occurs near the start of the exercise and a cluster that
//! occurs near the end … we require 4 frames to have transitioned to count a
//! state transition … We count a state transition from and back to the
//! initial state as a single rep."
//!
//! The *model* (two centroids plus which cluster is the initial position) is
//! pure data: it can be fitted by the stateless rep-counter service from a
//! calibration window and handed back to the module, which keeps the only
//! mutable state (the debounce counters) — preserving the paper's
//! stateless-service design.

use crate::features::frame_features;
use crate::kmeans::{KMeans, KMeansError, KMeansModel};
use videopipe_media::Pose;

/// Number of consecutive frames that must agree before a cluster transition
/// is committed (paper value).
pub(crate) const DEBOUNCE_FRAMES: usize = 4;

/// A fitted rep-counting model: the k = 2 clustering plus the identity of
/// the initial-position cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct RepCounterModel {
    kmeans: KMeansModel,
    initial_cluster: usize,
}

impl RepCounterModel {
    /// Fits the model from a calibration sequence of poses that starts at
    /// the exercise's initial position.
    ///
    /// # Errors
    ///
    /// Returns `KMeansError` when the calibration window is too small or
    /// degenerate.
    pub fn fit(calibration: &[Pose]) -> Result<Self, KMeansError> {
        let samples: Vec<Vec<f32>> = calibration.iter().map(frame_features).collect();
        let kmeans = KMeans::new(2).fit(&samples)?;
        // The initial cluster is the one the majority of the first
        // DEBOUNCE_FRAMES frames fall into (robust to a noisy first frame).
        let head = samples.len().min(DEBOUNCE_FRAMES);
        let votes: usize = samples[..head].iter().map(|s| kmeans.predict(s)).sum();
        let initial_cluster = usize::from(votes * 2 > head);
        Ok(RepCounterModel {
            kmeans,
            initial_cluster,
        })
    }

    /// Rebuilds a model from raw parts (wire transfer between module and
    /// service).
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is not a valid 2-cluster set or
    /// `initial_cluster > 1`.
    pub fn from_parts(centroids: Vec<Vec<f32>>, initial_cluster: usize) -> Self {
        assert_eq!(centroids.len(), 2, "rep counter model has k = 2");
        assert!(initial_cluster < 2, "initial cluster must be 0 or 1");
        RepCounterModel {
            kmeans: KMeansModel::from_centroids(centroids),
            initial_cluster,
        }
    }

    /// The two cluster centroids.
    pub fn centroids(&self) -> &[Vec<f32>] {
        self.kmeans.centroids()
    }

    /// Index (0 or 1) of the initial-position cluster.
    pub fn initial_cluster(&self) -> usize {
        self.initial_cluster
    }

    /// Classifies one pose into cluster 0 or 1. This is the pure
    /// computation the stateless service performs per frame.
    pub fn classify(&self, pose: &Pose) -> usize {
        self.kmeans.predict(&frame_features(pose))
    }
}

/// The online repetition counter (module-side state machine).
#[derive(Debug, Clone)]
pub struct RepCounter {
    model: RepCounterModel,
    debounce: usize,
    /// Committed cluster state.
    state: usize,
    /// Cluster observed by the pending transition.
    candidate: usize,
    /// Consecutive frames agreeing with `candidate`.
    candidate_run: usize,
    /// Completed repetitions.
    reps: u32,
    /// Whether we have left the initial state during the current rep.
    away_from_initial: bool,
}

impl RepCounter {
    /// Creates a counter from a fitted model with the paper's 4-frame
    /// debounce.
    pub fn new(model: RepCounterModel) -> Self {
        let state = model.initial_cluster();
        RepCounter {
            model,
            debounce: DEBOUNCE_FRAMES,
            state,
            candidate: state,
            candidate_run: 0,
            reps: 0,
            away_from_initial: false,
        }
    }

    /// The fitted model.
    pub fn model(&self) -> &RepCounterModel {
        &self.model
    }

    /// Completed repetitions so far.
    pub fn reps(&self) -> u32 {
        self.reps
    }

    /// Feeds one pose; returns `Some(new_total)` when a repetition
    /// completes on this frame.
    pub(crate) fn push(&mut self, pose: &Pose) -> Option<u32> {
        let cluster = self.model.classify(pose);
        self.push_cluster(cluster)
    }

    /// Feeds a pre-classified cluster id (the module uses this when the
    /// classification came back from the stateless service).
    pub fn push_cluster(&mut self, cluster: usize) -> Option<u32> {
        if cluster == self.state {
            // Observation agrees with committed state; reset any pending
            // transition (this is what suppresses alternating 0/1 chatter
            // near the cluster boundary).
            self.candidate_run = 0;
            return None;
        }
        if cluster == self.candidate && self.candidate_run > 0 {
            self.candidate_run += 1;
        } else {
            self.candidate = cluster;
            self.candidate_run = 1;
        }
        if self.candidate_run < self.debounce {
            return None;
        }
        // Commit the transition.
        self.state = self.candidate;
        self.candidate_run = 0;
        if self.state == self.model.initial_cluster() {
            if self.away_from_initial {
                self.away_from_initial = false;
                self.reps += 1;
                return Some(self.reps);
            }
        } else {
            self.away_from_initial = true;
        }
        None
    }

    /// The committed cluster state the machine is currently in.
    pub fn state(&self) -> usize {
        self.state
    }

    /// Whether the current (incomplete) rep has left the initial state.
    pub fn away_from_initial(&self) -> bool {
        self.away_from_initial
    }

    /// Rebuilds a counter from previously-saved progress — the complement
    /// of [`RepCounter::state`], [`RepCounter::away_from_initial`] and
    /// [`RepCounter::reps`], used by checkpoint restore after a failover.
    /// The transient debounce run is deliberately not part of the saved
    /// state: losing up to `debounce − 1` frames of a pending transition
    /// resumes the count *near* where it died, which is the contract.
    ///
    /// # Panics
    ///
    /// Panics unless `state < 2`.
    pub fn resume(
        model: RepCounterModel,
        state: usize,
        away_from_initial: bool,
        reps: u32,
    ) -> Self {
        assert!(state < 2, "cluster state must be 0 or 1");
        RepCounter {
            model,
            debounce: DEBOUNCE_FRAMES,
            state,
            candidate: state,
            candidate_run: 0,
            reps,
            away_from_initial,
        }
    }
}

/// Counts the reps in a complete sequence: fits the model on the first
/// `calibration_frames` poses, then streams the rest. Returns the final
/// count. Used by the accuracy evaluation (§4.1.3: 83.3%).
pub fn count_sequence(poses: &[Pose], calibration_frames: usize) -> Result<u32, KMeansError> {
    let calib = &poses[..calibration_frames.min(poses.len())];
    let model = RepCounterModel::fit(calib)?;
    let mut counter = RepCounter::new(model);
    for pose in poses {
        counter.push(pose);
    }
    Ok(counter.reps())
}

#[cfg(test)]
impl RepCounter {
    /// Overrides the debounce length (ablation experiments).
    pub(crate) fn with_debounce(mut self, frames: usize) -> Self {
        self.debounce = frames.max(1);
        self
    }

    /// Resets the rep count and state machine (model is kept).
    pub(crate) fn reset(&mut self) {
        self.state = self.model.initial_cluster();
        self.candidate = self.state;
        self.candidate_run = 0;
        self.reps = 0;
        self.away_from_initial = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::generate_rep_sequence;
    use videopipe_media::motion::ExerciseKind;

    /// One full squat cycle at 15 fps spans 30 frames (period 2 s).
    fn squat_poses(reps: u32, jitter: f32, seed: u64) -> Vec<Pose> {
        generate_rep_sequence(ExerciseKind::Squat, reps, 15.0, jitter, seed).poses
    }

    #[test]
    fn counts_clean_squats_exactly() {
        let poses = squat_poses(5, 0.0, 1);
        // Calibrate on one full cycle so both clusters are observed.
        let count = count_sequence(&poses, 30).unwrap();
        assert_eq!(count, 5);
    }

    #[test]
    fn counts_noisy_squats_approximately() {
        let mut correct = 0;
        let trials = 10;
        for seed in 0..trials {
            let poses = squat_poses(6, 0.008, seed);
            let count = count_sequence(&poses, 30).unwrap();
            if count == 6 {
                correct += 1;
            }
            assert!((4..=8).contains(&count), "count {count} way off");
        }
        assert!(correct >= 6, "only {correct}/{trials} exact");
    }

    #[test]
    fn debounce_suppresses_boundary_chatter() {
        let model = RepCounterModel::from_parts(vec![vec![0.0; 34], vec![1.0; 34]], 0);
        let mut counter = RepCounter::new(model);
        // Alternating 0/1 observations must never commit a transition.
        for _ in 0..50 {
            assert_eq!(counter.push_cluster(1), None);
            assert_eq!(counter.push_cluster(0), None);
        }
        assert_eq!(counter.reps(), 0);
    }

    #[test]
    fn full_cycle_counts_one_rep() {
        let model = RepCounterModel::from_parts(vec![vec![0.0; 34], vec![1.0; 34]], 0);
        let mut counter = RepCounter::new(model);
        // 4 frames away, then 4 frames back → one rep on the final commit.
        for _ in 0..4 {
            assert_eq!(counter.push_cluster(1), None);
        }
        let mut result = None;
        for _ in 0..4 {
            result = counter.push_cluster(0);
        }
        assert_eq!(result, Some(1));
        assert_eq!(counter.reps(), 1);
    }

    #[test]
    fn half_cycle_does_not_count() {
        let model = RepCounterModel::from_parts(vec![vec![0.0; 34], vec![1.0; 34]], 0);
        let mut counter = RepCounter::new(model);
        for _ in 0..10 {
            counter.push_cluster(1);
        }
        assert_eq!(counter.reps(), 0);
    }

    #[test]
    fn reset_clears_progress() {
        let model = RepCounterModel::from_parts(vec![vec![0.0; 34], vec![1.0; 34]], 0);
        let mut counter = RepCounter::new(model);
        for _ in 0..4 {
            counter.push_cluster(1);
        }
        for _ in 0..4 {
            counter.push_cluster(0);
        }
        assert_eq!(counter.reps(), 1);
        counter.reset();
        assert_eq!(counter.reps(), 0);
        // And counting still works after reset.
        for _ in 0..4 {
            counter.push_cluster(1);
        }
        for _ in 0..4 {
            counter.push_cluster(0);
        }
        assert_eq!(counter.reps(), 1);
    }

    #[test]
    fn custom_debounce_length() {
        let model = RepCounterModel::from_parts(vec![vec![0.0; 34], vec![1.0; 34]], 0);
        let mut counter = RepCounter::new(model).with_debounce(2);
        counter.push_cluster(1);
        assert_eq!(counter.push_cluster(1), None); // committed away
        counter.push_cluster(0);
        assert_eq!(counter.push_cluster(0), Some(1));
    }

    #[test]
    fn model_fit_identifies_initial_cluster() {
        let poses = squat_poses(3, 0.0, 2);
        let model = RepCounterModel::fit(&poses[..30]).unwrap();
        // The first frames are the standing position by construction.
        assert_eq!(model.classify(&poses[0]), model.initial_cluster());
        // Mid-rep (frame 15 of 30) is the squat bottom: the other cluster.
        assert_ne!(model.classify(&poses[15]), model.initial_cluster());
    }

    #[test]
    fn fit_rejects_tiny_calibration() {
        assert!(RepCounterModel::fit(&[Pose::default()]).is_err());
    }

    #[test]
    fn from_parts_validates() {
        let model = RepCounterModel::from_parts(vec![vec![0.0], vec![1.0]], 1);
        assert_eq!(model.initial_cluster(), 1);
        assert_eq!(model.centroids().len(), 2);
    }

    #[test]
    #[should_panic(expected = "k = 2")]
    fn from_parts_rejects_wrong_k() {
        let _ = RepCounterModel::from_parts(vec![vec![0.0]], 0);
    }

    #[test]
    fn resume_continues_mid_exercise_progress() {
        let model = RepCounterModel::from_parts(vec![vec![0.0; 34], vec![1.0; 34]], 0);
        let mut counter = RepCounter::new(model.clone());
        for _ in 0..4 {
            counter.push_cluster(1);
        }
        for _ in 0..4 {
            counter.push_cluster(0);
        }
        // One rep done, and we are 4 frames into the next one (away).
        for _ in 0..4 {
            counter.push_cluster(1);
        }
        assert_eq!(counter.reps(), 1);
        assert!(counter.away_from_initial());

        let mut resumed = RepCounter::resume(
            model,
            counter.state(),
            counter.away_from_initial(),
            counter.reps(),
        );
        assert_eq!(resumed.reps(), 1);
        // Completing the in-progress rep counts from the restored state.
        let mut result = None;
        for _ in 0..4 {
            result = resumed.push_cluster(0);
        }
        assert_eq!(result, Some(2));
    }

    #[test]
    fn works_for_other_exercises() {
        for kind in [ExerciseKind::JumpingJack, ExerciseKind::ArmRaise] {
            let seq = generate_rep_sequence(kind, 4, 15.0, 0.0, 9);
            let count = count_sequence(&seq.poses, 30).unwrap();
            assert_eq!(count, 4, "{kind:?}");
        }
    }
}
