//! From-scratch machine-learning substrates for VideoPipe.
//!
//! The paper's stateless services wrap "computationally expensive tasks such
//! as object detection, pose detection and image classification". No ML
//! inference crates are assumed: everything here is implemented directly on
//! the raster frames and pose streams from `videopipe-media`.
//!
//! * `kmeans` — Lloyd's algorithm with k-means++ initialisation. Used by
//!   the rep counter (paper §4.1.3: *k-means with k = 2*).
//! * `knn` — brute-force and KD-tree k-nearest-neighbour classification.
//!   Used by the activity recogniser (paper §4.1.2: *nearest neighbor on
//!   pose sequences*).
//! * `pose` — the 2D pose detector: scans a frame for intensity-coded
//!   joint blobs and recovers the 17 keypoints plus a bounding box.
//! * `features` — pose-window feature extraction (15 consecutive frames,
//!   hip-centred normalisation, exactly as §4.1.2 describes).
//! * `activity` — the activity recogniser built on `knn`.
//! * `reps` — the repetition counter built on `kmeans` with the paper's
//!   4-frame debounce rule.
//! * `objects` — connected-component object detection over intensity
//!   thresholds.
//! * `faces` — a head-disc face detector (the synthetic analogue of a
//!   Haar-style detector).
//! * `classify` — a nearest-centroid image classifier on downsampled
//!   intensity features.
//! * `track` — greedy IoU multi-object tracking.
//! * `fall` — fall detection over pose streams (paper §4.3).
//! * `dataset` — synthetic labelled dataset generation used to train and
//!   evaluate the classifiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod activity;
mod classify;
mod dataset;
mod faces;
mod fall;
mod features;
mod kmeans;
mod knn;
pub mod math;
mod objects;
mod pose;
mod reps;
mod track;

pub use activity::{synthetic_split, ActivityModel, ActivityRecognizer};
pub use classify::ImageClassifier;
pub use dataset::{generate_rep_sequence, DatasetConfig, WindowDataset};
pub use faces::FaceDetector;
pub use fall::{FallDetector, FallState};
pub use features::{window_features, PoseWindow, WINDOW_LEN};
pub use kmeans::{KMeans, KMeansModel};
pub use knn::{KdTree, KnnClassifier, BOUNDED_MIN_BYTES};
pub use objects::ObjectDetector;
pub use pose::{detection_error, DetectedPose, PoseDetector};
pub use reps::{count_sequence, RepCounter, RepCounterModel};
pub use track::IouTracker;
