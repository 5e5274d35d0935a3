//! Lloyd's k-means with k-means++ initialisation.
//!
//! The rep counter (paper §4.1.3) uses *k-means with k = 2* to split pose
//! frames into a cluster near the start of the exercise and a cluster near
//! the end. This module is a general fixed-`k` implementation; the rep
//! counter instantiates it with `k = 2`.

use crate::math::{argmin, distances_block_into, squared_distance, PointBlock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Errors from k-means training.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KMeansError {
    /// Fewer samples than clusters.
    TooFewSamples {
        /// Samples provided.
        samples: usize,
        /// Clusters requested.
        k: usize,
    },
    /// Samples have inconsistent dimensionality.
    DimensionMismatch {
        /// Dimension of the first sample.
        expected: usize,
        /// Dimension of the offending sample.
        actual: usize,
    },
    /// `k` was zero.
    ZeroK,
    /// A sample contained a non-finite value.
    NonFiniteSample,
}

impl fmt::Display for KMeansError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KMeansError::TooFewSamples { samples, k } => {
                write!(f, "k-means needs at least {k} samples, got {samples}")
            }
            KMeansError::DimensionMismatch { expected, actual } => {
                write!(f, "sample dimension {actual} does not match {expected}")
            }
            KMeansError::ZeroK => write!(f, "k must be at least 1"),
            KMeansError::NonFiniteSample => write!(f, "samples must be finite"),
        }
    }
}

impl Error for KMeansError {}

/// k-means trainer configuration.
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    seed: u64,
}

impl KMeans {
    /// Creates a trainer for `k` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (use [`KMeans::fit`]'s error path for dynamic `k`
    /// by constructing with `new_checked`-style call sites).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        KMeans {
            k,
            max_iters: 100,
            seed: 0x5EED,
        }
    }

    /// Sets the RNG seed for k-means++ initialisation (default fixed, so
    /// training is deterministic).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains on `samples` (each an equal-length feature vector).
    ///
    /// # Errors
    ///
    /// Returns `KMeansError` when samples are fewer than `k`, dimensions
    /// are inconsistent, or any value is non-finite.
    pub fn fit(&self, samples: &[Vec<f32>]) -> Result<KMeansModel, KMeansError> {
        if samples.len() < self.k {
            return Err(KMeansError::TooFewSamples {
                samples: samples.len(),
                k: self.k,
            });
        }
        let dim = samples[0].len();
        for s in samples {
            if s.len() != dim {
                return Err(KMeansError::DimensionMismatch {
                    expected: dim,
                    actual: s.len(),
                });
            }
            if s.iter().any(|v| !v.is_finite()) {
                return Err(KMeansError::NonFiniteSample);
            }
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut centroids = kmeans_pp_init(samples, self.k, &mut rng);
        let mut assignments = vec![0usize; samples.len()];
        let mut dists: Vec<f32> = Vec::new();
        let mut best_dist = vec![0.0f32; samples.len()];
        let mut best_centroid = vec![0usize; samples.len()];
        // The samples never change across iterations, so their column-major
        // copy and squared norms are frozen once; each assignment pass then
        // costs only the row-parallel distance walk with the centroids as
        // queries (k wide rows of samples.len() contiguous floats each).
        let block = PointBlock::new(samples);

        for _ in 0..self.max_iters {
            // Assignment step: one fused k × n distance matrix, then a
            // column-wise running min so ties keep the lower centroid index
            // (matching `argmin`). Both buffers are reused across iterations.
            distances_block_into(&centroids, &block, &mut dists);
            let mut changed = false;
            let (first_row, rest) = dists.split_at(samples.len());
            best_dist.copy_from_slice(first_row);
            best_centroid.fill(0);
            for (c, row) in rest.chunks_exact(samples.len()).enumerate() {
                for ((b, a), &d) in best_dist.iter_mut().zip(&mut best_centroid).zip(row) {
                    if d < *b {
                        *b = d;
                        *a = c + 1;
                    }
                }
            }
            for (slot, &best) in assignments.iter_mut().zip(&best_centroid) {
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            // Update step.
            let mut sums = vec![vec![0.0f64; dim]; self.k];
            let mut counts = vec![0usize; self.k];
            for (s, &a) in samples.iter().zip(assignments.iter()) {
                counts[a] += 1;
                for (acc, v) in sums[a].iter_mut().zip(s.iter()) {
                    *acc += f64::from(*v);
                }
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(counts.iter())) {
                if count > 0 {
                    for (cv, sv) in c.iter_mut().zip(sum.iter()) {
                        *cv = (*sv / count as f64) as f32;
                    }
                }
                // Empty clusters keep their previous centroid.
            }
            if !changed {
                break;
            }
        }

        Ok(KMeansModel { centroids })
    }
}

/// k-means++ seeding: first centroid uniform, the rest proportional to the
/// squared distance to the nearest already-chosen centroid.
fn kmeans_pp_init(samples: &[Vec<f32>], k: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(samples[rng.gen_range(0..samples.len())].clone());
    while centroids.len() < k {
        let weights: Vec<f32> = samples
            .iter()
            .map(|s| {
                centroids
                    .iter()
                    .map(|c| squared_distance(s, c))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect();
        let total: f32 = weights.iter().sum();
        if total <= 0.0 {
            // All remaining samples coincide with chosen centroids; duplicate
            // an arbitrary sample (degenerate but valid).
            centroids.push(samples[rng.gen_range(0..samples.len())].clone());
            continue;
        }
        let mut target = rng.gen::<f32>() * total;
        let mut chosen = samples.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            if target <= *w {
                chosen = i;
                break;
            }
            target -= w;
        }
        centroids.push(samples[chosen].clone());
    }
    centroids
}

/// A trained k-means model: the final centroids.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansModel {
    centroids: Vec<Vec<f32>>,
}

impl KMeansModel {
    /// Builds a model directly from centroids (used by the wire codec when a
    /// trained model is shipped to a stateless service).
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty or dimensions are inconsistent.
    pub(crate) fn from_centroids(centroids: Vec<Vec<f32>>) -> Self {
        assert!(!centroids.is_empty(), "model needs at least one centroid");
        let dim = centroids[0].len();
        assert!(
            centroids.iter().all(|c| c.len() == dim),
            "centroid dimensions inconsistent"
        );
        KMeansModel { centroids }
    }

    /// The cluster centroids.
    pub fn centroids(&self) -> &[Vec<f32>] {
        &self.centroids
    }

    /// Index of the nearest centroid to `sample`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `sample` has the wrong dimension.
    pub fn predict(&self, sample: &[f32]) -> usize {
        let dists: Vec<f32> = self
            .centroids
            .iter()
            .map(|c| squared_distance(sample, c))
            .collect();
        argmin(&dists).expect("model has at least one centroid")
    }
}

#[cfg(test)]
impl KMeansModel {
    /// Sum of squared distances of each sample to its assigned centroid.
    pub(crate) fn inertia(&self, samples: &[Vec<f32>]) -> f32 {
        samples
            .iter()
            .map(|s| {
                self.centroids
                    .iter()
                    .map(|c| squared_distance(s, c))
                    .fold(f32::INFINITY, f32::min)
            })
            .sum()
    }

    /// Number of clusters.
    pub(crate) fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Feature dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.centroids[0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for i in 0..20 {
            let j = i as f32 * 0.01;
            out.push(vec![0.0 + j, 0.0 - j]);
            out.push(vec![10.0 - j, 10.0 + j]);
        }
        out
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let model = KMeans::new(2).fit(&data).unwrap();
        let a = model.predict(&[0.05, 0.05]);
        let b = model.predict(&[9.9, 9.9]);
        assert_ne!(a, b);
        // All points of a blob map to the same cluster.
        for i in 0..20 {
            assert_eq!(model.predict(&data[2 * i]), a);
            assert_eq!(model.predict(&data[2 * i + 1]), b);
        }
    }

    #[test]
    fn centroids_near_blob_centers() {
        let model = KMeans::new(2).fit(&two_blobs()).unwrap();
        let mut cs: Vec<_> = model.centroids().to_vec();
        cs.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert!(cs[0][0] < 1.0 && cs[1][0] > 9.0);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = two_blobs();
        let m1 = KMeans::new(1).fit(&data).unwrap();
        let m2 = KMeans::new(2).fit(&data).unwrap();
        assert!(m2.inertia(&data) < m1.inertia(&data) * 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs();
        let a = KMeans::new(2).with_seed(9).fit(&data).unwrap();
        let b = KMeans::new(2).with_seed(9).fit(&data).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            KMeans::new(3).fit(&[vec![0.0], vec![1.0]]),
            Err(KMeansError::TooFewSamples { .. })
        ));
        assert!(matches!(
            KMeans::new(1).fit(&[vec![0.0, 1.0], vec![1.0]]),
            Err(KMeansError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            KMeans::new(1).fit(&[vec![f32::NAN]]),
            Err(KMeansError::NonFiniteSample)
        ));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_panics() {
        let _ = KMeans::new(0);
    }

    #[test]
    fn handles_duplicate_samples() {
        // More clusters than distinct points: must not loop or panic.
        let data = vec![vec![1.0, 1.0]; 10];
        let model = KMeans::new(3).fit(&data).unwrap();
        assert_eq!(model.k(), 3);
        assert_eq!(model.predict(&[1.0, 1.0]), model.predict(&[1.0, 1.0]));
    }

    #[test]
    fn assignment_is_nearest_centroid() {
        // Invariant: predict returns the argmin distance centroid.
        let data = two_blobs();
        let model = KMeans::new(2).fit(&data).unwrap();
        for s in &data {
            let p = model.predict(s);
            let dp = squared_distance(s, &model.centroids()[p]);
            for c in model.centroids() {
                assert!(dp <= squared_distance(s, c) + 1e-6);
            }
        }
    }

    #[test]
    fn from_centroids_roundtrip() {
        let model = KMeansModel::from_centroids(vec![vec![0.0], vec![5.0]]);
        assert_eq!(model.k(), 2);
        assert_eq!(model.dim(), 1);
        assert_eq!(model.predict(&[1.0]), 0);
        assert_eq!(model.predict(&[4.0]), 1);
    }

    #[test]
    #[should_panic(expected = "at least one centroid")]
    fn from_centroids_empty_panics() {
        let _ = KMeansModel::from_centroids(vec![]);
    }
}
