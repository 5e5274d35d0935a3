//! k-nearest-neighbour classification, with both a brute-force path and a
//! KD-tree index.
//!
//! The activity recogniser (paper §4.1.2) "utilizes nearest neighbor on pose
//! sequences". Pose-window features are ~500-dimensional, where KD-trees
//! degrade towards linear scans, so [`KnnClassifier`] picks the brute-force
//! path for high dimensions and the KD-tree for low ones; both are exposed
//! for benchmarking.
//!
//! Both paths run on the blocked kernels from [`crate::math`]: the KD-tree
//! buckets points into leaves of [`KDTREE_LEAF_SIZE`] and scans each leaf
//! with the blocked [`squared_distance`], while the brute-force path freezes
//! the training set into a [`PointBlock`] at fit time and answers every
//! query — single or batched — through the fused
//! [`distances_block_into`] distance-matrix kernel, so a query pays only the
//! row-parallel walk. [`KnnClassifier::brute_force`] and
//! [`KnnClassifier::brute_force_scalar`] keep the per-sample row scans as
//! the reference oracles.

use crate::math::{distances_block_into, squared_distance, squared_distance_scalar, PointBlock};
use std::error::Error;
use std::fmt;

/// Errors from k-NN training and prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KnnError {
    /// No training samples were provided.
    EmptyTrainingSet,
    /// Samples and labels have different lengths.
    LabelCountMismatch {
        /// Number of samples.
        samples: usize,
        /// Number of labels.
        labels: usize,
    },
    /// Samples have inconsistent dimensionality.
    DimensionMismatch {
        /// Dimension of the first sample.
        expected: usize,
        /// Dimension of the offending sample or query.
        actual: usize,
    },
    /// `k` was zero.
    ZeroK,
}

impl fmt::Display for KnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnnError::EmptyTrainingSet => write!(f, "k-NN training set is empty"),
            KnnError::LabelCountMismatch { samples, labels } => {
                write!(f, "{samples} samples but {labels} labels")
            }
            KnnError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "dimension {actual} does not match training dimension {expected}"
                )
            }
            KnnError::ZeroK => write!(f, "k must be at least 1"),
        }
    }
}

impl Error for KnnError {}

/// Dimensionality above which the KD-tree is skipped in favour of the
/// brute-force scan (the curse of dimensionality makes the tree useless).
pub const KDTREE_MAX_DIM: usize = 16;

/// Maximum points per KD-tree leaf. Leaves are scanned with the blocked
/// distance kernel, so bucketing trades a few extra distance evaluations
/// for far fewer pointer-chasing splits — the classic cache-friendly
/// KD-tree layout.
pub const KDTREE_LEAF_SIZE: usize = 16;

/// Queries per tile in [`KnnClassifier::predict_batch`]; bounds the reused
/// distance-matrix buffer at `KNN_BATCH_TILE × samples` floats.
const KNN_BATCH_TILE: usize = 64;

#[derive(Debug, Clone)]
enum KdNode {
    Split {
        axis: usize,
        /// Splitting coordinate: left subtree holds points with
        /// `point[axis] <= value`, right subtree the rest.
        value: f32,
        left: Box<KdNode>,
        right: Box<KdNode>,
    },
    /// Bucket of sample indices, scanned linearly with the blocked kernel.
    Leaf(Vec<usize>),
}

/// A KD-tree over row indices of a sample matrix.
#[derive(Debug, Clone)]
pub struct KdTree {
    root: Option<KdNode>,
    dim: usize,
}

impl KdTree {
    /// Builds a balanced KD-tree over `samples` (median splits, points
    /// bucketed into leaves of at most [`KDTREE_LEAF_SIZE`]).
    ///
    /// # Panics
    ///
    /// Panics if samples have inconsistent dimensions.
    pub fn build(samples: &[Vec<f32>]) -> Self {
        if samples.is_empty() {
            return KdTree { root: None, dim: 0 };
        }
        let dim = samples[0].len();
        assert!(
            samples.iter().all(|s| s.len() == dim),
            "inconsistent sample dimensions"
        );
        let mut indices: Vec<usize> = (0..samples.len()).collect();
        let root = Some(Self::build_node(samples, &mut indices, 0, dim));
        KdTree { root, dim }
    }

    fn build_node(samples: &[Vec<f32>], indices: &mut [usize], depth: usize, dim: usize) -> KdNode {
        if indices.len() <= KDTREE_LEAF_SIZE {
            return KdNode::Leaf(indices.to_vec());
        }
        let axis = depth % dim;
        indices.sort_by(|&a, &b| {
            samples[a][axis]
                .partial_cmp(&samples[b][axis])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // len > LEAF_SIZE >= 1, so both halves are non-empty and recursion
        // strictly shrinks.
        let mid = indices.len() / 2;
        let value = samples[indices[mid - 1]][axis];
        let (left_idx, right_idx) = indices.split_at_mut(mid);
        KdNode::Split {
            axis,
            value,
            left: Box::new(Self::build_node(samples, left_idx, depth + 1, dim)),
            right: Box::new(Self::build_node(samples, right_idx, depth + 1, dim)),
        }
    }

    /// Returns the indices of the `k` nearest samples to `query`, closest
    /// first.
    pub fn nearest(&self, samples: &[Vec<f32>], query: &[f32], k: usize) -> Vec<usize> {
        let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
        if let Some(root) = &self.root {
            Self::search(root, samples, query, k, &mut best);
        }
        best.into_iter().map(|(_, i)| i).collect()
    }

    fn search(
        node: &KdNode,
        samples: &[Vec<f32>],
        query: &[f32],
        k: usize,
        best: &mut Vec<(f32, usize)>,
    ) {
        match node {
            KdNode::Leaf(indices) => {
                for &i in indices {
                    insert_candidate(best, k, squared_distance(query, &samples[i]), i);
                }
            }
            KdNode::Split {
                axis,
                value,
                left,
                right,
            } => {
                let diff = query[*axis] - value;
                let (near, far) = if diff <= 0.0 {
                    (left, right)
                } else {
                    (right, left)
                };
                Self::search(near, samples, query, k, best);
                // Only descend the far side if the splitting plane is closer
                // than the current k-th best.
                let worst = best.last().map(|(d, _)| *d).unwrap_or(f32::INFINITY);
                if best.len() < k || diff * diff < worst {
                    Self::search(far, samples, query, k, best);
                }
            }
        }
    }

    /// Feature dimensionality the tree was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

fn insert_candidate(best: &mut Vec<(f32, usize)>, k: usize, d: f32, idx: usize) {
    // Most candidates lose to a full list outright; skip the search and the
    // insert-then-pop they would amount to.
    if best.len() == k && best.last().is_some_and(|&(worst, _)| d > worst) {
        return;
    }
    let pos = best
        .binary_search_by(|(bd, _)| bd.partial_cmp(&d).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap_or_else(|p| p);
    best.insert(pos, (d, idx));
    if best.len() > k {
        best.pop();
    }
}

/// How a fitted classifier finds neighbours; decided once, at fit time.
#[derive(Debug, Clone)]
enum Index {
    /// Low dimensions: tree search over the row-major samples.
    Tree(KdTree),
    /// High dimensions: the training set frozen column-major with its
    /// norms, so a query never transposes or allocates the model again.
    Block(PointBlock),
}

/// A k-NN classifier over string labels.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    samples: Vec<Vec<f32>>,
    labels: Vec<String>,
    index: Index,
}

impl KnnClassifier {
    /// Trains ("memorises") the classifier: builds the KD-tree for
    /// dimensions up to [`KDTREE_MAX_DIM`], otherwise freezes the samples
    /// into the brute-force [`PointBlock`].
    ///
    /// # Errors
    ///
    /// Returns [`KnnError`] on an empty training set, mismatched label
    /// counts, inconsistent dimensions, or `k == 0`.
    pub fn fit(k: usize, samples: Vec<Vec<f32>>, labels: Vec<String>) -> Result<Self, KnnError> {
        if k == 0 {
            return Err(KnnError::ZeroK);
        }
        if samples.is_empty() {
            return Err(KnnError::EmptyTrainingSet);
        }
        if samples.len() != labels.len() {
            return Err(KnnError::LabelCountMismatch {
                samples: samples.len(),
                labels: labels.len(),
            });
        }
        let dim = samples[0].len();
        for s in &samples {
            if s.len() != dim {
                return Err(KnnError::DimensionMismatch {
                    expected: dim,
                    actual: s.len(),
                });
            }
        }
        let index = if dim <= KDTREE_MAX_DIM {
            Index::Tree(KdTree::build(&samples))
        } else {
            Index::Block(PointBlock::new(&samples))
        };
        Ok(KnnClassifier {
            k,
            samples,
            labels,
            index,
        })
    }

    /// Number of neighbours consulted per prediction.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of memorised samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the training set is empty (never true for a constructed
    /// classifier; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.samples[0].len()
    }

    /// Whether predictions go through the KD-tree index (otherwise they
    /// query the frozen brute-force block).
    pub fn uses_kdtree(&self) -> bool {
        matches!(self.index, Index::Tree(_))
    }

    fn check_dim(&self, query: &[f32]) -> Result<(), KnnError> {
        if query.len() == self.dim() {
            Ok(())
        } else {
            Err(KnnError::DimensionMismatch {
                expected: self.dim(),
                actual: query.len(),
            })
        }
    }

    /// Predicts the majority label among the `k` nearest neighbours
    /// (ties broken by the nearest neighbour among tied labels).
    ///
    /// # Errors
    ///
    /// Returns [`KnnError::DimensionMismatch`] if the query has the wrong
    /// dimension.
    pub fn predict(&self, query: &[f32]) -> Result<&str, KnnError> {
        Ok(self.predict_batch(&[query])?[0])
    }

    /// Predicts a whole batch of queries.
    ///
    /// On the brute-force path (high-dimensional features) this runs the
    /// fused norm-decomposition distance-matrix kernel over query tiles
    /// against the block frozen at fit time, reusing one distance buffer and
    /// one top-k buffer for the whole batch; on the KD-tree path it searches
    /// per query (tree pruning already skips most distance work there).
    ///
    /// # Errors
    ///
    /// Returns [`KnnError::DimensionMismatch`] on the first wrong-sized
    /// query, before any distance is computed.
    pub fn predict_batch<Q: AsRef<[f32]>>(&self, queries: &[Q]) -> Result<Vec<&str>, KnnError> {
        for q in queries {
            self.check_dim(q.as_ref())?;
        }
        let mut out = Vec::with_capacity(queries.len());
        match &self.index {
            Index::Tree(tree) => {
                for q in queries {
                    let neighbours = tree.nearest(&self.samples, q.as_ref(), self.k);
                    out.push(self.vote(neighbours.iter().copied()));
                }
            }
            Index::Block(block) => {
                let mut dists: Vec<f32> = Vec::new();
                let mut best: Vec<(f32, usize)> = Vec::with_capacity(self.k + 1);
                for tile in queries.chunks(KNN_BATCH_TILE) {
                    distances_block_into(tile, block, &mut dists);
                    for row in dists.chunks_exact(block.len()) {
                        self.select_nearest(row, &mut best);
                        out.push(self.vote(best.iter().map(|&(_, i)| i)));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Refills `best` with the `k` smallest `(distance, index)` pairs of one
    /// distance-matrix row, closest first.
    fn select_nearest(&self, row: &[f32], best: &mut Vec<(f32, usize)>) {
        best.clear();
        for (i, &d) in row.iter().enumerate() {
            insert_candidate(best, self.k, d, i);
        }
    }

    /// Majority vote among neighbour indices (closest-first), ties broken
    /// by the nearest neighbour among tied labels. Counts by comparing the
    /// (at most `k`) neighbours pairwise, so it allocates nothing.
    fn vote(&self, neighbours: impl Iterator<Item = usize> + Clone) -> &str {
        let mut winner: Option<(&str, usize)> = None;
        for i in neighbours.clone() {
            let label = self.labels[i].as_str();
            let votes = neighbours
                .clone()
                .filter(|&j| self.labels[j] == label)
                .count();
            // Strictly more votes only: an equal count keeps the earlier,
            // nearer label.
            if winner.is_none_or(|(_, most)| votes > most) {
                winner = Some((label, votes));
            }
        }
        winner.expect("at least one neighbour").0
    }

    /// Indices of the `k` nearest training samples, closest first.
    ///
    /// # Errors
    ///
    /// Returns [`KnnError::DimensionMismatch`] on a wrong-sized query.
    pub fn neighbours(&self, query: &[f32]) -> Result<Vec<usize>, KnnError> {
        self.check_dim(query)?;
        Ok(match &self.index {
            Index::Tree(tree) => tree.nearest(&self.samples, query, self.k),
            Index::Block(block) => {
                let mut dists = Vec::new();
                let mut best = Vec::with_capacity(self.k + 1);
                distances_block_into(&[query], block, &mut dists);
                self.select_nearest(&dists, &mut best);
                best.into_iter().map(|(_, i)| i).collect()
            }
        })
    }

    /// Per-sample row scan on the blocked distance kernel: the reference
    /// the frozen-block path is tested against, and the brute-force arm of
    /// the KD-tree benchmarks. Not on the prediction path.
    pub fn brute_force(&self, query: &[f32]) -> Vec<usize> {
        let mut best: Vec<(f32, usize)> = Vec::with_capacity(self.k + 1);
        for (i, s) in self.samples.iter().enumerate() {
            insert_candidate(&mut best, self.k, squared_distance(query, s), i);
        }
        best.into_iter().map(|(_, i)| i).collect()
    }

    /// Scalar oracle for [`brute_force`](Self::brute_force): the pre-kernel
    /// per-element scan, kept for equivalence tests and `force-scalar`
    /// benchmarking.
    pub fn brute_force_scalar(&self, query: &[f32]) -> Vec<usize> {
        let mut best: Vec<(f32, usize)> = Vec::with_capacity(self.k + 1);
        for (i, s) in self.samples.iter().enumerate() {
            insert_candidate(&mut best, self.k, squared_distance_scalar(query, s), i);
        }
        best.into_iter().map(|(_, i)| i).collect()
    }

    /// Fraction of `(sample, label)` pairs classified correctly; a
    /// wrong-dimension sample fails the whole evaluation (0.0).
    pub fn accuracy(&self, samples: &[Vec<f32>], labels: &[String]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let Ok(predicted) = self.predict_batch(samples) else {
            return 0.0;
        };
        let correct = predicted
            .iter()
            .zip(labels)
            .filter(|(p, l)| **p == l.as_str())
            .count();
        correct as f32 / samples.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_data() -> (Vec<Vec<f32>>, Vec<String>) {
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            let j = i as f32 * 0.05;
            samples.push(vec![j, j]);
            labels.push("low".to_string());
            samples.push(vec![5.0 + j, 5.0 + j]);
            labels.push("high".to_string());
        }
        (samples, labels)
    }

    #[test]
    fn classifies_separable_data() {
        let (s, l) = grid_data();
        let knn = KnnClassifier::fit(3, s, l).unwrap();
        assert_eq!(knn.predict(&[0.1, 0.1]).unwrap(), "low");
        assert_eq!(knn.predict(&[5.2, 5.2]).unwrap(), "high");
    }

    #[test]
    fn k1_returns_exact_nearest() {
        let (s, l) = grid_data();
        let knn = KnnClassifier::fit(1, s.clone(), l).unwrap();
        let n = knn.neighbours(&s[4]).unwrap();
        assert_eq!(n, vec![4]);
    }

    #[test]
    fn kdtree_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<Vec<f32>> = (0..200)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let labels: Vec<String> = (0..200).map(|i| format!("l{}", i % 4)).collect();
        let knn = KnnClassifier::fit(5, samples.clone(), labels).unwrap();
        assert!(knn.uses_kdtree());
        for _ in 0..50 {
            let q: Vec<f32> = (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let a = knn.neighbours(&q).unwrap();
            let b = knn.brute_force(&q);
            // Distances must agree (indices may differ on exact ties).
            let da: Vec<f32> = a
                .iter()
                .map(|&i| squared_distance(&q, &samples[i]))
                .collect();
            let db: Vec<f32> = b
                .iter()
                .map(|&i| squared_distance(&q, &samples[i]))
                .collect();
            for (x, y) in da.iter().zip(db.iter()) {
                assert!((x - y).abs() < 1e-6, "kdtree {da:?} != brute {db:?}");
            }
        }
    }

    #[test]
    fn blocked_brute_force_matches_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(23);
        // High-dimensional so the blocked kernel exercises whole 8-lane
        // blocks plus a remainder.
        let samples: Vec<Vec<f32>> = (0..60)
            .map(|_| (0..37).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let labels: Vec<String> = (0..60).map(|i| format!("l{}", i % 3)).collect();
        let knn = KnnClassifier::fit(5, samples.clone(), labels).unwrap();
        for _ in 0..20 {
            let q: Vec<f32> = (0..37).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let fast = knn.brute_force(&q);
            let oracle = knn.brute_force_scalar(&q);
            for (&a, &b) in fast.iter().zip(oracle.iter()) {
                let da = squared_distance_scalar(&q, &samples[a]);
                let db = squared_distance_scalar(&q, &samples[b]);
                assert!(
                    (da - db).abs() < 1e-4,
                    "blocked {fast:?} != scalar {oracle:?}"
                );
            }
        }
    }

    /// Two well-separated clusters in `dim` dimensions, labels alternating.
    fn clustered(rng: &mut StdRng, n: usize, dim: usize) -> (Vec<Vec<f32>>, Vec<String>) {
        (0..n)
            .map(|i| {
                let centre = if i % 2 == 0 { 0.0 } else { 4.0 };
                let sample: Vec<f32> = (0..dim)
                    .map(|_| centre + rng.gen_range(-0.5f32..0.5))
                    .collect();
                (sample, if i % 2 == 0 { "a" } else { "b" }.to_string())
            })
            .unzip()
    }

    #[test]
    fn block_path_matches_row_scans() {
        // Brute-force path: high-dimensional separable clusters. The frozen
        // block answers predict, predict_batch and neighbours; the row
        // scans are the oracle for which samples are nearest.
        let mut rng = StdRng::seed_from_u64(7);
        let dim = 34;
        let (samples, labels) = clustered(&mut rng, 40, dim);
        let knn = KnnClassifier::fit(5, samples, labels).unwrap();
        assert!(!knn.uses_kdtree());
        let (queries, expected) = clustered(&mut rng, 9, dim);
        assert_eq!(knn.predict_batch(&queries).unwrap(), expected);
        for (q, label) in queries.iter().zip(&expected) {
            assert_eq!(knn.predict(q).unwrap(), label);
            // Random points: no distance ties, so the sets match exactly.
            let found = knn.neighbours(q).unwrap();
            assert_eq!(found, knn.brute_force(q));
            assert_eq!(found, knn.brute_force_scalar(q));
        }
        // KD-tree path searches per query.
        let (s, l) = grid_data();
        let knn = KnnClassifier::fit(3, s.clone(), l.clone()).unwrap();
        assert!(knn.uses_kdtree());
        assert_eq!(knn.predict_batch(&s).unwrap(), l);
        // Dimension errors surface, batch of none is fine.
        assert!(knn.predict_batch(&[vec![0.0]]).is_err());
        assert!(knn.predict_batch::<Vec<f32>>(&[]).unwrap().is_empty());
    }

    #[test]
    fn vote_breaks_ties_towards_the_nearest_label() {
        // One sample per index on a line; the query at 0 sees them in index
        // order, so `labels` is the closest-first vote sequence.
        let predict = |labels: &[&str]| {
            let samples: Vec<Vec<f32>> = (0..labels.len()).map(|i| vec![i as f32]).collect();
            let labels: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
            let knn = KnnClassifier::fit(labels.len(), samples, labels).unwrap();
            knn.predict(&[-1.0]).unwrap().to_string()
        };
        assert_eq!(predict(&["b", "a", "a", "b"]), "b"); // 2-2: nearest wins
        assert_eq!(predict(&["a", "b", "b"]), "b"); // majority beats nearest
        assert_eq!(predict(&["c", "a", "b"]), "c"); // all tied: nearest
        assert_eq!(predict(&["a", "b", "c", "c", "b"]), "b"); // b and c tied: b nearer
    }

    #[test]
    fn fit_freezes_a_block_exactly_when_there_is_no_tree() {
        let mut rng = StdRng::seed_from_u64(5);
        for (dim, tree) in [(KDTREE_MAX_DIM, true), (KDTREE_MAX_DIM + 1, false)] {
            let (samples, labels) = clustered(&mut rng, 12, dim);
            let knn = KnnClassifier::fit(3, samples.clone(), labels).unwrap();
            assert_eq!(knn.uses_kdtree(), tree, "dim {dim}");
            match &knn.index {
                Index::Tree(t) => assert_eq!(t.dim(), dim),
                Index::Block(block) => {
                    assert_eq!((block.len(), block.dim()), (12, dim));
                    assert_eq!(block, &PointBlock::new(&samples));
                }
            }
        }
    }

    #[test]
    fn clone_keeps_the_frozen_block() {
        let mut rng = StdRng::seed_from_u64(9);
        let (samples, labels) = clustered(&mut rng, 20, 40);
        let knn = KnnClassifier::fit(3, samples, labels).unwrap();
        let copy = knn.clone();
        let (Index::Block(a), Index::Block(b)) = (&knn.index, &copy.index) else {
            panic!("dim 40 must freeze a block, and the clone must keep it");
        };
        assert_eq!(a, b);
        let (queries, _) = clustered(&mut rng, 6, 40);
        assert_eq!(
            knn.predict_batch(&queries).unwrap(),
            copy.predict_batch(&queries).unwrap()
        );
    }

    #[test]
    fn block_path_rejects_wrong_dimension_before_the_kernel() {
        // The distance kernel panics on a length mismatch, so an `Err`
        // here proves the query never reached the block.
        let mut rng = StdRng::seed_from_u64(3);
        let (samples, labels) = clustered(&mut rng, 10, 40);
        let knn = KnnClassifier::fit(3, samples.clone(), labels).unwrap();
        let mismatch = Err(KnnError::DimensionMismatch {
            expected: 40,
            actual: 39,
        });
        let short = vec![0.0f32; 39];
        assert_eq!(knn.predict(&short), mismatch);
        assert_eq!(knn.neighbours(&short).map(|_| ""), mismatch);
        // One bad query fails the batch, wherever it sits in the tile.
        let mut queries = samples;
        queries.push(short);
        assert_eq!(knn.predict_batch(&queries).map(|_| ""), mismatch);
    }

    #[test]
    fn high_dimensional_data_skips_kdtree() {
        let samples = vec![vec![0.0; 64], vec![1.0; 64]];
        let labels = vec!["a".into(), "b".into()];
        let knn = KnnClassifier::fit(1, samples, labels).unwrap();
        assert!(!knn.uses_kdtree());
        assert_eq!(knn.predict(&vec![0.9; 64]).unwrap(), "b");
    }

    #[test]
    fn fit_errors() {
        assert!(matches!(
            KnnClassifier::fit(0, vec![vec![0.0]], vec!["a".into()]),
            Err(KnnError::ZeroK)
        ));
        assert!(matches!(
            KnnClassifier::fit(1, vec![], vec![]),
            Err(KnnError::EmptyTrainingSet)
        ));
        assert!(matches!(
            KnnClassifier::fit(1, vec![vec![0.0]], vec![]),
            Err(KnnError::LabelCountMismatch { .. })
        ));
        assert!(matches!(
            KnnClassifier::fit(
                1,
                vec![vec![0.0], vec![0.0, 1.0]],
                vec!["a".into(), "b".into()]
            ),
            Err(KnnError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn predict_rejects_wrong_dimension() {
        let (s, l) = grid_data();
        let knn = KnnClassifier::fit(1, s, l).unwrap();
        assert!(matches!(
            knn.predict(&[0.0]),
            Err(KnnError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn k_larger_than_dataset_uses_all_points() {
        let samples = vec![vec![0.0], vec![1.0], vec![2.0]];
        let labels = vec!["a".into(), "a".into(), "b".into()];
        let knn = KnnClassifier::fit(10, samples, labels).unwrap();
        assert_eq!(knn.predict(&[5.0]).unwrap(), "a"); // majority of all 3
    }

    #[test]
    fn accuracy_on_training_set_is_high() {
        let (s, l) = grid_data();
        let knn = KnnClassifier::fit(3, s.clone(), l.clone()).unwrap();
        assert!(knn.accuracy(&s, &l) > 0.99);
    }

    #[test]
    fn neighbours_sorted_by_distance() {
        let samples = vec![vec![0.0], vec![10.0], vec![1.0], vec![5.0]];
        let labels = vec!["a".into(); 4];
        let knn = KnnClassifier::fit(4, samples.clone(), labels).unwrap();
        let n = knn.neighbours(&[0.2]).unwrap();
        let dists: Vec<f32> = n.iter().map(|&i| (samples[i][0] - 0.2).abs()).collect();
        let mut sorted = dists.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(dists, sorted);
    }

    #[test]
    fn empty_kdtree_is_valid() {
        let tree = KdTree::build(&[]);
        assert!(tree.nearest(&[], &[0.0], 3).is_empty());
    }

    #[test]
    fn leaf_bucketed_tree_splits_above_leaf_size() {
        // More points than one leaf on a line: the tree must still return
        // exact nearest neighbours across leaf boundaries.
        let samples: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
        let tree = KdTree::build(&samples);
        for q in [0.0f32, 16.2, 49.9, 99.0] {
            let n = tree.nearest(&samples, &[q], 3);
            let mut brute: Vec<usize> = (0..samples.len()).collect();
            brute.sort_by(|&a, &b| {
                (samples[a][0] - q)
                    .abs()
                    .partial_cmp(&(samples[b][0] - q).abs())
                    .unwrap()
            });
            assert_eq!(n, brute[..3].to_vec(), "query {q}");
        }
    }
}
