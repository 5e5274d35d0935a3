//! k-nearest-neighbour classification: a KD-tree, a frozen distance block
//! and a bound-pruned exact search, plus the brute-force row scans they are
//! tested against.
//!
//! The activity recogniser (paper §4.1.2) "utilizes nearest neighbor on pose
//! sequences". Pose-window features are ~500-dimensional, where KD-trees
//! degrade towards linear scans, so [`KnnClassifier::fit`] decides once how
//! a model is searched — one of three shapes:
//!
//! * **Tree** (dimension ≤ [`KDTREE_MAX_DIM`]): points bucketed into leaves
//!   of [`KDTREE_LEAF_SIZE`], each leaf scanned with the blocked
//!   [`squared_distance`].
//! * **Block** (higher dimension, training set under [`BOUNDED_MIN_BYTES`]):
//!   the training set frozen column-major into a [`PointBlock`], every query
//!   — single or batched — answered by the fused [`distances_block_into`]
//!   distance-matrix kernel. The fastest shape while the block stays in
//!   cache.
//! * **Bounded** (higher dimension, training set of at least
//!   [`BOUNDED_MIN_BYTES`]): a model that does not stay in cache between
//!   queries costs the bytes a query streams, so each sample gets a sketch
//!   of one float per [`SKETCH_SPAN`] consecutive dimensions (the span's sum
//!   over √len, an orthonormal projection). By Cauchy–Schwarz the sketch
//!   distance is a lower bound on the true squared distance; a query reads
//!   the n sketches, measures exact distances for the k rows with the
//!   smallest bounds, then skips every row whose bound cannot beat the
//!   running k-th distance. On the fitness model that reads 34 of 510
//!   floats per sample plus the few dozen rows that survive.
//!
//! Every shape orders neighbours by (distance, index), so the tree, the
//! bounded search and [`KnnClassifier::brute_force`] return the same list
//! for the same distances, ties included, whatever order they visit rows
//! in. [`KnnClassifier::brute_force`] and
//! [`KnnClassifier::brute_force_scalar`] keep the per-sample row scans as
//! the reference oracles.

use crate::math::{
    distances_block_into, dot, squared_distance, squared_distance_scalar, PointBlock,
};
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

/// Training-set size, in bytes of `f32` samples, from which a
/// high-dimensional model is searched through per-sample sketches instead of
/// a frozen [`PointBlock`]. Below it streaming the whole block costs no
/// more than reading the sketches and the rows that survive them; above it
/// the block loses, hot and most of all cold (pose windows cross over
/// between 119 and 239 KiB, measured in DESIGN.md §5.9). Data the sketches
/// cannot prune loses on this shape at any size.
pub const BOUNDED_MIN_BYTES: usize = 256 * 1024;

/// Consecutive dimensions summed into one sketch coordinate of the bounded
/// search: 510-dimensional pose windows get 34 coordinates, 8 % of the
/// model's bytes.
pub const SKETCH_SPAN: usize = 15;

/// Highest dimension the bounded search takes: its pruning margin covers
/// the rounding of a distance summed over at most this many terms (see
/// [`Sketches::search`]). Wider models keep the block.
const BOUNDED_MAX_DIM: usize = 4096;

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
                // Only descend the far side if the splitting plane is no
                // farther than the current k-th best: a far point at exactly
                // that distance may still win the tie on its index.
                let worst = best.last().map(|(d, _)| *d).unwrap_or(f32::INFINITY);
                if best.len() < k || diff * diff <= worst {
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

/// Whether candidate `a` ranks before `b`: nearer first, and among equal
/// distances the lower sample index first, so a neighbour list does not
/// depend on the order rows were visited in.
fn ranks_before(a: (f32, usize), b: (f32, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Inserts `(d, idx)` into the closest-first list `best`, keeping at most
/// `k` entries.
fn insert_candidate(best: &mut Vec<(f32, usize)>, k: usize, d: f32, idx: usize) {
    // Most candidates lose to a full list outright; skip the search and the
    // insert-then-pop they would amount to.
    if best.len() == k
        && best
            .last()
            .is_none_or(|&worst| !ranks_before((d, idx), worst))
    {
        return;
    }
    let pos = best.partition_point(|&c| ranks_before(c, (d, idx)));
    best.insert(pos, (d, idx));
    if best.len() > k {
        best.pop();
    }
}

/// Bound-pruned exact search state frozen at fit: one sketch per sample and
/// each sample's norm.
#[derive(Debug, Clone, PartialEq)]
struct Sketches {
    /// Row-major, `spans` coordinates per sample: coordinate `j` of sample
    /// `x` is `Σ x[15j..15j+len] / √len`, see [`sketch_into`].
    coords: Vec<f32>,
    /// ‖x‖ per sample, for the absolute rounding term of the pruning test.
    norms: Vec<f32>,
    spans: usize,
}

/// Appends the sketch of `x` to `out`: per span of [`SKETCH_SPAN`]
/// consecutive dimensions (the last may be shorter), the span's sum over
/// √len — `x`'s projection onto the unit vector that is constant on the
/// span. The spans are disjoint, so these unit vectors are orthonormal and
/// the sketch distance never exceeds the true distance.
fn sketch_into(x: &[f32], out: &mut Vec<f32>) {
    out.extend(
        x.chunks(SKETCH_SPAN)
            .map(|span| span.iter().sum::<f32>() / (span.len() as f32).sqrt()),
    );
}

/// Widens the pruning test by `ROUNDING × (‖q‖ + ‖x‖)` in distance: twice
/// what rounding can shift a sketch distance, see [`Sketches::search`].
const ROUNDING: f32 = 1.0 / (1u32 << 19) as f32;

/// A row is skipped only when its bound, shrunk by 2⁻¹⁰, still lies beyond
/// the running k-th distance.
const SHRINK: f32 = 1.0 - 1.0 / 1024.0;

/// Buffers one bounded query reuses; [`KnnClassifier::predict_batch`]
/// keeps one set for a whole batch.
#[derive(Default)]
struct Scratch {
    sketch: Vec<f32>,
    bounds: Vec<f32>,
    seeds: Vec<(f32, usize)>,
}

impl Sketches {
    fn new(samples: &[Vec<f32>]) -> Self {
        let spans = samples[0].len().div_ceil(SKETCH_SPAN);
        let mut coords = Vec::with_capacity(samples.len() * spans);
        for s in samples {
            sketch_into(s, &mut coords);
        }
        Sketches {
            coords,
            norms: samples.iter().map(|s| dot(s, s).sqrt()).collect(),
            spans,
        }
    }

    /// Refills `best` with the `k` nearest `(distance, index)` pairs of
    /// `query`, closest first — exactly the list a row scan with
    /// [`squared_distance`] makes — and returns how many rows' exact
    /// distances it computed.
    ///
    /// One pass over the sketches gives every row a lower bound `L`; the `k`
    /// rows with the smallest bounds seed the list; one more pass measures
    /// only the rows whose bound could still beat the running k-th distance
    /// `kth`. A row is skipped when `L·(1 − 2⁻¹⁰) > (√kth + ROUNDING·(‖q‖ +
    /// ‖x‖))²`, which cannot happen to a row whose computed distance is at
    /// most `kth` — every row of the final list — because in f32
    /// (u = 2⁻²⁴), for finite inputs whose squares neither overflow nor
    /// fall into subnormals:
    ///
    /// * a computed distance (or norm²) is within a relative `(dim + 3)·u`
    ///   of the true one — a sum of non-negative terms, at most `dim` of
    ///   them in sequence — which is below 2⁻¹¹ for `dim` ≤
    ///   [`BOUNDED_MAX_DIM`], so its root is within 2⁻¹²;
    /// * a sketch coordinate sums ≤ 15 terms and divides once, so it is off
    ///   by at most `16u·‖x_span‖`, and the sketch difference by at most
    ///   `16u·(‖q‖ + ‖x‖)` in norm — an absolute error, which a relative
    ///   margin alone cannot cover when `q` and `x` are much closer than
    ///   they are long; `ROUNDING` = 2⁻¹⁹ = 32u covers it, computed norms
    ///   and all;
    /// * the bound's own subtraction, squares and sum add a relative
    ///   `(spans + 2)·u` < 2⁻¹⁵, so its root is within 2⁻¹⁶.
    ///
    /// So √L of a row at computed distance `d ≤ kth` stays below
    /// `√kth·(1 + 2⁻¹² + 2⁻¹⁶) + 17u·(‖q‖ + ‖x‖)`, which the widened
    /// threshold still exceeds after shrinking by `√(1 − 2⁻¹⁰) < 1 − 2⁻¹¹`.
    /// Skipped rows lie strictly beyond the final k-th distance, so ties
    /// are never pruned.
    fn search(
        &self,
        samples: &[Vec<f32>],
        query: &[f32],
        k: usize,
        scratch: &mut Scratch,
        best: &mut Vec<(f32, usize)>,
    ) -> usize {
        let Scratch {
            sketch,
            bounds,
            seeds,
        } = scratch;
        sketch.clear();
        sketch_into(query, sketch);
        bounds.clear();
        bounds.extend(
            self.coords
                .chunks_exact(self.spans)
                .map(|x| squared_distance(sketch, x)),
        );
        seeds.clear();
        for (i, &bound) in bounds.iter().enumerate() {
            insert_candidate(seeds, k, bound, i);
        }
        best.clear();
        for &(_, i) in seeds.iter() {
            insert_candidate(best, k, squared_distance(query, &samples[i]), i);
        }
        let mut measured = seeds.len();
        if best.len() < k {
            return measured; // fewer samples than k: every row was a seed
        }
        // Walk the seeds in index order beside the pass so none is measured
        // twice.
        seeds.sort_unstable_by_key(|&(_, i)| i);
        let mut seeds = seeds.iter().map(|&(_, i)| i).peekable();
        let query_norm = dot(query, query).sqrt();
        let mut kth_root = best[k - 1].0.sqrt();
        for (i, &bound) in bounds.iter().enumerate() {
            if seeds.next_if_eq(&i).is_some() {
                continue;
            }
            let reach = kth_root + ROUNDING * (query_norm + self.norms[i]);
            if bound * SHRINK > reach * reach {
                continue;
            }
            measured += 1;
            insert_candidate(best, k, squared_distance(query, &samples[i]), i);
            kth_root = best[k - 1].0.sqrt();
        }
        measured
    }
}

/// How a fitted classifier finds neighbours; decided once, at fit time.
#[derive(Debug, Clone)]
enum Index {
    /// Low dimensions: tree search over the row-major samples.
    Tree(KdTree),
    /// High dimensions, cache-sized model: the training set frozen
    /// column-major with its norms, so a query never transposes or
    /// allocates the model again.
    Block(PointBlock),
    /// High dimensions, model of [`BOUNDED_MIN_BYTES`] or more: sketch
    /// bounds over the row-major samples, so a query reads the sketches and
    /// the rows that survive them.
    Bounded(Sketches),
}

impl Index {
    /// The shape [`KnnClassifier::fit`] gives `samples` (non-empty, one
    /// dimension).
    fn fit(samples: &[Vec<f32>]) -> Self {
        let dim = samples[0].len();
        let bytes = samples.len() * dim * std::mem::size_of::<f32>();
        if dim <= KDTREE_MAX_DIM {
            Index::Tree(KdTree::build(samples))
        } else if bytes >= BOUNDED_MIN_BYTES && dim <= BOUNDED_MAX_DIM {
            Index::Bounded(Sketches::new(samples))
        } else {
            Index::Block(PointBlock::new(samples))
        }
    }
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
    /// dimensions up to [`KDTREE_MAX_DIM`]; above that sketches a training
    /// set of [`BOUNDED_MIN_BYTES`] or more for the bounded search and
    /// freezes a smaller one into a [`PointBlock`].
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
        let index = Index::fit(&samples);
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
    /// query the frozen block or the sketch bounds).
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
    /// On the block shape this runs the fused norm-decomposition
    /// distance-matrix kernel over query tiles against the block frozen at
    /// fit time, reusing one distance buffer and one top-k buffer for the
    /// whole batch; the tree and bounded shapes search per query (their
    /// pruning already skips most distance work), the bounded one reusing
    /// its buffers across the batch.
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
            Index::Bounded(sketches) => {
                let mut scratch = Scratch::default();
                let mut best = Vec::with_capacity(self.k + 1);
                for q in queries {
                    sketches.search(&self.samples, q.as_ref(), self.k, &mut scratch, &mut best);
                    out.push(self.vote(best.iter().map(|&(_, i)| i)));
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
            Index::Bounded(sketches) => {
                let mut best = Vec::with_capacity(self.k + 1);
                let mut scratch = Scratch::default();
                sketches.search(&self.samples, query, self.k, &mut scratch, &mut best);
                best.into_iter().map(|(_, i)| i).collect()
            }
        })
    }

    /// How many rows' exact distances the bounded search measures for
    /// `query`; `None` unless the model has the bounded shape.
    #[cfg(test)]
    pub(crate) fn bounded_rows_measured(&self, query: &[f32]) -> Option<usize> {
        let Index::Bounded(sketches) = &self.index else {
            return None;
        };
        let mut best = Vec::new();
        Some(sketches.search(
            &self.samples,
            query,
            self.k,
            &mut Scratch::default(),
            &mut best,
        ))
    }

    /// Per-sample row scan on the blocked distance kernel: the reference
    /// the block and bounded shapes are tested against, and the brute-force
    /// arm of the KD-tree benchmarks. Not on the prediction path.
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
    use proptest::prop_assert_eq;
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

    /// Samples of `dim` floats that fill exactly `bytes` bytes, rounded up.
    fn rows_for(bytes: usize, dim: usize) -> usize {
        bytes.div_ceil(dim * std::mem::size_of::<f32>())
    }

    #[test]
    fn fit_picks_tree_block_or_bounded_by_dimension_and_bytes() {
        let mut rng = StdRng::seed_from_u64(5);
        let just_under = |dim| rows_for(BOUNDED_MIN_BYTES, dim) - 1;
        for (dim, n, shape) in [
            (KDTREE_MAX_DIM, 12, "tree"),
            (KDTREE_MAX_DIM + 1, 12, "block"),
            (40, just_under(40), "block"),
            (40, rows_for(BOUNDED_MIN_BYTES, 40), "bounded"),
            (512, just_under(512), "block"),
            (512, rows_for(BOUNDED_MIN_BYTES, 512), "bounded"),
            (
                BOUNDED_MAX_DIM + 1,
                rows_for(BOUNDED_MIN_BYTES, 4097),
                "block",
            ),
        ] {
            let (samples, labels) = clustered(&mut rng, n, dim);
            let knn = KnnClassifier::fit(3, samples.clone(), labels).unwrap();
            assert_eq!(knn.uses_kdtree(), shape == "tree", "dim {dim}");
            match &knn.index {
                Index::Tree(t) => assert_eq!((shape, t.dim()), ("tree", dim)),
                Index::Block(block) => {
                    assert_eq!(shape, "block", "dim {dim}, {n} samples");
                    assert_eq!((block.len(), block.dim()), (n, dim));
                    assert_eq!(block, &PointBlock::new(&samples));
                }
                Index::Bounded(sketches) => {
                    assert_eq!(shape, "bounded", "dim {dim}, {n} samples");
                    assert_eq!(sketches.spans, dim.div_ceil(SKETCH_SPAN));
                    assert_eq!(sketches.coords.len(), n * sketches.spans);
                    assert_eq!(sketches, &Sketches::new(&samples));
                }
            }
        }
    }

    #[test]
    fn clone_keeps_the_fitted_index() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [20, rows_for(BOUNDED_MIN_BYTES, 40)] {
            let (samples, labels) = clustered(&mut rng, n, 40);
            let knn = KnnClassifier::fit(3, samples, labels).unwrap();
            let copy = knn.clone();
            match (&knn.index, &copy.index) {
                (Index::Block(a), Index::Block(b)) => assert_eq!((n, a), (20, b)),
                (Index::Bounded(a), Index::Bounded(b)) => assert!(n > 20 && a == b),
                _ => panic!("dim 40 must fit a block or sketches, and the clone keep them"),
            }
            let (queries, _) = clustered(&mut rng, 6, 40);
            assert_eq!(
                knn.predict_batch(&queries).unwrap(),
                copy.predict_batch(&queries).unwrap()
            );
        }
    }

    #[test]
    fn neighbour_ties_go_to_the_lower_index_on_every_shape() {
        // Four copies of each of three points, in shuffled order: every
        // query sees ties, and each shape must break them by index.
        let points = [[0.0f32; 20], [1.0; 20], [3.0; 20]];
        let order = [2, 0, 1, 1, 2, 0, 0, 2, 1, 0, 1, 2];
        let samples: Vec<Vec<f32>> = order.iter().map(|&p| points[p].to_vec()).collect();
        let labels = vec!["x".to_string(); samples.len()];
        let knn = KnnClassifier::fit(6, samples.clone(), labels.clone()).unwrap();
        assert!(matches!(knn.index, Index::Block(_)));
        let bounded = KnnClassifier {
            index: Index::Bounded(Sketches::new(&samples)),
            ..knn.clone()
        };
        let copies = |p: usize| order.iter().enumerate().filter(move |&(_, &o)| o == p);
        let expected: Vec<usize> = copies(0).chain(copies(1)).map(|(i, _)| i).take(6).collect();
        assert_eq!(expected, vec![1, 5, 6, 9, 2, 3]);
        let q = [0.1f32; 20];
        assert_eq!(knn.brute_force(&q), expected);
        assert_eq!(knn.brute_force_scalar(&q), expected);
        assert_eq!(knn.neighbours(&q).unwrap(), expected);
        assert_eq!(bounded.neighbours(&q).unwrap(), expected);
        // The same ties on a line through the tree.
        let line: Vec<Vec<f32>> = order.iter().map(|&p| vec![points[p][0]]).collect();
        let tree = KnnClassifier::fit(6, line, labels).unwrap();
        assert!(tree.uses_kdtree());
        assert_eq!(tree.neighbours(&[0.1]).unwrap(), expected);
    }

    /// Vectors of `dim` components drawn from ±`scale`.
    fn scaled(dim: usize, scale: f32, rng: &mut StdRng) -> Vec<f32> {
        (0..dim)
            .map(|_| scale * rng.gen_range(-1.0f32..1.0))
            .collect()
    }

    fn sketch(x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        sketch_into(x, &mut out);
        out
    }

    proptest::proptest! {
        /// The sketch distance is a lower bound on the distance, with the
        /// 2⁻¹⁰ margin to spare, at magnitudes from 1e-3 to 1e3 and spans
        /// that do not divide the dimension; and for a pair far closer than
        /// it is long, where rounding the sketches is an absolute error the
        /// margin alone does not cover, the widened pruning test still keeps
        /// the pair.
        #[test]
        fn sketch_distance_bounds_the_distance(
            dim in 17usize..=600,
            exponent in -3.0f32..=3.0,
            nudge in -8.0f32..=-4.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let scale = 10f32.powf(exponent);
            let (q, x) = (scaled(dim, scale, &mut rng), scaled(dim, scale, &mut rng));
            prop_assert_eq!(sketch(&q).len(), dim.div_ceil(SKETCH_SPAN));
            let bound = squared_distance(&sketch(&q), &sketch(&x));
            let exact = squared_distance(&q, &x);
            proptest::prop_assert!(bound * SHRINK <= exact, "{} > {}", bound * SHRINK, exact);
            let near: Vec<f32> = q
                .iter()
                .zip(scaled(dim, scale * 10f32.powf(nudge), &mut rng))
                .map(|(a, b)| a + b)
                .collect();
            let bound = squared_distance(&sketch(&q), &sketch(&near));
            let exact = squared_distance(&q, &near);
            let reach = exact.sqrt() + ROUNDING * (dot(&q, &q).sqrt() + dot(&near, &near).sqrt());
            proptest::prop_assert!(bound * SHRINK <= reach * reach, "near pair pruned");
        }
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
