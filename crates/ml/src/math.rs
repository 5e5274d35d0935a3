//! Small dense-vector kernels shared by the ML algorithms.
//!
//! Everything operates on `&[f32]` slices so callers can use plain `Vec`s as
//! feature vectors without any wrapper types.
//!
//! # Kernels
//!
//! The distance/dot/axpy/mean kernels come in two forms, mirroring the codec
//! contract in `videopipe-media`: a **blocked 8-lane** fast path (the
//! default) and a byte-at-a-time **scalar oracle** (`*_scalar`) kept as the
//! reference implementation. The blocked kernels accumulate into eight
//! independent lanes so the compiler can autovectorize them; property tests
//! pin each one to its oracle under the per-kernel policy below:
//!
//! | kernel | contract vs oracle |
//! |---|---|
//! | [`axpy`] | bit-identical (same per-element operations) |
//! | [`mean`] | bit-identical (per-column `f64` sums in the same order) |
//! | [`dot`], [`squared_distance`] | ε-bounded (8-lane tree sum re-associates the reduction) |
//! | [`distances_block_into`], [`distances_into`] | ε-bounded (‖a−b‖² = ‖a‖²+‖b‖²−2a·b decomposition, clamped at 0) |
//!
//! # Length mismatches
//!
//! All two-vector kernels `assert!` on length mismatch in **every** build
//! profile. (They previously only `debug_assert!`ed, silently truncating to
//! the shorter vector in release builds — which is never correct.)

/// Number of independent accumulator lanes in the blocked kernels.
const LANES: usize = 8;

/// Squared Euclidean distance between two equal-length vectors
/// (blocked 8-lane kernel; ε-bounded against [`squared_distance_scalar`]).
///
/// # Panics
///
/// Panics when the lengths differ, in release builds too.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..LANES {
            let d = xa[i] - xb[i];
            lanes[i] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce_lanes(&lanes) + tail
}

/// Scalar reference oracle for [`squared_distance`] (sequential sum).
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn squared_distance_scalar(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Dot product of two equal-length vectors (blocked 8-lane kernel;
/// ε-bounded against [`dot_scalar`]).
///
/// # Panics
///
/// Panics when the lengths differ, in release builds too.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..LANES {
            lanes[i] += xa[i] * xb[i];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce_lanes(&lanes) + tail
}

/// Scalar reference oracle for [`dot`] (sequential sum).
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Pairwise tree reduction of the accumulator lanes (fixed association, so
/// the blocked kernels are deterministic run to run).
fn reduce_lanes(lanes: &[f32; LANES]) -> f32 {
    ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]))
}

/// `y[i] += alpha * x[i]` over two equal-length vectors (blocked kernel;
/// **bit-identical** to [`axpy_scalar`] — the per-element operation is the
/// same, only the loop is unrolled).
///
/// # Panics
///
/// Panics when the lengths differ, in release builds too.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "vector length mismatch");
    let mut cy = y.chunks_exact_mut(LANES);
    let mut cx = x.chunks_exact(LANES);
    for (ya, xa) in cy.by_ref().zip(cx.by_ref()) {
        for i in 0..LANES {
            ya[i] += alpha * xa[i];
        }
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
    }
}

/// Scalar reference oracle for [`axpy`].
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "vector length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Element-wise mean of a non-empty set of equal-length vectors (blocked
/// column kernel; **bit-identical** to [`mean_scalar`] — each column is an
/// independent `f64` sum accumulated in the same vector order).
///
/// Returns `None` when `vectors` is empty.
///
/// # Panics
///
/// Panics when the vectors have inconsistent lengths, in release builds too.
pub fn mean<V: AsRef<[f32]>>(vectors: &[V]) -> Option<Vec<f32>> {
    let first = vectors.first()?.as_ref();
    let mut acc = vec![0.0f64; first.len()];
    for v in vectors {
        let v = v.as_ref();
        assert_eq!(v.len(), first.len(), "vector length mismatch");
        let mut ca = acc.chunks_exact_mut(LANES);
        let mut cv = v.chunks_exact(LANES);
        for (aa, xa) in ca.by_ref().zip(cv.by_ref()) {
            for i in 0..LANES {
                aa[i] += f64::from(xa[i]);
            }
        }
        for (a, x) in ca.into_remainder().iter_mut().zip(cv.remainder()) {
            *a += f64::from(*x);
        }
    }
    let n = vectors.len() as f64;
    Some(acc.into_iter().map(|a| (a / n) as f32).collect())
}

/// Scalar reference oracle for [`mean`].
///
/// # Panics
///
/// Panics when the vectors have inconsistent lengths.
pub fn mean_scalar<V: AsRef<[f32]>>(vectors: &[V]) -> Option<Vec<f32>> {
    let first = vectors.first()?.as_ref();
    let mut acc = vec![0.0f64; first.len()];
    for v in vectors {
        let v = v.as_ref();
        assert_eq!(v.len(), first.len(), "vector length mismatch");
        for (a, x) in acc.iter_mut().zip(v.iter()) {
            *a += f64::from(*x);
        }
    }
    let n = vectors.len() as f64;
    Some(acc.into_iter().map(|a| (a / n) as f32).collect())
}

/// Squared norms ‖p‖² of a set of points (the per-point half of the
/// ‖a‖² + ‖b‖² − 2·a·b decomposition; [`PointBlock`] caches them).
pub(crate) fn squared_norms<P: AsRef<[f32]>>(points: &[P]) -> Vec<f32> {
    points.iter().map(|p| dot(p.as_ref(), p.as_ref())).collect()
}

/// A point set frozen for repeated distance-matrix calls: the column-major
/// copy and the squared norms are built once, so per-call work is only the
/// row-parallel walk. k-means freezes its samples this way at fit time and
/// reuses the block across every assignment iteration; a high-dimensional
/// k-NN classifier whose training set is small enough to stay in cache
/// freezes it the same way and queries it once per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct PointBlock {
    /// Column-major: slot `d * len + p` holds component `d` of point `p`,
    /// so a whole "column" of one dimension is contiguous.
    transposed: Vec<f32>,
    norms: Vec<f32>,
    len: usize,
    dim: usize,
}

impl PointBlock {
    /// Builds the block (one transpose + one norm pass).
    ///
    /// # Panics
    ///
    /// Panics when the points have inconsistent lengths.
    pub fn new<P: AsRef<[f32]>>(points: &[P]) -> Self {
        let len = points.len();
        let dim = points.first().map_or(0, |p| p.as_ref().len());
        let mut transposed = vec![0.0f32; len * dim];
        for (p, point) in points.iter().enumerate() {
            let point = point.as_ref();
            assert_eq!(point.len(), dim, "vector length mismatch");
            for (d, &v) in point.iter().enumerate() {
                transposed[d * len + p] = v;
            }
        }
        PointBlock {
            transposed,
            norms: squared_norms(points),
            len,
            dim,
        }
    }

    /// Number of points in the block.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no points.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Fused batch distance-matrix kernel against a frozen [`PointBlock`]:
/// `out[q * block.len() + p] = ‖queries[q] − points[p]‖²`.
///
/// Uses the ‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b decomposition over the block's
/// column-major copy of the points: each output row is initialised to
/// ‖q‖² + ‖p‖² and then walked once per dimension, subtracting `2·q_d·p_d`
/// across the whole row of contiguous point components. Every row element
/// is independent, so the inner loop autovectorizes without any reduction
/// chain. Results are clamped at 0 (the decomposition can go fractionally
/// negative when a query coincides with a point) and are ε-bounded, not
/// bit-identical, against [`distances_into_scalar`]:
/// `|d − d_scalar| ≤ 1e-3 · (1 + ‖a‖² + ‖b‖²)`, the documented policy the
/// property tests pin.
///
/// `out` is cleared and refilled, so one buffer can be reused across calls;
/// an empty block yields an empty `out`.
///
/// # Panics
///
/// Panics when any query length differs from `block.dim()` (for a
/// non-empty block).
pub fn distances_block_into<Q: AsRef<[f32]>>(
    queries: &[Q],
    block: &PointBlock,
    out: &mut Vec<f32>,
) {
    out.clear();
    if block.is_empty() {
        return;
    }
    let np = block.len;
    out.resize(queries.len() * np, 0.0);
    for (q, row) in queries.iter().zip(out.chunks_exact_mut(np)) {
        let q = q.as_ref();
        assert_eq!(q.len(), block.dim, "vector length mismatch");
        let qn = dot(q, q);
        for (r, &pn) in row.iter_mut().zip(&block.norms) {
            *r = qn + pn;
        }
        for (&qd, column) in q.iter().zip(block.transposed.chunks_exact(np)) {
            let coeff = -2.0 * qd;
            for (r, &pv) in row.iter_mut().zip(column) {
                *r += coeff * pv;
            }
        }
        for r in row.iter_mut() {
            *r = r.max(0.0);
        }
    }
}

/// One-shot [`distances_block_into`] over points that are not frozen yet.
///
/// **Transposes per call:** every call builds a fresh [`PointBlock`] — it
/// allocates `points.len() × dim` floats and scatter-transposes the whole
/// point set — so the cost is only amortised when one call carries many
/// queries. A caller that meets the same points again (a classifier
/// answering one query at a time, an iterative fit) freezes a
/// [`PointBlock`] once and calls [`distances_block_into`] instead.
///
/// # Panics
///
/// Panics when any query or point length differs from the rest.
pub fn distances_into<Q: AsRef<[f32]>, P: AsRef<[f32]>>(
    queries: &[Q],
    points: &[P],
    out: &mut Vec<f32>,
) {
    distances_block_into(queries, &PointBlock::new(points), out);
}

/// Scalar reference oracle for [`distances_into`]: a direct
/// [`squared_distance_scalar`] per (query, point) pair.
///
/// # Panics
///
/// Panics when any vector length differs.
pub fn distances_into_scalar<Q: AsRef<[f32]>, P: AsRef<[f32]>>(
    queries: &[Q],
    points: &[P],
    out: &mut Vec<f32>,
) {
    out.clear();
    out.reserve(queries.len() * points.len());
    for q in queries {
        for p in points {
            out.push(squared_distance_scalar(q.as_ref(), p.as_ref()));
        }
    }
}

/// Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics when the lengths differ, in release builds too.
pub(crate) fn distance(a: &[f32], b: &[f32]) -> f32 {
    squared_distance(a, b).sqrt()
}

/// Arithmetic mean of a scalar slice (0.0 for an empty slice).
pub(crate) fn scalar_mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f32>() / values.len() as f32
}

/// Index of the minimum value (ties broken towards the lower index).
/// Returns `None` for an empty slice or when every value is NaN.
pub(crate) fn argmin(values: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Intersection-over-union of two axis-aligned boxes given as
/// `(min_x, min_y, max_x, max_y)`. Degenerate boxes yield 0.
pub fn iou(a: (f32, f32, f32, f32), b: (f32, f32, f32, f32)) -> f32 {
    let ix = (a.2.min(b.2) - a.0.max(b.0)).max(0.0);
    let iy = (a.3.min(b.3) - a.1.max(b.1)).max(0.0);
    let inter = ix * iy;
    let area_a = (a.2 - a.0).max(0.0) * (a.3 - a.1).max(0.0);
    let area_b = (b.2 - b.0).max(0.0) * (b.3 - b.1).max(0.0);
    let union = area_a + area_b - inter;
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

#[cfg(test)]
impl PointBlock {
    /// Dimensionality of the points (0 for an empty block).
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Population variance of a scalar slice (0.0 for fewer than two values).
    pub(crate) fn scalar_variance(values: &[f32]) -> f32 {
        if values.len() < 2 {
            return 0.0;
        }
        let m = scalar_mean(values);
        values.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / values.len() as f32
    }

    /// Index of the maximum value (ties broken towards the lower index).
    /// Returns `None` for an empty slice or when every value is NaN.
    pub(crate) fn argmax(values: &[f32]) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in values.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| i)
    }

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(squared_distance(&a, &b), 25.0);
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(distance(&a, &a), 0.0);
    }

    #[test]
    fn blocked_kernels_match_oracles_across_lengths() {
        // Lengths straddle the 8-lane boundary: empty, single, 7, 8, 9, 20.
        for n in [0usize, 1, 7, 8, 9, 20, 64, 65] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 1.3).cos() * 2.0).collect();
            let eps = 1e-4 * (1.0 + n as f32);
            assert!(
                (squared_distance(&a, &b) - squared_distance_scalar(&a, &b)).abs() < eps,
                "squared_distance len {n}"
            );
            assert!(
                (dot(&a, &b) - dot_scalar(&a, &b)).abs() < eps,
                "dot len {n}"
            );
            let mut y1 = b.clone();
            let mut y2 = b.clone();
            axpy(0.37, &a, &mut y1);
            axpy_scalar(0.37, &a, &mut y2);
            assert_eq!(y1, y2, "axpy must be bit-identical, len {n}");
        }
    }

    #[test]
    fn mean_of_vectors() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 6.0];
        let m = mean(&[&a[..], &b[..]]).unwrap();
        assert_eq!(m, vec![2.0, 4.0]);
        assert_eq!(mean::<&[f32]>(&[]), None);
        // Blocked and scalar means are bit-identical, including past lane 8.
        let vs: Vec<Vec<f32>> = (0..5)
            .map(|r| (0..19).map(|c| (r * 19 + c) as f32 * 0.31).collect())
            .collect();
        assert_eq!(mean(&vs), mean_scalar(&vs));
    }

    #[test]
    fn distance_matrix_matches_scalar_oracle() {
        let queries: Vec<Vec<f32>> = (0..3)
            .map(|q| (0..13).map(|i| (q * 13 + i) as f32 * 0.11 - 2.0).collect())
            .collect();
        let points: Vec<Vec<f32>> = (0..4)
            .map(|p| (0..13).map(|i| (p * 13 + i) as f32 * 0.07 - 1.0).collect())
            .collect();
        let mut fast = Vec::new();
        let mut oracle = Vec::new();
        distances_into(&queries, &points, &mut fast);
        distances_into_scalar(&queries, &points, &mut oracle);
        assert_eq!(fast.len(), oracle.len());
        for (qi, q) in queries.iter().enumerate() {
            for (pi, p) in points.iter().enumerate() {
                let i = qi * points.len() + pi;
                let eps = 1e-3 * (1.0 + dot(q, q) + dot(p, p));
                assert!(
                    (fast[i] - oracle[i]).abs() <= eps,
                    "pair ({qi},{pi}): {} vs {}",
                    fast[i],
                    oracle[i]
                );
            }
        }
        // A query that coincides with a point must not go negative.
        let mut d = Vec::new();
        distances_into(&[points[2].clone()], &points, &mut d);
        assert!(d[2] >= 0.0 && d[2] < 1e-3);
    }

    #[test]
    fn distance_matrix_reuses_buffer_and_handles_empty() {
        let mut out = vec![99.0; 7];
        distances_into(&[[1.0f32, 2.0]], &[[1.0f32, 2.0], [4.0, 6.0]], &mut out);
        assert_eq!(out.len(), 2);
        assert!(out[0] < 1e-6 && (out[1] - 25.0).abs() < 1e-3);
        distances_into::<[f32; 2], [f32; 2]>(&[], &[[0.0, 0.0]], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn squared_distance_rejects_mismatch() {
        let _ = squared_distance(&[0.0, 1.0], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatch() {
        let _ = dot(&[0.0, 1.0], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_rejects_mismatch() {
        axpy(1.0, &[0.0, 1.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mean_rejects_mismatch() {
        let _ = mean(&[vec![0.0, 1.0], vec![0.0]]);
    }

    #[test]
    fn scalar_statistics() {
        assert_eq!(scalar_mean(&[]), 0.0);
        assert_eq!(scalar_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(scalar_variance(&[5.0]), 0.0);
        assert!((scalar_variance(&[1.0, 3.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmin_argmax_with_ties_and_nan() {
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmin(&[f32::NAN]), None);
        assert_eq!(argmin(&[3.0, 1.0, 1.0, 2.0]), Some(1));
        assert_eq!(argmax(&[3.0, 5.0, 5.0]), Some(1));
        assert_eq!(argmin(&[f32::NAN, 2.0, 1.0]), Some(2));
    }

    #[test]
    fn iou_cases() {
        let unit = (0.0, 0.0, 1.0, 1.0);
        assert!((iou(unit, unit) - 1.0).abs() < 1e-6);
        assert_eq!(iou(unit, (2.0, 2.0, 3.0, 3.0)), 0.0);
        // Half overlap: boxes share half their area.
        let right = (0.5, 0.0, 1.5, 1.0);
        let expected = 0.5 / 1.5;
        assert!((iou(unit, right) - expected).abs() < 1e-6);
        // Degenerate box.
        assert_eq!(iou(unit, (0.5, 0.5, 0.5, 0.5)), 0.0);
    }
}
