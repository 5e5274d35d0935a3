//! Property tests for the ML substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use videopipe_ml::kmeans::KMeans;
use videopipe_ml::knn::{KdTree, KnnClassifier, BOUNDED_MIN_BYTES};
use videopipe_ml::math::{
    axpy, axpy_scalar, distances_into, distances_into_scalar, dot, dot_scalar, iou, mean,
    mean_scalar, squared_distance, squared_distance_scalar,
};
use videopipe_ml::reps::{RepCounter, RepCounterModel};

fn arb_points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, dim), n)
}

/// NaN-free random vectors whose lengths straddle the 8-lane block size
/// (empty, single-element, and non-multiple-of-8 lengths all appear).
fn arb_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After training, every sample's predicted cluster is its nearest
    /// centroid (the defining k-means invariant).
    #[test]
    fn kmeans_assignment_is_nearest_centroid(samples in arb_points(3, 4..40), k in 1usize..4) {
        prop_assume!(samples.len() >= k);
        let model = KMeans::new(k).fit(&samples).unwrap();
        for s in &samples {
            let assigned = model.predict(s);
            let d_assigned = squared_distance(s, &model.centroids()[assigned]);
            for c in model.centroids() {
                prop_assert!(d_assigned <= squared_distance(s, c) + 1e-4);
            }
        }
    }

    /// k-means is deterministic for a fixed seed.
    #[test]
    fn kmeans_deterministic(samples in arb_points(2, 3..20), seed in any::<u64>()) {
        let a = KMeans::new(2).with_seed(seed).fit(&samples);
        let b = KMeans::new(2).with_seed(seed).fit(&samples);
        prop_assert_eq!(a.is_ok(), b.is_ok());
        if let (Ok(a), Ok(b)) = (a, b) {
            prop_assert_eq!(a, b);
        }
    }

    /// The KD-tree returns neighbours at exactly the same distances as the
    /// brute-force scan.
    #[test]
    fn kdtree_matches_brute_force(samples in arb_points(3, 1..60), query in proptest::collection::vec(-100.0f32..100.0, 3), k in 1usize..6) {
        let tree = KdTree::build(&samples);
        let tree_hits = tree.nearest(&samples, &query, k);
        let labels = vec!["x".to_string(); samples.len()];
        let knn = KnnClassifier::fit(k, samples.clone(), labels).unwrap();
        let brute_hits = knn.brute_force(&query);
        let d = |idx: &usize| squared_distance(&query, &samples[*idx]);
        let mut td: Vec<f32> = tree_hits.iter().map(d).collect();
        let mut bd: Vec<f32> = brute_hits.iter().map(d).collect();
        td.sort_by(|a, b| a.partial_cmp(b).unwrap());
        bd.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(td.len(), bd.len());
        for (a, b) in td.iter().zip(bd.iter()) {
            prop_assert!((a - b).abs() < 1e-3, "tree {a} vs brute {b}");
        }
    }

    /// IoU is symmetric, bounded in [0, 1], and 1 only for identical boxes.
    #[test]
    fn iou_properties(
        a in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
        b in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
    ) {
        let boxify = |(x0, y0, w, h): (f32, f32, f32, f32)| (x0, y0, x0 + w + 0.01, y0 + h + 0.01);
        let (ba, bb) = (boxify(a), boxify(b));
        let v = iou(ba, bb);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!((v - iou(bb, ba)).abs() < 1e-6, "symmetry");
        prop_assert!((iou(ba, ba) - 1.0).abs() < 1e-5);
    }

    /// The rep counter can never count more reps than debounced transitions
    /// allow: with n observations, at most n / (2 * debounce) reps.
    #[test]
    fn rep_counter_bounded_by_observations(clusters in proptest::collection::vec(0usize..2, 0..200)) {
        let model = RepCounterModel::from_parts(vec![vec![0.0; 4], vec![1.0; 4]], 0);
        let mut counter = RepCounter::new(model);
        for &c in &clusters {
            counter.push_cluster(c);
        }
        let max_reps = clusters.len() as u32 / 8; // 2 transitions x 4-frame debounce
        prop_assert!(counter.reps() <= max_reps, "{} reps from {} observations", counter.reps(), clusters.len());
    }

    /// Pushing the initial cluster forever never counts a rep.
    #[test]
    fn rep_counter_idle_never_counts(n in 0usize..300) {
        let model = RepCounterModel::from_parts(vec![vec![0.0; 4], vec![1.0; 4]], 0);
        let mut counter = RepCounter::new(model);
        for _ in 0..n {
            prop_assert_eq!(counter.push_cluster(0), None);
        }
        prop_assert_eq!(counter.reps(), 0);
    }

    /// k-NN prediction always returns one of the training labels.
    #[test]
    fn knn_returns_known_label(samples in arb_points(2, 1..30), query in proptest::collection::vec(-100.0f32..100.0, 2), k in 1usize..5) {
        let labels: Vec<String> = (0..samples.len()).map(|i| format!("c{}", i % 3)).collect();
        let knn = KnnClassifier::fit(k, samples, labels.clone()).unwrap();
        let prediction = knn.predict(&query).unwrap();
        prop_assert!(labels.iter().any(|l| l == prediction));
    }

    /// Blocked squared-distance and dot kernels stay ε-close to their
    /// scalar oracles for any NaN-free vectors (only the reduction order
    /// differs, so the error is bounded by a few ULPs of the magnitudes).
    #[test]
    fn blocked_reductions_match_scalar_oracles(pair in arb_vec(40).prop_flat_map(|a| {
        let n = a.len();
        (Just(a), proptest::collection::vec(-100.0f32..100.0, n))
    })) {
        let (a, b) = pair;
        let eps = 1e-3 * (1.0 + a.len() as f32 * 1e4);
        prop_assert!((squared_distance(&a, &b) - squared_distance_scalar(&a, &b)).abs() <= eps);
        prop_assert!((dot(&a, &b) - dot_scalar(&a, &b)).abs() <= eps);
    }

    /// Blocked axpy is bit-identical to its scalar oracle: the per-element
    /// operation is unchanged, only the loop is unrolled.
    #[test]
    fn blocked_axpy_is_bit_identical(pair in arb_vec(40).prop_flat_map(|x| {
        let n = x.len();
        (Just(x), proptest::collection::vec(-100.0f32..100.0, n))
    }), alpha in -10.0f32..10.0) {
        let (x, y0) = pair;
        let mut fast = y0.clone();
        let mut oracle = y0;
        axpy(alpha, &x, &mut fast);
        axpy_scalar(alpha, &x, &mut oracle);
        prop_assert_eq!(fast, oracle);
    }

    /// Blocked mean is bit-identical to its scalar oracle: each column is
    /// an independent f64 sum accumulated in the same vector order.
    #[test]
    fn blocked_mean_is_bit_identical(vectors in (0usize..30).prop_flat_map(|dim| {
        proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, dim), 0..10)
    })) {
        prop_assert_eq!(mean(&vectors), mean_scalar(&vectors));
    }

    /// The fused distance-matrix kernel obeys its documented ε policy
    /// against the direct per-pair scalar oracle:
    /// |d − d_scalar| ≤ 1e-3 · (1 + ‖a‖² + ‖b‖²), and never negative.
    #[test]
    fn distance_matrix_matches_scalar_within_policy(matrices in (1usize..20).prop_flat_map(|dim| {
        (
            proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, dim), 0..8),
            proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, dim), 1..8),
        )
    })) {
        let (queries, points) = matrices;
        let mut fast = Vec::new();
        let mut oracle = Vec::new();
        distances_into(&queries, &points, &mut fast);
        distances_into_scalar(&queries, &points, &mut oracle);
        prop_assert_eq!(fast.len(), oracle.len());
        for (qi, q) in queries.iter().enumerate() {
            for (pi, p) in points.iter().enumerate() {
                let i = qi * points.len() + pi;
                prop_assert!(fast[i] >= 0.0);
                let eps = 1e-3 * (1.0 + dot(q, q) + dot(p, p));
                prop_assert!((fast[i] - oracle[i]).abs() <= eps,
                    "pair ({}, {}): {} vs {}", qi, pi, fast[i], oracle[i]);
            }
        }
    }

    /// The leaf-bucketed KD-tree finds neighbours at the same distances as
    /// the scalar brute-force oracle, across datasets large enough to force
    /// several leaf splits (the leaf scan runs the blocked kernel, so this
    /// pins tree pruning AND the new distance kernel at once).
    #[test]
    fn kdtree_leaf_scan_matches_scalar_brute_force(samples in arb_points(4, 1..120), query in proptest::collection::vec(-100.0f32..100.0, 4), k in 1usize..6) {
        let labels = vec!["x".to_string(); samples.len()];
        let knn = KnnClassifier::fit(k, samples.clone(), labels).unwrap();
        prop_assert!(knn.uses_kdtree());
        let tree_hits = knn.neighbours(&query).unwrap();
        let brute_hits = knn.brute_force_scalar(&query);
        let d = |idx: &usize| squared_distance_scalar(&query, &samples[*idx]);
        let mut td: Vec<f32> = tree_hits.iter().map(d).collect();
        let mut bd: Vec<f32> = brute_hits.iter().map(d).collect();
        td.sort_by(|a, b| a.partial_cmp(b).unwrap());
        bd.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(td.len(), bd.len());
        for (a, b) in td.iter().zip(bd.iter()) {
            prop_assert!((a - b).abs() <= 1e-3 * (1.0 + a.abs()), "tree {} vs brute {}", a, b);
        }
    }
}

/// Map-based majority vote over closest-first neighbour indices, ties to
/// the nearest tied label: the oracle for the classifier's own vote.
fn oracle_vote<'a>(labels: &'a [String], neighbours: &[usize]) -> &'a str {
    let mut votes: HashMap<&str, usize> = HashMap::new();
    for &i in neighbours {
        *votes.entry(labels[i].as_str()).or_insert(0) += 1;
    }
    let max_votes = *votes.values().max().expect("at least one neighbour");
    neighbours
        .iter()
        .map(|&i| labels[i].as_str())
        .find(|l| votes[l] == max_votes)
        .expect("at least one neighbour")
}

/// Class centres on the diagonal, unevenly spaced so that no query sits
/// midway between two classes: with ±1 noise per component the squared
/// gap between classes (≥ 100·dim) dwarfs the kernel's ε (≈ 2·dim), so
/// the class make-up of the k nearest — and with it the label — is the
/// same whichever kernel measured the distances.
const CENTRES: [f32; 3] = [0.0, 10.0, 30.0];

fn noisy_point(rng: &mut StdRng, class: usize, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| CENTRES[class] + rng.gen_range(-1.0f32..1.0))
        .collect()
}

proptest! {
    // Each case is up to 300 × 600 floats scanned a few hundred times.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The brute-force path — one frozen column-major block behind
    /// `predict`, `neighbours` and `predict_batch` — agrees with the
    /// row-scan scalar oracle: same labels for single queries and for
    /// batches on every side of the 64-query tile boundary, and neighbour
    /// sets at the same distances up to the distance-matrix ε policy.
    /// Duplicated training points put exact distance ties in every set.
    #[test]
    fn knn_block_path_matches_scalar_oracle(
        dim in 17usize..=600,
        distinct in 1usize..=240,
        duplicates in 0usize..=60,
        k in 1usize..=7,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(distinct + duplicates);
        let mut labels = Vec::with_capacity(distinct + duplicates);
        for _ in 0..distinct {
            let class = rng.gen_range(0..CENTRES.len());
            samples.push(noisy_point(&mut rng, class, dim));
            labels.push(format!("c{class}"));
        }
        for _ in 0..duplicates {
            let original = rng.gen_range(0..distinct);
            samples.push(samples[original].clone());
            labels.push(labels[original].clone());
        }
        let knn = KnnClassifier::fit(k, samples.clone(), labels.clone()).unwrap();
        prop_assert!(!knn.uses_kdtree());

        let queries: Vec<Vec<f32>> = (0..65)
            .map(|_| {
                let class = rng.gen_range(0..CENTRES.len());
                noisy_point(&mut rng, class, dim)
            })
            .collect();
        let max_norm = samples.iter().map(|s| dot(s, s)).fold(0.0f32, f32::max);
        let mut expected = Vec::with_capacity(queries.len());
        for q in &queries {
            let oracle = knn.brute_force_scalar(q);
            let label = oracle_vote(&labels, &oracle);
            prop_assert_eq!(knn.predict(q).unwrap(), label);
            expected.push(label);

            // Selecting on ε-perturbed distances moves each order statistic
            // by at most ε, and re-measuring the chosen points moves it by
            // ε again.
            let found = knn.neighbours(q).unwrap();
            prop_assert_eq!(found.len(), oracle.len());
            let eps = 2e-3 * (1.0 + dot(q, q) + max_norm);
            let d = |idx: &usize| squared_distance_scalar(q, &samples[*idx]);
            let mut fd: Vec<f32> = found.iter().map(d).collect();
            fd.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (a, b) in fd.iter().zip(oracle.iter().map(d)) {
                prop_assert!((a - b).abs() <= eps, "block {} vs oracle {}", a, b);
            }
        }
        for tile in [1, 63, 64, 65] {
            prop_assert_eq!(
                knn.predict_batch(&queries[..tile]).unwrap(),
                &expected[..tile],
                "batch of {}", tile
            );
        }
    }
}

proptest! {
    // Each case is a model of at least BOUNDED_MIN_BYTES, row-scanned per
    // query.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The bound-pruned search returns exactly the row scan's list on the
    /// same blocked distance kernel — same indices in the same order, ties
    /// included — at dimensions the sketch span does not divide, with
    /// duplicated samples and queries that sit on a training sample (so
    /// ties at distance 0 as well). Magnitudes vary per case so the pruning
    /// margin is exercised on close and on far pairs.
    #[test]
    fn knn_bounded_neighbours_equal_brute_force(
        dim in 17usize..=600,
        duplicates in 0usize..=60,
        k in 1usize..=7,
        exponent in -3.0f32..=3.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 10f32.powf(exponent);
        // Enough rows that fit chooses the bounded shape.
        let distinct = BOUNDED_MIN_BYTES.div_ceil(dim * 4);
        let mut samples: Vec<Vec<f32>> = Vec::with_capacity(distinct + duplicates);
        for _ in 0..distinct {
            let class = rng.gen_range(0..CENTRES.len());
            samples.push(noisy_point(&mut rng, class, dim).iter().map(|v| v * scale).collect());
        }
        for _ in 0..duplicates {
            let original = rng.gen_range(0..distinct);
            samples.push(samples[original].clone());
        }
        let labels: Vec<String> = (0..samples.len()).map(|i| format!("c{}", i % 3)).collect();
        let knn = KnnClassifier::fit(k, samples.clone(), labels).unwrap();
        prop_assert!(!knn.uses_kdtree());
        for i in 0..12 {
            let query: Vec<f32> = if i % 3 == 0 {
                samples[rng.gen_range(0..samples.len())].clone()
            } else {
                let class = rng.gen_range(0..CENTRES.len());
                noisy_point(&mut rng, class, dim).iter().map(|v| v * scale).collect()
            };
            prop_assert_eq!(knn.neighbours(&query).unwrap(), knn.brute_force(&query));
        }
    }
}
