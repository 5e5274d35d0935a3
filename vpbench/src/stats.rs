//! Order statistics over exact samples.
//!
//! `core::metrics::LatencyHistogram` has power-of-two buckets (every p99
//! between 4.1 and 8.2 ms reads "8.16 ms"), so the benchmark keeps every
//! sample and selects from the sorted list.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Median of unsorted values (mean of the two middle ones when even).
/// `0.0` when empty, so an absent layer prints as zero.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&mut v)
}

/// Relative spread of repeated measurements: `(max − min) / median`.
pub fn relative_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let mid = median(&mut v);
    if mid == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        assert_eq!(percentile(&[7u64], 99.0), Some(7));
    }

    #[test]
    fn beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1800, 99.0), 18);
        assert_eq!(samples_beyond(1200, 99.0), 12);
        assert_eq!(samples_beyond(600, 99.0), 6);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert!((relative_spread(&[95.0, 100.0, 105.0]) - 0.1).abs() < 1e-12);
        assert_eq!(median_us(&[1000, 3000, 2000]), 2.0);
    }
}
