//! Order statistics shared by every workload.
//!
//! Latency samples of failed operations are `f64::INFINITY`: a request
//! that fails or is refused counts as missing any latency limit, so it
//! sorts above every real sample.

/// Sorts a copy of `values` ascending (infinities last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of the `q`-th percentile in a sample of `n`.
/// The small tolerance keeps decimal percentiles such as 99.9 from
/// rounding up a rank through binary representation error.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-th percentile (`q` in `0..=100`) of an ascending
/// sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples strictly beyond the nearest-rank `q`-th percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| beyond(n, q) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.5), 5);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 100 scans: p90 leaves 10 beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        for n in 20..3000 {
            let q = tail_percentile(n).expect("n >= 20 supports a tail");
            assert!(beyond(n, q) >= 10, "n={n} q={q}");
            if let Some(higher) = TAIL_LADDER.iter().rev().find(|&&h| h > q) {
                assert!(beyond(n, *higher) < 10, "n={n}: {higher} also qualifies");
            }
        }
    }

    #[test]
    fn failures_sort_as_missing_the_limit() {
        let mut v: Vec<f64> = (0..99).map(|_| 1.0).collect();
        v.push(f64::INFINITY);
        v.push(f64::INFINITY);
        let s = sorted(&v);
        assert_eq!(percentile(&s, 98.0), 1.0);
        assert!(percentile(&s, 99.5).is_infinite());
    }
}
