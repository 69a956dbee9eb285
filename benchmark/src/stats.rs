//! The one percentile / median / spread implementation of the benchmark.

/// Percentiles the benchmark may report, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of percentile `q` (0–100, to a tenth) among `n` samples:
/// `ceil(n · q / 100)`, in integers so that p99.9 of 10 000 is 9 990.
fn rank(n: usize, q: f64) -> usize {
    let per_mille = (q * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000)
}

/// Nearest-rank percentile `q` of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie beyond percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`] of
/// `n` samples beyond it; `None` when even the median has too few.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median of unordered values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Min / median / max of the per-segment values of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

/// Summarise per-segment values; the median is what a metric reports.
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        median: median(values),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so `--compare` judges spread as the driver does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_highest_percentile_with_ten_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        for n in [20, 137, 1000, 4801] {
            let q = highest_supported(n).unwrap();
            assert!(beyond(n, q) >= MIN_BEYOND);
            if let Some(next) = LADDER.iter().find(|&&l| l > q) {
                assert!(beyond(n, *next) < MIN_BEYOND);
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn segment_median_arithmetic() {
        let s = summarize(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 5.0, 9.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One stalled segment does not move the reported value.
        assert_eq!(
            summarize(&[100.0, 101.0, 5000.0, 99.0, 100.5]).median,
            100.5
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(spread(&v), 1.0);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    }
}
