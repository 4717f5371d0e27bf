//! Summary statistics with the benchmark's reporting rules.
//!
//! A timing is reported as its median plus the highest percentile of a
//! fixed ladder that still has at least [`MIN_BEYOND`] samples beyond
//! it, together with the sample count. Each workload caps the ladder at
//! the percentile its run length supports, so the reported percentile
//! does not flip between runs whose sample counts differ slightly. A failed operation is recorded
//! as `f64::INFINITY`, so it counts as missing every latency limit.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const LADDER: [f64; 6] = [99.0, 97.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile as reported: which percentile, its value and the
/// sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.0); 100.0 when the sample is too small
    /// for any ladder percentile and the maximum is reported instead.
    pub pct: f64,
    /// The sample at that percentile (nearest-rank).
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
}

/// 1-based nearest-rank position of percentile `pct` among `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(pct, sorted.len()) - 1]
}

/// Median of a slice (the mean of the two middle values for even
/// counts), sorting a copy.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest ladder percentile at or below `cap` with at least
/// [`MIN_BEYOND`] samples beyond it; the maximum (reported as
/// percentile 100) when even the median has fewer.
pub fn tail(values: &[f64], cap: f64) -> Tail {
    assert!(!values.is_empty(), "tail of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for pct in LADDER.into_iter().filter(|&p| p <= cap) {
        let r = rank(pct, n);
        if n - r >= MIN_BEYOND {
            return Tail {
                pct,
                value: v[r - 1],
                samples: n,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: v[n - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousand_samples_support_p99() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // Exactly ten samples (991..=1000) lie beyond it.
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn smaller_samples_step_down_the_ladder() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0).pct, 97.0, "p99 would leave only 9 beyond");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0).pct, 90.0);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0).pct, 75.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0).pct, 50.0);
    }

    #[test]
    fn the_cap_holds_the_percentile_still() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0).pct, 90.0);
        assert_eq!(tail(&v, 100.0).pct, 99.0);
    }

    #[test]
    fn tiny_samples_report_the_maximum() {
        let v = [3.0, 1.0, 2.0];
        let t = tail(&v, 99.0);
        assert_eq!((t.pct, t.value, t.samples), (100.0, 3.0, 3));
    }

    #[test]
    fn failures_count_beyond_any_limit() {
        // 990 fast requests and 10 failures: the failures sit beyond
        // p99, so p99 is still a real latency, but one more failure
        // pushes the reported p99 to infinity.
        let mut v = vec![1.0; 990];
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(tail(&v, 99.0).value, 1.0);
        v[0] = f64::INFINITY;
        assert_eq!(tail(&v, 99.0).value, f64::INFINITY);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }
}
