//! Order statistics shared by every workload.

/// A tail percentile: the highest whole percentile that still has at least
/// [`TAIL_BEYOND`] samples above it, so a tail is never read off a handful
/// of outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `89` for p89.
    pub pct: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// Minimum number of samples beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorts ascending; NaN is a bug in the caller (timings are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile of ascending `sorted` (`pct` in 0..=100).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank, lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The highest whole percentile in 50..=99 with at least [`TAIL_BEYOND`]
/// samples beyond its nearest rank; `None` when even p50 lacks them.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    (50..=99).rev().find_map(|pct| {
        let rank = (pct as usize * n).div_ceil(100).max(1);
        let beyond = n - rank;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: s[rank - 1],
            beyond,
            n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p90 has exactly 10 beyond it, p91 only 9.
        let t = tail(&ramp(100)).expect("enough samples");
        assert_eq!((t.pct, t.beyond, t.n), (90, 10, 100));
        assert_eq!(t.value, 90.0);
        // 96 samples: p89 → rank 86, 10 beyond; p90 → rank 87, 9 beyond.
        let t = tail(&ramp(96)).expect("enough samples");
        assert_eq!((t.pct, t.beyond), (89, 10));
        // 1000 samples reach p99.
        let t = tail(&ramp(1000)).expect("enough samples");
        assert_eq!((t.pct, t.beyond), (99, 10));
    }

    #[test]
    fn tail_is_refused_on_too_few_samples() {
        assert!(tail(&ramp(19)).is_none());
        assert_eq!(tail(&ramp(20)).map(|t| t.pct), Some(50));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(200)));
    }

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&ramp(10), 100.0), 10.0);
        assert_eq!(percentile(&ramp(10), 0.0), 1.0);
    }
}
