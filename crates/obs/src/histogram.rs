//! Log2-bucketed latency histograms with atomic updates.
//!
//! Values (milliseconds, but any `u64` works) land in buckets by bit
//! length: bucket 0 holds exactly 0, bucket `k` (1 ≤ k ≤ 64) holds
//! `2^(k-1) ..= 2^k - 1`. 65 buckets cover the whole `u64` range, so
//! recording never saturates and quantiles stay within a factor of two
//! of the truth — plenty for p50/p95/p99 dashboards, at the cost of one
//! `fetch_add` per observation.

use crate::time::{SpanTimer, TimeSource};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per `u64` bit length.
pub const NUM_BUCKETS: usize = 65;

/// The bucket a value lands in: its bit length (0 for 0).
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Largest value bucket `index` holds (`2^index - 1`, saturating).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        1..=63 => (1u64 << index) - 1,
        _ => u64::MAX,
    }
}

struct Inner {
    counts: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// A shareable handle to one histogram. Cloning shares the underlying
/// buckets; updates are lock-free atomics.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
}

impl Histogram {
    /// An empty histogram.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.inner.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Starts a span guard that records its elapsed milliseconds on drop.
    pub fn time<'a>(&'a self, source: &'a dyn TimeSource) -> SpanTimer<'a> {
        SpanTimer::start(self, source)
    }

    /// A point-in-time copy of the buckets. Concurrent recorders may be
    /// mid-update, so `sum`/`max` can lead or trail the bucket counts by
    /// the in-flight observations; each individual counter is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .inner
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.inner.sum.load(Ordering::Relaxed),
            max: self.inner.max.load(Ordering::Relaxed),
        }
    }
}

/// Frozen histogram contents, with quantile accessors and the text forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, [`NUM_BUCKETS`] entries.
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The value at quantile `q` (0 < q ≤ 1): the upper bound of the
    /// bucket the rank lands in, clamped to the recorded max. 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (upper bucket bound, clamped to max).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile — the tail the serving SLOs gate on.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// The sparse one-line text form used by `mrobs 1`:
    /// `<count> <sum> <max> [<bucket>:<count> ...]` — only non-empty
    /// buckets are listed.
    pub fn to_line(&self) -> String {
        let mut out = format!("{} {} {}", self.count(), self.sum, self.max);
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                let _ = write!(out, " {i}:{c}");
            }
        }
        out
    }

    /// Parses [`HistogramSnapshot::to_line`] output. Returns `None` on
    /// malformed input (including a count that disagrees with the
    /// buckets).
    pub fn from_line(line: &str) -> Option<Self> {
        let mut it = line.split_whitespace();
        let count: u64 = it.next()?.parse().ok()?;
        let sum = it.next()?.parse().ok()?;
        let max = it.next()?.parse().ok()?;
        let mut counts = vec![0u64; NUM_BUCKETS];
        for pair in it {
            let (idx, c) = pair.split_once(':')?;
            let idx: usize = idx.parse().ok()?;
            if idx >= NUM_BUCKETS {
                return None;
            }
            counts[idx] = c.parse().ok()?;
        }
        // Checked: bucket counts summing past u64 are garbage, not a
        // histogram of 2^64 samples.
        let total = counts.iter().try_fold(0u64, |acc, &c| acc.checked_add(c))?;
        (total == count).then_some(Self { counts, sum, max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // 0 is its own bucket; 1 starts bucket 1; every 2^k starts a new
        // bucket and 2^k - 1 / 2^k + 1 sit on either side.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        for k in 1..63 {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p), k + 1, "2^{k}");
            assert_eq!(bucket_index(p - 1), k, "2^{k} - 1");
            assert_eq!(bucket_index(p + 1), k + 1, "2^{k} + 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1_023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Bucket invariant: every value fits under its bucket's bound.
        for v in [0u64, 1, 2, 3, 1_024, 1_025, u64::MAX] {
            assert!(v <= bucket_upper_bound(bucket_index(v)));
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 5, 9, 100, 100, 100, 2_000, 60_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10);
        assert_eq!(s.sum, 62_317);
        assert_eq!(s.max, 60_000);
        // Rank 5 lands in bucket 4 (values 8..=15): p50 == 15.
        assert_eq!(s.p50(), 15);
        // p95 → rank 10 → the max's bucket, clamped to max.
        assert_eq!(s.p95(), 60_000);
        assert_eq!(s.p99(), 60_000);
        assert_eq!(s.p999(), 60_000);
        assert_eq!(s.quantile(0.01), 0);
    }

    #[test]
    fn p999_separates_from_p99_at_bucket_boundaries() {
        // 998 fast observations and 2 slow ones: the slow tail is 0.2% of
        // the population, so p99 must stay in the fast bucket while p999
        // (rank 999 of 1000) lands in the slow one.
        let h = Histogram::new();
        for _ in 0..998 {
            h.record(1);
        }
        h.record(5_000);
        h.record(6_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 1_000);
        assert_eq!(s.p99(), 1);
        // Rank 999 falls in bucket 13 (4096..=8191), clamped to max.
        assert_eq!(s.p999(), 6_000);
        // Exactly at a bucket edge: a lone max at 2^k lives in bucket k+1
        // whose upper bound exceeds it, so the clamp to max applies.
        let h = Histogram::new();
        for _ in 0..999 {
            h.record(0);
        }
        h.record(1 << 12);
        let s = h.snapshot();
        assert_eq!(s.p99(), 0);
        assert_eq!(s.p999(), 0, "rank 999 of 1000 is still the zero bucket");
        assert_eq!(s.quantile(1.0), 1 << 12);
    }

    #[test]
    fn extreme_values_round_trip() {
        let h = Histogram::new();
        for v in [0, 1, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.max, u64::MAX);
        let back = HistogramSnapshot::from_line(&s.to_line()).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn from_line_rejects_garbage() {
        assert!(HistogramSnapshot::from_line("").is_none());
        assert!(HistogramSnapshot::from_line("1 2").is_none());
        assert!(HistogramSnapshot::from_line("1 2 3 notapair").is_none());
        assert!(HistogramSnapshot::from_line("1 2 3 99:1").is_none());
        // Count/bucket disagreement is rejected.
        assert!(HistogramSnapshot::from_line("5 2 3 1:1").is_none());
        assert!(HistogramSnapshot::from_line("1 0 1 1:1").is_some());
        // Bucket counts that overflow u64 are rejected, not wrapped.
        assert!(HistogramSnapshot::from_line("0 0 0 1:18446744073709551615 2:1").is_none());
        assert!(
            crate::ObsSnapshot::parse("mrobs 1\nh x 0 0 0 1:18446744073709551615 2:1\nend\n")
                .is_err()
        );
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = HistogramSnapshot::empty();
        assert_eq!(
            (s.count(), s.p50(), s.p99(), s.p999(), s.max),
            (0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean(), 0.0);
    }
}
