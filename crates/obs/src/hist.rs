//! Fixed-bucket, log-scale latency histograms.
//!
//! `SolverStats` records one histogram per solver phase (lowering, DNF
//! expansion, elimination, witness search) plus one for whole-goal decide
//! time. Recording is a few comparisons, an increment and an addition —
//! cheap enough to stay on unconditionally — and the histogram is only
//! *rendered* on request (`dmlc table 1 --timings`), so default output is
//! unchanged. Besides its bucket counts a histogram keeps the sum of the
//! durations it recorded, so a phase's total time can be read back.

use std::fmt;
use std::time::Duration;

/// Bucket upper bounds in nanoseconds; the last bucket is unbounded.
const BOUNDS_NS: [u64; 6] = [
    10_000,        // < 10µs
    100_000,       // < 100µs
    1_000_000,     // < 1ms
    10_000_000,    // < 10ms
    100_000_000,   // < 100ms
    1_000_000_000, // < 1s
];

/// Human-readable labels, index-aligned with the histogram buckets.
pub const BUCKET_LABELS: [&str; 7] = ["<10us", "<100us", "<1ms", "<10ms", "<100ms", "<1s", ">=1s"];

/// A latency histogram with seven logarithmic buckets from 10µs to 1s,
/// plus the total of the recorded durations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingHistogram {
    buckets: [u64; 7],
    total: Duration,
}

impl TimingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let idx = BOUNDS_NS.iter().position(|&b| ns < b).unwrap_or(BOUNDS_NS.len());
        self.buckets[idx] += 1;
        self.total = self.total.saturating_add(d);
    }

    /// Add another histogram's counts and total into this one.
    pub fn merge(&mut self, other: &TimingHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.total = self.total.saturating_add(other.total);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Raw bucket counts, index-aligned with [`BUCKET_LABELS`].
    pub fn buckets(&self) -> &[u64; 7] {
        &self.buckets
    }

    /// The sum of every recorded duration (saturating at `Duration::MAX`).
    pub fn total(&self) -> Duration {
        self.total
    }
}

impl fmt::Display for TimingHistogram {
    /// Renders only non-empty buckets: `"<10us: 12  <1ms: 3"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(no samples)");
        }
        let mut first = true;
        for (label, n) in BUCKET_LABELS.iter().zip(self.buckets.iter()) {
            if *n == 0 {
                continue;
            }
            if !first {
                write!(f, "  ")?;
            }
            write!(f, "{label}: {n}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_magnitude() {
        let mut h = TimingHistogram::new();
        h.record(Duration::from_nanos(5_000)); // <10us
        h.record(Duration::from_micros(50)); // <100us
        h.record(Duration::from_millis(5)); // <10ms
        h.record(Duration::from_secs(2)); // >=1s
        assert_eq!(h.buckets(), &[1, 1, 0, 1, 0, 0, 1]);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn total_sums_recorded_and_merged_durations() {
        let mut a = TimingHistogram::new();
        assert_eq!(a.total(), Duration::ZERO);
        a.record(Duration::from_micros(3));
        a.record(Duration::from_millis(2));
        assert_eq!(a.total(), Duration::from_micros(2_003));
        let mut b = TimingHistogram::new();
        b.record(Duration::from_secs(1));
        a.merge(&b);
        assert_eq!(a.total(), Duration::from_micros(1_002_003));
        // Saturates instead of overflowing.
        a.record(Duration::MAX);
        assert_eq!(a.total(), Duration::MAX);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = TimingHistogram::new();
        a.record(Duration::from_nanos(1));
        let mut b = TimingHistogram::new();
        b.record(Duration::from_nanos(2));
        b.record(Duration::from_secs(3));
        a.merge(&b);
        assert_eq!(a.buckets(), &[2, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = TimingHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.buckets(), &[0; 7]);
        assert_eq!(h.to_string(), "(no samples)");
        // Merging an empty histogram in either direction is a no-op.
        let mut a = TimingHistogram::new();
        a.record(Duration::from_micros(3));
        let before = a;
        a.merge(&h);
        assert_eq!(a, before);
        let mut e = TimingHistogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn single_sample_lands_in_exactly_one_bucket() {
        // One sample per bucket boundary region, including both edges of
        // the bounds array: 0ns goes to the first bucket, an exact bound
        // value goes to the *next* bucket (bounds are exclusive upper).
        let cases: [(Duration, usize); 4] = [
            (Duration::ZERO, 0),
            (Duration::from_nanos(9_999), 0),
            (Duration::from_nanos(10_000), 1),
            (Duration::from_nanos(999_999_999), 5),
        ];
        for (d, want) in cases {
            let mut h = TimingHistogram::new();
            h.record(d);
            assert_eq!(h.count(), 1, "{d:?}");
            assert!(!h.is_empty());
            let hit: Vec<usize> =
                h.buckets().iter().enumerate().filter(|(_, n)| **n > 0).map(|(i, _)| i).collect();
            assert_eq!(hit, vec![want], "{d:?} landed in the wrong bucket");
        }
    }

    #[test]
    fn max_bucket_absorbs_overflow_durations() {
        // Everything >= 1s — including durations whose nanosecond count
        // exceeds u64 — saturates into the last (unbounded) bucket rather
        // than panicking or wrapping.
        let mut h = TimingHistogram::new();
        h.record(Duration::from_secs(1));
        h.record(Duration::from_secs(86_400));
        h.record(Duration::MAX); // as_nanos() > u64::MAX, exercises the clamp
        assert_eq!(h.buckets(), &[0, 0, 0, 0, 0, 0, 3]);
        assert_eq!(h.to_string(), ">=1s: 3");
    }

    #[test]
    fn display_skips_empty_buckets() {
        let mut h = TimingHistogram::new();
        assert_eq!(h.to_string(), "(no samples)");
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_millis(500));
        assert_eq!(h.to_string(), "<10us: 2  <1s: 1");
    }
}
