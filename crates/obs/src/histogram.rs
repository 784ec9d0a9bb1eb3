//! Log-bucketed latency histograms: a sequential, mergeable form and a
//! lock-free, thread-striped concurrent form sharing the same bucketing
//! scheme.
//!
//! The paper observes that "since queries involve only simple processing of
//! in-memory data structures, the latency per request is very low unless
//! the system becomes saturated" (§4.3). The histogram lets both the
//! harness and the live runtime verify exactly that: percentiles stay flat
//! until the offered load approaches the message-throughput ceiling.
//!
//! Buckets grow geometrically (powers of √2 over nanoseconds), giving
//! ≤ ~4% relative quantile error with a fixed 128-slot footprint that can
//! be merged across client threads without locks.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::instruments::STRIPES;

/// Number of histogram buckets; covers ~1ns to ~100s.
const BUCKETS: usize = 128;

/// Largest recordable sample. Samples above this are clamped *at record
/// time* so that every reachable bucket index stays below the `1u64 << 62`
/// shift ceiling in `bucket_value`. Without the clamp, samples in the top
/// two octaves (≥ 2^62 ns ≈ 146 years) landed in slots whose representative
/// values alias *downward* (bucket 126 reported a smaller value than bucket
/// 125), breaking quantile monotonicity at the boundary. `max_ns` is kept
/// exact and unclamped.
pub const MAX_SAMPLE_NS: u64 = (1u64 << 62) - 1;

/// Bucket index for a sample: 2 buckets per power of two.
///
/// Callers must clamp to [`MAX_SAMPLE_NS`] first; with that clamp the
/// largest reachable index is `2*61 + 1 = 123 < BUCKETS`.
#[inline]
fn bucket(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    let log2 = 63 - ns.leading_zeros() as usize;
    // Refine to half-powers: second half of the octave gets the odd slot.
    let half = if ns >= (1u64 << log2) + (1u64 << log2) / 2 {
        1
    } else {
        0
    };
    (2 * log2 + half).min(BUCKETS - 1)
}

/// Representative (upper-bound) value of a bucket. The `.min(62)` is pure
/// overflow protection for the slots made unreachable by the record-time
/// clamp; every reachable bucket's value is exact and monotone in `idx`.
fn bucket_value(idx: usize) -> u64 {
    let log2 = idx / 2;
    let base = 1u64 << log2.min(62);
    if idx.is_multiple_of(2) {
        base + base / 2
    } else {
        base * 2
    }
}

/// A mergeable, fixed-size latency histogram (nanosecond samples).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
            max_ns: 0,
        }
    }

    /// Builds a histogram from raw bucket counts (the concurrent form's
    /// snapshot path). The total is derived from the counts so snapshots
    /// are sum-consistent by construction.
    fn from_counts(counts: [u64; BUCKETS], max_ns: u64) -> Self {
        let total = counts.iter().sum();
        LatencyHistogram {
            counts,
            total,
            max_ns,
        }
    }

    /// Records one latency sample in nanoseconds. Samples above
    /// [`MAX_SAMPLE_NS`] are clamped into the top reachable bucket;
    /// [`LatencyHistogram::max_ns`] stays exact.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket(ns.min(MAX_SAMPLE_NS))] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records a [`std::time::Duration`].
    #[inline]
    pub fn record(&mut self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample seen (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Approximate quantile `q ∈ [0, 1]` in nanoseconds (0 with no samples).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Merges another histogram into this one (for per-thread collection).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Bucket-wise difference `self - earlier`, saturating at zero: the
    /// samples recorded *since* `earlier` was captured, assuming both came
    /// from the same instrument. The delta's total is re-derived from its
    /// counts, so it is always sum-consistent.
    pub fn delta_since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut counts = [0u64; BUCKETS];
        for (d, (a, b)) in counts
            .iter_mut()
            .zip(self.counts.iter().zip(&earlier.counts))
        {
            *d = a.saturating_sub(*b);
        }
        LatencyHistogram::from_counts(counts, self.max_ns)
    }
}

/// One writer stripe of a [`ConcurrentHistogram`], on cache lines of its
/// own so threads recording on different stripes never share a line.
#[repr(align(64))]
#[derive(Debug)]
struct HistogramStripe {
    counts: [AtomicU64; BUCKETS],
    max_ns: AtomicU64,
}

/// Round-robin seed for [`THREAD_STRIPE`].
static NEXT_THREAD_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The stripe this thread records into, assigned on first use: the
    /// first [`STRIPES`] recording threads get a stripe each.
    static THREAD_STRIPE: usize = NEXT_THREAD_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// Lock-free histogram for concurrent writers: the same buckets as
/// [`LatencyHistogram`], held in relaxed atomics and striped eight-fold
/// by recording thread. Recording is one `fetch_add` on the thread's own
/// stripe, plus a `fetch_max` only when the sample is a new maximum
/// there; reading is a [`snapshot`] that sums the stripes into the
/// sequential form.
///
/// [`snapshot`]: ConcurrentHistogram::snapshot
#[derive(Debug)]
pub struct ConcurrentHistogram {
    stripes: [HistogramStripe; STRIPES],
}

impl Default for ConcurrentHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        ConcurrentHistogram {
            stripes: std::array::from_fn(|_| HistogramStripe {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                max_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Records one latency sample in nanoseconds (same clamp semantics as
    /// the sequential form). Safe to call from any number of threads.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let stripe = &self.stripes[THREAD_STRIPE.with(|s| *s)];
        stripe.counts[bucket(ns.min(MAX_SAMPLE_NS))].fetch_add(1, Ordering::Relaxed);
        // `fetch_max` takes the line exclusive even when it changes
        // nothing; the plain load keeps the common case a read.
        if ns > stripe.max_ns.load(Ordering::Relaxed) {
            stripe.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Records a [`std::time::Duration`].
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Total samples recorded (sums the buckets; a point-in-time view).
    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }

    /// Point-in-time copy as a sequential [`LatencyHistogram`]. Each bucket
    /// count is monotone, so a later snapshot's counts dominate an earlier
    /// one's bucket-wise, and the derived total is always the sum of the
    /// captured counts (sum-consistent even mid-write).
    pub fn snapshot(&self) -> LatencyHistogram {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let counts = std::array::from_fn(|i| self.stripes.iter().map(|s| load(&s.counts[i])).sum());
        let max_ns = self.stripes.iter().map(|s| load(&s.max_ns)).max();
        LatencyHistogram::from_counts(counts, max_ns.unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
    }

    #[test]
    fn single_sample() {
        let mut h = LatencyHistogram::new();
        h.record_ns(1000);
        assert_eq!(h.count(), 1);
        let p50 = h.quantile_ns(0.5);
        assert!((500..=1000).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..10_000u64 {
            h.record_ns(i * 37);
        }
        let q = |x| h.quantile_ns(x);
        assert!(q(0.5) <= q(0.9));
        assert!(q(0.9) <= q(0.99));
        assert!(q(0.99) <= q(1.0));
        assert_eq!(q(1.0), h.max_ns());
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 0..100_000u64 {
            h.record_ns(1_000 + i % 50_000);
        }
        // True p50 ≈ 26_000; buckets are half-octaves so allow ~50%.
        let p50 = h.quantile_ns(0.5) as f64;
        assert!(
            (13_000.0..52_000.0).contains(&p50),
            "p50 estimate too far: {p50}"
        );
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_ns(100);
        b.record_ns(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 1_000_000);
    }

    #[test]
    fn zero_and_huge_samples_dont_panic() {
        let mut h = LatencyHistogram::new();
        h.record_ns(0);
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(1.0) > 0);
    }

    #[test]
    fn duration_api() {
        let mut h = LatencyHistogram::new();
        h.record(std::time::Duration::from_micros(250));
        assert_eq!(h.count(), 1);
    }

    /// Regression for the upper-bucket aliasing bug: before the record-time
    /// clamp, `bucket_value`'s `log2.min(62)` made slot 126 report a
    /// *smaller* value (1.5·2^62) than slot 125 (2^63), so quantiles went
    /// non-monotone once samples crossed 2^62 ns. Clamped samples all land
    /// in the top reachable (still-monotone) bucket.
    #[test]
    fn overflow_boundary_quantiles_stay_monotone() {
        let mut h = LatencyHistogram::new();
        // Straddle the clamp boundary: below, at, and far above.
        let samples = [
            1u64 << 60,
            (1u64 << 61) + 17,
            MAX_SAMPLE_NS,
            1u64 << 62,
            (1u64 << 63) + 5,
            u64::MAX,
        ];
        for &s in &samples {
            h.record_ns(s);
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.max_ns(), u64::MAX, "max stays exact, not clamped");
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&q| h.quantile_ns(q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "non-monotone quantiles at the top: {qs:?}");
        }
        // Everything at/above the clamp reads back as a top-bucket value
        // capped by the exact max; nothing aliases down below 2^61.
        assert!(h.quantile_ns(1.0) >= (1u64 << 61));
        assert!(h.quantile_ns(1.0) <= h.max_ns());
    }

    #[test]
    fn concurrent_matches_sequential_single_thread() {
        let c = ConcurrentHistogram::new();
        let mut s = LatencyHistogram::new();
        for i in 0..5_000u64 {
            let ns = (i * 7919) % 1_000_000;
            c.record_ns(ns);
            s.record_ns(ns);
        }
        assert_eq!(c.snapshot(), s);
    }

    #[test]
    fn max_and_count_are_exact_across_thread_stripes() {
        let c = ConcurrentHistogram::new();
        c.record_ns(10);
        // Twice as many threads as stripes, each on the stripe it drew:
        // the largest sample sits on some other thread's stripe.
        for k in 0..2 * STRIPES as u64 {
            std::thread::scope(|s| {
                s.spawn(|| c.record_ns(1_000 + k));
            });
        }
        c.record_ns(20);
        let snap = c.snapshot();
        assert_eq!(snap.max_ns(), 1_000 + 2 * STRIPES as u64 - 1);
        assert_eq!(snap.count(), 2 * STRIPES as u64 + 2);
        assert_eq!(c.count(), snap.count());
    }

    #[test]
    fn delta_since_subtracts_bucketwise() {
        let mut a = LatencyHistogram::new();
        a.record_ns(100);
        let early = a.clone();
        a.record_ns(100);
        a.record_ns(1_000_000);
        let d = a.delta_since(&early);
        assert_eq!(d.count(), 2);
        // Delta against a *later* snapshot saturates to empty, not underflow.
        assert_eq!(early.delta_since(&a).count(), 0);
    }
}
