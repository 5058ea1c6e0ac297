//! HDR-style log-bucketed histogram for latency recording.
//!
//! The paper reports tail latency and latency CDFs for YCSB workloads
//! (Fig. 5(b), Fig. 5(c), Fig. 8(a)). This histogram records values in
//! nanoseconds with bounded relative error, supports percentile queries,
//! CDF export, and merging across simulated worker threads.

use serde::Serialize;

/// Number of linear sub-buckets per power-of-two bucket.
///
/// 64 sub-buckets bound the relative quantization error to about 1.6 %,
/// which is far below the effects the experiments measure.
const SUB_BUCKETS: usize = 64;
const SUB_BUCKET_BITS: u32 = 6;

/// A log-bucketed histogram of `u64` values (nanoseconds by convention).
///
/// Values are assigned to buckets whose width doubles every
/// [`SUB_BUCKETS`](self) entries (64), giving HDR-histogram-like bounded relative
/// error with a small fixed memory footprint.
///
/// # Examples
///
/// ```
/// use cxl_stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0) >= 200 && h.percentile(50.0) <= 310);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    total: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        // 64 possible leading-zero classes, each with SUB_BUCKETS cells,
        // is a safe upper bound; in practice far fewer are touched.
        Self {
            counts: vec![0; SUB_BUCKETS * 64],
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        let v = value.max(1);
        let msb = 63 - v.leading_zeros();
        if msb < SUB_BUCKET_BITS {
            // Values below 2^SUB_BUCKET_BITS are recorded exactly.
            v as usize
        } else {
            let shift = msb - SUB_BUCKET_BITS;
            let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
            ((msb - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
        }
    }

    /// Returns a representative value (bucket midpoint) for a bucket index.
    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let class = (index / SUB_BUCKETS) as u32 - 1;
        let sub = (index % SUB_BUCKETS) as u64;
        let base = (SUB_BUCKETS as u64 + sub) << class;
        let width = 1u64 << class;
        base + width / 2
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        self.counts[idx] += n;
        self.count += n;
        self.total += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Value at the given percentile in `[0, 100]`, or `None` when the
    /// histogram is empty.
    ///
    /// This is the typed contract for callers where "no samples" is a
    /// reachable state that must stay distinguishable from "p99 of 0 ns"
    /// — e.g. an all-shed tenant in `cxl-serve` whose latency histogram
    /// never saw a completion. Returns the representative value of the
    /// first bucket whose cumulative count reaches the requested rank.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0.0, 100.0]`.
    pub fn try_percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_value(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Value at the given percentile in `[0, 100]`; 0 when empty.
    ///
    /// Convenience form of [`try_percentile`] for call sites that have
    /// already established non-emptiness (a completed run always records
    /// at least one op). The 0-on-empty collapse is deliberate and
    /// documented — callers where empty is reachable must use
    /// [`try_percentile`] so an absent tail cannot masquerade as a
    /// zero-nanosecond tail.
    ///
    /// [`try_percentile`]: Histogram::try_percentile
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0.0, 100.0]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.try_percentile(p).unwrap_or(0)
    }

    /// Merges another histogram into this one. The result is identical
    /// to having recorded both input streams into a single histogram.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket layouts.
    /// Today every histogram shares one layout, but a silent
    /// `zip`-truncation here would turn a future layout change into
    /// corrupted percentiles instead of a loud failure.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "cannot merge histograms with different bucket layouts ({} vs {} buckets)",
            self.counts.len(),
            other.counts.len(),
        );
        if other.count == 0 {
            // Nothing recorded on the other side; in particular its
            // `min` sentinel (u64::MAX) must not leak into `self`.
            return;
        }
        if self.count == 0 {
            self.counts.copy_from_slice(&other.counts);
            self.count = other.count;
            self.total = other.total;
            self.min = other.min;
            self.max = other.max;
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Exports the CDF as `(value, cumulative_fraction)` points over the
    /// non-empty buckets, suitable for plotting Fig. 5(c)/8(a)-style curves.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                Self::bucket_value(idx).clamp(self.min, self.max),
                seen as f64 / self.count as f64,
            ));
        }
        out
    }

    /// Convenience tuple of (p50, p95, p99, p999) percentiles.
    pub fn tail(&self) -> (u64, u64, u64, u64) {
        (
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.percentile(99.9),
        )
    }

    /// Typed variant of [`tail`]: `None` when the histogram is empty.
    ///
    /// [`tail`]: Histogram::tail
    pub fn try_tail(&self) -> Option<(u64, u64, u64, u64)> {
        if self.count == 0 {
            None
        } else {
            Some(self.tail())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        assert!(h.cdf().is_empty());
    }

    /// Regression (ISSUE 8): empty histograms must expose a typed
    /// "no samples" answer, distinguishable from a 0 ns tail — an
    /// all-shed serve tenant records no completions and its p99 must
    /// not read as "instant".
    #[test]
    fn empty_histogram_typed_percentile() {
        let h = Histogram::new();
        assert_eq!(h.try_percentile(50.0), None);
        assert_eq!(h.try_percentile(99.0), None);
        assert_eq!(h.try_tail(), None);
        // The lossy convenience form still collapses to 0, documented.
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn try_percentile_agrees_with_percentile_when_nonempty() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 3);
        }
        for p in [0.0, 1.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.try_percentile(p), Some(h.percentile(p)), "p = {p}");
        }
        assert_eq!(h.try_tail(), Some(h.tail()));
    }

    #[test]
    fn exact_below_subbucket_range() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        // Small values are exact.
        assert_eq!(h.percentile(100.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histogram::new();
        let values = [97u64, 250, 485, 1_000, 10_000, 1_000_000, 123_456_789];
        for &v in &values {
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx);
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.02, "value {v} rep {rep} err {err}");
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
    }

    #[test]
    fn percentile_monotone() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 10);
        }
        let mut prev = 0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "p{p} = {v} < prev {prev}");
            prev = v;
        }
        // Median of uniform 10..100_000 should be near 50_000.
        let p50 = h.percentile(50.0) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05, "p50={p50}");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for i in 0..1000u64 {
            let v = (i * 7919) % 100_000 + 1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.percentile(50.0), c.percentile(50.0));
        assert_eq!(a.percentile(99.0), c.percentile(99.0));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new();
        for i in 1..=500u64 {
            h.record(i * i);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev_f = 0.0;
        let mut prev_v = 0;
        for &(v, f) in &cdf {
            assert!(v >= prev_v);
            assert!(f >= prev_f);
            prev_v = v;
            prev_f = f;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(4242, 17);
        for _ in 0..17 {
            b.record(4242);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.percentile(99.0), b.percentile(99.0));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.mean(), 200.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        Histogram::new().percentile(101.0);
    }
}
