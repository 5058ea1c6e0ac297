//! The signal plane: bounded, EWMA-smoothed time series fed from
//! non-destructive `cxl-obs` snapshots.
//!
//! A periodic controller cannot drain the metrics registry mid-run —
//! the end-of-run export must still see the full totals — so sampling
//! works on [`cxl_obs::Snapshot`] deltas: each [`SignalPlane::sample`]
//! takes a fresh snapshot, subtracts the previous one for counters
//! (turning cumulative totals into per-interval rates), and reads
//! gauges and histogram percentiles directly.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use cxl_obs::Snapshot;

/// A bounded time series with an exponentially weighted moving average.
///
/// The raw ring keeps the last `capacity` points for windowed means;
/// the EWMA smooths tick-to-tick noise for trend decisions. Pure `f64`
/// arithmetic in push order — deterministic for a deterministic input
/// stream.
#[derive(Debug, Clone)]
pub struct Series {
    capacity: usize,
    alpha: f64,
    points: VecDeque<f64>,
    ewma: Option<f64>,
    total_pushes: u64,
}

impl Series {
    /// Creates a series keeping `capacity` raw points, smoothing with
    /// EWMA weight `alpha` (0 < alpha <= 1; higher tracks faster).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `alpha` is outside (0, 1].
    pub fn new(capacity: usize, alpha: f64) -> Self {
        assert!(capacity > 0, "series capacity must be nonzero");
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must lie in (0, 1], got {alpha}"
        );
        Self {
            capacity,
            alpha,
            points: VecDeque::with_capacity(capacity),
            ewma: None,
            total_pushes: 0,
        }
    }

    /// Appends one observation, evicting the oldest beyond capacity.
    pub fn push(&mut self, v: f64) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back(v);
        self.ewma = Some(match self.ewma {
            Some(e) => e + self.alpha * (v - e),
            None => v,
        });
        self.total_pushes += 1;
    }

    /// The most recent observation.
    pub fn last(&self) -> Option<f64> {
        self.points.back().copied()
    }

    /// The smoothed value (EWMA over every push, not just retained ones).
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }

    /// Mean of the last `k` retained points (all of them when fewer).
    pub fn mean_last(&self, k: usize) -> Option<f64> {
        if self.points.is_empty() || k == 0 {
            return None;
        }
        let n = k.min(self.points.len());
        let sum: f64 = self.points.iter().rev().take(n).sum();
        Some(sum / n as f64)
    }

    /// Number of retained points (≤ capacity).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total observations ever pushed (including evicted ones).
    pub fn total_pushes(&self) -> u64 {
        self.total_pushes
    }

    /// Iterates the retained points, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().copied()
    }
}

/// What a tracked signal reads from each snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Counter delta vs the previous snapshot (a per-interval rate).
    CounterDelta,
    /// Gauge value at snapshot time.
    Gauge,
    /// Histogram sample-count delta vs the previous snapshot.
    HistogramCountDelta,
    /// Pushed explicitly via [`SignalPlane::observe`] (objective values
    /// computed outside the registry).
    External,
}

/// Samples `cxl-obs` registries into named bounded series.
///
/// Counters and histogram counts are differenced between consecutive
/// snapshots; gauges are read directly. Values the registry does not
/// carry (the optimization objective, phase markers) enter through
/// [`SignalPlane::observe`] and share the same series machinery.
#[derive(Debug)]
pub struct SignalPlane {
    capacity: usize,
    alpha: f64,
    tracked: Vec<(String, Source)>,
    series: BTreeMap<String, Series>,
    prev: Snapshot,
    samples: u64,
}

impl SignalPlane {
    /// Creates a plane whose series keep `capacity` points and smooth
    /// with EWMA weight `alpha` (see [`Series::new`] for the bounds).
    pub fn new(capacity: usize, alpha: f64) -> Self {
        // Validate eagerly so a bad config fails at build, not first use.
        let _ = Series::new(capacity, alpha);
        Self {
            capacity,
            alpha,
            tracked: Vec::new(),
            series: BTreeMap::new(),
            prev: Snapshot::empty(),
            samples: 0,
        }
    }

    fn track(&mut self, name: &str, source: Source) {
        if self.tracked.iter().any(|(n, _)| n == name) {
            return;
        }
        self.tracked.push((name.to_string(), source));
        self.series
            .insert(name.to_string(), Series::new(self.capacity, self.alpha));
    }

    /// Tracks a counter as a per-interval delta series.
    pub fn track_counter(&mut self, name: &str) {
        self.track(name, Source::CounterDelta);
    }

    /// Tracks a gauge as a sampled-value series.
    pub fn track_gauge(&mut self, name: &str) {
        self.track(name, Source::Gauge);
    }

    /// Tracks a histogram's sample count as a per-interval delta series.
    pub fn track_histogram_count(&mut self, name: &str) {
        self.track(name, Source::HistogramCountDelta);
    }

    /// Takes one sample from `snap`, appending a point to every tracked
    /// registry-backed series. The snapshot becomes the new baseline for
    /// the next delta.
    pub fn sample(&mut self, snap: Snapshot) {
        for (name, source) in &self.tracked {
            let value = match source {
                Source::CounterDelta => Some(snap.counter_delta(&self.prev, name) as f64),
                Source::HistogramCountDelta => {
                    Some(snap.histogram_count_delta(&self.prev, name) as f64)
                }
                Source::Gauge => snap.gauge(name),
                Source::External => None,
            };
            if let Some(v) = value {
                self.series
                    .get_mut(name)
                    .expect("tracked signals always have a series")
                    .push(v);
            }
        }
        self.prev = snap;
        self.samples += 1;
    }

    /// Convenience: samples the ambient registry ([`cxl_obs::snapshot`]).
    pub fn sample_ambient(&mut self) {
        self.sample(cxl_obs::snapshot());
    }

    /// Pushes an externally computed observation (auto-registers the
    /// series on first use).
    pub fn observe(&mut self, name: &str, value: f64) {
        self.track(name, Source::External);
        self.series.get_mut(name).expect("just tracked").push(value);
    }

    /// The series behind `name`, if tracked.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Number of samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Tracked series names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_obs::{Class, Registry};

    #[test]
    fn series_bounds_and_means() {
        let mut s = Series::new(3, 0.5);
        assert!(s.is_empty());
        assert_eq!(s.mean_last(2), None);
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 3, "capacity bound");
        assert_eq!(s.last(), Some(4.0));
        assert_eq!(s.total_pushes(), 4);
        assert_eq!(s.mean_last(2), Some(3.5));
        assert_eq!(s.mean_last(100), Some(3.0), "clamps to retained");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn series_ewma_tracks_with_lag() {
        let mut s = Series::new(8, 0.5);
        s.push(10.0);
        assert_eq!(s.ewma(), Some(10.0), "first push seeds the EWMA");
        s.push(20.0);
        assert_eq!(s.ewma(), Some(15.0));
        s.push(20.0);
        assert_eq!(s.ewma(), Some(17.5));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn series_rejects_bad_alpha() {
        Series::new(4, 0.0);
    }

    #[test]
    fn plane_turns_counters_into_rates() {
        let reg = Registry::new();
        let mut plane = SignalPlane::new(8, 0.5);
        plane.track_counter("tier/promotions");
        plane.track_gauge("tier/dram_bw_util");
        plane.track_histogram_count("kv/op_sojourn_ns");

        reg.counter_add(Class::Sim, "tier/promotions", 5);
        reg.gauge_set(Class::Sim, "tier/dram_bw_util", 0.4);
        reg.record(Class::Sim, "kv/op_sojourn_ns", 100);
        plane.sample(reg.snapshot());

        reg.counter_add(Class::Sim, "tier/promotions", 3);
        reg.gauge_set(Class::Sim, "tier/dram_bw_util", 0.7);
        plane.sample(reg.snapshot());

        let promos = plane.series("tier/promotions").unwrap();
        assert_eq!(promos.iter().collect::<Vec<_>>(), vec![5.0, 3.0]);
        let util = plane.series("tier/dram_bw_util").unwrap();
        assert_eq!(util.last(), Some(0.7));
        let lat = plane.series("kv/op_sojourn_ns").unwrap();
        assert_eq!(lat.iter().collect::<Vec<_>>(), vec![1.0, 0.0]);
        assert_eq!(plane.samples(), 2);
    }

    #[test]
    fn sampling_never_perturbs_the_registry() {
        let reg = Registry::new();
        reg.counter_add(Class::Sim, "a", 7);
        let before = reg.export_json();
        let mut plane = SignalPlane::new(4, 1.0);
        plane.track_counter("a");
        plane.sample(reg.snapshot());
        plane.sample(reg.snapshot());
        assert_eq!(reg.export_json(), before, "sampling must be read-only");
    }

    #[test]
    fn external_observations_share_series() {
        let mut plane = SignalPlane::new(4, 1.0);
        plane.observe("objective", 100.0);
        plane.observe("objective", 120.0);
        assert_eq!(plane.series("objective").unwrap().mean_last(2), Some(110.0));
        // External series are not fed by sample().
        plane.sample(Snapshot::empty());
        assert_eq!(plane.series("objective").unwrap().len(), 2);
    }

    #[test]
    fn duplicate_tracking_is_idempotent() {
        let mut plane = SignalPlane::new(4, 1.0);
        plane.track_counter("x");
        plane.track_counter("x");
        assert_eq!(plane.names(), vec!["x"]);
    }
}
