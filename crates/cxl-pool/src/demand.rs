//! Time-varying per-host memory demand.
//!
//! Each host runs a VM/container mix whose working set alternates
//! between a steady base (long exponentially-distributed gaps) and
//! bursts (shorter exponential durations) of randomly drawn amplitude —
//! the bursty, weakly-correlated demand that makes pooling pay off in
//! the paper's §7.1 TCO argument. Demand is derived from the
//! `cxl-cost` revenue model's geometry: a host sells `vcpus` vCPUs at
//! `gib_per_vcpu` GiB each, and the working set is the memory behind
//! the currently active vCPUs.

use cxl_sim::SimTime;
use cxl_stats::dist::Exponential;
use cxl_stats::rng::stream_rng;
use rand::Rng;
use serde::Serialize;

/// Parameters of one host's demand process.
#[derive(Debug, Clone, Serialize)]
pub struct DemandConfig {
    /// vCPUs the host sells (see `cxl_cost::RevenueModel::vcpus`).
    pub vcpus: u32,
    /// Memory behind each active vCPU, GiB.
    pub gib_per_vcpu: f64,
    /// Fraction of vCPUs active outside bursts.
    pub base_util: f64,
    /// Smallest extra utilization a burst adds.
    pub burst_extra_min: f64,
    /// Largest extra utilization a burst adds (total is clamped to 1).
    pub burst_extra_max: f64,
    /// Mean burst duration, seconds (exponential).
    pub mean_burst_s: f64,
    /// Mean gap between bursts, seconds (exponential).
    pub mean_gap_s: f64,
}

impl Default for DemandConfig {
    fn default() -> Self {
        // A 128-vCPU host at 4 GiB/vCPU (the paper's §6 example VM
        // geometry): 230 GiB base working set, bursts to 360–500 GiB.
        Self {
            vcpus: 128,
            gib_per_vcpu: 4.0,
            base_util: 0.45,
            burst_extra_min: 0.25,
            burst_extra_max: 0.55,
            mean_burst_s: 3.0,
            mean_gap_s: 20.0,
        }
    }
}

impl DemandConfig {
    /// Working set at `util` fraction of vCPUs active, GiB.
    fn working_set_gib(&self, util: f64) -> f64 {
        self.vcpus as f64 * util.clamp(0.0, 1.0) * self.gib_per_vcpu
    }
}

/// A pre-generated, piecewise-constant working-set trace for one host.
#[derive(Debug, Clone, Serialize)]
pub struct DemandProcess {
    /// `(start, working set GiB)` segments sorted by start time; each
    /// value holds until the next segment (the last until the horizon).
    segments: Vec<(SimTime, f64)>,
}

impl DemandProcess {
    /// Generates a trace from `cfg` out to `horizon`. All randomness
    /// comes from `stream_rng(seed, label)`, so equal `(cfg, seed,
    /// label)` gives a bit-identical trace regardless of thread count.
    pub fn generate(cfg: &DemandConfig, seed: u64, label: &str, horizon: SimTime) -> Self {
        assert!(
            cfg.burst_extra_min <= cfg.burst_extra_max,
            "burst amplitude range is inverted"
        );
        assert!(
            cfg.mean_burst_s > 0.0 && cfg.mean_gap_s > 0.0,
            "burst/gap means must be positive"
        );
        let mut rng = stream_rng(seed, label);
        let gap = Exponential::new(1.0 / cfg.mean_gap_s);
        let burst = Exponential::new(1.0 / cfg.mean_burst_s);
        let base_ws = cfg.working_set_gib(cfg.base_util);
        let mut segments = vec![(SimTime::ZERO, base_ws)];
        let mut t = 0.0f64;
        let horizon_s = horizon.as_secs_f64();
        loop {
            t += gap.sample(&mut rng);
            if t >= horizon_s {
                break;
            }
            let extra = if cfg.burst_extra_max > cfg.burst_extra_min {
                rng.gen_range(cfg.burst_extra_min..cfg.burst_extra_max)
            } else {
                cfg.burst_extra_min
            };
            segments.push((
                SimTime::from_secs_f64(t),
                cfg.working_set_gib(cfg.base_util + extra),
            ));
            t += burst.sample(&mut rng);
            if t >= horizon_s {
                break;
            }
            segments.push((SimTime::from_secs_f64(t), base_ws));
        }
        Self { segments }
    }

    /// Working set at time `t`, GiB.
    pub fn working_set_gib(&self, t: SimTime) -> f64 {
        match self.segments.binary_search_by(|(s, _)| s.cmp(&t)) {
            Ok(i) => self.segments[i].1,
            Err(0) => self.segments[0].1,
            Err(i) => self.segments[i - 1].1,
        }
    }

    /// Number of demand segments (bursts appear as two edges each).
    #[cfg(test)]
    fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The trace sampled every `step` over `[0, horizon)`, GiB.
    pub fn sampled(&self, horizon: SimTime, step: SimTime) -> Vec<f64> {
        assert!(step > SimTime::ZERO, "sampling step must be positive");
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t < horizon {
            out.push(self.working_set_gib(t));
            t += step;
        }
        out
    }

    /// Mean and standard deviation of the sampled trace, GiB — the
    /// moments to hand `cxl_cost::PoolingConfig` for a like-for-like
    /// static sizing comparison.
    pub fn moments(&self, horizon: SimTime, step: SimTime) -> (f64, f64) {
        let samples = self.sampled(horizon, step);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    /// Nearest-rank percentile of the sampled trace, GiB — the per-host
    /// DRAM a static (no-pool) deployment installs at a given SLO.
    pub fn percentile(&self, horizon: SimTime, step: SimTime, p: f64) -> f64 {
        let mut samples = self.sampled(horizon, step);
        samples.sort_by(|a, b| a.partial_cmp(b).expect("working sets are finite"));
        cxl_stats::nearest_rank(&samples, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimTime {
        SimTime::from_secs(120)
    }

    #[test]
    fn trace_is_deterministic_per_seed_and_label() {
        let cfg = DemandConfig::default();
        let a = DemandProcess::generate(&cfg, 42, "host0", horizon());
        let b = DemandProcess::generate(&cfg, 42, "host0", horizon());
        let c = DemandProcess::generate(&cfg, 42, "host1", horizon());
        assert_eq!(a.segments, b.segments);
        assert_ne!(
            a.segments, c.segments,
            "different labels must draw different traces"
        );
    }

    #[test]
    fn trace_alternates_base_and_burst() {
        let cfg = DemandConfig::default();
        let p = DemandProcess::generate(&cfg, 7, "host0", horizon());
        assert!(p.segment_count() > 3, "120 s should see several bursts");
        let base = cfg.working_set_gib(cfg.base_util);
        let burst_floor = cfg.working_set_gib(cfg.base_util + cfg.burst_extra_min);
        for (i, (_, ws)) in p.segments.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(*ws, base);
            } else {
                assert!(*ws >= burst_floor - 1e-9 && *ws <= cfg.vcpus as f64 * cfg.gib_per_vcpu);
            }
        }
    }

    #[test]
    fn lookup_matches_segments() {
        let cfg = DemandConfig::default();
        let p = DemandProcess::generate(&cfg, 7, "host0", horizon());
        assert_eq!(p.working_set_gib(SimTime::ZERO), p.segments[0].1);
        let (start, ws) = p.segments[1];
        assert_eq!(p.working_set_gib(start), ws);
        assert_eq!(
            p.working_set_gib(start.saturating_sub(SimTime::from_ns(1))),
            p.segments[0].1
        );
    }

    #[test]
    fn percentile_sits_between_base_and_peak() {
        let cfg = DemandConfig::default();
        let p = DemandProcess::generate(&cfg, 11, "host0", horizon());
        let step = SimTime::from_ms(100);
        let p50 = p.percentile(horizon(), step, 0.50);
        let p99 = p.percentile(horizon(), step, 0.99);
        let base = cfg.working_set_gib(cfg.base_util);
        assert!(p50 >= base - 1e-9);
        assert!(p99 >= p50);
        assert!(p99 <= cfg.vcpus as f64 * cfg.gib_per_vcpu);
        let (mean, std) = p.moments(horizon(), step);
        assert!(mean >= base && std > 0.0, "bursts add mass and spread");
    }
}
