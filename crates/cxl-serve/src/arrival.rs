//! Open-loop arrival generation: piecewise-Poisson request traces.
//!
//! Every prior experiment in this repo is *closed-loop*: a fixed worker
//! population issues the next op as soon as the previous one returns, so
//! the offered load adapts to service speed and queues cannot grow
//! without bound. A serving front end faces the opposite regime —
//! clients submit on their own schedule regardless of backend health —
//! so tails and shed decisions only appear under an *open-loop* model
//! where the arrival process is independent of completions.
//!
//! Each tenant's trace is a non-homogeneous Poisson process whose rate
//! is piecewise constant: the diurnal phase schedule sets the baseline
//! and an optional alternating-renewal burst process (exponential
//! on/off windows) multiplies it. Because the exponential distribution
//! is memoryless, restarting the interarrival draw at every rate
//! boundary samples the non-homogeneous process *exactly* — no
//! thinning, no approximation.
//!
//! Traces are fully materialised before the simulation starts, from a
//! [`stream_rng`] keyed only by `(seed, tenant name)`. Arrival times
//! therefore never depend on simulation state, completions, or worker
//! parallelism — the determinism contract the cross-jobs CI gate pins.
//! The simulation schedules each trace as one engine stream
//! ([`cxl_sim::Engine::schedule_stream`]), so the event queue holds only
//! the next arrival per tenant, not the whole trace.

use crate::config::{ServeConfig, TenantConfig};
use cxl_sim::SimTime;
use cxl_stats::rng::stream_rng;
use cxl_stats::Exponential;
use rand::rngs::SmallRng;

/// A constant-rate stretch of a tenant's arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// Segment start, seconds.
    pub start_s: f64,
    /// Segment end, seconds.
    pub end_s: f64,
    /// Arrival rate over the segment, requests/s.
    pub rate_rps: f64,
}

/// Samples the burst on-windows of an alternating-renewal process over
/// `[0, horizon_s)`. The process starts "off"; off and on holding times
/// are exponential with the configured means.
fn burst_windows(t: &TenantConfig, horizon_s: f64, rng: &mut SmallRng) -> Vec<(f64, f64)> {
    let Some(b) = t.burst else {
        return Vec::new();
    };
    // `generate_arrivals` is public and reaches here without
    // `ServeConfig::validate`.
    b.validate(&t.name);
    let off = Exponential::new(1.0 / b.mean_off_s);
    let on = Exponential::new(1.0 / b.mean_on_s);
    let mut windows = Vec::new();
    let mut now = 0.0_f64;
    while now < horizon_s {
        now += off.sample(rng);
        if now >= horizon_s {
            break;
        }
        let end = (now + on.sample(rng)).min(horizon_s);
        windows.push((now, end));
        now = end;
    }
    windows
}

/// Builds the piecewise-constant rate profile for one tenant: phase
/// boundaries set the baseline multiplier, burst windows multiply it.
pub fn rate_segments(cfg: &ServeConfig, tenant: usize, windows: &[(f64, f64)]) -> Vec<RateSegment> {
    let t = &cfg.tenants[tenant];
    // Every instant where the rate can change, in order.
    let mut cuts = vec![0.0_f64];
    let mut acc = 0.0;
    for p in &cfg.phases {
        acc += p.dur.as_secs_f64();
        cuts.push(acc);
    }
    let horizon_s = acc;
    for &(s, e) in windows {
        cuts.push(s);
        cuts.push(e);
    }
    cuts.retain(|&c| c <= horizon_s);
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("cuts are finite"));
    cuts.dedup();

    let mut segments = Vec::new();
    for w in cuts.windows(2) {
        let (start, end) = (w[0], w[1]);
        if end <= start {
            continue;
        }
        let mid = 0.5 * (start + end);
        // Phase index at the midpoint (segments never straddle a cut).
        let mut phase = 0;
        let mut acc = 0.0;
        for (i, p) in cfg.phases.iter().enumerate() {
            acc += p.dur.as_secs_f64();
            if mid < acc {
                phase = i;
                break;
            }
        }
        let bursting = windows.iter().any(|&(s, e)| mid >= s && mid < e);
        let mult =
            t.phase_mults[phase] * t.burst.map_or(1.0, |b| if bursting { b.mult } else { 1.0 });
        segments.push(RateSegment {
            start_s: start,
            end_s: end,
            rate_rps: t.base_rate_rps * mult,
        });
    }
    segments
}

/// Generates the full arrival trace for one tenant.
///
/// Deterministic in `(cfg.seed, tenant name)` alone — see the module
/// docs for why that independence is the load-bearing property.
pub fn generate_arrivals(cfg: &ServeConfig, tenant: usize) -> Vec<SimTime> {
    let t = &cfg.tenants[tenant];
    let mut rng = stream_rng(cfg.seed, &format!("serve.arrivals.{}", t.name));
    let horizon_s = cfg.horizon().as_secs_f64();
    let windows = burst_windows(t, horizon_s, &mut rng);
    let segments = rate_segments(cfg, tenant, &windows);

    let mut arrivals = Vec::new();
    for seg in &segments {
        if seg.rate_rps <= 0.0 {
            // A suspended stretch (zero phase multiplier): no arrivals,
            // and nothing to draw — Exponential requires a positive rate.
            continue;
        }
        let exp = Exponential::new(seg.rate_rps);
        // Memoryless restart at the segment boundary: exact sampling of
        // the non-homogeneous Poisson process.
        let mut at = seg.start_s + exp.sample(&mut rng);
        while at < seg.end_s {
            arrivals.push(SimTime::from_secs_f64(at));
            at += exp.sample(&mut rng);
        }
    }
    arrivals
}

/// Expected number of arrivals under the trace's rate profile — used by
/// tests to sanity-check the generator against its own integral.
pub fn expected_arrivals(segments: &[RateSegment]) -> f64 {
    segments
        .iter()
        .map(|s| s.rate_rps * (s.end_s - s.start_s))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BurstConfig, CostConfig, Phase, TenantClass, TenantConfig};
    use cxl_ycsb::Workload;

    fn one_tenant_cfg(burst: Option<BurstConfig>, phase_mults: Vec<f64>) -> ServeConfig {
        let phases = phase_mults
            .iter()
            .enumerate()
            .map(|(i, _)| Phase::new(&format!("p{i}"), SimTime::from_secs(2)))
            .collect();
        ServeConfig {
            tenants: vec![TenantConfig {
                name: "t0".into(),
                class: TenantClass::Kv {
                    workload: Workload::B,
                    ops_per_request: 4,
                    record_count: 1000,
                },
                base_rate_rps: 500.0,
                phase_mults,
                burst,
                queue_cap: 64,
                admission_rate_rps: 10_000.0,
                admission_burst: 100.0,
                workers: 4,
                slo_p99_ms: 5.0,
            }],
            phases,
            autoscale: None,
            static_lease_slabs: 0,
            fault_at: None,
            pool_slabs: 16,
            cost: CostConfig::default(),
            seed: 42,
        }
    }

    #[test]
    fn arrivals_are_sorted_and_within_horizon() {
        let cfg = one_tenant_cfg(
            Some(BurstConfig {
                mult: 3.0,
                mean_on_s: 0.3,
                mean_off_s: 0.7,
            }),
            vec![1.0, 2.0, 0.5],
        );
        let a = generate_arrivals(&cfg, 0);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "trace must be sorted");
        let horizon = cfg.horizon();
        assert!(a.iter().all(|&t| t < horizon));
    }

    #[test]
    fn trace_is_deterministic_in_seed_and_name() {
        let cfg = one_tenant_cfg(None, vec![1.0, 2.0]);
        assert_eq!(generate_arrivals(&cfg, 0), generate_arrivals(&cfg, 0));
        let mut other = cfg.clone();
        other.seed = 43;
        assert_ne!(generate_arrivals(&cfg, 0), generate_arrivals(&other, 0));
    }

    #[test]
    fn count_tracks_the_rate_integral() {
        let cfg = one_tenant_cfg(None, vec![1.0, 2.0, 0.5]);
        let segs = rate_segments(&cfg, 0, &[]);
        let expect = expected_arrivals(&segs);
        let n = generate_arrivals(&cfg, 0).len() as f64;
        // Poisson sd is sqrt(expect); allow 5 sigma.
        assert!(
            (n - expect).abs() < 5.0 * expect.sqrt(),
            "count {n} far from expectation {expect}"
        );
    }

    #[test]
    fn zero_rate_phase_is_silent() {
        let cfg = one_tenant_cfg(None, vec![1.0, 0.0, 1.0]);
        let a = generate_arrivals(&cfg, 0);
        let (p1_start, p1_end) = (2.0, 4.0);
        assert!(
            !a.iter().any(|t| {
                let s = t.as_secs_f64();
                (p1_start..p1_end).contains(&s)
            }),
            "suspended phase must generate no arrivals"
        );
        assert!(!a.is_empty());
    }

    #[test]
    fn burst_segments_partition_the_horizon() {
        let cfg = one_tenant_cfg(
            Some(BurstConfig {
                mult: 2.0,
                mean_on_s: 0.5,
                mean_off_s: 0.5,
            }),
            vec![1.0, 1.0],
        );
        let mut rng = stream_rng(cfg.seed, "serve.arrivals.t0");
        let windows = burst_windows(&cfg.tenants[0], cfg.horizon().as_secs_f64(), &mut rng);
        let segs = rate_segments(&cfg, 0, &windows);
        assert!((segs[0].start_s - 0.0).abs() < 1e-12);
        assert!((segs.last().unwrap().end_s - cfg.horizon().as_secs_f64()).abs() < 1e-9);
        for w in segs.windows(2) {
            assert!(
                (w[0].end_s - w[1].start_s).abs() < 1e-12,
                "segments must tile without gaps"
            );
        }
    }
}
