//! SLO capacity: maximum sustainable open-loop load per placement.
//!
//! Production stores are sized by "how much load fits under the p99
//! budget", not by peak throughput. Queueing amplifies the CXL
//! service-time gap at the tail, so the *sellable capacity* cost of a
//! placement exceeds its raw throughput cost — an operational corollary
//! of §4.1/§4.3 that matters for the §6 cost model's `R_c` input.

use serde::Serialize;

use cxl_kv::{KvConfig, KvStore, MemProfile, VALUE_SIZE};
use cxl_topology::{SncMode, Topology};
use cxl_ycsb::Workload;

use crate::config::CapacityConfig;
use crate::runner::Runner;

/// Sizing of an SLO study.
#[derive(Debug, Clone, Serialize)]
pub struct SloParams {
    /// Records in the store (1 KiB each).
    pub record_count: u64,
    /// Warm-up (closed-loop) operations before measuring.
    pub warmup_ops: u64,
    /// Measured operations per rate point.
    pub ops: u64,
    /// p99 budget in microseconds.
    pub slo_p99_us: f64,
    /// Offered rates to probe, ops/s (ascending).
    pub rates: Vec<f64>,
    /// Workload.
    pub workload: Workload,
    /// Root seed.
    pub seed: u64,
}

impl Default for SloParams {
    fn default() -> Self {
        Self {
            record_count: 100_000,
            warmup_ops: 100_000,
            ops: 60_000,
            slo_p99_us: 40.0,
            rates: vec![4e5, 6e5, 8e5, 1e6, 1.1e6, 1.2e6],
            workload: Workload::B,
            seed: 42,
        }
    }
}

impl SloParams {
    /// A fast variant for tests.
    pub fn smoke() -> Self {
        Self {
            record_count: 30_000,
            warmup_ops: 20_000,
            ops: 25_000,
            rates: vec![4e5, 8e5, 1.1e6],
            ..Default::default()
        }
    }
}

/// Result for one placement.
#[derive(Debug, Clone, Serialize)]
pub struct SloRow {
    /// Table 1 label.
    pub config: &'static str,
    /// `(offered rate, p99 µs)` points.
    pub points: Vec<(f64, f64)>,
    /// Highest probed rate meeting the budget (0 when none).
    pub max_rate: f64,
}

/// Probes one placement across the configured rates.
pub fn probe(config: CapacityConfig, params: &SloParams) -> SloRow {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let mut points = Vec::new();
    let mut max_rate = 0.0f64;
    for &rate in &params.rates {
        let kv = KvConfig {
            record_count: params.record_count,
            profile: MemProfile::capacity_strained(),
            seed: params.seed,
            ..Default::default()
        };
        let (tier, flash) = config.tier_config(&topo, kv.record_count * VALUE_SIZE);
        let mut store = KvStore::new(&topo, tier, kv, flash);
        if params.warmup_ops > 0 {
            store.run(params.workload, params.warmup_ops);
        }
        let r = store.run_open_loop(params.workload, rate, params.ops);
        let p99 = r
            .latency
            .try_percentile(99.0)
            .expect("open-loop run records every op");
        let p99_us = p99 as f64 / 1e3;
        if p99_us <= params.slo_p99_us {
            max_rate = max_rate.max(rate);
        }
        points.push((rate, p99_us));
    }
    SloRow {
        config: config.label(),
        points,
        max_rate,
    }
}

/// Runs the study on an explicit runner. Every placement probes the
/// same workload trace (shared seed): capacity is compared across
/// placements at fixed load, so the cells stay paired and each probe is
/// an independent cell.
pub fn run_with(runner: &Runner, configs: &[CapacityConfig], params: &SloParams) -> Vec<SloRow> {
    runner.map(configs.to_vec(), |c| probe(c, params))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SLO capacity (`max_rate`) of the row labelled `label`, or
    /// `None` when no row carries that label.
    fn max_rate_of(rows: &[SloRow], label: &str) -> Option<f64> {
        rows.iter().find(|r| r.config == label).map(|r| r.max_rate)
    }

    #[test]
    fn p99_grows_with_offered_rate() {
        let row = probe(CapacityConfig::Mmem, &SloParams::smoke());
        assert_eq!(row.points.len(), 3);
        for w in row.points.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.8, "p99 collapsed: {:?}", row.points);
        }
        assert!(row.max_rate > 0.0);
    }

    #[test]
    fn slo_capacity_orders_mmem_above_cxl_heavy() {
        let p = SloParams::smoke();
        let rows = run_with(
            &Runner::from_env(),
            &[
                CapacityConfig::Mmem,
                CapacityConfig::Interleave11,
                CapacityConfig::Interleave13,
            ],
            &p,
        );
        let cap = |label: &str| max_rate_of(&rows, label).expect("probed config");
        assert!(cap("MMEM") >= cap("1:1"), "{rows:?}");
        assert!(cap("1:1") >= cap("1:3"), "{rows:?}");
        // The heavy-CXL placement loses capacity under the budget.
        assert!(cap("1:3") < cap("MMEM"));
        // A label that never ran has no row.
        assert_eq!(max_rate_of(&rows, "3:1"), None);
    }

    #[test]
    fn tail_amplification_exceeds_mean_gap() {
        // At a rate near MMEM's knee, the 1:1 p99 gap is larger than the
        // ~1.4x service-time gap — queueing amplification.
        let p = SloParams::smoke();
        let mmem = probe(CapacityConfig::Mmem, &p);
        let il = probe(CapacityConfig::Interleave11, &p);
        let last = p.rates.len() - 1;
        let ratio = il.points[last].1 / mmem.points[last].1;
        assert!(ratio > 1.6, "tail ratio {ratio}");
    }
}
