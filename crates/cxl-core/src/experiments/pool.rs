//! Pool dynamics: static provisioning vs a dynamic multi-host pool
//! under bursty demand.
//!
//! The paper's §6–§7 TCO argument prices a pool with a static quantile
//! model (`cxl-cost::pooling`): perfect liquidity, normal demand,
//! install the p99. This sweep replays the question with dynamics —
//! `cxl-pool` simulates N hosts leasing slabs from one switch-attached
//! pool while their demand bursts, with queuing, fair-share revocation,
//! fragmentation, and rate-limited drains — and cross-validates the
//! answers: the perfect-liquidity saving computed from the traces'
//! aggregate-excess percentile bounds what the dynamic control plane
//! realizes (capacity cannot move faster than instantly), the normal-
//! marginal `evaluate` model is reported alongside with its divergence
//! documented, and the dynamic plane must still beat per-host static
//! provisioning at the same SLO. A final scenario kills
//! the pool expander mid-run: every lease is revoked at once and hosts
//! degrade onto local DRAM + SSD with zero stranded pages.

use serde::Serialize;

use cxl_cost::pooling::evaluate;
use cxl_cost::{DemandModel, PoolingConfig};
use cxl_pool::{PoolSimConfig, PoolSimReport, SLO_PERCENTILE};
use cxl_sim::SimTime;
use cxl_stats::report::{fmt_f64, Table};

use crate::runner::Runner;

/// Sizing knobs for the pool-dynamics sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PoolParams {
    /// Hosts sharing the pool in the baseline scenarios.
    pub hosts: usize,
    /// Local DRAM per host, GiB.
    pub local_dram_gib: u64,
    /// Baseline pool size, GiB.
    pub pool_gib: u64,
    /// Simulated horizon, seconds.
    pub horizon_s: u64,
    /// Control-loop tick, milliseconds.
    pub step_ms: u64,
    /// Monte-Carlo samples for the static cross-check model.
    pub model_samples: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for PoolParams {
    fn default() -> Self {
        Self {
            hosts: 8,
            local_dram_gib: 256,
            pool_gib: 768,
            horizon_s: 120,
            step_ms: 100,
            model_samples: 20_000,
            seed: 42,
        }
    }
}

impl PoolParams {
    /// A fast variant for tests.
    pub fn smoke() -> Self {
        Self {
            hosts: 4,
            pool_gib: 256,
            horizon_s: 30,
            model_samples: 4_000,
            ..Default::default()
        }
    }
}

/// One scenario of the pool sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PoolCell {
    /// Scenario label.
    pub scenario: &'static str,
    /// Full dynamic-simulation report.
    pub report: PoolSimReport,
    /// Capacity saving of a perfectly liquid pool sized at the SLO
    /// percentile of the traces' aggregate excess — the static-p99
    /// bound no real control plane can beat at this SLO.
    pub ideal_saving: f64,
    /// Capacity saving `cxl_cost::pooling::evaluate` predicts when fed
    /// the traces' moments. Diverges from `ideal_saving` because the
    /// model assumes a *normal* demand marginal while the simulated
    /// traces are bimodal (base + bursts): the normal p99 understates
    /// the per-host burst peak, shrinking the no-pool baseline and with
    /// it the predicted saving.
    pub model_saving: f64,
    /// Pool size the static model would install, GiB.
    pub model_pool_gib: f64,
}

impl PoolCell {
    /// `1 − (hosts·local + pool) / static_total` for an arbitrary pool
    /// size, against this cell's simulated static baseline.
    fn saving_with_pool(&self, pool_gib: f64) -> f64 {
        let fixed = (self.report.hosts as u64 * self.report.local_dram_gib) as f64;
        1.0 - (fixed + pool_gib) / self.report.static_total_gib
    }
}

/// The pool-dynamics sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PoolStudy {
    /// One cell per scenario.
    pub cells: Vec<PoolCell>,
    /// Parameters used.
    pub params: PoolParams,
}

impl PoolStudy {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "pool_dynamics",
            "Dynamic pooling vs static per-host provisioning (bursty demand)",
            &[
                "scenario",
                "hosts",
                "pool GiB",
                "dyn GiB",
                "static GiB",
                "saving %",
                "ideal %",
                "model %",
                "dyn SLO miss %",
                "static SLO miss %",
                "grants",
                "queued",
                "revoked",
                "wait ms",
                "frag peak",
            ],
        );
        for c in &self.cells {
            let r = &c.report;
            t.push_row(vec![
                c.scenario.to_string(),
                r.hosts.to_string(),
                r.pool_gib.to_string(),
                fmt_f64(r.dynamic_total_gib),
                fmt_f64(r.static_total_gib),
                fmt_f64(100.0 * r.capacity_saving),
                fmt_f64(100.0 * c.ideal_saving),
                fmt_f64(100.0 * c.model_saving),
                fmt_f64(100.0 * r.dynamic_violation_frac),
                fmt_f64(100.0 * r.static_violation_frac),
                (r.stats.grants + r.stats.partial_grants + r.stats.deferred_grants).to_string(),
                r.stats.queued_requests.to_string(),
                r.stats.revocations.to_string(),
                fmt_f64(r.mean_wait_ms),
                fmt_f64(r.stats.peak_fragmentation),
            ]);
        }
        t
    }

    /// The named cell.
    pub fn cell(&self, scenario: &str) -> &PoolCell {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario)
            .unwrap_or_else(|| panic!("no scenario {scenario}"))
    }
}

/// One scenario spec: `(label, pool GiB override, host override, fault?)`.
type Scenario = (&'static str, u64, usize, Option<u64>);

/// The scenarios of the sweep.
fn scenarios(p: PoolParams) -> Vec<Scenario> {
    vec![
        // The headline cell: a pool sized well under Σ(peak − local).
        ("pooled", p.pool_gib, p.hosts, None),
        // Half the pool: queuing and fair-share revocation dominate.
        ("tight-pool", p.pool_gib / 2, p.hosts, None),
        // Twice the hosts on a proportionally smaller per-host share:
        // statistical multiplexing should hold the SLO anyway.
        ("2x-hosts", p.pool_gib * 3 / 2, p.hosts * 2, None),
        // The expander dies mid-run: mass revocation, zero stranding.
        ("pool-fault", p.pool_gib, p.hosts, Some(p.horizon_s / 2)),
    ]
}

fn run_cell(
    label: &'static str,
    pool_gib: u64,
    hosts: usize,
    fault_at_s: Option<u64>,
    params: PoolParams,
    seed: u64,
) -> PoolCell {
    let cfg = PoolSimConfig {
        hosts,
        local_dram_gib: params.local_dram_gib,
        pool_gib,
        horizon: SimTime::from_secs(params.horizon_s),
        step: SimTime::from_ms(params.step_ms),
        fault_at: fault_at_s.map(SimTime::from_secs),
        seed,
    };
    let report = cxl_pool::run(&cfg);
    // Cross-check against the static quantile model, fed the moments of
    // the demand the simulation actually replayed (see `PoolCell` for
    // why its normal-marginal answer diverges from the trace bound).
    let model = evaluate(PoolingConfig {
        hosts,
        demand: DemandModel {
            mean_gib: report.demand_mean_gib,
            std_gib: report.demand_std_gib,
        },
        percentile: SLO_PERCENTILE,
        local_dram_gib: params.local_dram_gib as f64,
        samples: params.model_samples,
        seed,
        ..Default::default()
    });
    let mut cell = PoolCell {
        scenario: label,
        report,
        ideal_saving: 0.0,
        model_saving: model.capacity_saving,
        model_pool_gib: model.pool_gib,
    };
    cell.ideal_saving = cell.saving_with_pool(cell.report.ideal_pool_gib);
    cell
}

/// Runs the sweep on an explicit runner. Each scenario is seeded from
/// the root seed and its label, so the study is bit-identical for any
/// worker count.
pub fn run_with(runner: &Runner, params: PoolParams) -> PoolStudy {
    let grid: Vec<(String, Scenario)> = scenarios(params)
        .into_iter()
        .map(|(label, pool, hosts, fault)| (format!("pool/{label}"), (label, pool, hosts, fault)))
        .collect();
    let cells = runner.map_seeded(params.seed, grid, |(label, pool, hosts, fault), seed| {
        run_cell(label, pool, hosts, fault, params, seed)
    });
    PoolStudy { cells, params }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_scenario_beats_static_within_model_bound() {
        let c = run_cell("pooled", 768, 8, None, PoolParams::default(), 42);
        let r = &c.report;
        assert!(r.dynamic_total_gib < r.static_total_gib);
        assert!(r.capacity_saving > 0.0);
        // The headline pool is provisioned at or above the traces'
        // aggregate-excess p99, so the perfect-liquidity saving bounds
        // what the dynamic control plane realizes.
        assert!(
            r.ideal_pool_gib <= r.pool_gib as f64,
            "headline pool ({}) must cover the aggregate-excess p99 ({})",
            r.pool_gib,
            r.ideal_pool_gib
        );
        assert!(
            c.ideal_saving >= r.capacity_saving - 1e-9,
            "static-p99 bound ({}) must bound the dynamic saving ({})",
            c.ideal_saving,
            r.capacity_saving
        );
        assert!(r.dynamic_violation_frac <= r.static_violation_frac + 0.01);
    }

    #[test]
    fn fault_scenario_strands_nothing() {
        let p = PoolParams::smoke();
        let c = run_cell("pool-fault", p.pool_gib, p.hosts, Some(15), p, 42);
        assert!(c.report.fault_fired);
        assert_eq!(c.report.stranded_pages, 0);
        assert_eq!(c.report.stats.mass_revocations, 1);
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let p = PoolParams::smoke();
        let a = run_with(&Runner::new(1), p);
        let b = run_with(&Runner::new(8), p);
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.report, y.report);
            assert_eq!(x.model_saving, y.model_saving);
        }
    }
}
