//! Open-loop multi-tenant serving: adaptive leasing vs static
//! provisioning on a diurnal trace with a mid-run expander fault.
//!
//! Every other experiment drives the stack closed-loop. This one runs
//! the `cxl-serve` front end: tenants submit Poisson/bursty arrivals on
//! their own schedule, each behind a token-budget admission gate and a
//! bounded FIFO, with requests priced on the real KeyDB and LLM
//! backends. The question is the operator's, not the benchmarker's —
//! under a day/night load shape with a fault in the middle of it, does
//! SLO-aware admission plus autoscaled `cxl-pool` leases beat static
//! provisioning on *both* tail latency and cost-per-request?
//!
//! Four cells over the identical trace:
//!
//! * `adaptive` — the autoscaler leases slabs as tenants ramp and
//!   releases them on the night trough; post-fault it can climb past
//!   any sane static choice because it only pays for the excursion.
//! * `static-lean` — no lease, base capacity only. Cheapest until the
//!   fault, at which point the KV tenants fall off the flash cliff and
//!   the p99 explodes.
//! * `static-peak` — a fixed lease sized for the diurnal peak, held
//!   for the whole run. Survives the peak, pays for capacity all night,
//!   and still degrades post-fault because the fault needs more than
//!   the peak needed.
//! * `overload` — the adaptive cell at a multiple of nominal rates
//!   against unchanged admission budgets: the shed path must engage
//!   (gated > 0 in CI), while at nominal load the same budgets shed
//!   nothing (gated == 0).

use serde::Serialize;

use cxl_serve::{
    run_serve, AutoscaleConfig, BurstConfig, CostConfig, Phase, ServeConfig, ServeReport,
    TenantClass, TenantConfig,
};
use cxl_sim::SimTime;
use cxl_stats::report::{fmt_f64, Table};
use cxl_ycsb::Workload;

use crate::runner::Runner;

/// Sizing knobs for the serving study.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServeParams {
    /// Records per KV tenant store (1 KiB each).
    pub record_count: u64,
    /// YCSB ops batched into one KV request.
    pub ops_per_request: u64,
    /// Base arrival rate of the first KV tenant, requests/s.
    pub kv_rate_rps: f64,
    /// Base arrival rate of the LLM tenant, requests/s.
    pub llm_rate_rps: f64,
    /// Duration of each diurnal phase, ms (four phases: ramp, peak,
    /// evening, night).
    pub phase_ms: u64,
    /// Autoscale control period, ms.
    pub autoscale_period_ms: u64,
    /// The lease the `static-peak` cell holds for the whole run, slabs.
    pub static_peak_slabs: u64,
    /// Rate multiplier for the `overload` cell.
    pub overload_mult: f64,
    /// Root seed.
    pub seed: u64,
}

impl Default for ServeParams {
    fn default() -> Self {
        Self {
            record_count: 40_000,
            ops_per_request: 64,
            kv_rate_rps: 1_200.0,
            llm_rate_rps: 3.0,
            phase_ms: 3_000,
            autoscale_period_ms: 250,
            static_peak_slabs: 2,
            overload_mult: 6.0,
            seed: 42,
        }
    }
}

impl ServeParams {
    /// A fast variant for tests. Rates and dataset stay at the default
    /// — the post-fault overload regime is the point of the study, and
    /// it only exists when demand clears the degraded flash-cliff
    /// capacity — so smoke shrinks only the clock (shorter phases,
    /// proportionally faster control ticks).
    pub fn smoke() -> Self {
        Self {
            phase_ms: 1_200,
            autoscale_period_ms: 120,
            ..Default::default()
        }
    }

    /// The fault instant: the middle of the day peak — the worst
    /// moment for an expander to die. The evening then keeps demand
    /// above degraded base capacity (so static cells cannot quietly
    /// recover), and the night trough tests whether the autoscaler
    /// lets go of the recovery lease.
    pub fn fault_at(&self) -> SimTime {
        SimTime::from_ms(self.phase_ms * 3 / 2)
    }
}

/// One provisioning scheme's run over the shared trace.
#[derive(Debug, Clone, Serialize)]
pub struct ServeCell {
    /// Cell label (`adaptive`, `static-lean`, `static-peak`,
    /// `overload`).
    pub label: String,
    /// True for autoscaled cells.
    pub adaptive: bool,
    /// The full serving report.
    pub report: ServeReport,
}

/// The serving study: four provisioning cells over one diurnal trace.
#[derive(Debug, Clone, Serialize)]
pub struct ServeStudy {
    /// Cells in grid order: adaptive, static-lean, static-peak,
    /// overload.
    pub cells: Vec<ServeCell>,
    /// Parameters used.
    pub params: ServeParams,
}

impl ServeStudy {
    /// Looks a cell up by label.
    ///
    /// # Panics
    ///
    /// Panics when the label names no cell.
    pub fn cell(&self, label: &str) -> &ServeCell {
        self.cells
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("no cell labelled {label}"))
    }

    /// The autoscaled nominal-load cell.
    pub fn adaptive(&self) -> &ServeCell {
        self.cell("adaptive")
    }

    /// Worst per-tenant p99 for a cell, ms.
    pub fn worst_p99_ms(&self, label: &str) -> f64 {
        self.cell(label).report.worst_p99_ms()
    }

    /// Worst per-tenant p99-to-SLO ratio for a cell (the cross-class
    /// tail metric: an LLM tenant's healthy p99 is three orders of
    /// magnitude above a KV tenant's, so raw worst-of-p99s would only
    /// ever describe the LLM tenant).
    pub fn worst_slo_frac(&self, label: &str) -> f64 {
        self.cell(label).report.worst_slo_frac()
    }

    /// True when the adaptive cell beats the named static cell on both
    /// axes of the headline claim: SLO-normalized tail latency and
    /// cost-per-request.
    pub fn adaptive_beats_on_both(&self, static_label: &str) -> bool {
        let a = &self.adaptive().report;
        let s = &self.cell(static_label).report;
        a.worst_slo_frac() < s.worst_slo_frac() && a.cost_per_request < s.cost_per_request
    }

    /// Guardrail invariant violations summed over every cell — the CI
    /// gate, must be zero.
    pub fn total_guardrail_violations(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.report.guardrail_violations)
            .sum()
    }

    /// Renders the study as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "serve_dynamics",
            "Diurnal multi-tenant serving + mid-run expander fault: adaptive leases vs static",
            &[
                "config",
                "served",
                "shed",
                "rejected",
                "worst p99 ms",
                "p99/slo",
                "post-fault p99 ms",
                "cost units",
                "cost/kreq",
                "peak lease",
                "grows",
                "shrinks",
                "violations",
            ],
        );
        for c in &self.cells {
            let worst_post = c
                .report
                .tenants
                .iter()
                .filter_map(|t| t.p99_post_fault_ms)
                .fold(0.0, f64::max);
            let peak_lease: u64 = c.report.tenants.iter().map(|t| t.peak_lease_slabs).sum();
            t.push_row(vec![
                c.label.clone(),
                c.report.served.to_string(),
                c.report.shed.to_string(),
                c.report.rejected.to_string(),
                fmt_f64(c.report.worst_p99_ms()),
                fmt_f64(c.report.worst_slo_frac()),
                fmt_f64(worst_post),
                fmt_f64(c.report.cost_units),
                fmt_f64(c.report.cost_per_request * 1_000.0),
                peak_lease.to_string(),
                c.report.lease_grows.to_string(),
                c.report.lease_shrinks.to_string(),
                c.report.guardrail_violations.to_string(),
            ]);
        }
        t
    }
}

/// Builds the shared diurnal scenario. Every cell runs this exact
/// trace; cells differ only in provisioning (autoscale vs static) and,
/// for the overload cell, a rate multiplier against unchanged budgets.
fn scenario(p: &ServeParams, rate_mult: f64, adaptive: bool, static_slabs: u64) -> ServeConfig {
    let phase = SimTime::from_ms(p.phase_ms);
    let mk_kv = |name: &str, workload, rate: f64, mults: Vec<f64>, burst| TenantConfig {
        name: name.to_string(),
        class: TenantClass::Kv {
            workload,
            ops_per_request: p.ops_per_request,
            record_count: p.record_count,
        },
        base_rate_rps: rate * rate_mult,
        phase_mults: mults,
        burst,
        queue_cap: 4_096,
        // The admission contract: 8x the tenant's base rate, which
        // clears every nominal phase/burst combination but not the
        // overload cell's multiplied offered load.
        admission_rate_rps: rate * 8.0,
        admission_burst: 64.0,
        // Two workers put the post-fault flash cliff in overload
        // territory: degraded per-worker throughput times two sits
        // below peak/evening demand unless leased capacity restores it.
        workers: 2,
        // ~100x the healthy p99 (~2 ms): the headroom a real serving
        // SLO carries. A sub-second fault-recovery transient holds it;
        // sustained post-fault overload does not.
        slo_p99_ms: 200.0,
    };
    ServeConfig {
        tenants: vec![
            mk_kv(
                "kv-a",
                Workload::B,
                p.kv_rate_rps,
                // Peak demand (1.7x) clears lease-0 capacity but not
                // leased capacity: the ramp itself makes kv-a lease, so
                // it holds slabs when the expander dies mid-peak and
                // the relocated pages land in them.
                vec![1.0, 1.7, 1.4, 0.3],
                Some(BurstConfig {
                    mult: 1.3,
                    mean_on_s: 0.3,
                    mean_off_s: 0.9,
                }),
            ),
            // kv-b peaks inside lease-0 capacity, so it never leases
            // pre-fault and exercises the purely reactive recovery
            // path (lease granted only after the fault).
            mk_kv(
                "kv-b",
                Workload::C,
                p.kv_rate_rps * 0.75,
                vec![0.6, 1.6, 1.9, 0.4],
                None,
            ),
            TenantConfig {
                name: "llm-a".to_string(),
                class: TenantClass::Llm {
                    prompt_tokens: 32,
                    mean_output_tokens: 8,
                },
                base_rate_rps: p.llm_rate_rps * rate_mult,
                phase_mults: vec![1.0, 1.5, 1.0, 0.3],
                burst: None,
                queue_cap: 256,
                admission_rate_rps: p.llm_rate_rps * 8.0,
                admission_burst: 16.0,
                workers: 3,
                slo_p99_ms: 4_000.0,
            },
        ],
        phases: vec![
            Phase::new("ramp", phase),
            Phase::new("peak", phase),
            Phase::new("evening", phase),
            // A long trough: most of what static-peak pays for its
            // always-on lease is bought here, serving nothing.
            Phase::new("night", phase + phase),
        ],
        autoscale: adaptive.then(|| AutoscaleConfig {
            period: SimTime::from_ms(p.autoscale_period_ms),
            ladder: vec![0, 1, 2, 4, 6],
        }),
        static_lease_slabs: static_slabs,
        fault_at: Some(p.fault_at()),
        // Three tenants can each reach the 6-slab ladder top without
        // starving each other at the 4-slab typical excursion.
        pool_slabs: 18,
        cost: CostConfig::default(),
        seed: 0, // overwritten per cell by the seeded runner
    }
}

/// One grid cell: (rate multiplier, adaptive, static slabs).
type CellSpec = (f64, bool, u64);

/// The cell grid: (label, cell spec).
fn grid(p: &ServeParams) -> Vec<(String, CellSpec)> {
    vec![
        ("adaptive".to_string(), (1.0, true, 0)),
        ("static-lean".to_string(), (1.0, false, 0)),
        ("static-peak".to_string(), (1.0, false, p.static_peak_slabs)),
        ("overload".to_string(), (p.overload_mult, true, 0)),
    ]
}

/// Runs the study on an explicit runner. Every cell is seeded from the
/// root seed and its label, so the study is bit-identical for any
/// worker count.
pub fn run_with(runner: &Runner, params: ServeParams) -> ServeStudy {
    let jobs: Vec<(String, (String, CellSpec))> = grid(&params)
        .into_iter()
        .map(|(label, job)| (format!("serve/{label}"), (label, job)))
        .collect();
    let cells = runner.map_seeded(
        params.seed,
        jobs,
        move |(label, (rate_mult, adaptive, static_slabs)), seed| {
            let mut cfg = scenario(&params, rate_mult, adaptive, static_slabs);
            cfg.seed = seed;
            ServeCell {
                label,
                adaptive,
                report: run_serve(&cfg),
            }
        },
    );
    ServeStudy { cells, params }
}
