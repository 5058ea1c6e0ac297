//! Fleet dynamics: multi-rack pooling over a rack/spine CXL fabric.
//!
//! The pool sweep ([`super::pool`]) studies eight hosts behind one
//! switch; this sweep scales the control plane to ROADMAP item 2's
//! fleet: racks of hosts on a [`cxl_topology::Fabric`], where every
//! lease's latency is the looked-up fabric path (one ToR hop
//! intra-rack, ToR + cable + spine + cable + ToR across racks), a
//! cluster scheduler places a heterogeneous KV/Spark/LLM mix onto
//! hosts, and per-rack lend controllers (a [`cxl_stats::Ewma`] of
//! local demand each) coordinate cross-rack leases under a global capacity budget. The
//! world model is built host-by-host on the runner — [`build_host`] is
//! a pure function of `(config, spec)`, so any `--jobs` count
//! assembles a bit-identical fleet.

use serde::Serialize;

use cxl_pool::fleet::{build_host, run_planned, FleetConfig, FleetPlan, FleetReport, HostSpec};
use cxl_sim::SimTime;
use cxl_stats::report::{fmt_f64, Table};
use cxl_stats::rng::derive_seed;

use crate::runner::Runner;

/// Sizing knobs for the fleet-dynamics sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FleetParams {
    /// Racks in the baseline scenarios.
    pub racks: usize,
    /// Hosts per rack in the baseline scenarios.
    pub hosts_per_rack: usize,
    /// Pooled capacity per rack, GiB.
    pub rack_pool_gib: u64,
    /// Global budget on outstanding leases, GiB.
    pub global_budget_gib: u64,
    /// Simulated horizon, seconds.
    pub horizon_s: u64,
    /// Control-loop tick, milliseconds.
    pub step_ms: u64,
    /// Root seed.
    pub seed: u64,
}

impl Default for FleetParams {
    fn default() -> Self {
        Self {
            racks: 2,
            hosts_per_rack: 32,
            rack_pool_gib: 1792,
            global_budget_gib: 3584,
            horizon_s: 60,
            step_ms: 250,
            seed: 42,
        }
    }
}

impl FleetParams {
    /// A fast variant for tests: 2 racks × 4 hosts, 20 s.
    pub fn smoke() -> Self {
        Self {
            hosts_per_rack: 4,
            rack_pool_gib: 448,
            global_budget_gib: 896,
            horizon_s: 20,
            ..Default::default()
        }
    }
}

/// One scenario of the fleet sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FleetCell {
    /// Scenario label.
    pub scenario: &'static str,
    /// Full fleet-simulation report.
    pub report: FleetReport,
}

/// The fleet-dynamics sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FleetStudy {
    /// One cell per scenario.
    pub cells: Vec<FleetCell>,
    /// Parameters used.
    pub params: FleetParams,
}

impl FleetStudy {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "fleet_dynamics",
            "Multi-rack pooling over a rack/spine fabric (KV/Spark/LLM mix)",
            &[
                "scenario",
                "racks×hosts",
                "pool GiB/rack",
                "dyn GiB",
                "static GiB",
                "saving %",
                "dyn miss %",
                "static miss %",
                "cross %",
                "cross grants",
                "unmet",
                "peak/budget slabs",
                "intra ns",
                "cross ns",
            ],
        );
        for c in &self.cells {
            let r = &c.report;
            t.push_row(vec![
                c.scenario.to_string(),
                format!("{}×{}", r.racks, r.hosts_per_rack),
                r.rack_pool_gib.to_string(),
                fmt_f64(r.dynamic_total_gib),
                fmt_f64(r.static_total_gib),
                fmt_f64(100.0 * r.capacity_saving),
                fmt_f64(100.0 * r.dynamic_violation_frac),
                fmt_f64(100.0 * r.static_violation_frac),
                fmt_f64(100.0 * r.cross_share),
                r.cross_grants.to_string(),
                r.unmet_slab_steps.to_string(),
                format!("{}/{}", r.peak_outstanding_slabs, r.budget_slabs),
                fmt_f64(r.intra_idle_read_ns),
                fmt_f64(r.cross_idle_read_ns),
            ]);
        }
        t
    }

    /// The named cell.
    pub fn cell(&self, scenario: &str) -> &FleetCell {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario)
            .unwrap_or_else(|| panic!("no scenario {scenario}"))
    }
}

/// One scenario spec:
/// `(label, racks, hosts_per_rack, pool GiB, budget GiB, fault second)`.
type Scenario = (&'static str, usize, usize, u64, u64, Option<u64>);

/// The scenarios of the sweep.
fn scenarios(p: FleetParams) -> Vec<Scenario> {
    vec![
        // The headline fleet: balanced racks, budget covering the pools.
        (
            "fleet",
            p.racks,
            p.hosts_per_rack,
            p.rack_pool_gib,
            p.global_budget_gib,
            None,
        ),
        // The operator commits well under the installed pools: the
        // global budget binds and demand goes unmet at peaks.
        (
            "tight-budget",
            p.racks,
            p.hosts_per_rack,
            p.rack_pool_gib,
            p.global_budget_gib * 5 / 8,
            None,
        ),
        // Same fleet re-racked twice as wide: more, smaller pools, so
        // transient imbalance pushes more leases across the spine.
        (
            "4-racks",
            p.racks * 2,
            p.hosts_per_rack / 2,
            p.rack_pool_gib / 2,
            p.global_budget_gib,
            None,
        ),
        // Rack 1's expander dies mid-run: mass revocation, fleet-wide
        // evacuation (cross-rack borrowers included), zero stranding.
        (
            "rack-fault",
            p.racks,
            p.hosts_per_rack,
            p.rack_pool_gib,
            p.global_budget_gib,
            Some(p.horizon_s / 2),
        ),
    ]
}

fn cell_config(s: &Scenario, params: FleetParams) -> FleetConfig {
    let (label, racks, hosts_per_rack, pool, budget, fault_s) = *s;
    FleetConfig {
        racks,
        hosts_per_rack,
        rack_pool_gib: pool,
        global_budget_gib: budget,
        horizon: SimTime::from_secs(params.horizon_s),
        step: SimTime::from_ms(params.step_ms),
        fault_at: fault_s.map(|at| (1, SimTime::from_secs(at))),
        seed: derive_seed(params.seed, &format!("fleet/{label}")),
    }
}

/// Runs the sweep on an explicit runner.
///
/// Two sharded phases keep the study bit-identical for any worker
/// count: first every `(scenario, host)` world build fans out over the
/// runner (pure per-host construction, order restored by index), then
/// the assembled scenarios run as independent cells.
pub fn run_with(runner: &Runner, params: FleetParams) -> FleetStudy {
    let labeled: Vec<(&'static str, FleetConfig)> = scenarios(params)
        .iter()
        .map(|s| (s.0, cell_config(s, params)))
        .collect();
    let plans: Vec<FleetPlan> = labeled
        .iter()
        .map(|(_, cfg)| FleetPlan::compute(cfg))
        .collect();
    // Phase 1: shard the world model host-by-host across the workers.
    let items: Vec<(usize, HostSpec)> = plans
        .iter()
        .enumerate()
        .flat_map(|(i, plan)| plan.specs.iter().map(move |spec| (i, *spec)))
        .collect();
    let configs = &labeled;
    let mut built = runner.map(items, |(i, spec)| build_host(&configs[i].1, &spec));
    // Phase 2: reassemble each scenario's world and run the cells.
    let mut worlds = Vec::new();
    for ((label, cfg), plan) in labeled.iter().cloned().zip(plans) {
        let hosts: Vec<_> = built.drain(..cfg.hosts()).collect();
        worlds.push((label, cfg, plan, hosts));
    }
    let cells = runner.map(worlds, |(label, cfg, plan, hosts)| FleetCell {
        scenario: label,
        report: run_planned(&cfg, &plan, hosts),
    });
    FleetStudy { cells, params }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_scenario_saves_capacity_and_prices_the_fabric() {
        let study = run_with(&Runner::serial(), FleetParams::default());
        let r = &study.cell("fleet").report;
        assert!(
            r.dynamic_total_gib < r.static_total_gib,
            "fleet must install less memory: {} vs {}",
            r.dynamic_total_gib,
            r.static_total_gib
        );
        assert!(r.capacity_saving > 0.0);
        assert!(
            r.dynamic_violation_frac <= r.static_violation_frac + 0.05,
            "fleet must roughly hold the SLO: dyn {} vs static {}",
            r.dynamic_violation_frac,
            r.static_violation_frac
        );
        // Path-dependent latency: cross-rack accesses pay strictly
        // more hops, and the solve prices them strictly higher.
        assert_eq!(r.intra_hops, 1);
        assert_eq!(r.cross_hops, 3);
        assert!(r.cross_idle_read_ns > r.intra_idle_read_ns);
        // And cross-rack leases actually happen in the headline cell.
        assert!(r.cross_grants > 0, "{r:?}");
        // Both racks host every workload class.
        for row in &r.placement {
            assert!(row.iter().all(|&n| n > 0), "placement {:?}", r.placement);
        }
    }

    #[test]
    fn tight_budget_binds_and_wide_fleet_crosses_more() {
        let study = run_with(&Runner::serial(), FleetParams::smoke());
        let fleet = &study.cell("fleet").report;
        let tight = &study.cell("tight-budget").report;
        assert_eq!(
            tight.peak_outstanding_slabs, tight.budget_slabs,
            "a binding budget is pinned at its cap"
        );
        assert!(tight.unmet_slab_steps > fleet.unmet_slab_steps);
        let wide = &study.cell("4-racks").report;
        assert_eq!(wide.racks, 4);
        assert_eq!(wide.host_steps, fleet.host_steps, "same fleet size");
    }

    #[test]
    fn rack_fault_strands_nothing() {
        let study = run_with(&Runner::serial(), FleetParams::smoke());
        let r = &study.cell("rack-fault").report;
        assert!(r.fault_fired);
        assert_eq!(r.stranded_pages, 0);
        assert_eq!(r.rack_stats[1].mass_revocations, 1);
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let p = FleetParams::smoke();
        let a = run_with(&Runner::new(1), p);
        let b = run_with(&Runner::new(8), p);
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.report, y.report);
        }
    }
}
