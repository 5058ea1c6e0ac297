//! §7.1 extension: CXL 2.0 memory-pooling economics.
//!
//! Sizes a shared expander pool for 2–16 hosts against a stochastic
//! demand model and reports the capacity/cost saving from statistical
//! multiplexing, plus a fleet-mixture evaluation of the §6 model over
//! multiple application classes.

use cxl_bench::emit;
use cxl_cost::placement::{simulate, PlacementConfig};
use cxl_cost::pooling::evaluate;
use cxl_cost::{AppClass, CostModelParams, DemandModel, FleetMixture, PoolingConfig};
use cxl_stats::report::Table;

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let mut table = Table::new(
        "pooling",
        "Pool sizing vs host count (p99 provisioning, demand N(512, 128) GiB)",
        &[
            "hosts",
            "DRAM/host no-pool (GiB)",
            "pool (GiB)",
            "capacity saving",
            "cost saving",
        ],
    );
    let mut outcomes = Vec::new();
    for hosts in [2usize, 4, 8, 16] {
        let out = evaluate(PoolingConfig {
            hosts,
            ..Default::default()
        });
        table.push_row(vec![
            hosts.to_string(),
            format!("{:.0}", out.dram_per_host_no_pool_gib),
            format!("{:.0}", out.pool_gib),
            format!("{:.1}%", 100.0 * out.capacity_saving),
            format!("{:.1}%", 100.0 * out.cost_saving),
        ]);
        outcomes.push((hosts, out));
    }

    // A fleet mixing the paper's three workload families, with (Rd, Rc)
    // in the ranges the reproduction measures.
    let fleet = FleetMixture::new(vec![
        AppClass {
            name: "KeyDB (capacity-bound)".into(),
            fleet_fraction: 0.5,
            params: CostModelParams {
                rd: 10.0,
                rc: 8.0,
                c: 2.0,
                rt: 1.1,
            },
        },
        AppClass {
            name: "Spark SQL (shuffle-heavy)".into(),
            fleet_fraction: 0.3,
            params: CostModelParams {
                rd: 9.4,
                rc: 4.1,
                c: 2.0,
                rt: 1.1,
            },
        },
        AppClass {
            name: "LLM serving (bandwidth-bound)".into(),
            fleet_fraction: 0.2,
            params: CostModelParams {
                rd: 6.0,
                rc: 5.5,
                c: 2.0,
                rt: 1.1,
            },
        },
    ]);

    emit(&table, || {
        let mut out = table.render();
        out.push('\n');
        out.push_str("# fleet mixture (§6 future work): per-class and blended savings\n");
        for (name, ratio, saving) in fleet.breakdown() {
            out.push_str(&format!(
                "  {name:<28} Ncxl/Nbase {:.1}%  TCO saving {:.1}%\n",
                100.0 * ratio,
                100.0 * saving
            ));
        }
        out.push_str(&format!(
            "  {:<28} Ncxl/Nbase {:.1}%  TCO saving {:.1}%\n",
            "fleet (blended)",
            100.0 * fleet.server_ratio(),
            100.0 * fleet.tco_saving()
        ));
        out.push_str(&format!(
            "\n# multiplexing gain: capacity saving grows {:.1}% -> {:.1}% from 2 to 16 hosts\n",
            100.0 * outcomes.first().unwrap().1.capacity_saving,
            100.0 * outcomes.last().unwrap().1.capacity_saving,
        ));
        // Operational cross-check: a p99-sized pool in a discrete
        // VM-placement simulation should reject ~1% of tenants.
        let sized = outcomes.last().unwrap().1;
        let placed = simulate(PlacementConfig {
            pool_gib: sized.pool_gib,
            ..Default::default()
        });
        out.push_str(&format!(
            "# operational check: p99-sized pool ({:.0} GiB) rejects {:.2}% of\n\
             # tenant placements in a discrete VM simulation (target ~1%),\n\
             # peak occupancy {:.0} GiB.\n",
            sized.pool_gib,
            100.0 * placed.rejection_rate(),
            placed.peak_pool_used_gib,
        ));
        // Dynamic cross-validation: replay the question with the
        // `cxl-pool` control plane (queuing, revocation, rate-limited
        // drains) and compare three savings for the same traces.
        let cfg = cxl_pool::PoolSimConfig::default();
        let dynamic = cxl_pool::run(&cfg);
        let model = evaluate(PoolingConfig {
            hosts: cfg.hosts,
            demand: DemandModel {
                mean_gib: dynamic.demand_mean_gib,
                std_gib: dynamic.demand_std_gib,
            },
            percentile: cxl_pool::SLO_PERCENTILE,
            local_dram_gib: cfg.local_dram_gib as f64,
            seed: cfg.seed,
            ..Default::default()
        });
        let fixed = (cfg.hosts as u64 * cfg.local_dram_gib) as f64;
        let ideal_saving = 1.0 - (fixed + dynamic.ideal_pool_gib) / dynamic.static_total_gib;
        out.push_str(&format!(
            "\n# dynamic cross-validation ({} hosts, {} GiB pool, bursty traces):\n\
             #   realized saving (cxl-pool sim)      {:.1}%\n\
             #   perfect-liquidity trace bound       {:.1}%  (>= realized: {})\n\
             #   static normal-marginal model        {:.1}%\n\
             # the static model diverges from the trace bound because it\n\
             # assumes a normal demand marginal; the simulated traces are\n\
             # bimodal (base + bursts), so the normal p99 understates the\n\
             # per-host burst peak and with it the no-pool baseline.\n",
            cfg.hosts,
            cfg.pool_gib,
            100.0 * dynamic.capacity_saving,
            100.0 * ideal_saving,
            ideal_saving >= dynamic.capacity_saving - 1e-9,
            100.0 * model.capacity_saving,
        ));
        out
    });
}
