//! Fleet-dynamics sweep: multi-rack pooling over a rack/spine CXL
//! fabric (ROADMAP item 2). No paper figure — the paper stops at one
//! switch hop; this puts the §7.1 pooling economics on a fabric where
//! every lease pays its looked-up path: one ToR hop intra-rack,
//! ToR + cable + spine + cable + ToR across racks.

use cxl_bench::{emit, runner_from_args, shape_line};
use cxl_core::experiments::fleet::{run_with, FleetParams};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = run_with(&runner_from_args(), FleetParams::default());
    emit(&study, || {
        let mut out = String::new();
        out.push_str(&study.table().render());
        out.push('\n');

        out.push_str("# shape check (fleet pooling vs this run)\n");
        let fleet = &study.cell("fleet").report;
        out.push_str(&shape_line(
            "fleet installs less memory than static p99",
            "yes",
            format!(
                "{} ({:.0} vs {:.0} GiB)",
                fleet.dynamic_total_gib < fleet.static_total_gib,
                fleet.dynamic_total_gib,
                fleet.static_total_gib
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "fleet roughly holds the SLO static provisioning meets",
            "dyn <= static miss + 5%",
            format!(
                "{} ({:.2}% vs {:.2}%)",
                fleet.dynamic_violation_frac <= fleet.static_violation_frac + 0.05,
                100.0 * fleet.dynamic_violation_frac,
                100.0 * fleet.static_violation_frac
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "cross-rack leases pay strictly more hops",
            "1 hop intra, 3 cross",
            format!(
                "{} hop / {} hops, +{:.0} ns solved idle",
                fleet.intra_hops,
                fleet.cross_hops,
                fleet.cross_idle_read_ns - fleet.intra_idle_read_ns
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "the fleet actually leases across the spine",
            "> 0 grants",
            format!(
                "{} cross-rack grants, {:.2}% of slab-steps",
                fleet.cross_grants,
                100.0 * fleet.cross_share
            ),
        ));
        out.push('\n');
        let tight = &study.cell("tight-budget").report;
        out.push_str(&shape_line(
            "global budget binds when undersized",
            "peak == budget, unmet > 0",
            format!(
                "{} ({}/{} slabs, {} unmet slab-steps)",
                tight.peak_outstanding_slabs == tight.budget_slabs && tight.unmet_slab_steps > 0,
                tight.peak_outstanding_slabs,
                tight.budget_slabs,
                tight.unmet_slab_steps
            ),
        ));
        out.push('\n');
        let fault = &study.cell("rack-fault").report;
        out.push_str(&shape_line(
            "rack fault strands no pages fleet-wide",
            "0",
            fault.stranded_pages,
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "dead rack evacuates through DRAM/SSD",
            "> 0 pages",
            format!(
                "{} moved, {} to SSD",
                fault.evac_pages_moved, fault.evac_pages_to_ssd
            ),
        ));
        out.push('\n');
        out
    });
}
