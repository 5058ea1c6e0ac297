//! Serve-dynamics study: the open-loop multi-tenant serving front end
//! (`cxl-serve`) on a diurnal trace with a mid-peak expander fault.
//! No paper figure — this puts an operator-facing serving layer
//! (Poisson/bursty arrivals, SLO-aware admission, autoscaled
//! `cxl-pool` leases through the `cxl-ctl` plant contract) on top of
//! the KeyDB and LLM backends the paper benchmarks closed-loop.

use cxl_bench::{emit, runner_from_args, shape_line};
use cxl_core::experiments::serve::{run_with, ServeParams};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = run_with(&runner_from_args(), ServeParams::default());
    emit(&study, || {
        let mut out = String::new();
        out.push_str(&study.table().render());
        out.push('\n');

        out.push_str("# shape check (adaptive serving vs this run)\n");
        let adaptive = &study.adaptive().report;
        let peak = &study.cell("static-peak").report;
        let lean = &study.cell("static-lean").report;
        out.push_str(&shape_line(
            "adaptive beats static-peak on tail AND cost",
            "yes",
            format!(
                "{} (p99/slo {:.2} vs {:.2}, cost/kreq {:.2} vs {:.2})",
                study.adaptive_beats_on_both("static-peak"),
                adaptive.worst_slo_frac(),
                peak.worst_slo_frac(),
                1_000.0 * adaptive.cost_per_request,
                1_000.0 * peak.cost_per_request,
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "adaptive holds every SLO through the fault",
            "p99/slo < 1",
            format!("{:.2}", adaptive.worst_slo_frac()),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "static-lean blows the SLO post-fault",
            "p99/slo > 1",
            format!("{:.2}", lean.worst_slo_frac()),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "nominal load is never shed or rejected",
            "0",
            format!("{} shed, {} rejected", adaptive.shed, adaptive.rejected),
        ));
        out.push('\n');
        let overload = &study.cell("overload").report;
        out.push_str(&shape_line(
            "overloaded admission sheds and rejects",
            "> 0",
            format!(
                "{} shed, {} rejected ({:.0}% of arrivals dropped)",
                overload.shed,
                overload.rejected,
                100.0 * overload.drop_fraction()
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "autoscaler releases leases on the night trough",
            "> 0 shrinks",
            adaptive.lease_shrinks,
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "lease guardrail violations",
            "0",
            study.total_guardrail_violations(),
        ));
        out.push('\n');
        out
    });
}
