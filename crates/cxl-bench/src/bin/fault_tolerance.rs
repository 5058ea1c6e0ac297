//! Fault-tolerance sweep: KeyDB serving across expander faults of
//! rising severity (link downgrade, latency inflation, capacity loss,
//! full failure). No paper figure — this exercises the graceful-
//! degradation machinery the §6 fleet-economics story implies.

use cxl_bench::{emit, runner_from_args, shape_line};
use cxl_core::experiments::faults::{run_with, FaultParams};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = run_with(&runner_from_args(), FaultParams::default());
    emit(&study, || {
        let mut out = String::new();
        out.push_str(&study.table().render());
        out.push('\n');

        out.push_str("# shape check (graceful degradation vs this run)\n");
        out.push_str(&shape_line(
            "every scenario keeps serving",
            "yes",
            format!("{}", study.cells.iter().all(|c| c.post_kops > 0.0)),
        ));
        out.push('\n');
        let offline = study.cell("offline");
        out.push_str(&shape_line(
            "pages left on dead expander",
            "0",
            offline.pages_left_on_node,
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "dead expander forces SSD spill",
            "yes",
            format!("{}", offline.pages_to_ssd > 0),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "evacuation is rate limited",
            "> 0 ms",
            format!("{:.0} ms", offline.recovery_ms),
        ));
        out.push('\n');
        let idle_ok = study
            .cells
            .iter()
            .all(|c| (c.post_idle_cxl_ns - c.expected_idle_cxl_ns).abs() <= 1e-9);
        out.push_str(&shape_line(
            "post-fault idle latency = degraded-topology solve",
            "equal",
            format!("{idle_ok}"),
        ));
        out.push('\n');
        let healthy = study.cell("healthy");
        for s in ["link-x4", "latency-4x", "offline"] {
            let c = study.cell(s);
            out.push_str(&shape_line(
                &format!("{s} throughput retained"),
                "< 100%",
                format!("{:.1}%", 100.0 * c.post_kops / healthy.post_kops),
            ));
            out.push('\n');
        }
        out
    });
}
