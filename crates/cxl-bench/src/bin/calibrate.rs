//! Calibration & validation study: fit the performance model to every
//! registered measurement set (`cxl-calib`) and report the residuals
//! CI gates on. `paper_s3` re-fits the §3 calibration surface from a
//! perturbed start; the other targets stand in for external
//! measurements (CXL-DMSim, CXLMemSim, a slower ASIC, a CXL 2.0
//! switch pool) generated from deliberately different device
//! parameters the fitter must recover.

use cxl_bench::{emit, runner_from_args, shape_line};
use cxl_core::experiments::calib::{run_with, CalibParams};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = run_with(&runner_from_args(), CalibParams::default());
    emit(&study, || {
        let mut out = String::new();
        out.push_str(&study.table().render());
        out.push('\n');
        out.push_str(&study.delta_table().render());
        out.push('\n');

        out.push_str("# shape check (calibration expectations vs this run)\n");
        out.push_str(&shape_line(
            "shipped defaults sit on the paper's §3 surface unfitted",
            "max residual well under tolerance",
            format!(
                "{:.3}% max",
                study.cell("paper_s3").shipped.max_residual_pct
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "fit returns to the §3 surface from a perturbed start",
            "fitted <= 5% tolerance",
            format!(
                "{:.3}% from {:.1}% start",
                study.cell("paper_s3").fitted.max_residual_pct,
                study.cell("paper_s3").start.max_residual_pct
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "external stand-ins are NOT the shipped defaults",
            "shipped residual far above tolerance",
            format!(
                "slow_asic {:.1}%, cxl2_switch {:.1}% shipped",
                study.cell("slow_asic").shipped.max_residual_pct,
                study.cell("cxl2_switch").shipped.max_residual_pct
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "fitter recovers the slow ASIC's controller scale",
            "~ 2.2x (generating value)",
            format!(
                "{:.3}x",
                study.fitted_value("slow_asic", "controller_latency_scale")
            ),
        ));
        out.push('\n');
        // Hop and controller latency are nearly degenerate on a
        // single-device path (only their sum is identified), so gate
        // on the residual, not on either knob alone.
        out.push_str(&shape_line(
            "switch pool fits despite the hop/controller degeneracy",
            "fitted <= 6% tolerance",
            format!(
                "{:.3}% (hop {:.2}x, ctrl {:.2}x)",
                study.cell("cxl2_switch").fitted.max_residual_pct,
                study.fitted_value("cxl2_switch", "switch_hop_scale"),
                study.fitted_value("cxl2_switch", "controller_latency_scale")
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "every target lands inside its pinned tolerance",
            "all within",
            if study.all_within_tolerance() {
                "yes"
            } else {
                "NO"
            },
        ));
        out.push('\n');
        out
    });
}
