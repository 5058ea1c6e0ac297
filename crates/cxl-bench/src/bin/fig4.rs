//! Regenerates Fig. 4: MMEM vs CXL across distances for each read:write
//! mix, plus the random-vs-sequential panels (§3.3).

use cxl_bench::{emit, figure_text, runner_from_args, shape_line};
use cxl_core::experiments::latency;

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = latency::run_with(&runner_from_args());
    emit(&study, || {
        let mut out = String::new();
        for fig in &study.fig4 {
            out.push_str(&figure_text(fig));
            out.push('\n');
        }
        out.push_str("# (g)-(h): random access pattern\n");
        for fig in &study.fig4_random {
            out.push_str(&figure_text(fig));
            out.push('\n');
        }
        let s = study.summary;
        out.push_str("# shape check (paper §3.3 vs this model)\n");
        out.push_str(&shape_line(
            "CXL/MMEM idle latency ratio",
            "2.4-2.6x",
            format!("{:.2}x", s.cxl_idle_ns / s.mmem_idle_ns),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "CXL/MMEM-r idle latency ratio",
            "1.5-1.92x",
            format!("{:.2}x", s.cxl_idle_ns / s.mmem_remote_idle_ns),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "random vs sequential",
            "no significant disparity",
            "identical by construction",
        ));
        out.push('\n');
        out
    });
}
