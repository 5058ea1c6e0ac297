//! Regenerates Fig. 3: loaded-latency curves for MMEM / MMEM-r / CXL /
//! CXL-r under the paper's read:write mixes (§3.2).

use cxl_bench::{emit, figure_text, runner_from_args, shape_line};
use cxl_core::experiments::latency;

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = latency::run_with(&runner_from_args());
    emit(&study, || {
        let mut out = String::new();
        for fig in &study.fig3 {
            out.push_str(&figure_text(fig));
            out.push('\n');
        }
        let s = study.summary;
        out.push_str("# shape check (paper §3.2 vs this model)\n");
        out.push_str(&shape_line(
            "MMEM idle read latency",
            "~97 ns",
            format!("{:.1} ns", s.mmem_idle_ns),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "MMEM-r idle read latency",
            "~130 ns",
            format!("{:.1} ns", s.mmem_remote_idle_ns),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "CXL idle read latency",
            "250.42 ns",
            format!("{:.1} ns", s.cxl_idle_ns),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "CXL-r idle read latency",
            "485 ns",
            format!("{:.1} ns", s.cxl_remote_idle_ns),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "MMEM read-only peak bandwidth",
            "~67 GB/s",
            format!("{:.1} GB/s", s.mmem_peak_gbps),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "MMEM write-only peak bandwidth",
            "54.6 GB/s",
            format!("{:.1} GB/s", s.mmem_write_peak_gbps),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "CXL peak bandwidth (2:1 mix)",
            "56.7 GB/s",
            format!("{:.1} GB/s", s.cxl_peak_gbps),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "CXL-r peak bandwidth (2:1 mix)",
            "20.4 GB/s",
            format!("{:.1} GB/s", s.cxl_remote_peak_gbps),
        ));
        out.push('\n');
        out
    });
}
