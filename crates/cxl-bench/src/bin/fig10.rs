//! Regenerates Fig. 10: LLM inference serving rate, single-backend
//! bandwidth, and KV-cache bandwidth (§5).

use cxl_bench::{emit, figure_text, runner_from_args, shape_line};
use cxl_core::experiments::llm;

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = llm::run_with(&runner_from_args());
    emit(&study, || {
        let mut out = String::new();
        out.push_str(&figure_text(&study.fig10a()));
        out.push('\n');
        out.push_str(&figure_text(&study.fig10b()));
        out.push('\n');
        out.push_str(&figure_text(&study.fig10c()));
        out.push('\n');
        out.push_str("# shape check (paper §5.2 vs this run)\n");
        out.push_str(&shape_line(
            "3:1 gain over MMEM at 60 threads",
            "+95%",
            format!(
                "+{:.0}%",
                100.0 * (study.rate("3:1", 60) / study.rate("MMEM", 60) - 1.0)
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "MMEM deficit vs 1:3 at 72 threads",
            "~14%",
            format!(
                "{:.1}%",
                100.0 * (1.0 - study.rate("MMEM", 72) / study.rate("1:3", 72))
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "MMEM wins at 24 threads",
            "yes (linear regime)",
            format!("{}", study.rate("MMEM", 24) >= study.rate("1:3", 24)),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "single-backend plateau",
            "24.2 GB/s @ 24 threads",
            format!(
                "{:.1} GB/s",
                study
                    .backend_bw
                    .iter()
                    .find(|&&(t, _)| t == 24)
                    .map(|&(_, b)| b)
                    .unwrap_or(0.0)
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "KV-cache bandwidth floor/plateau",
            "~12 / ~21 GB/s",
            format!(
                "{:.1} / {:.1} GB/s",
                study.kv_bw.first().map(|&(_, b)| b).unwrap_or(0.0),
                study.kv_bw.last().map(|&(_, b)| b).unwrap_or(0.0)
            ),
        ));
        out.push('\n');
        out
    });
}
