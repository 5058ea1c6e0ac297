//! Online auto-tuning: the `cxl-ctl` control plane against every static
//! configuration on phased traces. No paper figure — this closes the
//! loop the paper's static sweeps (§4.2 interleave, §4.4 promotion,
//! §5 pooling) leave open: a feedback controller that re-tunes live
//! beats any configuration you could have frozen in advance.

use cxl_bench::{emit, runner_from_args, shape_line};
use cxl_core::experiments::autotune::{run_with, AutotuneParams};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let params = AutotuneParams::default();
    let study = run_with(&runner_from_args(), params);
    emit(&study, || {
        let mut out = String::new();
        out.push_str(&study.kv_table().render());
        out.push('\n');
        out.push_str(&study.llm_table().render());
        out.push('\n');

        out.push_str("# shape check (adaptive control vs this run)\n");
        out.push_str(&shape_line(
            "guardrail violations across every cell",
            "0",
            study.total_violations(),
        ));
        out.push('\n');
        let kv = study.kv_adaptive();
        out.push_str(&shape_line(
            "kv adaptive within 10% of best static, every phase window",
            "yes",
            format!("{}", study.kv_adaptive_within(0.10)),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "kv adaptive total beats every static total",
            "yes",
            format!("{}", kv.total > study.kv_best_static_total()),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "kv controller leases capacity after the expander death",
            "> 0 slabs",
            format!("{} slabs", kv.final_slabs),
        ));
        out.push('\n');
        let llm = study.llm_adaptive();
        out.push_str(&shape_line(
            "llm adaptive within 10% of best static, every ramp stage",
            "yes",
            format!("{}", study.llm_adaptive_within(0.10)),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "llm adaptive total beats every static placement",
            "yes",
            format!("{}", llm.total > study.llm_best_static_total()),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "llm controller moved placement at least twice",
            ">= 2 commits",
            format!("{} commits", llm.commits),
        ));
        out.push('\n');
        out
    });
}
