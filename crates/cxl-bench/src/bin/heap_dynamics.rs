//! Heap-dynamics study: a managed-runtime object graph (`cxl-heap`)
//! on tiered memory. No paper figure — this extends the paper's
//! KeyDB/Spark workloads with the GC behavior a JVM/Go service brings
//! to an expander: trace-phase sweeps that a recency-based hot-page
//! policy misreads as working-set shifts (promotion storms), plus the
//! two mitigations (storm-aware promotion streaks and generational
//! hot/cold segregation) and a mid-trace expander fault.

use cxl_bench::{emit, runner_from_args, shape_line};
use cxl_core::experiments::heap::{run_with, HeapStudyParams};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = run_with(&runner_from_args(), HeapStudyParams::default());
    emit(&study, || {
        let mut out = String::new();
        out.push_str(&study.table().render());
        out.push('\n');

        out.push_str("# shape check (GC on tiered memory vs this run)\n");
        out.push_str(&shape_line(
            "DRAM-rich baseline sees no promotion storm",
            "storm ~ 0",
            format!("{:.4} promos/obj", study.storm("dram-rich")),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "lean default policy storms on every trace",
            "storm >> 0",
            format!("{:.4} promos/obj", study.storm("lean-default")),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "storm-aware streak suppresses the storm",
            "> 4x fewer trace promotions",
            format!("{:.1}x", study.storm_reduction()),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "storms hurt the *resumed mutator*, not just the trace",
            "post-GC p99 ratio > 1",
            format!("{:.2}x", study.post_gc_recovery()),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "trace-phase p99 blowup recovered by the streak filter",
            "default > 2x storm-aware",
            format!(
                "{:.2} vs {:.2} us",
                study.trace_p99_ns("lean-default") / 1_000.0,
                study.trace_p99_ns("lean-storm-aware") / 1_000.0
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "generational segregation alone is not hotness segregation",
            "storm persists",
            format!(
                "{:.4} vs {:.4} promos/obj (the hot set is tenured)",
                study.storm("lean-segregated"),
                study.storm("lean-default")
            ),
        ));
        out.push('\n');
        let p99 = |l: &str| {
            study
                .cell(l)
                .report
                .mutator
                .try_tail()
                .map(|t| t.2)
                .unwrap_or(0) as f64
                / 1_000.0
        };
        out.push_str(&shape_line(
            "segregation + streak together give the best mutator p99",
            "seg-storm < default",
            format!(
                "{:.2} vs {:.2} us",
                p99("lean-seg-storm"),
                p99("lean-default")
            ),
        ));
        out.push('\n');
        let fault = &study.cell("lean-fault").report;
        out.push_str(&shape_line(
            "mid-trace expander fault strands nothing",
            "0 pages",
            format!(
                "{} stranded ({} evacuated)",
                fault.stranded_pages,
                fault
                    .evacuation
                    .as_ref()
                    .map(|e| e.total_pages())
                    .unwrap_or(0)
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "no-GC control never traces, never storms",
            "0 trace promotions",
            study.cell("lean-no-gc").report.trace_promotions,
        ));
        out.push('\n');
        out
    });
}
