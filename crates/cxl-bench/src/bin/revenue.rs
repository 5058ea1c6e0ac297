//! Regenerates the §4.3 elastic-compute revenue arithmetic.

use cxl_bench::{emit, runner_from_args, shape_line};
use cxl_core::experiments::vm::{run_with, Fig8Params};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = run_with(
        &runner_from_args(),
        Fig8Params {
            record_count: 100_000,
            ops: 100_000,
            seed: 42,
        },
    );
    emit(&study.revenue, || {
        let mut out = String::new();
        out.push_str(&study.revenue_table().render());
        out.push('\n');
        out.push_str("# shape check (paper §4.3.2 vs this model)\n");
        out.push_str(&shape_line(
            "revenue uplift (25% stranded, 20% discount)",
            "26.77%",
            format!("{:.2}%", 100.0 * study.revenue.revenue_uplift()),
        ));
        out.push('\n');
        out
    });
}
