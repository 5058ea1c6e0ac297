//! Pool-dynamics sweep: a dynamic multi-host CXL memory pool vs static
//! per-host provisioning under bursty demand. No paper figure — this
//! puts dynamics (queuing, fair-share revocation, fragmentation,
//! rate-limited drains, a mid-run pool fault) behind the §6–§7 static
//! pooling economics.

use cxl_bench::{emit, runner_from_args, shape_line};
use cxl_core::experiments::pool::{run_with, PoolParams};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let study = run_with(&runner_from_args(), PoolParams::default());
    emit(&study, || {
        let mut out = String::new();
        out.push_str(&study.table().render());
        out.push('\n');

        out.push_str("# shape check (dynamic pooling vs this run)\n");
        let pooled = study.cell("pooled");
        out.push_str(&shape_line(
            "pooling installs less memory than static p99",
            "yes",
            format!(
                "{} ({:.0} vs {:.0} GiB)",
                pooled.report.dynamic_total_gib < pooled.report.static_total_gib,
                pooled.report.dynamic_total_gib,
                pooled.report.static_total_gib
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "pooling holds the SLO static provisioning meets",
            "dyn <= static miss",
            format!(
                "{} ({:.2}% vs {:.2}%)",
                pooled.report.dynamic_violation_frac <= pooled.report.static_violation_frac + 0.01,
                100.0 * pooled.report.dynamic_violation_frac,
                100.0 * pooled.report.static_violation_frac
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "perfect-liquidity bound holds",
            "ideal >= realized saving",
            format!(
                "{} ({:.1}% vs {:.1}%)",
                pooled.ideal_saving >= pooled.report.capacity_saving - 1e-9,
                100.0 * pooled.ideal_saving,
                100.0 * pooled.report.capacity_saving
            ),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "switch hop visible in pooled idle latency",
            "+70 ns",
            format!(
                "+{:.0} ns",
                pooled.report.pool_idle_read_ns - pooled.report.direct_idle_read_ns
            ),
        ));
        out.push('\n');
        let tight = study.cell("tight-pool");
        out.push_str(&shape_line(
            "undersized pool queues and revokes",
            "> 0",
            format!(
                "{} queued, {} revocations, mean wait {:.1} ms",
                tight.report.stats.queued_requests,
                tight.report.stats.revocations,
                tight.report.mean_wait_ms
            ),
        ));
        out.push('\n');
        let fault = study.cell("pool-fault");
        out.push_str(&shape_line(
            "pool fault strands no pages",
            "0",
            fault.report.stranded_pages,
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "mass revocation evacuates through DRAM/SSD",
            "> 0 pages",
            format!(
                "{} moved, {} to SSD",
                fault.report.evac_pages_moved, fault.report.evac_pages_to_ssd
            ),
        ));
        out.push('\n');
        out
    });
}
