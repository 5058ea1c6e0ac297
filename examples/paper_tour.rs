//! A guided tour of the whole reproduction, one section at a time.
//!
//! Runs a fast version of every paper experiment in order and prints the
//! headline comparison, so a newcomer can see the entire study end to
//! end in under a minute.
//!
//! Run with: `cargo run --release --example paper_tour`

use cxl_repro::core_api::experiments::{cost, keydb, latency, llm, spark, vm};
use cxl_repro::core_api::{CapacityConfig, Runner};
use cxl_repro::cost::RevenueModel;
use cxl_repro::ycsb::Workload;

fn section(title: &str) {
    println!("\n=== {title} ===");
}

fn main() {
    section("§3 CXL 1.1 performance characteristics (Figs 3-4)");
    let lat = latency::run_with(&Runner::from_env()).summary;
    println!(
        "idle latency: MMEM {:.0} ns | MMEM-r {:.0} ns | CXL {:.0} ns | CXL-r {:.0} ns",
        lat.mmem_idle_ns, lat.mmem_remote_idle_ns, lat.cxl_idle_ns, lat.cxl_remote_idle_ns
    );
    println!(
        "peak bandwidth: MMEM {:.1} GB/s | CXL {:.1} GB/s | CXL-r {:.1} GB/s (RSF-limited)",
        lat.mmem_peak_gbps, lat.cxl_peak_gbps, lat.cxl_remote_peak_gbps
    );

    section("§4.1 KeyDB capacity expansion (Fig 5, YCSB-C smoke run)");
    let p = keydb::Fig5Params::smoke();
    let t = |c| keydb::run_cell(c, Workload::C, p).throughput_ops / 1e3;
    let mmem = t(CapacityConfig::Mmem);
    println!(
        "MMEM {:.0} kops/s | 1:1 interleave {:.0} | Hot-Promote {:.0} | MMEM-SSD-0.4 {:.0}",
        mmem,
        t(CapacityConfig::Interleave11),
        t(CapacityConfig::HotPromote),
        t(CapacityConfig::MmemSsd04)
    );

    section("§4.2 Spark TPC-H consolidation (Fig 7)");
    let s = spark::run_with(&Runner::from_env());
    print!("normalized exec time (vs 3 MMEM servers):");
    for cfg in ["3:1", "1:1", "1:3", "Hot-Promote"] {
        print!("  {cfg} {:.2}x", s.normalized(cfg, "Q9"));
    }
    println!("  (Q9, two CXL servers)");

    section("§4.3 CXL-only instances + revenue (Fig 8)");
    let v = vm::run_with(
        &Runner::from_env(),
        vm::Fig8Params {
            record_count: 50_000,
            ops: 60_000,
            seed: 42,
        },
    );
    let rev = RevenueModel::paper_example();
    println!(
        "CXL-only throughput loss {:.1}% | revenue uplift from selling stranded vCPUs {:.1}%",
        100.0 * v.throughput_loss(),
        100.0 * rev.revenue_uplift()
    );

    section("§5 LLM inference over CXL bandwidth (Fig 10)");
    let l = llm::run_with(&Runner::from_env());
    println!(
        "at 60 threads: MMEM {:.0} tok/s vs 3:1 interleave {:.0} tok/s (+{:.0}%)",
        l.rate("MMEM", 60),
        l.rate("3:1", 60),
        100.0 * (l.rate("3:1", 60) / l.rate("MMEM", 60) - 1.0)
    );

    section("§6 Abstract Cost Model (Table 3)");
    let c = cost::run();
    println!(
        "Ncxl/Nbaseline {:.2}% -> TCO saving {:.2}% (Rd=10, Rc=8, C=2, Rt=1.1)",
        100.0 * c.server_ratio,
        100.0 * c.tco_saving
    );

    println!("\nDone. See EXPERIMENTS.md for the full paper-vs-measured tables.");
}
