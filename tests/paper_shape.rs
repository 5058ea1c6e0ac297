//! End-to-end shape assertions: every headline claim of the paper's
//! evaluation, checked against the full reproduction pipeline.

use cxl_repro::core_api::experiments::{cost, keydb, latency, llm, spark, vm};
use cxl_repro::core_api::{CapacityConfig, Runner};
use cxl_repro::ycsb::Workload;

#[test]
fn section_3_loaded_latency_shape() {
    let s = latency::run_with(&Runner::from_env()).summary;
    // Idle latency ordering and the paper's point values.
    assert!(s.mmem_idle_ns < s.mmem_remote_idle_ns);
    assert!(s.mmem_remote_idle_ns < s.cxl_idle_ns);
    assert!(s.cxl_idle_ns < s.cxl_remote_idle_ns);
    assert!((s.cxl_idle_ns - 250.42).abs() < 2.0);
    // CXL is latency-worse but bandwidth-competitive locally...
    assert!(s.cxl_peak_gbps > 0.8 * s.mmem_peak_gbps);
    // ...and collapses across sockets (RSF).
    assert!(s.cxl_remote_peak_gbps < 0.4 * s.cxl_peak_gbps);
}

#[test]
fn section_4_1_keydb_ordering() {
    let p = keydb::Fig5Params::smoke();
    let t = |c| keydb::run_cell(c, Workload::C, p).throughput_ops;
    let mmem = t(CapacityConfig::Mmem);
    let i31 = t(CapacityConfig::Interleave31);
    let i11 = t(CapacityConfig::Interleave11);
    let i13 = t(CapacityConfig::Interleave13);
    let ssd2 = t(CapacityConfig::MmemSsd02);
    let ssd4 = t(CapacityConfig::MmemSsd04);
    let hp = t(CapacityConfig::HotPromote);

    // Fig. 5(a): MMEM fastest; interleave ordered by DRAM share; SSD
    // worst; Hot-Promote near MMEM.
    assert!(
        mmem >= i31 && i31 >= i11 && i11 >= i13,
        "{mmem} {i31} {i11} {i13}"
    );
    assert!(i13 > ssd4, "1:3 {i13} vs SSD-0.4 {ssd4}");
    assert!(ssd2 > ssd4, "SSD-0.2 {ssd2} vs SSD-0.4 {ssd4}");
    assert!(hp > i11, "Hot-Promote {hp} vs 1:1 {i11}");
    assert!(hp > 0.85 * mmem, "Hot-Promote {hp} vs MMEM {mmem}");
    // Interleave slowdown band 1.2-1.5x (we allow 1.1-1.6).
    let slow = mmem / i11;
    assert!((1.1..=1.6).contains(&slow), "1:1 slowdown {slow}");
}

#[test]
fn section_4_2_spark_bands() {
    let s = spark::run_with(&Runner::from_env());
    for q in ["Q5", "Q7", "Q8", "Q9"] {
        let n31 = s.normalized("3:1", q);
        let n11 = s.normalized("1:1", q);
        let n13 = s.normalized("1:3", q);
        assert!(n31 < n11 && n11 < n13, "{q}: {n31} {n11} {n13}");
        assert!(n31 > 1.2, "{q}: 3:1 too fast ({n31})");
        assert!(n13 < 12.0, "{q}: 1:3 too slow ({n13})");
        // Hot-Promote: >34 % slowdown, yet better than heavy interleave.
        let hp = s.normalized("Hot-Promote", q);
        assert!(hp > 1.3, "{q}: Hot-Promote {hp}");
        assert!(hp < n13, "{q}: Hot-Promote {hp} vs 1:3 {n13}");
    }
}

#[test]
fn section_4_3_vm_penalties() {
    let s = vm::run_with(
        &Runner::from_env(),
        vm::Fig8Params {
            record_count: 50_000,
            ops: 60_000,
            seed: 42,
        },
    );
    let loss = s.throughput_loss();
    assert!((0.05..=0.25).contains(&loss), "loss {loss}");
    assert!((s.revenue.revenue_uplift() - 0.2667).abs() < 0.01);
}

#[test]
fn section_5_llm_crossover() {
    let s = llm::run_with(&Runner::from_env());
    // Low threads: MMEM best. High threads: interleave wins big.
    assert!(s.rate("MMEM", 24) >= s.rate("3:1", 24) * 0.999);
    assert!(s.rate("3:1", 60) > 1.5 * s.rate("MMEM", 60));
    assert!(s.rate("1:3", 72) > s.rate("MMEM", 72));
    // Serving grows monotonically for 3:1 up to 84 threads (it has the
    // extra bandwidth), while MMEM-only peaks near 48.
    let m48 = s.rate("MMEM", 48);
    let m72 = s.rate("MMEM", 72);
    assert!(
        m72 < m48,
        "MMEM should degrade past saturation: {m48} -> {m72}"
    );
}

#[test]
fn section_6_cost_model() {
    let c = cost::run();
    assert!((c.server_ratio - 0.6729).abs() < 1e-3);
    assert!((c.tco_saving - 0.2598).abs() < 1e-3);
}
