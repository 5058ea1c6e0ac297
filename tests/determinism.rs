//! Reproducibility: every experiment entry point is bit-deterministic
//! for a fixed seed, and seeds actually matter.

use cxl_repro::core_api::experiments::{keydb, llm, spark, vm};
use cxl_repro::core_api::{CapacityConfig, Runner};
use cxl_repro::ycsb::Workload;

#[test]
fn keydb_cells_are_deterministic() {
    let p = keydb::Fig5Params::smoke();
    let a = keydb::run_cell(CapacityConfig::Interleave11, Workload::A, p);
    let b = keydb::run_cell(CapacityConfig::Interleave11, Workload::A, p);
    assert_eq!(a.throughput_ops, b.throughput_ops);
    assert_eq!(a.latency.percentile(99.9), b.latency.percentile(99.9));
    assert_eq!(a.ssd_hits, b.ssd_hits);
}

#[test]
fn keydb_seed_changes_the_run() {
    // Use a configuration where the key sequence matters (SSD misses
    // depend on which pages are touched); on pure MMEM every op prices
    // identically, so throughput is legitimately seed-invariant there.
    let mut p1 = keydb::Fig5Params::smoke();
    let mut p2 = p1;
    p1.seed = 1;
    p2.seed = 2;
    let a = keydb::run_cell(CapacityConfig::MmemSsd04, Workload::A, p1);
    let b = keydb::run_cell(CapacityConfig::MmemSsd04, Workload::A, p2);
    assert_ne!(a.throughput_ops, b.throughput_ops);
    assert_ne!(a.ssd_hits, b.ssd_hits);
}

#[test]
fn spark_is_deterministic() {
    let a = spark::run_with(&Runner::from_env());
    let b = spark::run_with(&Runner::from_env());
    for q in ["Q5", "Q7", "Q8", "Q9"] {
        assert_eq!(a.normalized("1:3", q), b.normalized("1:3", q));
    }
}

#[test]
fn llm_is_deterministic() {
    let a = llm::run_with(&Runner::from_env());
    let b = llm::run_with(&Runner::from_env());
    assert_eq!(a.rate("3:1", 60), b.rate("3:1", 60));
    assert_eq!(a.rate("MMEM", 72), b.rate("MMEM", 72));
}

#[test]
fn vm_study_is_deterministic() {
    let p = vm::Fig8Params {
        record_count: 30_000,
        ops: 30_000,
        seed: 9,
    };
    let a = vm::run_with(&Runner::from_env(), p);
    let b = vm::run_with(&Runner::from_env(), p);
    assert_eq!(a.mmem_throughput, b.mmem_throughput);
    assert_eq!(a.cxl_throughput, b.cxl_throughput);
}
