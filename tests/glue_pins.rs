//! Pins the smoke-size output of every study that runs the tier and
//! pooling glue: the priced tier under `KvStore` and `HeapWorkload`,
//! the pooled-host data plane under the pool and fleet sims, and the
//! leased KV backend under the serving and autotune studies.
//!
//! Each study's result is serialized to JSON and folded into one
//! FNV-1a digest. A refactor of that glue must leave every digest
//! unchanged; a change that moves one changed what the studies compute.

use cxl_repro::core_api::experiments::{autotune, faults, fleet, heap, keydb, pool, serve, slo};
use cxl_repro::core_api::runner::Runner;
use cxl_repro::core_api::CapacityConfig;
use cxl_repro::ycsb::Workload;

/// 64-bit FNV-1a over `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(v: &impl serde::Serialize) -> u64 {
    fnv1a(&serde_json::to_string(v).expect("study output serializes"))
}

fn runner() -> Runner {
    Runner::new(1)
}

#[test]
fn faults_study_is_pinned() {
    let s = faults::run_with(&runner(), faults::FaultParams::smoke());
    assert_eq!(digest(&s), 0x1951_8ee7_6431_1d9e, "faults");
}

#[test]
fn slo_study_is_pinned() {
    let configs = [
        CapacityConfig::MmemSsd02,
        CapacityConfig::Interleave11,
        CapacityConfig::HotPromote,
    ];
    let rows = slo::run_with(&runner(), &configs, &slo::SloParams::smoke());
    assert_eq!(digest(&rows), 0xc3ba_8c7e_0b5b_609c, "slo");
}

#[test]
fn keydb_flash_cell_is_pinned() {
    let c = keydb::run_cell(
        CapacityConfig::MmemSsd04,
        Workload::D,
        keydb::Fig5Params::smoke(),
    );
    assert_eq!(digest(&c), 0x9bf1_4d5f_91d0_4cc5, "keydb flash");
}

#[test]
fn keydb_hot_promote_cell_is_pinned() {
    let c = keydb::run_cell(
        CapacityConfig::HotPromote,
        Workload::A,
        keydb::Fig5Params::smoke(),
    );
    assert_eq!(digest(&c), 0xec18_c49e_09a9_3643, "keydb hot-promote");
}

/// The whole smoke-size Fig. 5 grid: 28 cells, each workload's seven
/// configurations paired on one warm-up and one measured stream.
const KEYDB_STUDY: u64 = 0x27c3_f2d1_bd3f_469f;

#[test]
fn keydb_study_is_pinned() {
    let s = keydb::run_with(&Runner::serial(), keydb::Fig5Params::smoke());
    assert_eq!(digest(&s), KEYDB_STUDY, "keydb study, serial");
}

#[test]
fn keydb_study_is_pinned_on_four_workers() {
    let s = keydb::run_with(&Runner::new(4), keydb::Fig5Params::smoke());
    assert_eq!(digest(&s), KEYDB_STUDY, "keydb study, 4 workers");
}

#[test]
fn heap_study_is_pinned() {
    let s = heap::run_with(&runner(), heap::HeapStudyParams::smoke());
    assert_eq!(digest(&s), 0x07ea_3620_c871_8326, "heap");
}

#[test]
fn pool_study_is_pinned() {
    let s = pool::run_with(&runner(), pool::PoolParams::smoke());
    assert_eq!(digest(&s), 0xf6b5_a5f6_ad14_dee4, "pool");
}

#[test]
fn fleet_study_is_pinned() {
    let s = fleet::run_with(&runner(), fleet::FleetParams::smoke());
    assert_eq!(digest(&s), 0x13a7_737e_75ad_fc1a, "fleet");
}

#[test]
fn serve_study_is_pinned() {
    let s = serve::run_with(&runner(), serve::ServeParams::smoke());
    assert_eq!(digest(&s), 0x4fd5_9544_6e46_673d, "serve");
}

#[test]
fn autotune_study_is_pinned() {
    let s = autotune::run_with(&runner(), autotune::AutotuneParams::smoke());
    assert_eq!(digest(&s), 0x270f_3759_fcdc_7831, "autotune");
}
