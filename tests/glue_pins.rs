//! Pins the smoke-size output of every study that runs the tier and
//! pooling glue: the priced tier under `KvStore` and `HeapWorkload`,
//! the pooled-host data plane under the pool and fleet sims, and the
//! leased KV backend under the serving and autotune studies.
//!
//! Each study's result is serialized to JSON and folded into one
//! FNV-1a digest. A refactor of that glue must leave every digest
//! unchanged; a change that moves one changed what the studies compute.
//!
//! The studies whose layers hand counts to `cxl-obs` (the KV cells, the
//! heap, serving, autotune, the fault sweep, and the pool and fleet sims
//! on the event engine) also run under a scoped registry, and the `sim`
//! section of its export is pinned the same way: a change to how those
//! layers count must leave every key and value as it was.

use cxl_repro::core_api::experiments::{autotune, faults, fleet, heap, keydb, pool, serve, slo};
use cxl_repro::core_api::runner::Runner;
use cxl_repro::core_api::CapacityConfig;
use cxl_repro::obs;
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

/// Runs `study` under a fresh scoped registry; returns its digest and
/// the digest of the registry's `sim` export.
fn traced<T: serde::Serialize>(study: impl FnOnce() -> T) -> (u64, u64) {
    let reg = std::sync::Arc::new(obs::Registry::new());
    let out = {
        let _scope = obs::scope(reg.clone());
        study()
    };
    (digest(&out), fnv1a(&reg.export_sim_json()))
}

#[test]
fn faults_study_is_pinned() {
    let (study, sim) = traced(|| faults::run_with(&runner(), faults::FaultParams::smoke()));
    assert_eq!(study, 0x1951_8ee7_6431_1d9e, "faults");
    assert_eq!(sim, 0x59ea_e4b4_9cf5_ff3f, "faults sim export {sim:#018x}");
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
    let (cell, sim) = traced(|| {
        keydb::run_cell(
            CapacityConfig::MmemSsd04,
            Workload::D,
            keydb::Fig5Params::smoke(),
        )
    });
    assert_eq!(cell, 0x9bf1_4d5f_91d0_4cc5, "keydb flash");
    assert_eq!(
        sim, 0x1551_3a19_13c9_d687,
        "keydb flash sim export {sim:#018x}"
    );
}

#[test]
fn keydb_hot_promote_cell_is_pinned() {
    let (cell, sim) = traced(|| {
        keydb::run_cell(
            CapacityConfig::HotPromote,
            Workload::A,
            keydb::Fig5Params::smoke(),
        )
    });
    assert_eq!(cell, 0xec18_c49e_09a9_3643, "keydb hot-promote");
    assert_eq!(
        sim, 0x86c9_c391_6b25_24f4,
        "keydb hot-promote sim export {sim:#018x}"
    );
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
    let (study, sim) = traced(|| heap::run_with(&runner(), heap::HeapStudyParams::smoke()));
    assert_eq!(study, 0x07ea_3620_c871_8326, "heap");
    assert_eq!(sim, 0x5782_0455_5cb1_0b33, "heap sim export {sim:#018x}");
}

#[test]
fn pool_study_is_pinned() {
    let (study, sim) = traced(|| pool::run_with(&runner(), pool::PoolParams::smoke()));
    assert_eq!(study, 0xf6b5_a5f6_ad14_dee4, "pool");
    assert_eq!(sim, 0xb3d0_f560_7b68_1a21, "pool sim export {sim:#018x}");
}

#[test]
fn fleet_study_is_pinned() {
    let (study, sim) = traced(|| fleet::run_with(&runner(), fleet::FleetParams::smoke()));
    assert_eq!(study, 0x13a7_737e_75ad_fc1a, "fleet");
    assert_eq!(sim, 0x3005_4777_0abd_b8a6, "fleet sim export {sim:#018x}");
}

#[test]
fn serve_study_is_pinned() {
    let (study, sim) = traced(|| serve::run_with(&runner(), serve::ServeParams::smoke()));
    assert_eq!(study, 0x4fd5_9544_6e46_673d, "serve");
    assert_eq!(sim, 0xf0ce_ed2e_eafc_24d2, "serve sim export {sim:#018x}");
}

#[test]
fn autotune_study_is_pinned() {
    let (study, sim) = traced(|| autotune::run_with(&runner(), autotune::AutotuneParams::smoke()));
    assert_eq!(study, 0x270f_3759_fcdc_7831, "autotune");
    assert_eq!(
        sim, 0xeb37_c8f7_9152_78e3,
        "autotune sim export {sim:#018x}"
    );
}
