//! Full-scale regeneration runs (slow; excluded from the default suite).
//!
//! Run with `cargo test --release --test full_scale -- --ignored`.

use cxl_repro::core_api::experiments::{keydb, vm};
use cxl_repro::core_api::{CapacityConfig, Runner};
use cxl_repro::ycsb::Workload;

#[test]
#[ignore = "full Fig. 5 grid at default scale (~minutes in debug)"]
fn fig5_full_grid_shape() {
    let study = keydb::run_with(&Runner::from_env(), keydb::Fig5Params::default());
    let t = |c| study.throughput(c, Workload::C);
    let mmem = t(CapacityConfig::Mmem);
    // The §4.1.2 bands at full scale.
    for c in CapacityConfig::all() {
        assert!(t(c) <= mmem * 1.0001, "{:?} beat MMEM", c);
    }
    assert!(t(CapacityConfig::HotPromote) > 0.85 * mmem);
    let slow11 = mmem / t(CapacityConfig::Interleave11);
    assert!((1.1..=1.6).contains(&slow11), "1:1 slowdown {slow11}");
    let ssd4 = mmem / t(CapacityConfig::MmemSsd04);
    assert!(ssd4 > 1.5, "SSD-0.4 slowdown {ssd4}");
}

#[test]
#[ignore = "full Fig. 8 run at default scale"]
fn fig8_full_scale_shape() {
    let s = vm::run_with(&Runner::from_env(), vm::Fig8Params::default());
    let loss = s.throughput_loss();
    assert!((0.08..=0.18).contains(&loss), "loss {loss}");
}
