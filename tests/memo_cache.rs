//! Solving is a pure function of `(system, flows)`: repeating a sweep,
//! or running one system's sweep after another's, yields bit-identical
//! figures. Nothing is carried between solves, so these tests share no
//! state and need no serialization.

use cxl_repro::mlc::{Mlc, MlcConfig};
use cxl_repro::perf::{Distance, MemSystem};
use cxl_repro::topology::{SncMode, Topology};

#[test]
fn fig3_sweep_hits_cache_without_changing_results() {
    let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let mlc = Mlc::new(MlcConfig::default());
    let distances = [
        Distance::LocalDram,
        Distance::RemoteDram,
        Distance::LocalCxl,
        Distance::RemoteCxl,
    ];
    let sweep = || -> Vec<String> {
        distances
            .iter()
            .map(|&d| serde_json::to_string(&mlc.fig3_panel(&sys, d)).unwrap())
            .collect()
    };

    let first = sweep();
    let second = sweep();
    assert_eq!(first, second, "a repeated sweep changed the figures");
}

#[test]
fn distinct_systems_do_not_collide() {
    // Solving one topology must not leak into another's results, even
    // when the figures of the two happen to coincide numerically.
    let snc4 = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let snc_off = MemSystem::new(&Topology::paper_testbed(SncMode::Disabled));
    let mlc = Mlc::new(MlcConfig::default());

    let fresh = serde_json::to_string(&mlc.fig3_panel(&snc_off, Distance::LocalCxl)).unwrap();
    let _ = mlc.fig3_panel(&snc4, Distance::LocalCxl);
    let after_other = serde_json::to_string(&mlc.fig3_panel(&snc_off, Distance::LocalCxl)).unwrap();

    assert_eq!(
        fresh, after_other,
        "another system's solves altered results"
    );
}
