//! The incremental component-wise solver must be (a) a pure function of
//! the flow set regardless of cache history, and (b) actually
//! incremental: perturbing one flow of a resource-disjoint set
//! re-converges one component and replays the rest from the cache.
//! Bit-identity with the monolithic reference solve is pinned by the
//! unit tests of `system.rs`, where that test-only oracle lives. These
//! tests read the process-wide cache counters, so they run in their
//! own test binary.

use std::sync::Mutex;

use cxl_perf::{solve_cache_reset, solve_cache_stats, AccessMix, FlowSpec, MemSystem};
use cxl_topology::{NodeId, SncMode, SocketId, Topology};

/// The solve cache is process-global; serialize tests that reset it.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn s0() -> SocketId {
    SocketId(0)
}

/// Six flows from socket 0 to the six socket-local nodes of the SNC-4
/// testbed (4 DRAM SNC domains + 2 CXL expanders): every flow touches
/// only its own node's resources — no UPI, no RSF — so the set
/// decomposes into six singleton components.
fn disjoint_flows() -> Vec<FlowSpec> {
    let nodes = [0usize, 1, 2, 3, 8, 9];
    nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            FlowSpec::new(
                s0(),
                NodeId(n),
                AccessMix::ratio(2, 1),
                8.0 + i as f64, // Distinct offered rates: distinct keys.
            )
        })
        .collect()
}

#[test]
fn knob_probe_reconverges_only_the_dirty_component() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let flows = disjoint_flows();
    solve_cache_reset();
    sys.try_solve(&flows).unwrap();
    let warm = solve_cache_stats();
    assert_eq!(
        warm.component_misses, 6,
        "cold solve converges all: {warm:?}"
    );

    // A knob probe: one flow's offered rate moves, the rest hold.
    let mut probed = flows.clone();
    probed[3].offered_gbps += 1.0;
    let before = solve_cache_stats();
    sys.try_solve(&probed).unwrap();
    let after = solve_cache_stats();
    assert_eq!(
        after.component_misses - before.component_misses,
        1,
        "exactly the dirtied component re-converges: {after:?}"
    );
    assert_eq!(
        after.component_hits - before.component_hits,
        5,
        "clean components replay from the cache: {after:?}"
    );
}

#[test]
fn incremental_result_is_independent_of_cache_history() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let flows = disjoint_flows();
    let mut probed = flows.clone();
    probed[5].offered_gbps = 25.0;

    // Cold: solve the probed set from scratch.
    solve_cache_reset();
    let cold = serde_json::to_string(&sys.try_solve(&probed).unwrap()).unwrap();

    // Warm: the probed set assembled after the base set populated the
    // component cache. Any history dependence shows up as a bit diff.
    solve_cache_reset();
    sys.try_solve(&flows).unwrap();
    let warm = serde_json::to_string(&sys.try_solve(&probed).unwrap()).unwrap();
    assert_eq!(cold, warm, "solve result depends on cache history");
}

#[test]
fn mixed_component_sets_partition_correctly() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    // A remote-DRAM flow (UPI) and a remote-CXL flow (UPI + RSF) share
    // the UPI directions, so they must land in one component; the
    // local-DRAM flow stays alone in another.
    let mix = AccessMix::ratio(2, 1);
    let flows = vec![
        FlowSpec::new(s0(), NodeId(4), mix, 9.0), // remote DRAM
        FlowSpec::new(SocketId(1), NodeId(8), mix, 9.0), // remote CXL
        FlowSpec::new(s0(), NodeId(0), mix, 9.0), // local DRAM
    ];
    solve_cache_reset();
    sys.try_solve(&flows).unwrap();
    let stats = solve_cache_stats();
    assert_eq!(
        stats.component_misses, 2,
        "UPI-sharing flows must merge into one component: {stats:?}"
    );
}
