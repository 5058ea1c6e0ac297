//! End-to-end fault tolerance: fault schedules driven through the
//! discrete-event engine against a live KeyDB model.
//!
//! The crate-level tests cover each piece (schedule drawing, health
//! mutation, evacuation, re-solving); this test wires them together the
//! way a simulation run does — `install` the schedule on an [`Engine`],
//! let events fire on the simulated clock, and react to each fault from
//! inside the handler while the store keeps serving.

use cxl_repro::fault::{install, FaultEvent, FaultKind, FaultSchedule};
use cxl_repro::kv::{KvConfig, KvStore, VALUE_SIZE};
use cxl_repro::sim::{Engine, SimTime};
use cxl_repro::tier::{AllocPolicy, Location, TierConfig};
use cxl_repro::topology::{NodeId, SncMode, Topology};
use cxl_repro::ycsb::Workload;

// Paper testbed, SNC disabled: nodes 0,1 are DRAM; 2,3 are CXL.
const DRAM0: NodeId = NodeId(0);
const CXL0: NodeId = NodeId(2);

const RECORDS: u64 = 30_000;
const OPS: u64 = 20_000;

struct World {
    topo: Topology,
    store: KvStore,
    fired: Vec<FaultEvent>,
}

fn build_world() -> World {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let dataset_bytes = RECORDS * VALUE_SIZE;
    let mut tc = TierConfig::bind(vec![DRAM0]);
    tc.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 1);
    // DRAM cannot absorb a full evacuation: the offline fault must
    // exercise the SSD spill path, not just page moves.
    tc.capacity_override = vec![
        (DRAM0, dataset_bytes * 3 / 4),
        (NodeId(1), 0),
        (CXL0, dataset_bytes),
        (NodeId(3), 0),
    ];
    let cfg = KvConfig {
        record_count: RECORDS,
        ..Default::default()
    };
    let store = KvStore::new(&topo, tc, cfg, true);
    World {
        topo,
        store,
        fired: Vec::new(),
    }
}

/// Applies a fault to the world's topology and reacts through the store.
fn react(world: &mut World, ev: &FaultEvent) {
    ev.kind
        .apply(&mut world.topo)
        .expect("scheduled faults are valid for this topology");
    match ev.kind {
        FaultKind::ExpanderOffline { node } => {
            world
                .store
                .fail_expander(&world.topo, node)
                .expect("evacuation survives with flash on");
        }
        FaultKind::CapacityLoss { node, remaining } => {
            let cap = RECORDS * VALUE_SIZE;
            let new_cap = (cap as f64 * remaining) as u64;
            world
                .store
                .shrink_expander(&world.topo, node, new_cap)
                .expect("shrink survives with flash on");
        }
        // Link and latency faults change pricing, not placement.
        FaultKind::LinkDowngrade { .. } | FaultKind::LatencyInflation { .. } => {
            let topo = world.topo.clone();
            world.store.apply_topology(&topo);
        }
    }
    world.fired.push(ev.clone());
}

fn pages_on(store: &KvStore, node: NodeId) -> usize {
    store
        .residency()
        .iter()
        .filter(|(loc, _)| *loc == Location::Node(node))
        .count()
}

#[test]
fn engine_driven_schedule_degrades_gracefully() {
    let schedule = FaultSchedule::new(vec![
        FaultEvent {
            at: SimTime::from_secs_f64(0.5),
            kind: FaultKind::LinkDowngrade {
                node: CXL0,
                lanes: 4,
            },
        },
        FaultEvent {
            at: SimTime::from_secs_f64(1.0),
            kind: FaultKind::LatencyInflation {
                node: CXL0,
                factor: 2.0,
            },
        },
        FaultEvent {
            at: SimTime::from_secs_f64(1.5),
            kind: FaultKind::ExpanderOffline { node: CXL0 },
        },
    ]);
    let mut world = build_world();
    schedule.validate(&world.topo).unwrap();
    let healthy = world.store.run(Workload::C, OPS);
    assert!(healthy.throughput_ops > 0.0);
    assert!(
        pages_on(&world.store, CXL0) > 0,
        "interleave uses the expander"
    );

    let mut engine = Engine::new(world);
    install(&mut engine, &schedule, |eng, ev| react(eng.state_mut(), ev));
    engine.run();
    let world = engine.state_mut();

    // Every scheduled fault fired, in time order.
    assert_eq!(world.fired.len(), 3);
    assert_eq!(world.fired, schedule.events());

    // The dead expander is empty and the store still serves.
    assert_eq!(pages_on(&world.store, CXL0), 0);
    let degraded = world.store.run(Workload::C, OPS);
    assert!(degraded.throughput_ops > 0.0, "store must keep serving");
    assert!(
        degraded.throughput_ops < healthy.throughput_ops,
        "a dead expander cannot be free: {} vs {}",
        degraded.throughput_ops,
        healthy.throughput_ops
    );

    // Pricing matches a fresh solve of the degraded topology.
    let expected = cxl_repro::perf::MemSystem::new(&world.topo);
    assert!(!expected.node_online(CXL0));
    assert!(world.store.idle_latency_ns(CXL0).is_none());
}

#[test]
fn seeded_schedule_survives_end_to_end_and_is_deterministic() {
    let run = || {
        let mut world = build_world();
        let schedule = FaultSchedule::seeded(7, &world.topo, 4, SimTime::from_secs(2));
        schedule.validate(&world.topo).unwrap();
        world.store.run(Workload::C, OPS);
        let mut engine = Engine::new(world);
        install(&mut engine, &schedule, |eng, ev| react(eng.state_mut(), ev));
        engine.run();
        let world = engine.state_mut();
        let after = world.store.run(Workload::C, OPS);
        let fired: Vec<FaultEvent> = world.fired.clone();
        (fired, world.store.residency(), after.throughput_ops)
    };
    let (fired_a, res_a, tput_a) = run();
    let (fired_b, res_b, tput_b) = run();
    assert_eq!(fired_a.len(), 4, "all seeded faults fire");
    assert_eq!(fired_a, fired_b);
    assert_eq!(res_a, res_b);
    assert_eq!(tput_a.to_bits(), tput_b.to_bits(), "bit-identical replay");
    assert!(tput_a > 0.0, "store serves through every drawn fault");
}
