//! Failure injection: error paths and degenerate inputs across crates.

use cxl_repro::core_api::CapacityConfig;
use cxl_repro::kv::{KvConfig, KvStore};
use cxl_repro::perf::{AccessMix, FlowSpec, MemSystem, ModelParams};
use cxl_repro::sim::SimTime;
use cxl_repro::tier::{TierConfig, TierManager};
use cxl_repro::topology::{DdrGeneration, NodeId, SncMode, Socket, SocketId, Topology, UpiLink};
use cxl_repro::ycsb::Workload;

fn tiny_topology() -> Topology {
    // One socket, 2 channels, 1 GiB of DRAM, no CXL.
    Topology {
        sockets: vec![Socket::new(SocketId(0), 4, 2, DdrGeneration::Ddr5_4800, 1)],
        snc: SncMode::Disabled,
        upi: vec![],
    }
}

#[test]
fn tier_manager_reports_oom_without_ssd() {
    let topo = tiny_topology();
    let mut cfg = TierConfig::bind(vec![NodeId(0)]);
    cfg.capacity_override = vec![(NodeId(0), 2 * 4096)];
    let mut tm = TierManager::new(&topo, cfg);
    assert!(tm.alloc(SimTime::ZERO).is_ok());
    assert!(tm.alloc(SimTime::ZERO).is_ok());
    let err = tm.alloc(SimTime::ZERO).unwrap_err();
    assert!(err.to_string().contains("SSD spill is disabled"));
    // With spill enabled the same allocation succeeds.
    let mut cfg2 = TierConfig::bind(vec![NodeId(0)]);
    cfg2.capacity_override = vec![(NodeId(0), 2 * 4096)];
    cfg2.allow_ssd_spill = true;
    let mut tm2 = TierManager::new(&topo, cfg2);
    for _ in 0..5 {
        tm2.alloc(SimTime::ZERO).unwrap();
    }
    assert_eq!(tm2.stats().ssd_spills, 3);
}

#[test]
#[should_panic(expected = "dataset does not fit")]
fn kv_store_panics_when_dataset_exceeds_memory_without_flash() {
    let topo = tiny_topology();
    let cfg = KvConfig {
        record_count: 10_000_000, // ~10 GiB into a 1 GiB node.
        ..Default::default()
    };
    let _ = KvStore::new(&topo, TierConfig::bind(vec![NodeId(0)]), cfg, false);
}

#[test]
#[should_panic(expected = "requires a CXL node")]
fn interleave_config_rejects_cxl_less_server() {
    let topo = Topology::baseline_server(SncMode::Disabled);
    let _ = CapacityConfig::Interleave11.tier_config(&topo, 1 << 20);
}

#[test]
#[should_panic(expected = "1- and 2-socket")]
fn mem_system_rejects_many_sockets() {
    let mut topo = Topology::paper_testbed(SncMode::Disabled);
    topo.sockets
        .push(Socket::new(SocketId(2), 4, 8, DdrGeneration::Ddr5_4800, 64));
    let _ = MemSystem::new(&topo);
}

#[test]
#[should_panic(expected = "model parameter rsf_cap_gbps must be > 0")]
fn invalid_tuning_rejected() {
    let params = ModelParams {
        rsf_cap_gbps: -1.0,
        ..Default::default()
    };
    let _ = MemSystem::with_params(&tiny_topology(), &params);
}

#[test]
fn zero_rate_flows_are_harmless() {
    let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let flows = vec![
        FlowSpec::new(SocketId(0), NodeId(0), AccessMix::read_only(), 0.0),
        FlowSpec::new(SocketId(0), NodeId(8), AccessMix::ratio(1, 1), 0.0),
    ];
    let res = sys.solve(&flows);
    for f in &res.flows {
        assert_eq!(f.achieved_gbps, 0.0);
        assert!(!f.throttled);
        assert!(f.latency_ns > 0.0); // Idle latency still reported.
    }
    assert!(res.utilization.is_empty());
}

#[test]
fn kv_run_with_zero_ops_is_safe() {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let cfg = KvConfig {
        record_count: 1_000,
        ..Default::default()
    };
    let mut store = KvStore::new(&topo, TierConfig::bind(vec![NodeId(0)]), cfg, false);
    let r = store.run(Workload::C, 0);
    assert_eq!(r.ops, 0);
    assert_eq!(r.throughput_ops, 0.0);
    assert_eq!(r.latency.count(), 0);
}

#[test]
fn unbalanced_upi_topology_still_solves() {
    // A single, slow UPI link between the sockets.
    let mut topo = Topology::paper_testbed(SncMode::Disabled);
    topo.upi = vec![UpiLink {
        bandwidth_gbps: 8.0,
    }];
    let sys = MemSystem::new(&topo);
    // Remote reads are now UPI-bound well below DDR capacity.
    let bw = sys.max_bandwidth_gbps(SocketId(0), NodeId(1), AccessMix::read_only());
    assert!((bw - 8.0).abs() < 0.5, "bw {bw}");
}

#[test]
fn empty_solve_returns_empty() {
    let sys = MemSystem::new(&tiny_topology());
    let res = sys.solve(&[]);
    assert!(res.flows.is_empty());
    assert!(res.utilization.is_empty());
}
