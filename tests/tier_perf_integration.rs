//! Cross-crate integration: the tier manager's traffic epochs drive the
//! performance model, and migration decisions respond to what the model
//! prices.

use cxl_repro::perf::MemSystem;
use cxl_repro::sim::SimTime;
use cxl_repro::tier::{
    AllocPolicy, HotPageConfig, MigrationMode, NumaBalancingConfig, Rw, TierConfig, TierManager,
};
use cxl_repro::topology::{NodeId, SncMode, SocketId, Topology};

const DRAM0: NodeId = NodeId(0);
const CXL0: NodeId = NodeId(2);

fn topo() -> Topology {
    Topology::paper_testbed(SncMode::Disabled)
}

#[test]
fn epoch_flows_price_interleaved_traffic() {
    let t = topo();
    let sys = MemSystem::new(&t);
    let mut cfg = TierConfig::bind(vec![DRAM0]);
    cfg.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 1);
    let mut tm = TierManager::new(&t, cfg);
    let pages = tm.alloc_n(1000, SimTime::ZERO).unwrap();

    // Touch every page: reads on a 1:1 placement.
    for (i, &p) in pages.iter().enumerate() {
        tm.touch(p, Rw::Read, 4096, SimTime::from_ns(i as u64 * 1000));
    }
    let epoch = tm.drain_epoch();
    let flows = epoch.flows(SocketId(0), SimTime::from_ms(1), true);
    assert_eq!(flows.len(), 2);
    let res = sys.solve(&flows);
    // The CXL flow must be priced slower than the DRAM flow.
    let lat_dram = res.flows[0].latency_ns;
    let lat_cxl = res.flows[1].latency_ns;
    assert!(lat_cxl > 2.0 * lat_dram, "CXL {lat_cxl} vs DRAM {lat_dram}");
}

#[test]
fn migration_traffic_shows_up_as_flows() {
    let t = topo();
    let mut cfg = TierConfig::bind(vec![CXL0]);
    cfg.migration = MigrationMode::NumaBalancing(NumaBalancingConfig::default());
    let mut tm = TierManager::new(&t, cfg);
    let pages = tm.alloc_n(100, SimTime::ZERO).unwrap();
    tm.tick(SimTime::from_ms(200)); // Install hints.
    for &p in &pages {
        tm.touch(p, Rw::Read, 64, SimTime::from_ms(250));
    }
    assert!(tm.stats().promotions > 0);
    let epoch = tm.drain_epoch();
    // Migration copies read the CXL node and write DRAM.
    assert!(epoch.migration_read_bytes.contains_key(&CXL0));
    assert!(epoch.migration_write_bytes.contains_key(&DRAM0));
    let flows = epoch.flows(SocketId(0), SimTime::from_ms(250), true);
    assert!(flows.len() >= 2);
}

#[test]
fn hot_page_selection_converges_hot_set_to_dram() {
    // A skewed access pattern over a 1:1 interleaved heap: the hot half
    // must end up DRAM-resident, the cold half on CXL.
    let t = topo();
    let mut cfg = TierConfig::bind(vec![DRAM0]);
    cfg.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 1);
    cfg.capacity_override = vec![(DRAM0, 500 * 4096), (NodeId(1), 0), (NodeId(3), 0)];
    cfg.migration = MigrationMode::HotPageSelection(HotPageConfig {
        balancing: NumaBalancingConfig {
            scan_period: SimTime::from_ms(1),
            scan_pages: 1024,
            hot_threshold: SimTime::from_ms(50),
            hint_fault_cost: SimTime::from_ns(300),
        },
        promote_rate_limit_bytes_per_sec: 1e9,
        dynamic_threshold: false,
        adjust_period: SimTime::from_ms(10),
        promote_after_faults: 1,
    });
    let mut tm = TierManager::new(&t, cfg);
    let pages = tm.alloc_n(1000, SimTime::ZERO).unwrap();

    // Hot set: pages 0..100 touched every round; the rest once.
    let mut now;
    for round in 0..200u64 {
        now = SimTime::from_ms(round);
        tm.tick(now);
        for &p in &pages[..100] {
            tm.touch(p, Rw::Read, 64, now);
        }
        if round == 0 {
            for &p in &pages[100..] {
                tm.touch(p, Rw::Read, 64, now);
            }
        }
    }
    let on_dram = pages[..100]
        .iter()
        .filter(|&&p| tm.location(p) == cxl_repro::tier::Location::Node(DRAM0))
        .count();
    assert!(on_dram >= 90, "only {on_dram}/100 hot pages on DRAM");
}

#[test]
fn two_socket_demotion_fills_local_cxl_before_crossing_upi() {
    // Two sockets, each with DRAM + one A1000 expander. The workload is
    // bound to socket 0's DRAM; demotions must fill the socket-local
    // expander (node 2, ~250 ns) before spilling across the UPI link to
    // the remote one (node 3, ~485 ns). Mid-run facts come from the
    // manager's statistics; the totals are verified through the cxl-obs
    // JSON export — the same artifact the bench binaries write for
    // `--metrics` — which the manager fills when it drops.
    use cxl_repro::topology::{CxlDevice, DdrGeneration, TopologyBuilder};

    let t = TopologyBuilder::new()
        .socket(56, 8, DdrGeneration::Ddr5_4800, 512)
        .with_cxl(CxlDevice::a1000())
        .socket(56, 8, DdrGeneration::Ddr5_4800, 512)
        .with_cxl(CxlDevice::a1000())
        .upi_links(2, 62.4)
        .build();
    let mut cfg = TierConfig::bind(vec![DRAM0]);
    cfg.accessor_socket = SocketId(0);
    cfg.capacity_override = vec![
        (NodeId(0), 8 * 4096),
        (NodeId(1), 0),
        (NodeId(2), 6 * 4096),  // local CXL: room for 6 pages
        (NodeId(3), 64 * 4096), // remote CXL: plenty of room
    ];
    cfg.demotion_watermark = 0.5;
    cfg.migration = MigrationMode::NumaBalancing(NumaBalancingConfig::default());

    let reg = std::sync::Arc::new(cxl_repro::obs::Registry::new());
    let guard = cxl_repro::obs::scope(reg.clone());
    let mut tm = TierManager::new(&t, cfg);

    let sim_counter = |json: &str, name: &str| -> Option<u64> {
        let v = serde_json::parse_value(json).expect("export parses");
        v.get("sim")
            .and_then(|s| s.get(name))
            .and_then(|c| c.get("value"))
            .and_then(|c| c.as_u64())
    };

    // Phase 1: demand (4 demotions) fits the local expander entirely.
    tm.alloc_n(8, SimTime::ZERO).unwrap();
    tm.tick(SimTime::from_ms(1));
    assert_eq!(tm.stats().demotions, 4);
    assert_eq!(
        tm.stats().demotions_remote_socket,
        0,
        "remote demotions before local CXL exhausted: {:?}",
        tm.stats()
    );

    // Phase 2: four more demotions, but only two local slots remain —
    // exactly the overflow crosses the socket boundary.
    tm.alloc_n(4, SimTime::ZERO).unwrap();
    tm.tick(SimTime::from_ms(2));
    assert_eq!(tm.node_usage(NodeId(2)).0, 6, "local CXL not filled first");
    assert_eq!(tm.node_usage(NodeId(3)).0, 2);
    drop(tm);
    drop(guard);
    let export = reg.export_json();
    assert_eq!(sim_counter(&export, "tier/demotions"), Some(8));
    assert_eq!(sim_counter(&export, "tier/demotions_local_socket"), Some(6));
    assert_eq!(
        sim_counter(&export, "tier/demotions_remote_socket"),
        Some(2)
    );
}

#[test]
fn demotion_keeps_dram_below_watermark() {
    let t = topo();
    let mut cfg = TierConfig::bind(vec![DRAM0]);
    cfg.capacity_override = vec![(DRAM0, 100 * 4096), (NodeId(1), 0)];
    cfg.demotion_watermark = 0.8;
    cfg.migration = MigrationMode::NumaBalancing(NumaBalancingConfig::default());
    let mut tm = TierManager::new(&t, cfg);
    tm.alloc_n(100, SimTime::ZERO).unwrap();
    tm.tick(SimTime::from_ms(1));
    let (used, cap) = tm.node_usage(DRAM0);
    assert!(used as f64 <= 0.8 * cap as f64 + 1.0, "used {used}/{cap}");
    // Demoted pages moved to a CXL node, not lost.
    let resident: u64 = tm.residency().iter().map(|&(_, c)| c).sum();
    assert_eq!(resident, 100);
}
