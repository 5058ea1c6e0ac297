//! §7.2 scenario: graph analytics over CXL-extended memory.
//!
//! The paper's discussion singles out Graph Neural Networks and graph
//! processing as workloads whose "immense memory requirements for
//! processing entire graphs" make them natural CXL beneficiaries. This
//! example runs PageRank over a synthetic power-law graph whose edge
//! lists exceed local DRAM and compares three homes for the overflow:
//! SSD spill, CXL expansion (preferred-node allocation), and CXL with
//! hot-page promotion for the high-degree vertices.
//!
//! Run with: `cargo run --release --example graph_analytics`

use cxl_repro::perf::{AccessMix, FlowSpec, MemSystem, SSD_BW_GBPS};
use cxl_repro::sim::SimTime;
use cxl_repro::stats::rng::stream_rng;
use cxl_repro::tier::{AllocPolicy, Location, Rw, TierConfig, TierManager};
use cxl_repro::topology::{MemoryTier, NodeId, SncMode, SocketId, Topology};
use rand::Rng;

/// Synthetic power-law graph: vertex degrees ~ d_max / (rank+1)^0.8.
struct Graph {
    /// Edge-list extent (in pages) per vertex: `(first_page, pages)`.
    vertex_pages: Vec<(usize, usize)>,
    total_pages: usize,
}

fn build_graph(vertices: usize, page_size: u64, rng_seed: u64) -> Graph {
    let mut rng = stream_rng(rng_seed, "graph");
    let mut vertex_pages = Vec::with_capacity(vertices);
    let mut next_page = 0usize;
    for rank in 0..vertices {
        // Degree in edges; 8 bytes per edge.
        let degree =
            (200_000.0 / ((rank + 1) as f64).powf(0.8)) as usize + rng.gen_range(1usize..32);
        let bytes = degree as u64 * 8;
        let pages = bytes.div_ceil(page_size).max(1) as usize;
        vertex_pages.push((next_page, pages));
        next_page += pages;
    }
    Graph {
        vertex_pages,
        total_pages: next_page,
    }
}

/// One PageRank iteration: stream every vertex's edge pages, then price
/// the iteration's traffic against the memory system.
fn iteration_time_s(
    sys: &MemSystem,
    tm: &mut TierManager,
    graph: &Graph,
    pages: &[cxl_repro::tier::PageId],
    cores: f64,
    core_gbps: f64,
) -> f64 {
    let now = SimTime::ZERO;
    let page_bytes = tm.page_size();
    let mut ssd_bytes = 0u64;
    for &(first, n) in &graph.vertex_pages {
        for pg in &pages[first..first + n] {
            if tm.location(*pg).is_ssd() {
                ssd_bytes += page_bytes;
            }
            tm.touch(*pg, Rw::Read, page_bytes, now);
        }
    }
    let epoch = tm.drain_epoch();
    tm.tick(now);

    let total_bytes: f64 = epoch
        .node_read_bytes
        .values()
        .chain(epoch.node_write_bytes.values())
        .sum::<u64>() as f64;
    // CPU-bound floor.
    let cpu_s = total_bytes / 1e9 / (cores * core_gbps);
    // Bandwidth-bound time per node: solve at saturation to find caps.
    let probe: Vec<FlowSpec> = epoch
        .node_read_bytes
        .keys()
        .map(|&n| FlowSpec::new(SocketId(0), n, AccessMix::read_only(), 10_000.0))
        .collect();
    let caps = sys.solve(&probe);
    let mut bw_s: f64 = 0.0;
    for (f, out) in probe.iter().zip(caps.flows.iter()) {
        let bytes = epoch.node_read_bytes[&f.node] as f64;
        bw_s = bw_s.max(bytes / 1e9 / out.achieved_gbps.max(1e-9));
    }
    // SSD-resident pages stream from (and re-spill to) flash.
    let ssd_s = 2.0 * ssd_bytes as f64 / 1e9 / SSD_BW_GBPS;
    cpu_s.max(bw_s) + ssd_s
}

fn main() {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let sys = MemSystem::new(&topo);
    let nodes = sys.nodes().to_vec();
    let dram = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::LocalDram)
        .unwrap()
        .id;
    let cxl = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::CxlExpander)
        .unwrap()
        .id;

    let graph = build_graph(20_000, 4096, 11);
    let graph_gib = graph.total_pages as f64 * 4096.0 / (1 << 30) as f64;
    // DRAM holds only 60 % of the edge lists.
    let dram_cap = (graph.total_pages as u64 * 4096) * 6 / 10;
    println!(
        "graph: 20k vertices, {} edge pages (~{graph_gib:.2} GiB); DRAM capacity 60%\n",
        graph.total_pages
    );

    let cases: Vec<(&str, TierConfig, bool)> = vec![
        (
            "DRAM + SSD spill",
            {
                let mut c = TierConfig::bind(vec![dram]);
                c.capacity_override = vec![(dram, dram_cap), (NodeId(1), 0), (NodeId(3), 0)];
                c.allow_ssd_spill = true;
                c
            },
            true,
        ),
        (
            "DRAM preferred, CXL overflow",
            {
                let mut c = TierConfig::bind(vec![dram]);
                c.policy = AllocPolicy::Preferred {
                    node: dram,
                    fallback: vec![cxl],
                };
                c.capacity_override = vec![(dram, dram_cap), (NodeId(1), 0), (NodeId(3), 0)];
                c
            },
            false,
        ),
        (
            "1:1 interleave",
            {
                let mut c = TierConfig::bind(vec![dram]);
                c.policy = AllocPolicy::interleave(vec![dram], vec![cxl], 1, 1);
                c.capacity_override = vec![(dram, dram_cap), (NodeId(1), 0), (NodeId(3), 0)];
                c
            },
            false,
        ),
    ];

    println!(
        "{:<30} {:>14} {:>12}",
        "placement", "iter time (s)", "vs SSD"
    );
    let mut baseline = None;
    for (name, cfg, _flash) in cases {
        let mut tm = TierManager::new(&topo, cfg);
        let pages = tm
            .alloc_n(graph.total_pages as u64, SimTime::ZERO)
            .expect("graph fits in DRAM+CXL or spills");
        tm.drain_epoch();
        let t = iteration_time_s(&sys, &mut tm, &graph, &pages, 56.0, 2.0);
        let base = *baseline.get_or_insert(t);
        let dram_frac = pages
            .iter()
            .filter(|&&p| tm.location(p) == Location::Node(dram))
            .count() as f64
            / pages.len() as f64;
        println!(
            "{name:<30} {t:>14.3} {:>11.2}x   ({:.0}% DRAM-resident)",
            base / t,
            100.0 * dram_frac
        );
    }
    println!(
        "\nTakeaway (§7.2): once the graph outgrows DRAM, CXL overflow keeps\n\
         iterations memory-speed while SSD spill pays flash bandwidth every pass."
    );
}
