//! ASIC vs FPGA CXL controllers (§3.4).
//!
//! The paper contrasts the A1000 ASIC (73.6 % link efficiency, <2.5x
//! DDR latency) with Intel's FPGA prototypes (~60 % of PCIe bandwidth,
//! higher latency). This binary builds both devices, compares raw
//! characteristics, and shows the application-level impact on a
//! CXL-bound KeyDB instance.

use cxl_bench::{emit, shape_line};
use cxl_kv::{KvConfig, KvStore, MemProfile};
use cxl_perf::{AccessMix, MemSystem, ModelParams};
use cxl_stats::report::Table;
use cxl_tier::TierConfig;
use cxl_topology::{CxlDevice, DdrGeneration, NodeId, SncMode, Socket, SocketId, Topology};
use cxl_ycsb::Workload;

fn platform(dev: CxlDevice) -> Topology {
    Topology {
        sockets: vec![
            Socket::new(SocketId(0), 56, 8, DdrGeneration::Ddr5_4800, 512).with_devices(vec![dev]),
        ],
        snc: SncMode::Disabled,
        upi: vec![],
    }
}

fn keydb_on_cxl(topo: &Topology) -> f64 {
    let cxl_node = NodeId(1); // Single socket: node 0 = DRAM, 1 = CXL.
    let kv = KvConfig {
        record_count: 50_000,
        profile: MemProfile::standard(),
        ..Default::default()
    };
    let mut store = KvStore::new(topo, TierConfig::bind(vec![cxl_node]), kv, false);
    store.run(Workload::C, 80_000).throughput_ops
}

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let asic = platform(CxlDevice::a1000());
    let fpga = platform(CxlDevice::fpga_prototype());
    let sys_asic = MemSystem::new(&asic);
    let sys_fpga = MemSystem::new(&fpga);
    let cxl = NodeId(1);
    let s0 = SocketId(0);

    let mut table = Table::new(
        "asic-vs-fpga",
        "ASIC (A1000) vs FPGA CXL controller",
        &["metric", "ASIC", "FPGA"],
    );
    table.push_row(vec![
        "link efficiency".into(),
        "73.6%".into(),
        "60.0%".into(),
    ]);
    table.push_row(vec![
        "idle read latency (ns)".into(),
        format!(
            "{:.1}",
            sys_asic.idle_latency_ns(s0, cxl, AccessMix::read_only())
        ),
        format!(
            "{:.1}",
            sys_fpga.idle_latency_ns(s0, cxl, AccessMix::read_only())
        ),
    ]);
    for mix in [AccessMix::read_only(), AccessMix::ratio(2, 1)] {
        table.push_row(vec![
            format!("peak bandwidth {} (GB/s)", mix.label()),
            format!("{:.1}", sys_asic.max_bandwidth_gbps(s0, cxl, mix)),
            format!("{:.1}", sys_fpga.max_bandwidth_gbps(s0, cxl, mix)),
        ]);
    }
    let kv_asic = keydb_on_cxl(&asic);
    let kv_fpga = keydb_on_cxl(&fpga);
    table.push_row(vec![
        "KeyDB YCSB-C on CXL (kops/s)".into(),
        format!("{:.1}", kv_asic / 1e3),
        format!("{:.1}", kv_fpga / 1e3),
    ]);

    emit(&table, || {
        let mut out = table.render();
        out.push('\n');
        let lat_ratio = sys_asic.idle_latency_ns(s0, cxl, AccessMix::read_only())
            / ModelParams::default().mmem_read_idle_ns;
        out.push_str(&shape_line(
            "ASIC latency overhead vs MMEM",
            "2.4-2.6x (§3.3)",
            format!("{lat_ratio:.2}x"),
        ));
        out.push('\n');
        out.push_str(&shape_line(
            "ASIC vs FPGA application throughput",
            "ASIC clearly ahead",
            format!("{:.2}x", kv_asic / kv_fpga),
        ));
        out.push('\n');
        out
    });
}
