//! Forward-looking projection: CXL 2.0-era device on PCIe Gen6 (§7.1).
//!
//! The paper argues its insights carry to CXL 2.0/3.0, whose links
//! double per-direction bandwidth. This projection builds an A1000-class
//! controller on a Gen6 x16 link with four DDR5-5600 channels, re-runs
//! the loaded-latency characterization, and re-evaluates the LLM serving
//! sweep where the extra expander bandwidth matters most.

use cxl_bench::emit;
use cxl_llm::{LlmCluster, LlmConfig, LlmPlacement};
use cxl_perf::{AccessMix, MemSystem};
use cxl_stats::report::Table;
use cxl_topology::{
    CxlDevice, DdrGeneration, NodeId, PcieLink, SncMode, Socket, SocketId, Topology,
};

/// A projected CXL 2.0 expander: Gen6 x16, 4 x DDR5-5600, same ASIC
/// controller latency and link efficiency as the A1000.
fn gen6_device() -> CxlDevice {
    let a1000 = CxlDevice::a1000();
    CxlDevice::new(
        "Gen6 ASIC projection",
        PcieLink::gen6_x16(),
        4,
        DdrGeneration::Ddr5_5600,
        512,
        a1000.controller_latency_ns,
        a1000.link_efficiency,
    )
}

fn snc_domain_with(dev: CxlDevice) -> Topology {
    Topology {
        sockets: vec![
            Socket::new(SocketId(0), 14, 2, DdrGeneration::Ddr5_4800, 128).with_devices(vec![dev]),
        ],
        snc: SncMode::Disabled,
        upi: vec![],
    }
}

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let today = snc_domain_with(CxlDevice::a1000());
    let gen6 = snc_domain_with(gen6_device());
    let sys_today = MemSystem::new(&today);
    let sys_gen6 = MemSystem::new(&gen6);
    let cxl = NodeId(1);
    let s0 = SocketId(0);

    let mut table = Table::new(
        "cxl2-projection",
        "CXL 1.1 A1000 vs projected CXL 2.0-era expander",
        &["metric", "A1000 (Gen5 x16)", "Gen6 x16 projection"],
    );
    for mix in [
        AccessMix::read_only(),
        AccessMix::ratio(2, 1),
        AccessMix::write_only(),
    ] {
        table.push_row(vec![
            format!("peak bandwidth {} (GB/s)", mix.label()),
            format!("{:.1}", sys_today.max_bandwidth_gbps(s0, cxl, mix)),
            format!("{:.1}", sys_gen6.max_bandwidth_gbps(s0, cxl, mix)),
        ]);
    }
    table.push_row(vec![
        "idle read latency (ns)".into(),
        format!(
            "{:.1}",
            sys_today.idle_latency_ns(s0, cxl, AccessMix::read_only())
        ),
        format!(
            "{:.1}",
            sys_gen6.idle_latency_ns(s0, cxl, AccessMix::read_only())
        ),
    ]);

    // LLM serving at heavy load on both platforms.
    let cl_today = LlmCluster::with_system(LlmConfig::default(), sys_today);
    let cl_gen6 = LlmCluster::with_system(LlmConfig::default(), sys_gen6);
    for placement in [
        LlmPlacement::MmemOnly,
        LlmPlacement::Interleave { n: 1, m: 1 },
        LlmPlacement::Interleave { n: 1, m: 3 },
    ] {
        table.push_row(vec![
            format!("LLM tokens/s @96thr, {}", placement.label()),
            format!("{:.1}", cl_today.serving_rate(placement, 96).tokens_per_sec),
            format!("{:.1}", cl_gen6.serving_rate(placement, 96).tokens_per_sec),
        ]);
    }

    emit(&table, || {
        let mut out = table.render();
        out.push_str(
            "\n# With a Gen6 link the expander stops being link-bound and the\n\
             # CXL-heavy interleaves keep scaling — the §7.1 disaggregated-\n\
             # bandwidth story. Latency is unchanged: tiering policy still\n\
             # has to respect the §3 idle-latency gap.\n",
        );
        out
    });
}
