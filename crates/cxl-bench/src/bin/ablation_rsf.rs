//! Ablation: the Remote Snoop Filter bottleneck (§3.2/§3.4).
//!
//! Compares remote-CXL performance on the paper's platform against the
//! projected next-generation CPU with the RSF limit removed — the paper
//! expects cross-socket CXL bandwidth to then "approximate the bandwidth
//! seen when accessing MMEM across sockets". Also shows the downstream
//! effect on the Spark 1:3 interleave configuration, whose socket-1
//! executors reach the expanders through the RSF.

use cxl_bench::{emit, shape_line};
use cxl_mlc::{Mlc, MlcConfig};
use cxl_perf::{AccessMix, Distance, MemSystem, ModelParams};
use cxl_spark::runner::run_all;
use cxl_spark::ClusterConfig;
use cxl_stats::report::Table;
use cxl_topology::{SncMode, Topology};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let topo = Topology::paper_testbed(SncMode::Snc4);
    let paper = MemSystem::new(&topo);
    let fixed = MemSystem::with_params(&topo, &ModelParams::rsf_fixed());
    let mlc = Mlc::new(MlcConfig::default());

    let (_, from, node) = Mlc::distance_endpoints(&paper)
        .into_iter()
        .find(|&(d, _, _)| d == Distance::RemoteCxl)
        .expect("remote CXL endpoint");
    let (_, from_d, node_d) = Mlc::distance_endpoints(&paper)
        .into_iter()
        .find(|&(d, _, _)| d == Distance::RemoteDram)
        .expect("remote DRAM endpoint");

    let mut table = Table::new(
        "ablation-rsf",
        "Remote-CXL peak bandwidth (GB/s) with and without the RSF limit",
        &["mix", "paper platform", "RSF fixed", "remote DDR reference"],
    );
    for mix in Mlc::paper_mixes() {
        table.push_row(vec![
            mix.label(),
            format!("{:.1}", paper.max_bandwidth_gbps(from, node, mix)),
            format!("{:.1}", fixed.max_bandwidth_gbps(from, node, mix)),
            format!("{:.1}", paper.max_bandwidth_gbps(from_d, node_d, mix)),
        ]);
    }
    // Unused-variable guard for mlc: keep the loaded-latency sweep too.
    let sweep = mlc.loaded_latency(&fixed, from, node, AccessMix::ratio(2, 1));
    let fixed_peak = Mlc::peak_bandwidth(&sweep);

    // Downstream: Spark 1:3 on both platforms.
    let spark_paper = run_all(&ClusterConfig::cxl_interleave(1, 3));
    let mut cfg_fixed = ClusterConfig::cxl_interleave(1, 3);
    cfg_fixed.params = ModelParams::rsf_fixed();
    let spark_fixed = run_all(&cfg_fixed);
    let base = run_all(&ClusterConfig::baseline());

    emit(&table, || {
        let mut out = table.render();
        out.push('\n');
        out.push_str("# downstream: Spark 1:3 normalized execution time\n");
        for ((p, f), b) in spark_paper.iter().zip(&spark_fixed).zip(&base) {
            out.push_str(&format!(
                "  {}: paper platform {:.2}x -> RSF fixed {:.2}x\n",
                p.name,
                p.exec_time_s / b.exec_time_s,
                f.exec_time_s / b.exec_time_s,
            ));
        }
        out.push('\n');
        out.push_str(&shape_line(
            "remote CXL peak with RSF fixed (2:1)",
            "~remote DDR (§3.4)",
            format!("{fixed_peak:.1} GB/s"),
        ));
        out.push('\n');
        out
    });
}
