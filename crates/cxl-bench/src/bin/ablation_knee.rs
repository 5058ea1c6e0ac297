//! Ablation: knee-position sensitivity (DESIGN §5).
//!
//! §3.2 measures the latency knee at 75–83 % of peak bandwidth —
//! higher than the ~60 % prior work assumed. This ablation sweeps the
//! modeled knee and reports (a) where the observable knee lands in an
//! MLC sweep and (b) what it does to the LLM serving crossover, showing
//! why the knee position matters for tiering policy.

use cxl_bench::emit;
use cxl_llm::{LlmCluster, LlmConfig, LlmPlacement};
use cxl_mlc::{Mlc, MlcConfig};
use cxl_perf::{AccessMix, MemSystem, ModelParams};
use cxl_stats::report::Table;
use cxl_topology::{NodeId, SncMode, SocketId, Topology};

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let topo = Topology::paper_testbed(SncMode::Snc4);
    let mlc = Mlc::new(MlcConfig::default());

    let mut table = Table::new(
        "ablation-knee",
        "Observable knee and LLM crossover vs modeled DDR knee",
        &[
            "modeled knee",
            "observed knee (latency +30%)",
            "MMEM tokens/s @60thr",
            "3:1 gain @60thr",
        ],
    );
    for knee in [0.60, 0.70, 0.80, 0.90] {
        let params = ModelParams::default().with_knee(knee);
        let sys = MemSystem::with_params(&topo, &params);
        let sweep = mlc.loaded_latency(&sys, SocketId(0), NodeId(0), AccessMix::read_only());
        let observed = Mlc::knee_utilization(&sweep, 1.3).unwrap_or(f64::NAN);

        let llm_topo = Topology::snc_domain_with_cxl();
        let sys_llm = MemSystem::with_params(&llm_topo, &params);
        let cluster = LlmCluster::with_system(LlmConfig::default(), sys_llm);
        let mmem = cluster
            .serving_rate(LlmPlacement::MmemOnly, 60)
            .tokens_per_sec;
        let i31 = cluster
            .serving_rate(LlmPlacement::Interleave { n: 3, m: 1 }, 60)
            .tokens_per_sec;
        table.push_row(vec![
            format!("{knee:.2}"),
            format!("{observed:.2}"),
            format!("{mmem:.1}"),
            format!("+{:.0}%", 100.0 * (i31 / mmem - 1.0)),
        ]);
    }

    emit(&table, || {
        let mut out = table.render();
        out.push_str(
            "\n# An earlier knee makes DRAM contention bite sooner, widening the\n\
             # gain from offloading to CXL — the §3.4 insight that tiering policy\n\
             # should watch bandwidth headroom, not just capacity.\n",
        );
        out
    });
}
