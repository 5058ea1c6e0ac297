//! Ablation: hot-page-selection promotion rate limit (§2.3, DESIGN §5).
//!
//! The v6.1 kernel patch throttles promotion with
//! `numa_balancing_promote_rate_limit_MBps`. Too low and the hot set
//! never reaches DRAM (lag); the higher it goes the more migration
//! bandwidth and churn the workload pays (thrash). This sweep runs the
//! KeyDB Hot-Promote configuration across rate limits and reports
//! throughput, promotions, and migration volume.

use cxl_bench::emit;
use cxl_kv::{KvConfig, KvStore, VALUE_SIZE};
use cxl_sim::SimTime;
use cxl_stats::report::Table;
use cxl_tier::{AllocPolicy, HotPageConfig, MigrationMode, NumaBalancingConfig, TierConfig};
use cxl_topology::{MemoryTier, SncMode, Topology};
use cxl_ycsb::Workload;

fn run_at_limit(limit_bytes_per_sec: f64) -> (f64, u64, u64) {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let nodes = topo.nodes();
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
    let kv = KvConfig {
        record_count: 100_000,
        ..Default::default()
    };
    let dataset = kv.record_count * VALUE_SIZE;
    let mut tier = TierConfig::bind(vec![dram]);
    tier.policy = AllocPolicy::interleave(vec![dram], vec![cxl], 1, 1);
    tier.capacity_override = vec![(dram, dataset / 2)];
    for n in nodes
        .iter()
        .filter(|n| n.tier == MemoryTier::LocalDram && n.id != dram)
    {
        tier.capacity_override.push((n.id, 0));
    }
    tier.migration = MigrationMode::HotPageSelection(HotPageConfig {
        balancing: NumaBalancingConfig {
            scan_period: SimTime::from_ms(5),
            scan_pages: 4096,
            hot_threshold: SimTime::from_ms(100),
            hint_fault_cost: SimTime::from_ns(300),
        },
        promote_rate_limit_bytes_per_sec: limit_bytes_per_sec,
        dynamic_threshold: false,
        adjust_period: SimTime::from_ms(100),
        promote_after_faults: 1,
    });
    let mut store = KvStore::new(&topo, tier, kv, false);
    store.run(Workload::C, 200_000); // Warm-up / convergence window.
    let r = store.run(Workload::C, 200_000);
    (
        r.throughput_ops,
        r.tier_stats.promotions,
        r.tier_stats.migration_bytes,
    )
}

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let limits_mbps = [1.0, 16.0, 128.0, 1024.0, 8192.0, 65536.0];
    let mut table = Table::new(
        "ablation-rate-limit",
        "KeyDB Hot-Promote vs promotion rate limit (YCSB-C)",
        &["limit (MB/s)", "kops/s", "promotions", "migrated (MiB)"],
    );
    let mut rows = Vec::new();
    for &mbps in &limits_mbps {
        let (tput, promos, bytes) = run_at_limit(mbps * 1024.0 * 1024.0);
        rows.push((mbps, tput));
        table.push_row(vec![
            format!("{mbps}"),
            format!("{:.1}", tput / 1e3),
            promos.to_string(),
            format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }

    emit(&table, || {
        let mut out = table.render();
        // First limit achieving within 0.5 % of the best throughput.
        let peak = rows.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        let best = rows
            .iter()
            .cloned()
            .find(|&(_, t)| t >= 0.995 * peak)
            .unwrap();
        out.push_str(&format!(
            "\n# best throughput at {} MB/s — below it the hot set lags on CXL,\n\
             # far above it the extra churn buys nothing (Zipfian hot set is small).\n",
            best.0
        ));
        out
    });
}
