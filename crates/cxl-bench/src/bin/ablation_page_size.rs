//! Ablation: migration granularity (4 KiB pages vs THP-style 2 MiB).
//!
//! §4.1.1 disables Transparent Hugepages for the KeyDB experiments. This
//! ablation shows why: hot-page selection migrates whole pages, and at
//! 2 MiB granularity each "page" mixes ~2048 values of very different
//! temperatures. The hot set dilutes, promotion moves mostly-cold bytes,
//! and Hot-Promote's advantage over static interleave shrinks.

use cxl_bench::emit;
use cxl_core::config::hot_promote_params;
use cxl_kv::{KvConfig, KvStore, VALUE_SIZE};
use cxl_stats::report::Table;
use cxl_tier::{AllocPolicy, MigrationMode, TierConfig};
use cxl_topology::{MemoryTier, SncMode, Topology};
use cxl_ycsb::Workload;

fn run_hot_promote(page_size: u64) -> (f64, u64) {
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
        record_count: 200_000,
        ..Default::default()
    };
    let dataset = kv.record_count * VALUE_SIZE;
    let mut tier = TierConfig::bind(vec![dram]);
    tier.page_size = page_size;
    tier.policy = AllocPolicy::interleave(vec![dram], vec![cxl], 1, 1);
    tier.capacity_override = vec![(dram, dataset / 2)];
    for n in nodes
        .iter()
        .filter(|n| n.tier == MemoryTier::LocalDram && n.id != dram)
    {
        tier.capacity_override.push((n.id, 0));
    }
    tier.migration = MigrationMode::HotPageSelection(hot_promote_params());
    let mut store = KvStore::new(&topo, tier, kv, false);
    store.run(Workload::C, 250_000);
    let r = store.run(Workload::C, 250_000);
    (r.throughput_ops, r.tier_stats.migration_bytes)
}

fn mmem_baseline() -> f64 {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let dram = topo.nodes()[0].id;
    let kv = KvConfig {
        record_count: 200_000,
        ..Default::default()
    };
    let mut tier = TierConfig::bind(vec![dram]);
    for n in topo.nodes().iter().skip(1) {
        tier.capacity_override.push((n.id, 0));
    }
    let mut store = KvStore::new(&topo, tier, kv, false);
    store.run(Workload::C, 250_000).throughput_ops
}

fn main() {
    let _metrics = cxl_bench::metrics_guard();
    let mmem = mmem_baseline();
    let mut table = Table::new(
        "ablation-page-size",
        "KeyDB Hot-Promote vs migration granularity (YCSB-C, 1:1 start)",
        &["page size", "kops/s", "% of MMEM", "migrated (MiB)"],
    );
    let mut results = Vec::new();
    for (label, size) in [
        ("4 KiB", 4096u64),
        ("64 KiB", 65_536),
        ("512 KiB", 524_288),
        ("2 MiB (THP)", 2_097_152),
    ] {
        let (tput, migrated) = run_hot_promote(size);
        results.push((label, tput));
        table.push_row(vec![
            label.to_string(),
            format!("{:.1}", tput / 1e3),
            format!("{:.1}%", 100.0 * tput / mmem),
            format!("{:.1}", migrated as f64 / (1 << 20) as f64),
        ]);
    }

    emit(&table, || {
        let mut out = table.render();
        let small = results.first().unwrap().1;
        let thp = results.last().unwrap().1;
        out.push_str(&format!(
            "\n# 2 MiB pages lose {:.1}% of the 4 KiB configuration's throughput:\n\
             # each huge page mixes thousands of keys, so promotion drags cold\n\
             # bytes into DRAM and evicts warmer ones — the reason §4.1.1 runs\n\
             # with Transparent Hugepages disabled.\n",
            100.0 * (1.0 - thp / small)
        ));
        out
    });
}
