//! Observability: a migration timeline from the tier manager's trace.
//!
//! Runs a skewed workload over a 1:1 interleaved heap with hot-page
//! selection and prints the first promotions, the demotions they force,
//! and — after switching on bandwidth pressure — the §5.3 guard
//! suppressing further promotions.
//!
//! Run with: `cargo run --release --example tiering_trace`

use cxl_repro::sim::SimTime;
use cxl_repro::stats::dist::KeyChooser;
use cxl_repro::stats::rng::stream_rng;
use cxl_repro::stats::Zipfian;
use cxl_repro::tier::{
    AllocPolicy, BandwidthAwareConfig, HotPageConfig, MigrationMode, NumaBalancingConfig, Rw,
    TierConfig, TierEvent, TierManager,
};
use cxl_repro::topology::{NodeId, SncMode, Topology};

fn main() {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let dram = NodeId(0);
    let cxl = NodeId(2);
    let mut cfg = TierConfig::bind(vec![dram]);
    cfg.policy = AllocPolicy::interleave(vec![dram], vec![cxl], 1, 1);
    cfg.capacity_override = vec![(dram, 2_000 * 4096), (NodeId(1), 0), (NodeId(3), 0)];
    cfg.migration = MigrationMode::BandwidthAware(BandwidthAwareConfig {
        base: HotPageConfig {
            balancing: NumaBalancingConfig {
                scan_period: SimTime::from_ms(2),
                scan_pages: 4096,
                hot_threshold: SimTime::from_ms(50),
                hint_fault_cost: SimTime::from_ns(300),
            },
            promote_rate_limit_bytes_per_sec: 1e9,
            dynamic_threshold: false,
            adjust_period: SimTime::from_ms(100),
            promote_after_faults: 1,
        },
        high_watermark: 0.75,
        demote_batch: 32,
    });
    let mut tm = TierManager::new(&topo, cfg);
    tm.enable_trace(100_000);
    let pages = tm.alloc_n(4_000, SimTime::ZERO).expect("heap fits");

    let mut zipf = Zipfian::with_theta(pages.len() as u64, 0.9);
    let mut rng = stream_rng(3, "trace-example");

    // Phase 1: calm DRAM — promotions flow.
    for step in 0..30_000u64 {
        let now = SimTime::from_us(step * 10);
        if step % 200 == 0 {
            tm.set_dram_bandwidth_util(0.35);
            tm.tick(now);
        }
        let page = pages[zipf.next_key(&mut rng) as usize];
        tm.touch(page, Rw::Read, 4096, now);
    }
    let phase1: Vec<_> = tm.trace_mut().unwrap().drain();

    // Phase 2: saturated DRAM — the guard suppresses and demotes.
    for step in 30_000..60_000u64 {
        let now = SimTime::from_us(step * 10);
        if step % 200 == 0 {
            tm.set_dram_bandwidth_util(0.92);
            tm.tick(now);
        }
        let page = pages[zipf.next_key(&mut rng) as usize];
        tm.touch(page, Rw::Read, 4096, now);
    }
    let phase2: Vec<_> = tm.trace_mut().unwrap().drain();

    let count = |evs: &[cxl_repro::tier::TracedEvent], f: fn(&TierEvent) -> bool| {
        evs.iter().filter(|e| f(&e.event)).count()
    };
    println!("phase 1 (DRAM util 0.35): {} events", phase1.len());
    println!(
        "  promotions {}  demotions {}  suppressed {}",
        count(&phase1, |e| matches!(e, TierEvent::Promoted { .. })),
        count(&phase1, |e| matches!(e, TierEvent::Demoted { .. })),
        count(&phase1, |e| matches!(
            e,
            TierEvent::PromotionSuppressed { .. }
        )),
    );
    println!("phase 2 (DRAM util 0.92): {} events", phase2.len());
    println!(
        "  promotions {}  demotions {}  suppressed {}",
        count(&phase2, |e| matches!(e, TierEvent::Promoted { .. })),
        count(&phase2, |e| matches!(e, TierEvent::Demoted { .. })),
        count(&phase2, |e| matches!(
            e,
            TierEvent::PromotionSuppressed { .. }
        )),
    );

    println!("\nfirst 10 events of phase 2:");
    for e in phase2.iter().take(10) {
        println!("  {:>12}  {:?}", e.at.to_string(), e.event);
    }
}
