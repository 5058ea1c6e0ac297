//! The tier manager's `cxl-obs` counters against its own statistics.
//!
//! A seeded program of allocations, touches, ticks, frees, SSD
//! evictions and reloads, and node drains and growth runs on a manager
//! built and dropped inside a scoped registry. Afterwards every `tier/*`
//! counter must equal the [`TierStats`] field it reports, present
//! exactly when that field is nonzero (the evacuation counters whenever
//! a drain ran), and each `tier/{promotions,demotions}/to_node{n}`
//! counter must equal the promotions or demotions the trace ring saw
//! land on node `n`. The registry must hold no other key, and a manager
//! that never migrates, spills or ticks must leave it empty.

use std::collections::BTreeMap;
use std::sync::Arc;

use cxl_obs::Registry;
use cxl_sim::SimTime;
use cxl_tier::{
    AllocPolicy, BandwidthAwareConfig, HotPageConfig, MigrationMode, NumaBalancingConfig, PageId,
    Rw, TierConfig, TierEvent, TierManager, TierStats,
};
use cxl_topology::{NodeId, SncMode, SocketId, Topology};

const PAGE: u64 = 4096;
const STEPS: usize = 2500;
/// SNC-disabled paper testbed: 0, 1 = DRAM on sockets 0 and 1; 2, 3 =
/// CXL on socket 0.
const NODES: usize = 4;

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

fn balancing() -> NumaBalancingConfig {
    NumaBalancingConfig {
        scan_period: SimTime::from_ms(10),
        scan_pages: 40,
        hot_threshold: SimTime::from_ms(60),
        hint_fault_cost: SimTime::from_us(2),
    }
}

fn hot_page(promote_after_faults: u32) -> HotPageConfig {
    HotPageConfig {
        balancing: balancing(),
        // 16 pages a second, so the limiter binds.
        promote_rate_limit_bytes_per_sec: 16.0 * PAGE as f64,
        dynamic_threshold: true,
        adjust_period: SimTime::from_ms(250),
        promote_after_faults,
    }
}

/// `(policy, migration, accessor socket, SSD spill)` per program. The
/// socket-1 accessor promotes into node 1 and demotes across sockets.
fn programs() -> Vec<(AllocPolicy, MigrationMode, usize, bool)> {
    let (d0, d1, c0, c1) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    vec![
        (
            AllocPolicy::Bind(vec![c0, d0]),
            MigrationMode::NumaBalancing(balancing()),
            0,
            true,
        ),
        (
            AllocPolicy::Preferred {
                node: d1,
                fallback: vec![c1, c0],
            },
            MigrationMode::HotPageSelection(hot_page(2)),
            1,
            false,
        ),
        (
            AllocPolicy::interleave(vec![d0, d1], vec![c0, c1], 3, 1),
            MigrationMode::BandwidthAware(BandwidthAwareConfig {
                base: hot_page(1),
                ..Default::default()
            }),
            0,
            true,
        ),
        (
            AllocPolicy::interleave(vec![d0], vec![c0, c1], 1, 1),
            MigrationMode::None,
            0,
            true,
        ),
    ]
}

/// Promotions and demotions per destination node, taken from the trace
/// outside node drains (a drain's moves are traced too, but are not
/// promotions or demotions).
#[derive(Default)]
struct Destinations {
    promotions: [u64; NODES],
    demotions: [u64; NODES],
}

impl Destinations {
    fn count(&mut self, tm: &mut TierManager, drain: bool) {
        let ring = tm.trace_mut().expect("trace enabled");
        assert_eq!(ring.dropped(), 0, "trace ring overflowed");
        for ev in ring.drain() {
            match ev.event {
                TierEvent::Promoted { to, .. } if !drain => self.promotions[to.0] += 1,
                TierEvent::Demoted { to, .. } if !drain => self.demotions[to.0] += 1,
                _ => {}
            }
        }
    }
}

/// Runs one seeded program; returns the final statistics and the
/// per-node destinations. The manager is dropped before returning.
fn run_program(
    policy: AllocPolicy,
    mode: MigrationMode,
    socket: usize,
    spill: bool,
    seed: u64,
) -> (TierStats, Destinations) {
    let mut cfg = TierConfig::bind(vec![NodeId(0)]);
    cfg.policy = policy;
    cfg.migration = mode;
    cfg.allow_ssd_spill = spill;
    cfg.accessor_socket = SocketId(socket);
    cfg.demotion_watermark = 0.9;
    let caps = [24, 16, 48, 32];
    cfg.capacity_override = (0..NODES).map(|n| (NodeId(n), caps[n] * PAGE)).collect();
    let mut tm = TierManager::new(&Topology::paper_testbed(SncMode::Disabled), cfg);
    tm.enable_trace(1 << 16);
    let mut dest = Destinations::default();
    let mut rng = Rng(seed);
    let mut now = SimTime::ZERO;
    let mut live: Vec<PageId> = Vec::new();

    for _ in 0..STEPS {
        now += SimTime::from_us(rng.below(4000));
        let mut drain = false;
        match rng.below(100) {
            0..=11 => live.extend(tm.alloc(now).ok()),
            12..=15 => {
                let node = NodeId(rng.below(NODES as u64) as usize);
                live.extend(tm.alloc_preferring(node, now).ok());
            }
            16..=71 if !live.is_empty() => {
                // Skew toward the low indices so some pages run hot.
                let r = rng.below(live.len() as u64);
                let p = live[(r * r / live.len() as u64) as usize];
                let rw = if rng.below(4) == 0 {
                    Rw::Write
                } else {
                    Rw::Read
                };
                tm.touch(p, rw, 64, now);
            }
            72..=75 if !live.is_empty() => {
                let p = live.swap_remove(rng.below(live.len() as u64) as usize);
                tm.free(p);
            }
            76..=80 if !live.is_empty() => {
                let p = live[rng.below(live.len() as u64) as usize];
                let _ = tm.evict_to_ssd(p);
            }
            81..=85 if !live.is_empty() => {
                let p = live[rng.below(live.len() as u64) as usize];
                let _ = tm.load_from_ssd(p, now);
            }
            86..=94 => {
                tm.set_dram_bandwidth_util(rng.below(101) as f64 / 100.0);
                tm.tick(now);
            }
            95 => {
                drain = true;
                let _ = tm.evacuate(NodeId(rng.below(NODES as u64) as usize), now);
            }
            96 | 97 => {
                drain = true;
                let node = NodeId(rng.below(NODES as u64) as usize);
                let pages = rng.below(tm.node_usage(node).1 + 1);
                let _ = tm.shrink_node(node, pages * PAGE, now);
            }
            98 | 99 => {
                let node = NodeId(rng.below(NODES as u64) as usize);
                tm.grow_node(node, rng.below(64) * PAGE).unwrap();
            }
            _ => {}
        }
        dest.count(&mut tm, drain);
    }
    (tm.stats().clone(), dest)
}

/// The counters a manager with these totals must leave: each nonzero
/// total under its name, and the three drain totals whenever a drain
/// ran.
fn expected_counters(s: &TierStats, d: &Destinations) -> BTreeMap<String, u64> {
    let mut want = BTreeMap::new();
    let mut put = |name: &str, v: u64| {
        if v > 0 {
            want.insert(name.to_string(), v);
        }
    };
    put("tier/ssd_spills", s.ssd_spills);
    put("tier/hint_faults", s.hint_faults);
    put("tier/promotions", s.promotions);
    put("tier/promotions_rate_limited", s.promotions_rate_limited);
    put("tier/promotions_not_hot", s.promotions_not_hot);
    put("tier/promotions_below_streak", s.promotions_below_streak);
    put("tier/promotions_bw_suppressed", s.promotions_bw_suppressed);
    put("tier/demotions", s.demotions);
    put("tier/demotions_remote_socket", s.demotions_remote_socket);
    put(
        "tier/demotions_local_socket",
        s.demotions - s.demotions_remote_socket,
    );
    put("tier/demotions_target_full", s.demotions_target_full);
    put("tier/evictions_to_ssd", s.evictions_to_ssd);
    put("tier/ssd_loads", s.ssd_loads);
    put("tier/migration_bytes", s.migration_bytes);
    for n in 0..NODES {
        put(&format!("tier/promotions/to_node{n}"), d.promotions[n]);
        put(&format!("tier/demotions/to_node{n}"), d.demotions[n]);
    }
    if s.evacuations > 0 {
        want.insert("tier/evacuations".into(), s.evacuations);
        want.insert("tier/evacuated_pages".into(), s.evacuated_pages);
        want.insert("tier/evacuated_to_ssd".into(), s.evacuated_to_ssd);
    }
    want
}

#[test]
fn dropped_manager_leaves_its_statistics_in_the_registry() {
    let mut saw = TierStats::default();
    for (i, (policy, mode, socket, spill)) in programs().into_iter().enumerate() {
        let reg = Arc::new(Registry::new());
        let (stats, dest) = {
            let _scope = cxl_obs::scope(reg.clone());
            run_program(policy, mode, socket, spill, 7 + i as u64)
        };
        let want = expected_counters(&stats, &dest);
        for (name, &v) in &want {
            assert_eq!(reg.counter(name), Some(v), "program {i}: {name}");
        }
        assert_eq!(
            dest.promotions.iter().sum::<u64>(),
            stats.promotions,
            "program {i}: promotions by destination"
        );
        assert_eq!(
            dest.demotions.iter().sum::<u64>(),
            stats.demotions,
            "program {i}: demotions by destination"
        );
        let durations = reg.histogram("tier/evacuation_duration_ns");
        assert_eq!(
            durations.map_or(0, |h| h.count()),
            stats.evacuations,
            "program {i}: one drain duration per drain"
        );
        // Nothing else: the per-node occupancy samples of the ticks,
        // the drain durations and the counters above are every key.
        let occupancy = (0..NODES)
            .filter(|n| {
                reg.histogram(&format!("tier/node{n}/occupancy_pages"))
                    .is_some()
            })
            .count();
        let histograms = occupancy + usize::from(stats.evacuations > 0);
        assert_eq!(
            reg.len(),
            want.len() + histograms,
            "program {i}: extra keys"
        );
        saw.hint_faults += stats.hint_faults;
        saw.promotions += stats.promotions;
        saw.promotions_rate_limited += stats.promotions_rate_limited;
        saw.promotions_below_streak += stats.promotions_below_streak;
        saw.promotions_bw_suppressed += stats.promotions_bw_suppressed;
        saw.demotions_remote_socket += stats.demotions_remote_socket;
        saw.evictions_to_ssd += stats.evictions_to_ssd;
        saw.ssd_loads += stats.ssd_loads;
        saw.ssd_spills += stats.ssd_spills;
        saw.evacuated_to_ssd += stats.evacuated_to_ssd;
    }
    // The programs reach every counted path at least once.
    let reached = [
        saw.hint_faults,
        saw.promotions,
        saw.promotions_rate_limited,
        saw.promotions_below_streak,
        saw.promotions_bw_suppressed,
        saw.demotions_remote_socket,
        saw.evictions_to_ssd,
        saw.ssd_loads,
        saw.ssd_spills,
        saw.evacuated_to_ssd,
    ];
    assert!(reached.iter().all(|&n| n > 0), "{saw:?}");
}

#[test]
fn idle_manager_leaves_no_key() {
    let reg = Arc::new(Registry::new());
    {
        let _scope = cxl_obs::scope(reg.clone());
        let mut cfg = TierConfig::bind(vec![NodeId(0)]);
        cfg.policy = AllocPolicy::interleave(vec![NodeId(0)], vec![NodeId(2)], 1, 1);
        let mut tm = TierManager::new(&Topology::paper_testbed(SncMode::Disabled), cfg);
        let pages = tm.alloc_n(16, SimTime::ZERO).unwrap();
        for (i, &p) in pages.iter().enumerate() {
            tm.touch(p, Rw::Write, 64, SimTime::from_us(i as u64));
        }
        tm.free(pages[3]);
        tm.drain_epoch();
    }
    assert!(reg.is_empty(), "{}", reg.export_sim_json());
}
