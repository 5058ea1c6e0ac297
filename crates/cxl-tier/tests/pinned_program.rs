//! Pins the tier manager's observable behaviour to one digest.
//!
//! A seeded random program of every public operation (allocation,
//! reads and writes, frees, SSD eviction and reload, ticks, node
//! evacuation, shrink and growth, and promotion-rate retunes) runs on
//! the paper testbed, with SNC off and with SNC-4, under every
//! migration mode and three placement policies. Every return value, every page location, the residency
//! after each operation, every drained traffic epoch and trace event,
//! and the final statistics are folded into one FNV-1a digest. Any
//! change to how pages are placed, faulted, promoted, demoted or
//! accounted moves the digest; a change to how that state is stored
//! must not.

use cxl_sim::SimTime;
use cxl_tier::{
    AccessOutcome, AllocPolicy, BandwidthAwareConfig, EvacuationReport, HotPageConfig, Location,
    MigrationMode, NumaBalancingConfig, PageId, Rw, TierConfig, TierError, TierManager,
};
use cxl_topology::{NodeId, SncMode, SocketId, Topology};

const PAGE: u64 = 4096;
const STEPS: usize = 3000;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    fn location(&mut self, l: Location) {
        self.u64(match l {
            Location::Node(n) => n.0 as u64,
            Location::Ssd => u64::MAX,
        });
    }

    fn outcome(&mut self, o: AccessOutcome) {
        self.location(o.location);
        self.u64(o.hint_fault as u64);
        self.u64(o.promoted as u64);
        self.u64(o.fault_cost.as_ns());
    }

    fn error(&mut self, e: &TierError) {
        self.debug(e);
    }

    fn report(&mut self, r: &EvacuationReport) {
        self.u64(r.node.0 as u64);
        self.u64(r.pages_moved);
        self.u64(r.pages_to_ssd);
        self.u64(r.started_at.as_ns());
        self.u64(r.completed_at.as_ns());
    }
}

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
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

fn modes() -> Vec<MigrationMode> {
    vec![
        MigrationMode::None,
        MigrationMode::NumaBalancing(balancing()),
        MigrationMode::HotPageSelection(hot_page(1)),
        MigrationMode::HotPageSelection(hot_page(2)),
        MigrationMode::BandwidthAware(BandwidthAwareConfig {
            base: hot_page(1),
            high_watermark: 0.75,
            demote_batch: 4,
        }),
    ]
}

/// A testbed, its node capacities in pages, and the two DRAM and two
/// CXL nodes the placement policies name.
struct Machine {
    topo: Topology,
    caps: Vec<u64>,
    dram: [NodeId; 2],
    cxl: [NodeId; 2],
}

fn machines() -> Vec<Machine> {
    vec![
        // 0, 1 = DRAM on sockets 0 and 1; 2, 3 = CXL on socket 0.
        Machine {
            topo: Topology::paper_testbed(SncMode::Disabled),
            caps: vec![24, 8, 48, 32],
            dram: [NodeId(0), NodeId(1)],
            cxl: [NodeId(2), NodeId(3)],
        },
        // 0-3 = DRAM domains of socket 0, 4-7 of socket 1; 8, 9 = CXL
        // on socket 0. Every socket has four promotion targets.
        Machine {
            topo: Topology::paper_testbed(SncMode::Snc4),
            caps: vec![6, 6, 6, 6, 2, 2, 2, 2, 48, 32],
            dram: [NodeId(0), NodeId(1)],
            cxl: [NodeId(8), NodeId(9)],
        },
    ]
}

fn policies(m: &Machine) -> Vec<AllocPolicy> {
    let ([d0, d1], [c0, c1]) = (m.dram, m.cxl);
    vec![
        AllocPolicy::Bind(vec![c0, d0]),
        AllocPolicy::Preferred {
            node: d0,
            fallback: vec![c1, c0],
        },
        AllocPolicy::interleave(vec![d0, d1], vec![c0, c1], 3, 1),
    ]
}

/// Runs one seeded program and folds everything it observes into `h`.
fn run_program(
    h: &mut Fnv,
    m: &Machine,
    policy: AllocPolicy,
    mode: MigrationMode,
    pi: usize,
    seed: u64,
) {
    let nodes = m.caps.len();
    let mut cfg = TierConfig::bind(vec![NodeId(0)]);
    cfg.policy = policy;
    cfg.migration = mode;
    // The second policy runs without SSD spill, so allocation and
    // reload also take their out-of-memory paths, and from socket 1,
    // so promotion targets socket 1's DRAM and every demotion is
    // remote.
    cfg.allow_ssd_spill = pi != 1;
    cfg.accessor_socket = SocketId(pi % 2);
    cfg.demotion_watermark = 0.9;
    cfg.capacity_override = (0..nodes).map(|n| (NodeId(n), m.caps[n] * PAGE)).collect();
    let mut tm = TierManager::new(&m.topo, cfg);
    tm.enable_trace(64);
    let mut rng = Rng(seed);
    let mut now = SimTime::ZERO;
    let mut live: Vec<PageId> = Vec::new();

    for _ in 0..STEPS {
        now += SimTime::from_us(rng.below(4000));
        let op = rng.below(100);
        match op {
            0..=7 => match tm.alloc(now) {
                Ok(p) => {
                    h.u64(p.0);
                    h.location(tm.location(p));
                    live.push(p);
                }
                Err(e) => h.debug(&e),
            },
            8..=11 => {
                // The last draw is outside the topology.
                let node = NodeId(rng.below(nodes as u64 + 1) as usize);
                match tm.alloc_preferring(node, now) {
                    Ok(p) => {
                        h.u64(p.0);
                        h.location(tm.location(p));
                        live.push(p);
                    }
                    Err(e) => h.error(&e),
                }
            }
            12..=71 if !live.is_empty() => {
                // Skew toward the low indices so some pages run hot.
                let r = rng.below(live.len() as u64);
                let p = live[(r * r / live.len() as u64) as usize];
                let rw = if rng.below(4) == 0 {
                    Rw::Write
                } else {
                    Rw::Read
                };
                let bytes = 64 << rng.below(4);
                h.outcome(tm.touch(p, rw, bytes, now));
                h.location(tm.location(p));
            }
            72..=75 if !live.is_empty() => {
                let p = live.swap_remove(rng.below(live.len() as u64) as usize);
                tm.free(p);
                h.u64(p.0);
            }
            76..=79 if !live.is_empty() => {
                let p = live[rng.below(live.len() as u64) as usize];
                match tm.evict_to_ssd(p) {
                    Ok(()) => h.location(tm.location(p)),
                    Err(e) => h.error(&e),
                }
            }
            80..=83 if !live.is_empty() => {
                let p = live[rng.below(live.len() as u64) as usize];
                match tm.load_from_ssd(p, now) {
                    Ok(()) => h.location(tm.location(p)),
                    Err(e) => h.error(&e),
                }
            }
            84..=93 => {
                tm.set_dram_bandwidth_util(rng.below(101) as f64 / 100.0);
                tm.tick(now);
                h.u64(tm.hot_threshold().as_ns());
                let e = tm.drain_epoch();
                h.debug(&e);
                if let Some(t) = tm.trace_mut() {
                    for ev in t.drain() {
                        h.debug(&ev);
                    }
                }
            }
            94 => {
                let node = NodeId(rng.below(nodes as u64 + 1) as usize);
                match tm.evacuate(node, now) {
                    Ok(r) => h.report(&r),
                    Err(e) => h.error(&e),
                }
            }
            95 | 96 => {
                let node = NodeId(rng.below(nodes as u64) as usize);
                let pages = rng.below(tm.node_usage(node).1 + 1);
                match tm.shrink_node(node, pages * PAGE, now) {
                    Ok(r) => h.report(&r),
                    Err(e) => h.error(&e),
                }
            }
            97 | 98 => {
                let node = NodeId(rng.below(nodes as u64 + 1) as usize);
                let pages = rng.below(64);
                match tm.grow_node(node, pages * PAGE) {
                    Ok(()) => h.u64(pages),
                    Err(e) => h.error(&e),
                }
            }
            99 => {
                let rate = (1 + rng.below(64)) as f64 * PAGE as f64;
                match tm.set_promote_rate(now, rate) {
                    Ok(()) => h.u64(rate as u64),
                    Err(e) => h.error(&e),
                }
            }
            _ => h.u64(op),
        }
        for (l, n) in tm.residency() {
            h.location(l);
            h.u64(n);
        }
    }
    for &p in &live {
        h.location(tm.location(p));
    }
    for n in 0..nodes {
        let (used, cap) = tm.node_usage(NodeId(n));
        h.u64(used);
        h.u64(cap);
    }
    h.debug(tm.stats());
    h.debug(&tm.snapshot());
}

#[test]
fn seeded_programs_match_the_pinned_digest() {
    let mut h = Fnv::new();
    for (ti, m) in machines().iter().enumerate() {
        for (pi, policy) in policies(m).into_iter().enumerate() {
            for (mi, mode) in modes().into_iter().enumerate() {
                let seed = (ti * 64 + pi * 16 + mi) as u64;
                run_program(&mut h, m, policy.clone(), mode, pi, seed);
            }
        }
    }
    assert_eq!(h.0, 0xbfcd_47bb_9034_5586, "digest {:#018x}", h.0);
}
