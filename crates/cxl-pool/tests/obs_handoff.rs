//! The pool manager's counts reach `cxl-obs` exactly as one call per
//! event would leave them.
//!
//! Every test drops its managers inside a scoped registry and reads the
//! registry afterwards. The last one pins the `sim` export of seeded
//! programs of requests, releases, queue cancellations and expander
//! faults on several pool shapes to one FNV-1a digest, taken before the
//! manager kept its own counts: a change to how the manager counts must
//! leave every key and value as it was.

use std::sync::Arc;

use cxl_obs::Registry;
use cxl_pool::{HostId, PoolManager};
use cxl_sim::SimTime;

const H0: HostId = HostId(0);
const H1: HostId = HostId(1);
const H2: HostId = HostId(2);

fn t(ms: u64) -> SimTime {
    SimTime::from_ms(ms)
}

/// Runs `f` under a fresh scoped registry and returns the registry.
/// Managers that `f` builds drop inside the scope.
fn scoped(f: impl FnOnce()) -> Arc<Registry> {
    let reg = Arc::new(Registry::new());
    {
        let _scope = cxl_obs::scope(reg.clone());
        f();
    }
    reg
}

#[test]
fn denied_requests_leave_no_key() {
    let reg = scoped(|| {
        let mut pm = PoolManager::new(8, 2, 1.0);
        pm.request(H0, 0, t(0));
    });
    assert!(reg.is_empty(), "{}", reg.export_sim_json());

    // An offline pool denies requests and ignores releases; only the
    // fault that took it offline counts.
    let reg = scoped(|| {
        let mut pm = PoolManager::new(8, 2, 1.0);
        pm.revoke_all(t(0));
        pm.request(H0, 4, t(1));
        pm.release(H0, 4, t(2));
    });
    assert_eq!(reg.counter("pool/mass_revocations"), Some(1));
    assert_eq!(reg.len(), 1, "{}", reg.export_sim_json());
}

#[test]
fn one_unfragmented_grant_leaves_both_maxima() {
    let reg = scoped(|| {
        let mut pm = PoolManager::new(8, 2, 1.0);
        pm.request(H0, 3, t(0));
    });
    assert_eq!(reg.counter("pool/grants"), Some(1));
    // Zero is a value the request reached, so the key is there.
    assert_eq!(reg.max("pool/frag_peak_permille"), Some(0));
    assert_eq!(reg.max("pool/occupancy_peak_slabs"), Some(3));
    assert_eq!(reg.len(), 3, "{}", reg.export_sim_json());
}

#[test]
fn one_wait_sample_per_deferred_grant() {
    let mut deferred = 0;
    let mut max_wait_ns = 0;
    let reg = scoped(|| {
        let mut pm = PoolManager::new(8, 3, 1.0);
        pm.request(H0, 8, t(0));
        pm.request(H1, 3, t(10));
        pm.request(H2, 2, t(20));
        pm.release(H0, 4, t(50));
        pm.release(H0, 4, t(60));
        deferred = pm.stats().deferred_grants;
        max_wait_ns = pm.stats().max_wait_ns;
    });
    assert_eq!(deferred, 3, "H1 once, H2 in two parts");
    let waits = reg
        .histogram("pool/lease_wait_ns")
        .expect("waits handed over");
    assert_eq!(waits.count(), deferred);
    assert_eq!(waits.max(), max_wait_ns);
}

/// 64-bit FNV-1a.
fn fnv1a(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// SplitMix64: a seeded stream that needs nothing outside this file.
struct SplitMix(u64);

impl SplitMix {
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

/// Runs 400 seeded operations on a `slabs`-slab pool of `hosts` hosts
/// that compacts above `threshold`; when `fault_at` is set, the
/// expander dies at that step and the program goes on against the
/// offline pool. Returns the manager's deferred-grant count.
fn program(seed: u64, slabs: u64, hosts: usize, threshold: f64, fault_at: Option<usize>) -> u64 {
    let mut rng = SplitMix(seed);
    let mut pm = PoolManager::new(slabs, hosts, threshold);
    let mut now = SimTime::ZERO;
    for step in 0..400 {
        now += SimTime::from_us(rng.below(5_000));
        if fault_at == Some(step) {
            pm.revoke_all(now);
            continue;
        }
        let host = HostId(rng.below(hosts as u64) as usize);
        match rng.below(100) {
            0..=44 => {
                pm.request(host, rng.below(slabs / 2 + 2), now);
            }
            45..=84 => {
                let held = pm.granted_slabs(host);
                pm.release(host, rng.below(held + 2), now);
            }
            _ => {
                pm.cancel_queued(host);
            }
        }
    }
    pm.stats().deferred_grants
}

#[test]
fn seeded_programs_hand_over_a_pinned_export() {
    let shapes: [(u64, usize, f64); 4] = [(16, 3, 0.3), (64, 8, 0.5), (10, 2, 1.0), (33, 5, 0.0)];
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (i, &(slabs, hosts, threshold)) in shapes.iter().enumerate() {
        for (seed, fault_at) in [(i as u64, None), (100 + i as u64, Some(250))] {
            let mut deferred = 0;
            let reg = scoped(|| deferred = program(seed, slabs, hosts, threshold, fault_at));
            let waits = reg.histogram("pool/lease_wait_ns").map_or(0, |h| h.count());
            assert_eq!(waits, deferred, "shape {i}, seed {seed}");
            digest = fnv1a(digest, &reg.export_sim_json());
        }
    }
    assert_eq!(
        digest, 0xa914_44c0_e65b_28d0,
        "pool sim export {digest:#018x}"
    );
}
