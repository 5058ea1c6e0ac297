//! The pool manager: the control plane that owns switch-attached
//! expander capacity and arbitrates it between hosts.
//!
//! Hosts send lease requests; the manager grants what it can
//! immediately, queues the rest FIFO, and — when demand exceeds free
//! capacity — issues *revocations* against holders above their fair
//! share. A revocation is asynchronous: the manager only reclaims the
//! slabs once the host has drained them (migrated pages off the pooled
//! node) and called [`PoolManager::release`], at which point queued
//! waiters are served oldest-first. An expander fault triggers
//! [`PoolManager::revoke_all`], which tears down every lease at once.

use std::collections::VecDeque;

use cxl_sim::SimTime;
use cxl_stats::Histogram;
use serde::Serialize;

use crate::address::PoolAddressSpace;
use crate::lease::{HostId, Lease};

/// Immediate answer to a lease request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GrantOutcome {
    /// The full request was granted on the spot.
    Granted {
        /// Slabs granted.
        slabs: u64,
    },
    /// Part was granted; the shortfall is queued.
    Partial {
        /// Slabs granted now.
        granted: u64,
        /// Slabs left waiting in the queue.
        queued: u64,
    },
    /// Nothing was free; the whole request is queued.
    Queued {
        /// Slabs waiting in the queue.
        slabs: u64,
    },
    /// The pool is offline (or the request was empty); nothing was
    /// granted or queued.
    Denied,
}

impl GrantOutcome {
    /// Slabs granted immediately by this outcome.
    pub fn granted_now(&self) -> u64 {
        match self {
            GrantOutcome::Granted { slabs } => *slabs,
            GrantOutcome::Partial { granted, .. } => *granted,
            _ => 0,
        }
    }
}

/// A deferred grant delivered when capacity freed up for a queued
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Grant {
    /// Receiving host.
    pub host: HostId,
    /// Slabs granted.
    pub slabs: u64,
    /// How long the request waited in the queue.
    pub waited: SimTime,
}

/// An order to a host to drain `slabs` of its lease and hand them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RevocationNotice {
    /// Host that must drain.
    pub host: HostId,
    /// Slabs to hand back.
    pub slabs: u64,
}

/// Immediate result of [`PoolManager::request`]: the outcome for the
/// requester plus any revocations issued to fund the queue.
#[derive(Debug, Clone, Serialize)]
pub struct RequestResponse {
    /// Outcome for the requesting host.
    pub outcome: GrantOutcome,
    /// Revocations the manager issued against over-fair-share holders
    /// to cover queued demand. The simulator must drain these hosts and
    /// call [`PoolManager::release`] with the reclaimed slabs.
    pub revocations: Vec<RevocationNotice>,
}

/// Counters the manager accumulates over a run (local to one simulated
/// pool, unlike the global `cxl-obs` registry, which receives them when
/// the manager drops).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PoolStats {
    /// Requests fully granted on the spot.
    pub grants: u64,
    /// Requests granted only in part.
    pub partial_grants: u64,
    /// Requests (fully or partially) queued.
    pub queued_requests: u64,
    /// Deferred grants delivered from the queue.
    pub deferred_grants: u64,
    /// Revocation notices issued (fair-share reclaims).
    pub revocations: u64,
    /// Slabs covered by revocation notices.
    pub revoked_slabs: u64,
    /// Mass revocations (expander faults).
    pub mass_revocations: u64,
    /// Compaction passes run.
    pub defrags: u64,
    /// Slabs relocated by compaction.
    pub defrag_slabs_moved: u64,
    /// Peak mapped slabs.
    pub peak_used_slabs: u64,
    /// Peak external fragmentation observed, in [0, 1].
    pub peak_fragmentation: f64,
    /// Total queue wait across deferred grants, ns.
    pub total_wait_ns: u64,
    /// Longest single queue wait, ns.
    pub max_wait_ns: u64,
}

impl PoolStats {
    /// Mean queue wait per deferred grant, ns (0 when nothing waited).
    pub fn mean_wait_ns(&self) -> f64 {
        if self.deferred_grants == 0 {
            0.0
        } else {
            self.total_wait_ns as f64 / self.deferred_grants as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Waiter {
    host: HostId,
    slabs: u64,
    since: SimTime,
}

/// Arbitrates a fixed budget of pool slabs between hosts.
///
/// Dropping the manager hands its counts to the `cxl-obs` registry
/// current on its thread, once (see the [`Drop`] impl).
#[derive(Debug)]
pub struct PoolManager {
    space: PoolAddressSpace,
    leases: Vec<Lease>,
    /// Slabs per lease currently under an outstanding revocation (the
    /// host is draining them; they still appear granted until
    /// `release`). Prevents issuing a second revocation for the same
    /// slabs.
    reclaiming: Vec<u64>,
    queue: VecDeque<Waiter>,
    defrag_threshold: f64,
    offline: bool,
    stats: PoolStats,
    /// Grants that took more than one extent.
    fragmented_grants: u64,
    /// Each deferred grant's queue wait, ns; allocated with the first.
    waits: Option<Histogram>,
    /// Whether a request or release reached the fragmentation and
    /// occupancy maxima (one that was not denied, or made while online).
    observed: bool,
}

impl PoolManager {
    /// A manager owning `total_slabs` slabs, serving `hosts` hosts
    /// (host ids `0..hosts`). Compaction runs whenever external
    /// fragmentation exceeds `defrag_threshold` (use 1.0 to disable).
    pub fn new(total_slabs: u64, hosts: usize, defrag_threshold: f64) -> Self {
        assert!(hosts > 0, "pool needs at least one host");
        assert!(
            (0.0..=1.0).contains(&defrag_threshold),
            "defrag threshold must be in [0, 1], got {defrag_threshold}"
        );
        Self {
            space: PoolAddressSpace::new(total_slabs),
            leases: (0..hosts).map(|h| Lease::new(HostId(h))).collect(),
            reclaiming: vec![0; hosts],
            queue: VecDeque::new(),
            defrag_threshold,
            offline: false,
            stats: PoolStats::default(),
            fragmented_grants: 0,
            waits: None,
            observed: false,
        }
    }

    /// Total pool capacity in slabs.
    pub fn total_slabs(&self) -> u64 {
        self.space.total_slabs()
    }

    /// Currently granted slabs across all leases.
    pub fn used_slabs(&self) -> u64 {
        self.space.used_slabs()
    }

    /// Slabs neither granted nor reserved.
    pub fn free_slabs(&self) -> u64 {
        self.space.free_slabs()
    }

    /// Slabs currently granted to `host`.
    pub fn granted_slabs(&self, host: HostId) -> u64 {
        self.leases[host.0].granted_slabs
    }

    /// Slabs `host` still owes the pool under outstanding revocations.
    #[cfg(test)]
    fn reclaiming_slabs(&self, host: HostId) -> u64 {
        self.reclaiming[host.0]
    }

    /// Outstanding queued slabs across all waiters.
    pub fn queued_slabs(&self) -> u64 {
        self.queue.iter().map(|w| w.slabs).sum()
    }

    /// Whether the pool has been taken offline by a fault.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// Current external fragmentation of the pool address space.
    pub fn fragmentation(&self) -> f64 {
        self.space.fragmentation()
    }

    /// Run counters so far.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// The even split of the pool between hosts, in slabs.
    pub fn fair_share_slabs(&self) -> u64 {
        self.space.total_slabs() / self.leases.len() as u64
    }

    /// A host asks for `slabs` more slabs at time `now`.
    ///
    /// Grants what is free, queues the shortfall, and — if anything
    /// queued — issues fair-share revocations against the largest
    /// over-share holders to fund the queue.
    pub fn request(&mut self, host: HostId, slabs: u64, now: SimTime) -> RequestResponse {
        if self.offline || slabs == 0 {
            return RequestResponse {
                outcome: GrantOutcome::Denied,
                revocations: Vec::new(),
            };
        }
        self.maybe_defrag();
        let granted = self.grant_to(host, slabs);
        let shortfall = slabs - granted;
        let outcome = if shortfall == 0 {
            self.stats.grants += 1;
            GrantOutcome::Granted { slabs: granted }
        } else {
            self.queue.push_back(Waiter {
                host,
                slabs: shortfall,
                since: now,
            });
            self.leases[host.0].pending_slabs += shortfall;
            self.stats.queued_requests += 1;
            if granted > 0 {
                self.stats.partial_grants += 1;
                GrantOutcome::Partial {
                    granted,
                    queued: shortfall,
                }
            } else {
                GrantOutcome::Queued { slabs: shortfall }
            }
        };
        let revocations = self.reclaim_for_queue();
        self.note_occupancy();
        RequestResponse {
            outcome,
            revocations,
        }
    }

    /// A host hands back `slabs` slabs (voluntarily, or after draining
    /// a revocation). Freed capacity immediately serves the queue; the
    /// returned grants tell the simulator which waiters got capacity
    /// and how long they waited.
    pub fn release(&mut self, host: HostId, slabs: u64, now: SimTime) -> Vec<Grant> {
        let lease = host.lease();
        let freed = self.space.release(lease, slabs);
        self.leases[host.0].granted_slabs -= freed;
        self.reclaiming[host.0] = self.reclaiming[host.0].saturating_sub(freed);
        if self.offline {
            return Vec::new();
        }
        self.maybe_defrag();
        let grants = self.serve_queue(now);
        self.note_occupancy();
        grants
    }

    /// A host abandons everything it queued for (demand fell before the
    /// grant arrived).
    pub fn cancel_queued(&mut self, host: HostId) -> u64 {
        let mut dropped = 0;
        self.queue.retain(|w| {
            if w.host == host {
                dropped += w.slabs;
                false
            } else {
                true
            }
        });
        self.leases[host.0].pending_slabs -= dropped;
        dropped
    }

    /// Expander fault: tears down every lease and the queue at once.
    ///
    /// Returns one notice per host that held capacity; the simulator
    /// must evacuate those hosts' pooled pages (to local DRAM or SSD).
    /// The address space is cleared immediately — the device is gone,
    /// there is nothing to hand back — and the pool goes offline.
    pub fn revoke_all(&mut self, _now: SimTime) -> Vec<RevocationNotice> {
        let mut notices = Vec::new();
        for lease in &mut self.leases {
            if lease.granted_slabs > 0 {
                notices.push(RevocationNotice {
                    host: lease.host,
                    slabs: lease.granted_slabs,
                });
                lease.total_revoked_slabs += lease.granted_slabs;
                self.stats.revoked_slabs += lease.granted_slabs;
                self.stats.revocations += 1;
            }
            self.space.release_all(lease.host.lease());
            lease.granted_slabs = 0;
            lease.pending_slabs = 0;
        }
        self.queue.clear();
        self.reclaiming.iter_mut().for_each(|r| *r = 0);
        self.offline = true;
        self.stats.mass_revocations += 1;
        notices
    }

    fn grant_to(&mut self, host: HostId, slabs: u64) -> u64 {
        let extents = self.space.alloc(slabs, host.lease());
        let granted: u64 = extents.iter().map(|e| e.len).sum();
        self.leases[host.0].granted_slabs += granted;
        self.leases[host.0].total_granted_slabs += granted;
        if extents.len() > 1 {
            self.fragmented_grants += 1;
        }
        granted
    }

    fn serve_queue(&mut self, now: SimTime) -> Vec<Grant> {
        let mut grants = Vec::new();
        while let Some(front) = self.queue.front() {
            if self.space.free_slabs() == 0 {
                break;
            }
            let host = front.host;
            let want = front.slabs;
            let since = front.since;
            let give = self.grant_to(host, want.min(self.space.free_slabs()));
            if give == 0 {
                break;
            }
            self.leases[host.0].pending_slabs -= give;
            let waited = now.saturating_sub(since);
            self.stats.deferred_grants += 1;
            self.stats.total_wait_ns += waited.as_ns();
            self.stats.max_wait_ns = self.stats.max_wait_ns.max(waited.as_ns());
            self.waits
                .get_or_insert_with(Histogram::new)
                .record(waited.as_ns());
            grants.push(Grant {
                host,
                slabs: give,
                waited,
            });
            if give == want {
                self.queue.pop_front();
            } else {
                self.queue.front_mut().expect("front exists").slabs -= give;
            }
        }
        grants
    }

    /// Issues revocations against over-fair-share holders until the
    /// queued shortfall is covered (or no holder has reclaimable
    /// excess). Largest excess drains first; already-draining slabs are
    /// not revoked twice.
    fn reclaim_for_queue(&mut self) -> Vec<RevocationNotice> {
        let fair = self.fair_share_slabs();
        let mut needed = self
            .queued_slabs()
            .saturating_sub(self.space.free_slabs() + self.total_reclaiming());
        let mut notices = Vec::new();
        while needed > 0 {
            // Pick the holder with the largest reclaimable excess;
            // break ties toward the lower host id for determinism.
            let victim = self
                .leases
                .iter()
                .map(|l| {
                    let excess = l
                        .granted_slabs
                        .saturating_sub(self.reclaiming[l.host.0])
                        .saturating_sub(fair);
                    (l.host, excess)
                })
                .filter(|(_, excess)| *excess > 0)
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
            let Some((host, excess)) = victim else { break };
            let take = excess.min(needed);
            self.reclaiming[host.0] += take;
            self.leases[host.0].total_revoked_slabs += take;
            self.stats.revocations += 1;
            self.stats.revoked_slabs += take;
            notices.push(RevocationNotice { host, slabs: take });
            needed -= take;
        }
        notices
    }

    fn total_reclaiming(&self) -> u64 {
        self.reclaiming.iter().sum()
    }

    fn maybe_defrag(&mut self) {
        let frag = self.space.fragmentation();
        self.stats.peak_fragmentation = self.stats.peak_fragmentation.max(frag);
        self.observed = true;
        if frag > self.defrag_threshold {
            let moved = self.space.defrag();
            if moved > 0 {
                self.stats.defrags += 1;
                self.stats.defrag_slabs_moved += moved;
            }
        }
    }

    fn note_occupancy(&mut self) {
        let used = self.space.used_slabs();
        self.stats.peak_used_slabs = self.stats.peak_used_slabs.max(used);
    }
}

impl Drop for PoolManager {
    /// Hands the manager's totals to the current `cxl-obs` registry:
    /// each nonzero count under `pool/<name>`, the queue waits as the
    /// `pool/lease_wait_ns` histogram, and the fragmentation and
    /// occupancy peaks once any request or release reached them, zero
    /// included. These are the keys and values one call per event would
    /// have left. A manager that saw only denied requests touches
    /// `cxl-obs` not at all.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let s = &self.stats;
        for (name, n) in [
            ("pool/grants", s.grants),
            ("pool/partial_grants", s.partial_grants),
            ("pool/queued", s.queued_requests),
            ("pool/revocations", s.revocations),
            ("pool/mass_revocations", s.mass_revocations),
            ("pool/defrags", s.defrags),
            ("pool/defrag_slabs_moved", s.defrag_slabs_moved),
            ("pool/fragmented_grants", self.fragmented_grants),
        ] {
            if n > 0 {
                cxl_obs::counter_add(name, n);
            }
        }
        if let Some(waits) = &self.waits {
            cxl_obs::merge("pool/lease_wait_ns", waits);
        }
        if self.observed {
            // The float-to-integer cast is monotone, so the peak's
            // permille is the largest permille any observation had.
            cxl_obs::counter_max(
                "pool/frag_peak_permille",
                (s.peak_fragmentation * 1000.0) as u64,
            );
            cxl_obs::counter_max("pool/occupancy_peak_slabs", s.peak_used_slabs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H0: HostId = HostId(0);
    const H1: HostId = HostId(1);
    const H2: HostId = HostId(2);

    fn t(ms: u64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn mean_wait_of_zero_deferred_grants_is_zero() {
        // Fresh stats: 0/0 must read as 0.0, not NaN.
        assert_eq!(PoolStats::default().mean_wait_ns(), 0.0);
        // And a manager that never queued anything reports the same.
        let mut pm = PoolManager::new(10, 2, 1.0);
        pm.request(H0, 2, t(0));
        assert_eq!(pm.stats().deferred_grants, 0);
        assert_eq!(pm.stats().mean_wait_ns(), 0.0);
        // Nonzero path for contrast.
        let s = PoolStats {
            deferred_grants: 4,
            total_wait_ns: 1000,
            ..Default::default()
        };
        assert_eq!(s.mean_wait_ns(), 250.0);
    }

    #[test]
    fn grants_until_full_then_queues() {
        let mut pm = PoolManager::new(10, 2, 1.0);
        let r = pm.request(H0, 6, t(0));
        assert_eq!(r.outcome, GrantOutcome::Granted { slabs: 6 });
        assert!(r.revocations.is_empty() || pm.fair_share_slabs() >= 6);
        let r = pm.request(H1, 6, t(1));
        assert_eq!(
            r.outcome,
            GrantOutcome::Partial {
                granted: 4,
                queued: 2
            }
        );
        // H0 holds 6 > fair share 5, so the shortfall of 2 is funded by
        // revoking min(excess=1, needed=2) = 1 slab from H0 (all it has
        // above fair share).
        assert_eq!(r.revocations, vec![RevocationNotice { host: H0, slabs: 1 }]);
        assert_eq!(pm.queued_slabs(), 2);
        assert_eq!(pm.reclaiming_slabs(H0), 1);
    }

    #[test]
    fn release_serves_queue_fifo_with_wait_times() {
        let mut pm = PoolManager::new(8, 3, 1.0);
        pm.request(H0, 8, t(0));
        let r1 = pm.request(H1, 3, t(10));
        assert_eq!(r1.outcome, GrantOutcome::Queued { slabs: 3 });
        let r2 = pm.request(H2, 2, t(20));
        assert_eq!(r2.outcome, GrantOutcome::Queued { slabs: 2 });
        // H0 drains 4 slabs at t=50: H1 (older) gets its 3 first, then
        // H2 gets 1 of 2.
        let grants = pm.release(H0, 4, t(50));
        assert_eq!(grants.len(), 2);
        assert_eq!(grants[0].host, H1);
        assert_eq!(grants[0].slabs, 3);
        assert_eq!(grants[0].waited, t(40));
        assert_eq!(grants[1].host, H2);
        assert_eq!(grants[1].slabs, 1);
        assert_eq!(grants[1].waited, t(30));
        assert_eq!(pm.queued_slabs(), 1);
        assert_eq!(pm.stats().deferred_grants, 2);
        assert_eq!(pm.stats().max_wait_ns, t(40).as_ns());
    }

    #[test]
    fn fair_share_revocation_targets_largest_holder() {
        let mut pm = PoolManager::new(12, 3, 1.0);
        pm.request(H0, 7, t(0));
        pm.request(H1, 5, t(1));
        // Pool is full; H2 wants its fair share back.
        let r = pm.request(H2, 4, t(2));
        assert_eq!(r.outcome, GrantOutcome::Queued { slabs: 4 });
        // Fair share is 4. H0's excess is 3, H1's is 1; H0 drains first.
        assert_eq!(
            r.revocations,
            vec![
                RevocationNotice { host: H0, slabs: 3 },
                RevocationNotice { host: H1, slabs: 1 },
            ]
        );
        // The drained slabs flow to H2 once released.
        let g = pm.release(H0, 3, t(5));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].host, H2);
        assert_eq!(g[0].slabs, 3);
        let g = pm.release(H1, 1, t(6));
        assert_eq!(g[0].slabs, 1);
        assert_eq!(pm.queued_slabs(), 0);
        assert_eq!(pm.granted_slabs(H2), 4);
    }

    #[test]
    fn revocations_are_not_duplicated_while_draining() {
        let mut pm = PoolManager::new(8, 2, 1.0);
        pm.request(H0, 8, t(0));
        let r1 = pm.request(H1, 2, t(1));
        assert_eq!(
            r1.revocations,
            vec![RevocationNotice { host: H0, slabs: 2 }]
        );
        // A second queued request only revokes the *additional* need.
        let r2 = pm.request(H1, 1, t(2));
        assert_eq!(
            r2.revocations,
            vec![RevocationNotice { host: H0, slabs: 1 }]
        );
        assert_eq!(pm.reclaiming_slabs(H0), 3);
    }

    #[test]
    fn revoke_all_clears_everything_and_goes_offline() {
        let mut pm = PoolManager::new(10, 3, 1.0);
        pm.request(H0, 5, t(0));
        pm.request(H1, 5, t(1));
        pm.request(H2, 3, t(2)); // queued
        let notices = pm.revoke_all(t(3));
        assert_eq!(notices.len(), 2);
        assert_eq!(notices[0], RevocationNotice { host: H0, slabs: 5 });
        assert_eq!(notices[1], RevocationNotice { host: H1, slabs: 5 });
        assert!(pm.is_offline());
        assert_eq!(pm.used_slabs(), 0);
        assert_eq!(pm.queued_slabs(), 0);
        assert_eq!(
            pm.request(H0, 1, t(4)).outcome,
            GrantOutcome::Denied,
            "offline pool denies new requests"
        );
        assert!(pm.release(H0, 5, t(5)).is_empty());
    }

    #[test]
    fn cancel_queued_drops_only_that_host() {
        let mut pm = PoolManager::new(4, 3, 1.0);
        pm.request(H0, 4, t(0));
        pm.request(H1, 2, t(1));
        pm.request(H2, 3, t(2));
        assert_eq!(pm.cancel_queued(H1), 2);
        assert_eq!(pm.queued_slabs(), 3);
        let g = pm.release(H0, 4, t(10));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].host, H2);
    }

    #[test]
    fn defrag_runs_when_fragmentation_crosses_threshold() {
        let mut pm = PoolManager::new(16, 4, 0.4);
        pm.request(H0, 4, t(0));
        pm.request(H1, 4, t(1));
        pm.request(H2, 4, t(2));
        // Freeing the middle lease leaves [4,8) + [12,16) free —
        // fragmentation 0.5 crosses the 0.4 threshold, so the release
        // path compacts immediately.
        pm.release(H1, 4, t(3));
        assert_eq!(pm.fragmentation(), 0.0, "release should have compacted");
        // The 6-slab grant therefore lands in one extent.
        let r = pm.request(H0, 6, t(4));
        assert_eq!(r.outcome, GrantOutcome::Granted { slabs: 6 });
        assert_eq!(pm.stats().defrags, 1);
        assert!(pm.stats().defrag_slabs_moved > 0);
        assert!(pm.stats().peak_fragmentation >= 0.5);
    }
}
