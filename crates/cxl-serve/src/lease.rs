//! The leased KV backend: a flash-backed KeyDB store on the paper
//! testbed whose second expander grows and shrinks with a lease on a
//! shared [`PoolManager`]. DRAM and the fixed expander barely cover the
//! dataset, so the leased expander is the relief valve, and losing the
//! fixed expander mid-run makes it the only one. One slab is an eighth
//! of the dataset, rounded down to whole pages, so a grown node's page
//! capacity matches the lease exactly.

use cxl_ctl::CtlError;
use cxl_fault::FaultKind;
use cxl_kv::{KvConfig, KvStore, VALUE_SIZE};
use cxl_pool::{HostId, PoolManager};
use cxl_sim::SimTime;
use cxl_tier::{AllocPolicy, HotPageConfig, MigrationMode, TierConfig};
use cxl_topology::{NodeId, SncMode, Topology};

/// SNC-disabled paper testbed: 0,1 = DRAM sockets; 2,3 = CXL on s0.
const DRAM0: NodeId = NodeId(0);
/// The fixed expander, which [`LeasedKv::fail_fixed_expander`] kills.
const CXL_FIXED: NodeId = NodeId(2);
/// The lease-backed expander.
const CXL_LEASED: NodeId = NodeId(3);

/// A KV store whose leased expander tracks a pool lease.
pub struct LeasedKv {
    /// The store. Resize its leased expander only through [`resize`].
    pub store: KvStore,
    /// Current (possibly degraded) topology.
    topo: Topology,
    slab_bytes: u64,
    /// DRAM plus fixed-expander capacity, bytes.
    base_bytes: u64,
}

impl LeasedKv {
    /// Builds and loads a store of `record_count` 1 KiB records. DRAM
    /// holds `dram.0 / dram.1` of the dataset and the fixed expander
    /// `fixed.0 / fixed.1`; the leased expander starts empty. Hot pages
    /// promote at up to `promote_bytes_per_sec`.
    pub fn new(
        record_count: u64,
        dram: (u64, u64),
        fixed: (u64, u64),
        promote_bytes_per_sec: f64,
        seed: u64,
    ) -> Self {
        let topo = Topology::paper_testbed(SncMode::Disabled);
        let dataset_bytes = record_count * VALUE_SIZE;
        let dram_bytes = dataset_bytes * dram.0 / dram.1;
        let fixed_bytes = dataset_bytes * fixed.0 / fixed.1;
        let mut tc = TierConfig::bind(vec![DRAM0]);
        tc.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL_FIXED, CXL_LEASED], 1, 1);
        tc.capacity_override = vec![
            (DRAM0, dram_bytes),
            (NodeId(1), 0),
            (CXL_FIXED, fixed_bytes),
            (CXL_LEASED, 0),
        ];
        tc.migration = MigrationMode::HotPageSelection(HotPageConfig {
            promote_rate_limit_bytes_per_sec: promote_bytes_per_sec,
            ..Default::default()
        });
        let kv_cfg = KvConfig {
            record_count,
            seed,
            ..Default::default()
        };
        let store = KvStore::new(&topo, tc, kv_cfg, true);
        let page = store.tier().page_size();
        let slab_bytes = ((dataset_bytes / 8) / page).max(1) * page;
        Self {
            store,
            topo,
            slab_bytes,
            base_bytes: dram_bytes + fixed_bytes,
        }
    }

    /// DRAM plus fixed-expander capacity, in slabs.
    pub fn base_slabs(&self) -> f64 {
        self.base_bytes as f64 / self.slab_bytes as f64
    }

    /// Kills the fixed expander: the fault lands on the topology, and
    /// the store fences and drains the node under the rate limiter.
    pub fn fail_fixed_expander(&mut self) {
        FaultKind::ExpanderOffline { node: CXL_FIXED }
            .apply(&mut self.topo)
            .expect("offline fault is valid on the paper testbed");
        self.store
            .fail_expander(&self.topo, CXL_FIXED)
            .expect("evacuation survives with flash on");
    }
}

/// Moves `host`'s lease on `pool` from `*held` to `target` slabs at
/// `now`, resizing `kv`'s leased expander with it, and sets `*held` to
/// `target` on success. Callers without a store (LLM tenants) pass
/// `None` and take only the pool half of the transaction.
///
/// A grow is all or nothing. One the pool cannot grant in full now is
/// rejected before the pool is asked, so it queues nothing and revokes
/// no other host's slabs; a grant the store cannot take is released. A
/// shrink drains the leased expander first and then releases the slabs.
pub fn resize(
    pool: &mut PoolManager,
    host: HostId,
    held: &mut u64,
    target: u64,
    now: SimTime,
    kv: Option<&mut LeasedKv>,
) -> Result<(), CtlError> {
    let cur = *held;
    if target > cur {
        let want = target - cur;
        // A shortfall would queue and revoke slabs from other hosts to
        // fund the queue; cancelling it afterwards leaves those marks.
        if pool.is_offline() || pool.free_slabs() < want {
            return Err(CtlError::Rejected(format!(
                "pool has {}/{want} slabs free",
                pool.free_slabs()
            )));
        }
        let granted = pool.request(host, want, now).outcome.granted_now();
        assert_eq!(granted, want, "an online pool grants what is free");
        if let Some(kv) = kv {
            if let Err(e) = kv.store.grow_expander(CXL_LEASED, target * kv.slab_bytes) {
                pool.release(host, want, now);
                return Err(CtlError::Rejected(e.to_string()));
            }
        }
    } else if target < cur {
        if let Some(kv) = kv {
            kv.store
                .shrink_expander(&kv.topo, CXL_LEASED, target * kv.slab_bytes)
                .map_err(|e| CtlError::Rejected(e.to_string()))?;
        }
        pool.release(host, cur - target, now);
    }
    *held = target;
    Ok(())
}

/// Audits one lease of `held` slabs: the pool grants `host` exactly
/// that, the pool is not oversubscribed, and `kv`'s leased expander
/// (when there is one) has exactly the lease's page capacity and holds
/// no more pages than that.
pub fn audit(
    pool: &PoolManager,
    host: HostId,
    held: u64,
    kv: Option<&LeasedKv>,
) -> Result<(), String> {
    if pool.granted_slabs(host) != held {
        return Err(format!(
            "pool grant {} != held lease {held}",
            pool.granted_slabs(host)
        ));
    }
    if let Some(kv) = kv {
        let tier = kv.store.tier();
        let (used, cap) = tier.node_usage(CXL_LEASED);
        let expect_cap = held * kv.slab_bytes / tier.page_size();
        if cap != expect_cap {
            return Err(format!(
                "leased node capacity {cap} pages != {expect_cap} for {held} slabs"
            ));
        }
        if used > cap {
            return Err(format!("leased node holds {used} pages > capacity {cap}"));
        }
    }
    if pool.used_slabs() > pool.total_slabs() {
        return Err("pool oversubscribed".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 6-slab pool shared by two hosts, host 0 holding 5 slabs.
    fn pool_with_host0_at_5() -> PoolManager {
        let mut pool = PoolManager::new(6, 2, 1.0);
        let mut held = 0;
        resize(&mut pool, HostId(0), &mut held, 5, SimTime::ZERO, None).expect("5 of 6 are free");
        pool
    }

    #[test]
    fn a_grow_the_pool_cannot_meet_leaves_it_as_it_was() {
        let mut pool = pool_with_host0_at_5();
        for attempt in 0..2 {
            let mut held = 0;
            let err = resize(&mut pool, HostId(1), &mut held, 3, SimTime::ZERO, None);
            assert!(
                matches!(err, Err(CtlError::Rejected(_))),
                "attempt {attempt}"
            );
            assert_eq!(held, 0);
            assert_eq!(
                (pool.stats().revocations, pool.stats().revoked_slabs),
                (0, 0)
            );
            assert_eq!(
                (pool.granted_slabs(HostId(0)), pool.granted_slabs(HostId(1))),
                (5, 0)
            );
            assert_eq!((pool.queued_slabs(), pool.free_slabs()), (0, 1));
        }
        // No reclaim mark is left on host 0: asking the pool directly
        // revokes exactly what it revokes in a fresh pool.
        let mut fresh = pool_with_host0_at_5();
        assert_eq!(
            pool.request(HostId(1), 3, SimTime::ZERO).revocations,
            fresh.request(HostId(1), 3, SimTime::ZERO).revocations
        );
        assert_eq!(pool.stats().revocations, 1);
    }

    #[test]
    fn a_grow_on_an_offline_pool_is_rejected() {
        let mut pool = PoolManager::new(6, 2, 1.0);
        pool.revoke_all(SimTime::ZERO);
        let mut held = 0;
        let err = resize(&mut pool, HostId(1), &mut held, 1, SimTime::ZERO, None);
        assert!(matches!(err, Err(CtlError::Rejected(_))));
        assert_eq!(held, 0);
    }
}
