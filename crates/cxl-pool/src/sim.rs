//! Discrete-event simulation of N hosts sharing one switch-attached
//! pool.
//!
//! Every `step`, each host (in host-id order — the source of run-to-run
//! determinism) re-reads its demand trace, resizes its pool lease
//! through the [`PoolManager`], and adjusts its page population through
//! its own `cxl-tier` manager, where the leased window appears as a
//! far NUMA node whose capacity tracks the lease
//! ([`cxl_tier::TierManager::grow_node`] /
//! [`cxl_tier::TierManager::shrink_node`]); this per-host data plane is
//! the one the fleet sim ([`crate::fleet`]) runs too. Revocations drain through the tier layer's rate-limited migration
//! path, and the reclaimed slabs reach queued hosts only when the drain
//! completes — lease waits include real data movement, not just queue
//! position. An optional expander fault tears the whole pool down
//! mid-run and every host degrades onto local DRAM + SSD.
//!
//! The same demand traces are replayed against a *static* deployment
//! (each host owns DRAM sized at its own demand percentile, no pool) to
//! measure the capacity/SLO trade the paper's §7.1 pooling argument
//! rests on.

use cxl_perf::{AccessMix, MemSystem};
use cxl_sim::{Engine, SimTime};
use cxl_topology::{NodeId, SocketId, Topology};
use serde::Serialize;

use crate::demand::{DemandConfig, DemandProcess};
use crate::host::{
    window_node, DemandSummary, EvacuationTally, PooledHost, DEFRAG_THRESHOLD, SLAB_GIB,
    SLO_PERCENTILE,
};
use crate::lease::HostId;
use crate::manager::{Grant, PoolManager, PoolStats};

pub use crate::host::DRAM_NODE;
/// Pool-window node id inside each host's [`Topology::pooled_host`]:
/// the host's only lease window.
pub const POOL_NODE: NodeId = window_node(POOL);

/// The pool window's index among a host's lease windows.
const POOL: usize = 0;

/// Switch round-trip added to pooled accesses, ns.
const SWITCH_HOP_NS: f64 = 70.0;

/// Configuration of one pooling simulation.
///
/// Every host draws its own trace from [`DemandConfig::default`], and
/// every pooled access pays the switch hop `SWITCH_HOP_NS`. The slab and
/// page sizes, the SLO percentile and the compaction threshold are the
/// constants both pooling sims share.
#[derive(Debug, Clone, Serialize)]
pub struct PoolSimConfig {
    /// Hosts sharing the pool.
    pub hosts: usize,
    /// Local DRAM per host, GiB (sized for the base working set).
    pub local_dram_gib: u64,
    /// Shared pool capacity, GiB.
    pub pool_gib: u64,
    /// Simulated duration.
    pub horizon: SimTime,
    /// Control-loop tick.
    pub step: SimTime,
    /// When set, the pool expander dies at this time: mass revocation,
    /// every host evacuates its pooled pages.
    pub fault_at: Option<SimTime>,
    /// Root seed for the per-host demand traces.
    pub seed: u64,
}

impl Default for PoolSimConfig {
    fn default() -> Self {
        Self {
            hosts: 8,
            local_dram_gib: 256,
            pool_gib: 768,
            horizon: SimTime::from_secs(120),
            step: SimTime::from_ms(100),
            fault_at: None,
            seed: 42,
        }
    }
}

impl PoolSimConfig {
    /// A fast variant for unit tests.
    pub fn smoke() -> Self {
        Self {
            hosts: 4,
            pool_gib: 256,
            horizon: SimTime::from_secs(30),
            ..Self::default()
        }
    }
}

/// Simulation state threaded through the event engine.
struct PoolState {
    cfg: PoolSimConfig,
    manager: PoolManager,
    hosts: Vec<PooledHost>,
    host_steps: u64,
    evacuation: EvacuationTally,
    fault_fired: bool,
    /// Most slabs queued at the end of any tick; `None` before the first.
    queued_slabs_peak: Option<u64>,
}

/// Outcome of one pooling simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PoolSimReport {
    /// Hosts simulated.
    pub hosts: usize,
    /// Local DRAM per host, GiB.
    pub local_dram_gib: u64,
    /// Pool capacity, GiB.
    pub pool_gib: u64,
    /// Memory the dynamic deployment installs: `hosts · local + pool`.
    pub dynamic_total_gib: f64,
    /// Memory the static deployment installs: Σ per-host percentile.
    pub static_total_gib: f64,
    /// `1 − dynamic/static` installed capacity.
    pub capacity_saving: f64,
    /// Fraction of host-steps the dynamic deployment had pages on SSD.
    pub dynamic_violation_frac: f64,
    /// Fraction of host-steps demand exceeded the static provision.
    pub static_violation_frac: f64,
    /// Host-steps observed.
    pub host_steps: u64,
    /// Pool manager counters.
    pub stats: PoolStats,
    /// Mean queue wait per deferred grant, ms.
    pub mean_wait_ms: f64,
    /// Longest queue wait, ms.
    pub max_wait_ms: f64,
    /// Peak pool occupancy, GiB.
    pub peak_pool_used_gib: f64,
    /// Pages relocated during the fault evacuation.
    pub evac_pages_moved: u64,
    /// Pages spilled to SSD during the fault evacuation.
    pub evac_pages_to_ssd: u64,
    /// Pages left on the dead pool node after evacuation (must be 0).
    pub stranded_pages: u64,
    /// Whether the configured fault fired.
    pub fault_fired: bool,
    /// Nearest-rank SLO percentile of *aggregate* excess demand
    /// (Σ max(0, ws − local) across hosts, per tick), GiB: the pool a
    /// perfectly liquid deployment would install for the same traces.
    /// `hosts · local + ideal_pool_gib` therefore lower-bounds the
    /// capacity any real pooling control plane needs at this SLO.
    pub ideal_pool_gib: f64,
    /// Mean of the per-host demand-trace means, GiB (for a
    /// like-for-like `cxl_cost::pooling` comparison).
    pub demand_mean_gib: f64,
    /// Mean of the per-host demand-trace standard deviations, GiB.
    pub demand_std_gib: f64,
    /// Idle read latency to the pooled node (includes the switch hop), ns.
    pub pool_idle_read_ns: f64,
    /// Idle read latency a direct-attached expander would give, ns.
    pub direct_idle_read_ns: f64,
}

impl PoolState {
    fn new(cfg: &PoolSimConfig) -> Self {
        assert!(cfg.hosts > 0, "pool sim needs at least one host");
        assert!(cfg.pool_gib >= SLAB_GIB);
        let manager = PoolManager::new(cfg.pool_gib / SLAB_GIB, cfg.hosts, DEFRAG_THRESHOLD);
        let demand = DemandConfig::default();
        let hosts = (0..cfg.hosts)
            .map(|h| {
                PooledHost::new(
                    Topology::pooled_host(cfg.local_dram_gib, cfg.pool_gib, SWITCH_HOP_NS),
                    vec![DRAM_NODE, POOL_NODE],
                    DemandProcess::generate(
                        &demand,
                        cfg.seed,
                        &format!("pool-host{h}"),
                        cfg.horizon,
                    ),
                    cfg.horizon,
                    cfg.step,
                )
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            manager,
            hosts,
            host_steps: 0,
            evacuation: EvacuationTally::default(),
            fault_fired: false,
            queued_slabs_peak: None,
        }
    }

    /// One control-loop pass for host `h`. Returns deferred lease
    /// releases — `(victim, slabs, ready_at)` — for drains whose
    /// reclaimed capacity becomes grantable only once the rate-limited
    /// migration finishes.
    fn host_tick(&mut self, h: usize, now: SimTime) -> Vec<(HostId, u64, SimTime)> {
        let mut deferred = Vec::new();
        let hid = HostId(h);
        let (target_pages, desired_slabs) = self.hosts[h].demand_at(now, self.cfg.local_dram_gib);

        // 1. Grow the lease before allocating, so burst pages land on
        //    the pool window instead of spilling.
        let granted = self.hosts[h].granted[POOL];
        if desired_slabs > granted && !self.manager.is_offline() {
            let resp = self.manager.request(hid, desired_slabs - granted, now);
            let got = resp.outcome.granted_now();
            if got > 0 {
                self.hosts[h].grow_window(POOL, got);
            }
            // Revocation victims drain through the tier migration path.
            for notice in resp.revocations {
                let victim = &mut self.hosts[notice.host.0];
                if let Some((take, ready_at)) = victim.revoke(POOL, notice.slabs, now) {
                    deferred.push((notice.host, take, ready_at));
                }
            }
        }

        // 2. Track the working set, then pull spilled pages back in if
        //    capacity opened up.
        self.hosts[h].track(target_pages, now);
        self.hosts[h].reload_ssd(now);

        // 3. Hand back lease the demand no longer needs.
        let granted = self.hosts[h].granted[POOL];
        if desired_slabs < granted {
            let keep = desired_slabs.max(self.hosts[h].used_slabs(POOL));
            if keep < granted {
                self.hosts[h].shrink_window(POOL, keep, now);
                if !self.manager.is_offline() {
                    let grants = self.manager.release(hid, granted - keep, now);
                    self.apply_grants(&grants, now);
                }
            }
        }
        deferred
    }

    /// Applies deferred grants delivered by the manager.
    fn apply_grants(&mut self, grants: &[Grant], now: SimTime) {
        for g in grants {
            let host = &mut self.hosts[g.host.0];
            host.grow_window(POOL, g.slabs);
            host.reload_ssd(now);
        }
    }

    /// Post-adjustment accounting for one tick.
    fn account(&mut self, now: SimTime) {
        for host in &mut self.hosts {
            self.host_steps += 1;
            host.account_step(now);
        }
        let queued = Some(self.manager.queued_slabs());
        self.queued_slabs_peak = self.queued_slabs_peak.max(queued);
    }

    /// The pool expander dies: mass revocation + per-host evacuation.
    fn fire_fault(&mut self, now: SimTime) {
        let _notices = self.manager.revoke_all(now);
        for host in &mut self.hosts {
            host.evacuate_window(POOL, now, &mut self.evacuation);
        }
        self.fault_fired = true;
    }

    fn into_report(self) -> PoolSimReport {
        let cfg = &self.cfg;
        let dynamic_total_gib = (cfg.hosts as u64 * cfg.local_dram_gib + cfg.pool_gib) as f64;
        let demand = DemandSummary::of(&self.hosts, self.host_steps, cfg.horizon, cfg.step);
        if demand.violation_steps > 0 {
            cxl_obs::counter_add("pool/slo_violation_host_steps", demand.violation_steps);
        }
        if let Some(peak) = self.queued_slabs_peak {
            cxl_obs::counter_max("pool/queued_slabs_peak", peak);
        }
        if self.fault_fired {
            cxl_obs::counter_add("pool/expander_faults", 1);
        }
        // Perfect-liquidity pool: the SLO percentile of per-tick
        // aggregate excess over the very traces the run replayed.
        let traces: Vec<Vec<f64>> = self
            .hosts
            .iter()
            .map(|h| h.demand.sampled(cfg.horizon, cfg.step))
            .collect();
        let local = cfg.local_dram_gib as f64;
        let mut aggregate: Vec<f64> = (0..traces[0].len())
            .map(|i| traces.iter().map(|t| (t[i] - local).max(0.0)).sum())
            .collect();
        aggregate.sort_by(|a, b| a.partial_cmp(b).expect("finite demand"));
        let ideal_pool_gib = cxl_stats::nearest_rank(&aggregate, SLO_PERCENTILE);
        let stats = self.manager.stats().clone();
        // Idle latencies from the pristine host topology: what the
        // switch hop costs every pooled access.
        let pooled = Topology::pooled_host(cfg.local_dram_gib, cfg.pool_gib, SWITCH_HOP_NS);
        let direct = Topology::pooled_host(cfg.local_dram_gib, cfg.pool_gib, 0.0);
        let mix = AccessMix::read_only();
        let pool_idle_read_ns =
            MemSystem::new(&pooled).idle_latency_ns(SocketId(0), POOL_NODE, mix);
        let direct_idle_read_ns =
            MemSystem::new(&direct).idle_latency_ns(SocketId(0), POOL_NODE, mix);
        PoolSimReport {
            hosts: cfg.hosts,
            local_dram_gib: cfg.local_dram_gib,
            pool_gib: cfg.pool_gib,
            dynamic_total_gib,
            static_total_gib: demand.static_total_gib,
            capacity_saving: 1.0 - dynamic_total_gib / demand.static_total_gib,
            dynamic_violation_frac: demand.dynamic_violation_frac,
            static_violation_frac: demand.static_violation_frac,
            host_steps: self.host_steps,
            mean_wait_ms: stats.mean_wait_ns() / 1e6,
            max_wait_ms: stats.max_wait_ns as f64 / 1e6,
            peak_pool_used_gib: (stats.peak_used_slabs * SLAB_GIB) as f64,
            stats,
            evac_pages_moved: self.evacuation.moved,
            evac_pages_to_ssd: self.evacuation.to_ssd,
            stranded_pages: self.evacuation.stranded,
            fault_fired: self.fault_fired,
            ideal_pool_gib,
            demand_mean_gib: demand.mean_gib,
            demand_std_gib: demand.std_gib,
            pool_idle_read_ns,
            direct_idle_read_ns,
        }
    }
}

/// Runs one pooling simulation to completion.
pub fn run(cfg: &PoolSimConfig) -> PoolSimReport {
    let step = cfg.step;
    let horizon = cfg.horizon;
    let mut eng = Engine::new(PoolState::new(cfg));
    if let Some(at) = cfg.fault_at {
        eng.schedule_at(at, move |e| {
            let now = e.now();
            e.state_mut().fire_fault(now);
        });
    }
    eng.schedule_at(SimTime::ZERO, move |e| {
        step_once(e, step, horizon);
    });
    eng.run_until(horizon);
    eng.into_state().into_report()
}

/// One tick: advance every host, schedule deferred lease returns, and
/// re-arm the next tick while inside the horizon.
fn step_once(eng: &mut Engine<PoolState>, step: SimTime, horizon: SimTime) {
    let now = eng.now();
    let deferred = {
        let st = eng.state_mut();
        let mut d = Vec::new();
        for h in 0..st.hosts.len() {
            d.extend(st.host_tick(h, now));
        }
        st.account(now);
        d
    };
    for (host, slabs, ready_at) in deferred {
        eng.schedule_at(ready_at.max(now), move |e| {
            let t = e.now();
            let st = e.state_mut();
            if st.manager.is_offline() {
                return;
            }
            let grants = st.manager.release(host, slabs, t);
            st.apply_grants(&grants, t);
        });
    }
    let next = now + step;
    if next < horizon {
        eng.schedule_at(next, move |e| step_once(e, step, horizon));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic() {
        let cfg = PoolSimConfig::smoke();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b, "identical configs must give identical reports");
        assert_eq!(a.host_steps, 4 * 300);
    }

    #[test]
    fn bursty_demand_exercises_the_pool() {
        let r = run(&PoolSimConfig::smoke());
        assert!(r.stats.grants + r.stats.partial_grants > 0, "{r:?}");
        assert!(r.peak_pool_used_gib > 0.0);
        assert!((0.0..=1.0).contains(&r.dynamic_violation_frac));
        assert!(r.demand_std_gib > 0.0);
        // The switch hop is visible end-to-end in the perf model.
        assert!(
            (r.pool_idle_read_ns - r.direct_idle_read_ns - SWITCH_HOP_NS).abs() < 1e-9,
            "pool {} vs direct {}",
            r.pool_idle_read_ns,
            r.direct_idle_read_ns
        );
    }

    #[test]
    fn dynamic_pooling_beats_static_provisioning() {
        let r = run(&PoolSimConfig::default());
        assert!(
            r.dynamic_total_gib < r.static_total_gib,
            "pooling must install less memory: {} vs {}",
            r.dynamic_total_gib,
            r.static_total_gib
        );
        assert!(r.capacity_saving > 0.0);
        assert!(
            r.dynamic_violation_frac <= r.static_violation_frac + 0.01,
            "pooling must hold the SLO: dyn {} vs static {}",
            r.dynamic_violation_frac,
            r.static_violation_frac
        );
    }

    #[test]
    fn expander_fault_revokes_everything_without_stranding_pages() {
        let cfg = PoolSimConfig {
            fault_at: Some(SimTime::from_secs(15)),
            ..PoolSimConfig::smoke()
        };
        let r = run(&cfg);
        assert!(r.fault_fired);
        assert_eq!(r.stranded_pages, 0, "no page may stay on the dead node");
        assert!(r.stats.mass_revocations == 1);
        assert!(
            r.evac_pages_moved + r.evac_pages_to_ssd > 0,
            "the fault should have caught resident pooled pages"
        );
    }

    #[test]
    fn lease_waits_are_recorded_when_the_pool_is_tight() {
        // A deliberately undersized pool forces queuing + revocation.
        let cfg = PoolSimConfig {
            pool_gib: 64,
            ..PoolSimConfig::smoke()
        };
        let r = run(&cfg);
        assert!(r.stats.queued_requests > 0, "{r:?}");
        assert!(r.stats.revocations > 0);
        assert!(r.stats.deferred_grants > 0);
        assert!(r.max_wait_ms >= r.mean_wait_ms);
    }
}
