//! Fleet-scale pooling across a multi-rack CXL fabric (ROADMAP item 2).
//!
//! [`sim`](crate::sim) studies eight hosts behind one switch. This
//! module scales the same control plane to racks of 32–64 hosts on a
//! rack/spine [`cxl_topology::Fabric`]: every rack owns a
//! pooled expander behind its top-of-rack switch, every host can lease
//! from any rack, and the *price* of a lease is the fabric path — an
//! intra-rack window costs one ToR hop, a cross-rack window costs
//! ToR + cable + spine + cable + ToR, and both land in each host's
//! `cxl-perf` solve through [`Topology::fleet_host`].
//!
//! Three control layers cooperate:
//!
//! - A **cluster scheduler** ([`FleetPlan::compute`]) places a
//!   heterogeneous workload mix ([`WorkloadClass`]: KV caches, Spark
//!   batch, LLM serving) onto hosts, greedily balancing expected peak
//!   demand across racks.
//! - A **per-rack lend controller** (one [`cxl_stats::Ewma`] per rack)
//!   watches local demand and caps how many slabs the rack's
//!   [`PoolManager`] may lend to foreign racks, reserving headroom for
//!   its own hosts.
//! - A **global capacity budget** caps total outstanding leased slabs
//!   fleet-wide, modelling the operator's committed-capacity limit; no
//!   request may push the fleet past it.
//!
//! Hosts lease local-rack capacity first and overflow to remote racks
//! in rack-id order, paying the longer path. Unmet demand spills to
//! SSD and retries next tick — the fleet plane never queues inside a
//! foreign rack. World construction is split into a cheap serial
//! placement ([`FleetPlan`]) plus pure per-host builds
//! ([`build_host`]) so a caller can shard the heavy work across
//! workers and still get a bit-identical world.

use cxl_perf::{AccessMix, MemSystem};
use cxl_sim::{Engine, SimTime};
use cxl_stats::rng::stream_rng;
use cxl_stats::Ewma;
use cxl_topology::{Fabric, SocketId, Topology};
use rand::Rng;
use serde::Serialize;

use crate::demand::{DemandConfig, DemandProcess};
use crate::host::{
    DemandSummary, EvacuationTally, PooledHost, DEFRAG_THRESHOLD, DRAM_NODE, SLAB_GIB,
};
use crate::lease::HostId;
use crate::manager::{PoolManager, PoolStats};

pub use crate::host::window_node;

/// The heterogeneous workloads the cluster scheduler places.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WorkloadClass {
    /// KV-cache serving: modest working set, frequent shallow bursts.
    Kv,
    /// Spark-style batch: low base, rare but deep shuffle bursts.
    Spark,
    /// LLM inference: large steady working set, small bursts.
    Llm,
}

impl WorkloadClass {
    /// Every class, in scheduler draw order.
    pub const ALL: [WorkloadClass; 3] = [Self::Kv, Self::Spark, Self::Llm];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Kv => "kv",
            Self::Spark => "spark",
            Self::Llm => "llm",
        }
    }

    /// The demand process this class drives its host with.
    pub fn demand(self) -> DemandConfig {
        match self {
            // 256 GiB sold, half active at base, shallow frequent
            // bursts: mostly fits local DRAM, occasional overflow.
            Self::Kv => DemandConfig {
                vcpus: 128,
                gib_per_vcpu: 2.0,
                base_util: 0.5,
                burst_extra_min: 0.25,
                burst_extra_max: 0.4,
                mean_burst_s: 2.0,
                mean_gap_s: 10.0,
            },
            // 512 GiB sold, low base, deep long shuffle bursts — the
            // statistical-multiplexing case pooling exists for.
            Self::Spark => DemandConfig {
                vcpus: 128,
                gib_per_vcpu: 4.0,
                base_util: 0.3,
                burst_extra_min: 0.4,
                burst_extra_max: 0.7,
                mean_burst_s: 6.0,
                mean_gap_s: 30.0,
            },
            // 512 GiB sold, steadily hot: a constant overflow that
            // keeps its rack's pool loaded between everyone's bursts.
            Self::Llm => DemandConfig {
                vcpus: 64,
                gib_per_vcpu: 8.0,
                base_util: 0.7,
                burst_extra_min: 0.05,
                burst_extra_max: 0.2,
                mean_burst_s: 4.0,
                mean_gap_s: 45.0,
            },
        }
    }

    /// Peak working set (all bursts at max amplitude), GiB — the
    /// scheduler's balancing weight.
    pub fn peak_gib(self) -> f64 {
        let d = self.demand();
        let util = (d.base_util + d.burst_extra_max).clamp(0.0, 1.0);
        d.vcpus as f64 * util * d.gib_per_vcpu
    }
}

/// Local DRAM per fleet host, GiB.
const LOCAL_DRAM_GIB: u64 = 192;

/// Scheduler mix weights for `[KV, Spark, LLM]`, normalized when drawn.
const MIX: [f64; 3] = [0.5, 0.3, 0.2];

/// Lend-controller headroom: each rack reserves
/// `ceil(LEND_RESERVE · EWMA(local excess demand))` slabs for its own
/// hosts before lending.
const LEND_RESERVE: f64 = 1.25;

/// Ticks between lend-cap recomputations.
const CONTROL_PERIOD_STEPS: u64 = 4;

const _: () = assert!(
    MIX[0] >= 0.0 && MIX[1] >= 0.0 && MIX[2] >= 0.0 && MIX[0] + MIX[1] + MIX[2] > 0.0,
    "mix weights must be non-negative and not all zero"
);
const _: () = assert!(LEND_RESERVE.is_finite() && LEND_RESERVE >= 0.0);
const _: () = assert!(CONTROL_PERIOD_STEPS > 0);

/// Configuration of one fleet simulation.
///
/// What every fleet run shares is a constant of this module: each
/// host's local DRAM (`LOCAL_DRAM_GIB`), the fabric's ToR, spine and
/// cable latencies, the scheduler's class weights (`MIX`), and the lend
/// controllers' reserve and retune period. The slab and page sizes, the
/// SLO percentile and the compaction threshold are the constants both
/// pooling sims share.
#[derive(Debug, Clone, Serialize)]
pub struct FleetConfig {
    /// Racks in the fleet, each with a ToR switch and one pooled
    /// expander.
    pub racks: usize,
    /// Hosts per rack.
    pub hosts_per_rack: usize,
    /// Pooled capacity per rack, GiB.
    pub rack_pool_gib: u64,
    /// Global cap on outstanding leased capacity fleet-wide, GiB.
    pub global_budget_gib: u64,
    /// Simulated duration.
    pub horizon: SimTime,
    /// Control-loop tick.
    pub step: SimTime,
    /// When set, `(rack, at)`: that rack's expander dies at `at` —
    /// mass revocation, fleet-wide evacuation of its windows.
    pub fault_at: Option<(usize, SimTime)>,
    /// Root seed for placement and demand traces.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            racks: 2,
            hosts_per_rack: 32,
            rack_pool_gib: 1792,
            global_budget_gib: 3584,
            horizon: SimTime::from_secs(60),
            step: SimTime::from_ms(250),
            fault_at: None,
            seed: 42,
        }
    }
}

impl FleetConfig {
    /// A fast variant for unit tests: 2 racks × 4 hosts, 20 s.
    pub fn smoke() -> Self {
        Self {
            hosts_per_rack: 4,
            rack_pool_gib: 448,
            global_budget_gib: 896,
            horizon: SimTime::from_secs(20),
            ..Self::default()
        }
    }

    /// Total hosts in the fleet.
    pub fn hosts(&self) -> usize {
        self.racks * self.hosts_per_rack
    }

    /// The fleet's fabric.
    pub fn fabric(&self) -> Fabric {
        Fabric::rack_spine(self.racks, self.hosts_per_rack)
    }

    fn budget_slabs(&self) -> u64 {
        self.global_budget_gib / SLAB_GIB
    }

    fn validate(&self) {
        assert!(self.racks > 0 && self.hosts_per_rack > 0, "empty fleet");
        assert!(self.rack_pool_gib >= SLAB_GIB);
        if let Some((rack, _)) = self.fault_at {
            assert!(rack < self.racks, "fault rack out of range");
        }
    }
}

/// One host's placement: which rack slot it occupies and what runs on
/// it. The shardable unit of world construction — [`build_host`] is a
/// pure function of `(config, spec)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HostSpec {
    /// Global host index (`rack · hosts_per_rack + slot`).
    pub global: usize,
    /// Rack the host sits in.
    pub rack: usize,
    /// Slot within the rack.
    pub slot: usize,
    /// Workload the scheduler placed here.
    pub class: WorkloadClass,
}

/// The cluster scheduler's placement of the workload mix onto hosts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FleetPlan {
    /// One spec per host, in global host order.
    pub specs: Vec<HostSpec>,
}

impl FleetPlan {
    /// Draws `hosts()` workloads from the mix and places them.
    ///
    /// Placement is greedy balance: workloads sorted by peak demand
    /// (descending, stable) go one at a time to the rack with the
    /// least committed peak demand (ties to the lowest rack id). All
    /// randomness comes from `stream_rng(seed, "fleet/placement")`, so
    /// the plan is bit-identical for any worker count.
    pub fn compute(cfg: &FleetConfig) -> Self {
        cfg.validate();
        let mut rng = stream_rng(cfg.seed, "fleet/placement");
        let total: f64 = MIX.iter().sum();
        let mut drawn: Vec<WorkloadClass> = (0..cfg.hosts())
            .map(|_| {
                let u = rng.gen::<f64>() * total;
                let mut acc = 0.0;
                for (i, w) in MIX.iter().enumerate() {
                    acc += w;
                    if u < acc {
                        return WorkloadClass::ALL[i];
                    }
                }
                WorkloadClass::ALL[2]
            })
            .collect();
        // Stable sort keeps the draw order among equal peaks, so the
        // placement is fully determined by (seed, mix).
        drawn.sort_by(|a, b| {
            b.peak_gib()
                .partial_cmp(&a.peak_gib())
                .expect("finite peaks")
        });
        let mut committed = vec![0.0f64; cfg.racks];
        let mut racks: Vec<Vec<WorkloadClass>> = vec![Vec::new(); cfg.racks];
        for class in drawn {
            let rack = (0..cfg.racks)
                .filter(|&r| racks[r].len() < cfg.hosts_per_rack)
                .min_by(|&a, &b| {
                    committed[a]
                        .partial_cmp(&committed[b])
                        .expect("finite loads")
                })
                .expect("slots cover all drawn workloads");
            committed[rack] += class.peak_gib();
            racks[rack].push(class);
        }
        let specs = (0..cfg.racks)
            .flat_map(|rack| {
                let row = racks[rack].clone();
                row.into_iter()
                    .enumerate()
                    .map(move |(slot, class)| HostSpec {
                        global: 0, // fixed up below
                        rack,
                        slot,
                        class,
                    })
            })
            .enumerate()
            .map(|(global, spec)| HostSpec { global, ..spec })
            .collect();
        Self { specs }
    }

    /// Hosts of each class per rack, as `[kv, spark, llm]` rows.
    pub fn class_counts(&self, racks: usize) -> Vec<[usize; 3]> {
        let mut counts = vec![[0usize; 3]; racks];
        for s in &self.specs {
            let i = WorkloadClass::ALL
                .iter()
                .position(|c| *c == s.class)
                .expect("class is in ALL");
            counts[s.rack][i] += 1;
        }
        counts
    }
}

/// One fully built fleet host: its topology (window latencies from the
/// fabric), tier manager, demand trace, and static baseline. Built by
/// [`build_host`]; opaque because [`run_planned`] owns the contract.
#[derive(Debug)]
pub struct FleetHost {
    spec: HostSpec,
    host: PooledHost,
}

/// Builds one host of the fleet world. Pure in `(cfg, spec)`: callers
/// may build hosts in any order, on any worker, and assemble a
/// bit-identical world — demand randomness streams from
/// `(seed, "fleet/rack{r}/host{s}")`, never from build order.
pub fn build_host(cfg: &FleetConfig, spec: &HostSpec) -> FleetHost {
    let fabric = cfg.fabric();
    let host_port = format!("rack{}/host{}", spec.rack, spec.slot);
    let windows: Vec<(String, u64, f64)> = (0..cfg.racks)
        .map(|r| {
            let device = format!("rack{r}/pool");
            let path_ns = fabric
                .path_latency_ns(&host_port, &device)
                .expect("rack/spine fabric is connected");
            (device, cfg.rack_pool_gib, path_ns)
        })
        .collect();
    // Allocation preference: DRAM, then the local window, then remote
    // windows by rack id — cheapest path first.
    let mut bind = vec![DRAM_NODE, window_node(spec.rack)];
    bind.extend((0..cfg.racks).filter(|r| *r != spec.rack).map(window_node));
    let demand = DemandProcess::generate(
        &spec.class.demand(),
        cfg.seed,
        &format!("fleet/rack{}/host{}", spec.rack, spec.slot),
        cfg.horizon,
    );
    FleetHost {
        spec: *spec,
        host: PooledHost::new(
            Topology::fleet_host(LOCAL_DRAM_GIB, &windows),
            bind,
            demand,
            cfg.horizon,
            cfg.step,
        ),
    }
}

/// Per-rack control-plane state: the rack's pool manager plus its
/// lend controller.
struct RackState {
    manager: PoolManager,
    /// Slabs currently granted to hosts outside this rack.
    lent_slabs: u64,
    /// Controller output: max slabs this rack may have lent at once.
    lend_cap: u64,
    /// EWMA of the rack's own excess demand, slabs per tick.
    local_demand: Ewma,
    /// This tick's accumulated local excess demand, slabs.
    tick_local_demand: u64,
}

/// Simulation state threaded through the event engine.
struct FleetState {
    cfg: FleetConfig,
    racks: Vec<RackState>,
    /// Each host's rack, in global host order.
    host_racks: Vec<usize>,
    /// Window `r` of each host is its lease on rack `r`.
    hosts: Vec<PooledHost>,
    host_steps: u64,
    intra_slab_steps: u64,
    cross_slab_steps: u64,
    unmet_slab_steps: u64,
    cross_grants: u64,
    peak_outstanding_slabs: u64,
    min_lend_cap: u64,
    evacuation: EvacuationTally,
    fault_fired: bool,
    ticks: u64,
}

/// Outcome of one fleet simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Racks simulated.
    pub racks: usize,
    /// Hosts per rack.
    pub hosts_per_rack: usize,
    /// Local DRAM per host, GiB.
    pub local_dram_gib: u64,
    /// Pooled capacity per rack, GiB.
    pub rack_pool_gib: u64,
    /// Hosts of each class per rack, `[kv, spark, llm]` rows.
    pub placement: Vec<[usize; 3]>,
    /// Memory the dynamic fleet installs: `hosts·local + racks·pool`.
    pub dynamic_total_gib: f64,
    /// Memory static per-host provisioning installs: Σ percentiles.
    pub static_total_gib: f64,
    /// `1 − dynamic/static` installed capacity.
    pub capacity_saving: f64,
    /// Fraction of host-steps with pages spilled to SSD.
    pub dynamic_violation_frac: f64,
    /// Fraction of host-steps demand exceeded the static provision.
    pub static_violation_frac: f64,
    /// Host-steps observed.
    pub host_steps: u64,
    /// Slab-steps held on hosts' own racks.
    pub intra_slab_steps: u64,
    /// Slab-steps held across the spine — every one of these pays the
    /// longer fabric path.
    pub cross_slab_steps: u64,
    /// `cross / (intra + cross)` slab-steps.
    pub cross_share: f64,
    /// Cross-rack grant events.
    pub cross_grants: u64,
    /// Slab-steps of demand no rack could serve (spilled to SSD).
    pub unmet_slab_steps: u64,
    /// Peak outstanding leased slabs fleet-wide.
    pub peak_outstanding_slabs: u64,
    /// The global budget, slabs. `peak_outstanding_slabs` never
    /// exceeds it.
    pub budget_slabs: u64,
    /// Lowest lend cap any rack controller published, slabs.
    pub min_lend_cap: u64,
    /// Final lend cap per rack, slabs.
    pub final_lend_caps: Vec<u64>,
    /// Per-rack pool manager counters.
    pub rack_stats: Vec<PoolStats>,
    /// Solved idle read latency to the local rack's window, ns.
    pub intra_idle_read_ns: f64,
    /// Solved idle read latency to a remote rack's window, ns.
    /// Strictly greater than `intra_idle_read_ns` whenever the fleet
    /// has a spine to cross.
    pub cross_idle_read_ns: f64,
    /// Switch hops on the intra-rack path.
    pub intra_hops: usize,
    /// Switch hops on the cross-rack path.
    pub cross_hops: usize,
    /// Pages relocated during the fault evacuation.
    pub evac_pages_moved: u64,
    /// Pages spilled to SSD during the fault evacuation.
    pub evac_pages_to_ssd: u64,
    /// Pages left on the dead windows after evacuation (must be 0).
    pub stranded_pages: u64,
    /// Whether the configured rack fault fired.
    pub fault_fired: bool,
    /// Mean of per-host demand-trace means, GiB.
    pub demand_mean_gib: f64,
    /// Mean of per-host demand-trace standard deviations, GiB.
    pub demand_std_gib: f64,
}

impl FleetState {
    fn new(cfg: &FleetConfig, hosts: Vec<FleetHost>) -> Self {
        cfg.validate();
        assert_eq!(hosts.len(), cfg.hosts(), "world must cover every host");
        for (i, h) in hosts.iter().enumerate() {
            assert_eq!(h.spec.global, i, "hosts must arrive in global order");
        }
        let rack_slabs = cfg.rack_pool_gib / SLAB_GIB;
        let racks = (0..cfg.racks)
            .map(|_| RackState {
                manager: PoolManager::new(rack_slabs, cfg.hosts(), DEFRAG_THRESHOLD),
                lent_slabs: 0,
                // Fully open until the controller's first sample; the
                // EWMA tightens it from the second tick on.
                lend_cap: rack_slabs,
                local_demand: Ewma::new(0.3),
                tick_local_demand: 0,
            })
            .collect();
        let (host_racks, hosts) = hosts.into_iter().map(|h| (h.spec.rack, h.host)).unzip();
        Self {
            cfg: cfg.clone(),
            racks,
            host_racks,
            hosts,
            host_steps: 0,
            intra_slab_steps: 0,
            cross_slab_steps: 0,
            unmet_slab_steps: 0,
            cross_grants: 0,
            peak_outstanding_slabs: 0,
            min_lend_cap: rack_slabs,
            evacuation: EvacuationTally::default(),
            fault_fired: false,
            ticks: 0,
        }
    }

    /// Outstanding leased slabs fleet-wide (the budget's view).
    fn outstanding_slabs(&self) -> u64 {
        self.racks.iter().map(|r| r.manager.used_slabs()).sum()
    }

    /// Lease-source preference for a host in `rack`: own rack first,
    /// then remote racks ascending.
    fn pref_order(&self, rack: usize) -> Vec<usize> {
        let mut order = vec![rack];
        order.extend((0..self.cfg.racks).filter(|r| *r != rack));
        order
    }

    /// One control-loop pass for host `h`. Returns deferred lease
    /// returns `(rack, victim, slabs, ready_at)` for revocation drains.
    fn host_tick(&mut self, h: usize, now: SimTime) -> Vec<(usize, HostId, u64, SimTime)> {
        let mut deferred = Vec::new();
        let hid = HostId(h);
        let my_rack = self.host_racks[h];
        let (target_pages, desired_slabs) = self.hosts[h].demand_at(now, LOCAL_DRAM_GIB);
        self.racks[my_rack].tick_local_demand += desired_slabs;

        // 1. Grow the lease: local rack first (full manager semantics,
        //    including fair-share revocation), then remote racks under
        //    their lend caps — always inside the global budget. The
        //    fleet plane never queues: shortfalls retry next tick.
        let granted_total: u64 = self.hosts[h].granted.iter().sum();
        let mut want = desired_slabs.saturating_sub(granted_total);
        for r in self.pref_order(my_rack) {
            if want == 0 {
                break;
            }
            if self.racks[r].manager.is_offline() {
                continue;
            }
            let budget_left = self
                .cfg
                .budget_slabs()
                .saturating_sub(self.outstanding_slabs());
            let ask = if r == my_rack {
                want.min(budget_left)
            } else {
                let headroom = self.racks[r]
                    .lend_cap
                    .saturating_sub(self.racks[r].lent_slabs);
                want.min(budget_left)
                    .min(headroom)
                    .min(self.racks[r].manager.free_slabs())
            };
            if ask == 0 {
                continue;
            }
            let resp = self.racks[r].manager.request(hid, ask, now);
            self.racks[r].manager.cancel_queued(hid);
            let got = resp.outcome.granted_now();
            if got > 0 {
                if r != my_rack {
                    self.racks[r].lent_slabs += got;
                    self.cross_grants += 1;
                }
                self.hosts[h].grow_window(r, got);
                want -= got;
            }
            // Revocation victims drain through the tier migration path.
            for notice in resp.revocations {
                let v = notice.host.0;
                let Some((take, ready_at)) = self.hosts[v].revoke(r, notice.slabs, now) else {
                    continue;
                };
                if self.host_racks[v] != r {
                    self.racks[r].lent_slabs = self.racks[r].lent_slabs.saturating_sub(take);
                }
                deferred.push((r, notice.host, take, ready_at));
            }
        }
        self.unmet_slab_steps += want;

        // 2. Track the working set, then pull spilled pages back in if
        //    capacity opened up.
        self.hosts[h].track(target_pages, now);
        self.hosts[h].reload_ssd(now);

        // 3. Hand back excess lease, most expensive windows first.
        let granted_total: u64 = self.hosts[h].granted.iter().sum();
        let mut excess = granted_total.saturating_sub(desired_slabs);
        for r in self.pref_order(my_rack).into_iter().rev() {
            if excess == 0 {
                break;
            }
            let g = self.hosts[h].granted[r];
            if g == 0 {
                continue;
            }
            let min_keep = self.hosts[h].used_slabs(r).min(g);
            let back = (g - min_keep).min(excess);
            if back == 0 {
                continue;
            }
            self.hosts[h].shrink_window(r, g - back, now);
            if r != my_rack {
                self.racks[r].lent_slabs = self.racks[r].lent_slabs.saturating_sub(back);
            }
            if !self.racks[r].manager.is_offline() {
                let grants = self.racks[r].manager.release(hid, back, now);
                debug_assert!(grants.is_empty(), "fleet plane keeps no queue");
            }
            excess -= back;
        }
        deferred
    }

    /// Post-adjustment accounting + the rack lend controllers.
    fn account(&mut self, now: SimTime) {
        self.ticks += 1;
        for (host, &my_rack) in self.hosts.iter_mut().zip(&self.host_racks) {
            self.host_steps += 1;
            host.account_step(now);
            for (r, &g) in host.granted.iter().enumerate() {
                if r == my_rack {
                    self.intra_slab_steps += g;
                } else {
                    self.cross_slab_steps += g;
                }
            }
        }
        self.peak_outstanding_slabs = self.peak_outstanding_slabs.max(self.outstanding_slabs());
        // Lend controllers: sample local demand every tick, retune the
        // cap every control period.
        let retune = self.ticks.is_multiple_of(CONTROL_PERIOD_STEPS);
        for rack in &mut self.racks {
            rack.local_demand.push(rack.tick_local_demand as f64);
            rack.tick_local_demand = 0;
            if retune && !rack.manager.is_offline() {
                let reserve = rack
                    .local_demand
                    .value()
                    .map(|d| (d * LEND_RESERVE).ceil() as u64)
                    .unwrap_or(0);
                rack.lend_cap = rack.manager.total_slabs().saturating_sub(reserve);
                self.min_lend_cap = self.min_lend_cap.min(rack.lend_cap);
            }
        }
    }

    /// Rack `rack`'s expander dies: mass revocation, fleet-wide
    /// evacuation of every host's window onto that rack.
    fn fire_fault(&mut self, rack: usize, now: SimTime) {
        let _notices = self.racks[rack].manager.revoke_all(now);
        for host in &mut self.hosts {
            host.evacuate_window(rack, now, &mut self.evacuation);
        }
        self.racks[rack].lent_slabs = 0;
        self.fault_fired = true;
    }

    fn into_report(self, plan: &FleetPlan) -> FleetReport {
        let cfg = &self.cfg;
        let dynamic_total_gib =
            (cfg.hosts() as u64 * LOCAL_DRAM_GIB + cfg.racks as u64 * cfg.rack_pool_gib) as f64;
        let demand = DemandSummary::of(&self.hosts, self.host_steps, cfg.horizon, cfg.step);
        if demand.violation_steps > 0 {
            cxl_obs::counter_add("fleet/slo_violation_host_steps", demand.violation_steps);
        }
        if self.cross_grants > 0 {
            cxl_obs::counter_add("fleet/cross_rack_grants", self.cross_grants);
        }
        if self.fault_fired {
            cxl_obs::counter_add("fleet/rack_faults", 1);
        }
        // Idle latencies from a pristine rack-0 host: the fabric's
        // intra- vs cross-rack price as the perf model solves it.
        let probe = build_host(
            cfg,
            &HostSpec {
                global: 0,
                rack: 0,
                slot: 0,
                class: WorkloadClass::Kv,
            },
        );
        let mix = AccessMix::read_only();
        let sys = MemSystem::new(&probe.host.topo);
        let intra_idle_read_ns = sys.idle_latency_ns(SocketId(0), window_node(0), mix);
        let cross_rack = if cfg.racks > 1 { 1 } else { 0 };
        let cross_idle_read_ns = sys.idle_latency_ns(SocketId(0), window_node(cross_rack), mix);
        let fabric = cfg.fabric();
        let intra_hops = fabric
            .path("rack0/host0", "rack0/pool")
            .expect("connected")
            .hops();
        let cross_hops = fabric
            .path("rack0/host0", &format!("rack{cross_rack}/pool"))
            .expect("connected")
            .hops();
        let lease_steps = self.intra_slab_steps + self.cross_slab_steps;
        FleetReport {
            racks: cfg.racks,
            hosts_per_rack: cfg.hosts_per_rack,
            local_dram_gib: LOCAL_DRAM_GIB,
            rack_pool_gib: cfg.rack_pool_gib,
            placement: plan.class_counts(cfg.racks),
            dynamic_total_gib,
            static_total_gib: demand.static_total_gib,
            capacity_saving: 1.0 - dynamic_total_gib / demand.static_total_gib,
            dynamic_violation_frac: demand.dynamic_violation_frac,
            static_violation_frac: demand.static_violation_frac,
            host_steps: self.host_steps,
            intra_slab_steps: self.intra_slab_steps,
            cross_slab_steps: self.cross_slab_steps,
            cross_share: if lease_steps == 0 {
                0.0
            } else {
                self.cross_slab_steps as f64 / lease_steps as f64
            },
            cross_grants: self.cross_grants,
            unmet_slab_steps: self.unmet_slab_steps,
            peak_outstanding_slabs: self.peak_outstanding_slabs,
            budget_slabs: cfg.budget_slabs(),
            min_lend_cap: self.min_lend_cap,
            final_lend_caps: self.racks.iter().map(|r| r.lend_cap).collect(),
            rack_stats: self
                .racks
                .iter()
                .map(|r| r.manager.stats().clone())
                .collect(),
            intra_idle_read_ns,
            cross_idle_read_ns,
            intra_hops,
            cross_hops,
            evac_pages_moved: self.evacuation.moved,
            evac_pages_to_ssd: self.evacuation.to_ssd,
            stranded_pages: self.evacuation.stranded,
            fault_fired: self.fault_fired,
            demand_mean_gib: demand.mean_gib,
            demand_std_gib: demand.std_gib,
        }
    }
}

/// Runs a fleet simulation on a pre-built world. `hosts` must be the
/// [`build_host`] results for `FleetPlan::compute(cfg)`, in global
/// order — the split exists so callers can shard the builds.
pub fn run_planned(cfg: &FleetConfig, plan: &FleetPlan, hosts: Vec<FleetHost>) -> FleetReport {
    let step = cfg.step;
    let horizon = cfg.horizon;
    let mut eng = Engine::new(FleetState::new(cfg, hosts));
    if let Some((rack, at)) = cfg.fault_at {
        eng.schedule_at(at, move |e| {
            let now = e.now();
            e.state_mut().fire_fault(rack, now);
        });
    }
    eng.schedule_at(SimTime::ZERO, move |e| {
        step_once(e, step, horizon);
    });
    eng.run_until(horizon);
    eng.into_state().into_report(plan)
}

/// Plans, builds (serially), and runs one fleet simulation.
pub fn run(cfg: &FleetConfig) -> FleetReport {
    let plan = FleetPlan::compute(cfg);
    let hosts = plan.specs.iter().map(|s| build_host(cfg, s)).collect();
    run_planned(cfg, &plan, hosts)
}

/// One tick: advance every host in global order, schedule deferred
/// lease returns, re-arm while inside the horizon.
fn step_once(eng: &mut Engine<FleetState>, step: SimTime, horizon: SimTime) {
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
    for (rack, host, slabs, ready_at) in deferred {
        eng.schedule_at(ready_at.max(now), move |e| {
            let t = e.now();
            let st = e.state_mut();
            if st.racks[rack].manager.is_offline() {
                return;
            }
            let grants = st.racks[rack].manager.release(host, slabs, t);
            debug_assert!(grants.is_empty(), "fleet plane keeps no queue");
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
    use cxl_topology::{CABLE_NS, SPINE_HOP_NS, TOR_HOP_NS};

    #[test]
    fn smoke_run_is_deterministic() {
        let cfg = FleetConfig::smoke();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b, "identical configs must give identical reports");
        assert_eq!(a.host_steps, 8 * 80);
    }

    #[test]
    fn sharded_world_build_matches_serial() {
        // run_planned with hosts built in reverse order (then restored)
        // must equal the serial run: build_host is order-independent.
        let cfg = FleetConfig::smoke();
        let serial = run(&cfg);
        let plan = FleetPlan::compute(&cfg);
        let mut hosts: Vec<FleetHost> = plan
            .specs
            .iter()
            .rev()
            .map(|s| build_host(&cfg, s))
            .collect();
        hosts.reverse();
        let sharded = run_planned(&cfg, &plan, hosts);
        assert_eq!(serial, sharded);
    }

    #[test]
    fn scheduler_balances_expected_peak_across_racks() {
        let cfg = FleetConfig::default();
        let plan = FleetPlan::compute(&cfg);
        assert_eq!(plan.specs.len(), cfg.hosts());
        // Every slot filled exactly once, in global order.
        for (i, s) in plan.specs.iter().enumerate() {
            assert_eq!(s.global, i);
            assert_eq!(s.global, s.rack * cfg.hosts_per_rack + s.slot);
        }
        // Greedy balance: committed peak demand differs between racks
        // by at most the largest single workload.
        let peak_per_rack: Vec<f64> = (0..cfg.racks)
            .map(|r| {
                plan.specs
                    .iter()
                    .filter(|s| s.rack == r)
                    .map(|s| s.class.peak_gib())
                    .sum()
            })
            .collect();
        let max_peak = WorkloadClass::ALL
            .iter()
            .map(|c| c.peak_gib())
            .fold(0.0, f64::max);
        let spread = peak_per_rack.iter().fold(f64::MIN, |a, &b| a.max(b))
            - peak_per_rack.iter().fold(f64::MAX, |a, &b| a.min(b));
        assert!(
            spread <= max_peak + 1e-9,
            "rack peaks {peak_per_rack:?} spread {spread} > {max_peak}"
        );
        // The mix actually is heterogeneous at the default weights.
        let counts = plan.class_counts(cfg.racks);
        for i in 0..3 {
            assert!(
                counts.iter().map(|row| row[i]).sum::<usize>() > 0,
                "class {i} missing from the default mix: {counts:?}"
            );
        }
    }

    #[test]
    fn cross_rack_leases_pay_the_longer_path() {
        let r = run(&FleetConfig::smoke());
        // Fabric hops: one ToR intra, ToR+spine+ToR cross.
        assert_eq!(r.intra_hops, 1);
        assert_eq!(r.cross_hops, 3);
        // The solved idle latency prices the exact extra path:
        // spine hop + two cables + one extra ToR hop.
        let extra = TOR_HOP_NS + SPINE_HOP_NS + 2.0 * CABLE_NS;
        assert!(
            (r.cross_idle_read_ns - r.intra_idle_read_ns - extra).abs() < 1e-9,
            "intra {} cross {} extra {}",
            r.intra_idle_read_ns,
            r.cross_idle_read_ns,
            extra
        );
        assert!(r.cross_idle_read_ns > r.intra_idle_read_ns);
    }

    #[test]
    fn fleet_exercises_cross_rack_overflow_and_holds_the_slo() {
        // Unbalanced pools: rack 0's hosts must overflow to rack 1.
        let cfg = FleetConfig {
            rack_pool_gib: 256,
            global_budget_gib: 1024,
            ..FleetConfig::smoke()
        };
        let r = run(&cfg);
        assert!(r.intra_slab_steps > 0, "{r:?}");
        assert!(
            r.cross_slab_steps > 0,
            "tight racks must overflow across the spine: {r:?}"
        );
        assert!(r.cross_grants > 0);
        assert!((0.0..=1.0).contains(&r.cross_share));
        assert!(r.demand_std_gib > 0.0);
    }

    #[test]
    fn global_budget_is_never_exceeded() {
        // A budget well under the racks' combined capacity must bind.
        let cfg = FleetConfig {
            global_budget_gib: 256,
            ..FleetConfig::smoke()
        };
        let r = run(&cfg);
        assert!(r.peak_outstanding_slabs > 0);
        assert!(
            r.peak_outstanding_slabs <= r.budget_slabs,
            "peak {} over budget {}",
            r.peak_outstanding_slabs,
            r.budget_slabs
        );
        // Demand the budget refused shows up as unmet, not as leases.
        assert!(r.unmet_slab_steps > 0, "{r:?}");
    }

    #[test]
    fn lend_controllers_reserve_headroom_under_local_demand() {
        let r = run(&FleetConfig::smoke());
        let cfg = FleetConfig::smoke();
        let rack_slabs = cfg.rack_pool_gib / SLAB_GIB;
        // Racks see steady local demand, so the EWMA reserve must have
        // pulled at least one published cap below the full pool.
        assert!(
            r.min_lend_cap < rack_slabs,
            "controllers never tightened: min cap {} of {}",
            r.min_lend_cap,
            rack_slabs
        );
        assert_eq!(r.final_lend_caps.len(), cfg.racks);
    }

    #[test]
    fn rack_fault_evacuates_fleet_wide_without_stranding() {
        let cfg = FleetConfig {
            // Tight home rack pushes rack-0 borrowers onto rack 1, so
            // the rack-1 fault catches cross-rack leases too.
            rack_pool_gib: 256,
            global_budget_gib: 1024,
            fault_at: Some((1, SimTime::from_secs(10))),
            ..FleetConfig::smoke()
        };
        let r = run(&cfg);
        assert!(r.fault_fired);
        assert_eq!(r.stranded_pages, 0, "no page may stay on the dead rack");
        assert_eq!(r.rack_stats[1].mass_revocations, 1);
        assert!(
            r.evac_pages_moved + r.evac_pages_to_ssd > 0,
            "the fault should have caught resident pooled pages"
        );
        // The surviving rack keeps serving.
        assert!(r.rack_stats[0].grants + r.rack_stats[0].partial_grants > 0);
    }

    #[test]
    fn fleet_pooling_beats_static_provisioning() {
        let r = run(&FleetConfig::smoke());
        assert!(
            r.dynamic_total_gib < r.static_total_gib,
            "pooling must install less memory: {} vs {}",
            r.dynamic_total_gib,
            r.static_total_gib
        );
        assert!(r.capacity_saving > 0.0);
        assert!(
            r.dynamic_violation_frac <= r.static_violation_frac + 0.05,
            "pooling must roughly hold the SLO: dyn {} vs static {}",
            r.dynamic_violation_frac,
            r.static_violation_frac
        );
    }
}
