//! The per-host data plane of both pooling sims. A pooled host runs its
//! own `cxl-tier` manager with local DRAM as node 0 and each lease
//! window (one per pool it can lease from) as a far node after it, sized
//! by the host's grant there; pages that find no room spill to SSD. The
//! control planes that decide the grants stay with their sims.

use cxl_fault::FaultKind;
use cxl_sim::SimTime;
use cxl_tier::{EvacuationReport, PageId, TierConfig, TierManager};
use cxl_topology::{NodeId, Topology};

use crate::demand::DemandProcess;

pub(crate) const GIB: u64 = 1 << 30;

/// Lease granularity of both sims, GiB per slab.
pub(crate) const SLAB_GIB: u64 = 1;

/// One slab, bytes.
const SLAB_BYTES: u64 = SLAB_GIB * GIB;

/// Simulated page size of both sims, bytes: coarse (64 MiB) so a
/// terabyte-scale fleet stays tractable; the studied behaviour is
/// granularity-invariant.
const PAGE_BYTES: u64 = 64 * 1024 * 1024;

/// SLO percentile of both sims: the static baseline provisions each
/// host's DRAM at this percentile of its demand, and pooling is judged
/// at the same SLO.
pub const SLO_PERCENTILE: f64 = 0.99;

/// Compaction threshold of every pool manager in both sims (see
/// [`crate::PoolManager::new`]).
pub(crate) const DEFRAG_THRESHOLD: f64 = 0.5;

const _: () = assert!(
    SLAB_GIB > 0 && SLAB_BYTES.is_multiple_of(PAGE_BYTES),
    "slab size must be a whole number of pages"
);

/// DRAM node id on every pooled host.
pub const DRAM_NODE: NodeId = NodeId(0);

/// Node id of lease window `w` on a pooled host. The windows follow
/// DRAM ([`cxl_topology::Topology::fleet_host`] enumerates them after
/// it), so on a fleet host rack `r`'s window is node `1 + r` whatever
/// the host's own rack; only the window's path latency differs.
pub const fn window_node(w: usize) -> NodeId {
    NodeId(1 + w)
}

/// One host's topology, tier stack, demand trace and live pages.
#[derive(Debug)]
pub(crate) struct PooledHost {
    pub(crate) topo: Topology,
    tier: TierManager,
    pub(crate) demand: DemandProcess,
    /// Live pages in allocation order (freed LIFO, so burst pages —
    /// which landed on a window or on SSD — are released first).
    pages: Vec<PageId>,
    /// Host-side lease mirror, slabs per window. Dips below the
    /// manager's view while a revocation drain is in flight.
    pub(crate) granted: Vec<u64>,
    /// Static per-host DRAM provision (demand percentile), GiB.
    static_cap_gib: f64,
    /// Host-steps with at least one page on SSD (dynamic SLO misses).
    violation_steps: u64,
    /// Host-steps where demand exceeded the static provision.
    static_violation_steps: u64,
}

/// What expander faults did to the hosts' pages, summed over hosts.
#[derive(Debug, Default)]
pub(crate) struct EvacuationTally {
    /// Pages relocated to surviving nodes.
    pub(crate) moved: u64,
    /// Pages spilled to SSD.
    pub(crate) to_ssd: u64,
    /// Pages left on the dead node (data loss; must stay 0).
    pub(crate) stranded: u64,
}

impl PooledHost {
    /// Builds a host on `topo` whose pages fill the nodes of `bind` in
    /// order: DRAM first, then every window. SSD spill is on, every
    /// window starts at zero capacity, and the static baseline
    /// provisions the demand's [`SLO_PERCENTILE`] over `horizon`, sampled
    /// every `step`.
    pub(crate) fn new(
        topo: Topology,
        bind: Vec<NodeId>,
        demand: DemandProcess,
        horizon: SimTime,
        step: SimTime,
    ) -> Self {
        let windows = bind.len() - 1;
        let mut tier_cfg = TierConfig::bind(bind);
        tier_cfg.page_size = PAGE_BYTES;
        tier_cfg.allow_ssd_spill = true;
        // Grants grow the windows from zero.
        tier_cfg.capacity_override = (0..windows).map(|w| (window_node(w), 0)).collect();
        let tier = TierManager::new(&topo, tier_cfg);
        let static_cap_gib = demand.percentile(horizon, step, SLO_PERCENTILE);
        Self {
            topo,
            tier,
            demand,
            pages: Vec::new(),
            granted: vec![0; windows],
            static_cap_gib,
            violation_steps: 0,
            static_violation_steps: 0,
        }
    }

    /// DRAM and every window.
    fn nodes(&self) -> impl Iterator<Item = NodeId> {
        std::iter::once(DRAM_NODE).chain((0..self.granted.len()).map(window_node))
    }

    /// The working set at `now` in pages, and the slabs it needs beyond
    /// `local_dram_gib` of DRAM.
    pub(crate) fn demand_at(&self, now: SimTime, local_dram_gib: u64) -> (u64, u64) {
        let ws_gib = self.demand.working_set_gib(now);
        let target_pages = ((ws_gib * GIB as f64) / PAGE_BYTES as f64).ceil() as u64;
        let excess_bytes = (target_pages * PAGE_BYTES).saturating_sub(local_dram_gib * GIB);
        (target_pages, excess_bytes.div_ceil(SLAB_BYTES))
    }

    /// Tracks the working set: allocates growth up to `target_pages`,
    /// or frees the newest pages down to it.
    pub(crate) fn track(&mut self, target_pages: u64, now: SimTime) {
        let live = self.pages.len() as u64;
        if live < target_pages {
            let fresh = self
                .tier
                .alloc_n(target_pages - live, now)
                .expect("SSD spill is enabled");
            self.pages.extend(fresh);
        } else {
            for _ in 0..(live - target_pages) {
                let page = self.pages.pop().expect("live count checked");
                self.tier.free(page);
            }
        }
    }

    /// Adds `slabs` granted slabs to window `w`.
    pub(crate) fn grow_window(&mut self, w: usize, slabs: u64) {
        self.granted[w] += slabs;
        self.tier
            .grow_node(window_node(w), self.granted[w] * SLAB_BYTES)
            .expect("window node exists");
    }

    /// Shrinks window `w` to `keep` slabs, draining the overflow to the
    /// other nodes or to SSD.
    pub(crate) fn shrink_window(&mut self, w: usize, keep: u64, now: SimTime) -> EvacuationReport {
        let report = self
            .tier
            .shrink_node(window_node(w), keep * SLAB_BYTES, now)
            .expect("SSD spill is enabled");
        self.granted[w] = keep;
        report
    }

    /// Takes up to `slabs` of window `w` back for a revocation. Returns
    /// the slabs taken and when their drain completes, or `None` when
    /// the host holds nothing there.
    pub(crate) fn revoke(&mut self, w: usize, slabs: u64, now: SimTime) -> Option<(u64, SimTime)> {
        let take = slabs.min(self.granted[w]);
        if take == 0 {
            return None;
        }
        let report = self.shrink_window(w, self.granted[w] - take, now);
        Some((take, now.max(report.completed_at)))
    }

    /// Slabs window `w`'s resident pages occupy.
    pub(crate) fn used_slabs(&self, w: usize) -> u64 {
        (self.tier.node_usage(window_node(w)).0 * PAGE_BYTES).div_ceil(SLAB_BYTES)
    }

    /// SSD-resident pages (all live pages not on a node).
    pub(crate) fn ssd_pages(&self) -> u64 {
        let on_nodes: u64 = self.nodes().map(|n| self.tier.node_usage(n).0).sum();
        self.pages.len() as u64 - on_nodes
    }

    /// Loads spilled pages back while any node has room.
    pub(crate) fn reload_ssd(&mut self, now: SimTime) {
        let spilled = self.ssd_pages();
        if spilled == 0 {
            return;
        }
        let room: u64 = self
            .nodes()
            .map(|n| {
                let (used, cap) = self.tier.node_usage(n);
                cap - used
            })
            .sum();
        let mut to_load = spilled.min(room);
        // Newest pages spilled last; walk from the top of the stack.
        for &page in self.pages.iter().rev() {
            if to_load == 0 {
                break;
            }
            if self.tier.location(page).is_ssd() {
                self.tier
                    .load_from_ssd(page, now)
                    .expect("room was checked");
                to_load -= 1;
            }
        }
    }

    /// Window `w`'s expander died: marks it offline on the host's
    /// topology, evacuates its pages, zeroes the grant, and adds the
    /// outcome to `tally`.
    pub(crate) fn evacuate_window(&mut self, w: usize, now: SimTime, tally: &mut EvacuationTally) {
        let node = window_node(w);
        let resident_before = self.tier.node_usage(node).0;
        FaultKind::ExpanderOffline { node }
            .apply(&mut self.topo)
            .expect("window node is an expander");
        let report = self.tier.evacuate(node, now).expect("SSD spill is enabled");
        debug_assert_eq!(report.total_pages(), resident_before);
        tally.moved += report.pages_moved;
        tally.to_ssd += report.pages_to_ssd;
        tally.stranded += self.tier.node_usage(node).0;
        self.granted[w] = 0;
    }

    /// Per-step SLO accounting at `now`, after the step's adjustments:
    /// a step with pages on SSD is a dynamic SLO miss.
    pub(crate) fn account_step(&mut self, now: SimTime) {
        if self.ssd_pages() > 0 {
            self.violation_steps += 1;
        }
        if self.demand.working_set_gib(now) > self.static_cap_gib + 1e-9 {
            self.static_violation_steps += 1;
        }
    }
}

/// The demand side of a pooling report, summed over the hosts.
pub(crate) struct DemandSummary {
    /// Host-steps with pages spilled to SSD.
    pub(crate) violation_steps: u64,
    /// Memory static per-host provisioning installs: Σ percentiles.
    pub(crate) static_total_gib: f64,
    /// Fraction of host-steps with pages spilled to SSD.
    pub(crate) dynamic_violation_frac: f64,
    /// Fraction of host-steps demand exceeded the static provision.
    pub(crate) static_violation_frac: f64,
    /// Mean of the per-host demand-trace means, GiB.
    pub(crate) mean_gib: f64,
    /// Mean of the per-host demand-trace standard deviations, GiB.
    pub(crate) std_gib: f64,
}

impl DemandSummary {
    /// Summarizes `hosts` after `host_steps` accounted host-steps, with
    /// demand moments sampled every `step` over `horizon`.
    pub(crate) fn of(
        hosts: &[PooledHost],
        host_steps: u64,
        horizon: SimTime,
        step: SimTime,
    ) -> Self {
        let violation_steps: u64 = hosts.iter().map(|h| h.violation_steps).sum();
        let static_violation_steps: u64 = hosts.iter().map(|h| h.static_violation_steps).sum();
        let steps = host_steps.max(1) as f64;
        let moments: Vec<(f64, f64)> = hosts
            .iter()
            .map(|h| h.demand.moments(horizon, step))
            .collect();
        let n = moments.len() as f64;
        Self {
            violation_steps,
            static_total_gib: hosts.iter().map(|h| h.static_cap_gib).sum(),
            dynamic_violation_frac: violation_steps as f64 / steps,
            static_violation_frac: static_violation_steps as f64 / steps,
            mean_gib: moments.iter().map(|(m, _)| m).sum::<f64>() / n,
            std_gib: moments.iter().map(|(_, s)| s).sum::<f64>() / n,
        }
    }
}
