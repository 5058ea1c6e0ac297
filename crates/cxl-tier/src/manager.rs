//! The tier manager: allocation, access tracking, migration, demotion.

use std::collections::VecDeque;

use cxl_sim::{SimTime, TokenBucket};
use cxl_stats::Histogram;
use cxl_topology::{MemoryTier, NodeId, SocketId, Topology};

use crate::error::TierError;
use crate::migration::MigrationMode;
use crate::page::{FaultHistory, Location, PackedLocation, PageId, PageMeta};
use crate::policy::{AllocPolicy, PolicyCursor};
use crate::stats::{TierSnapshot, TierStats};
use crate::trace::{TierEvent, TraceRing};
use crate::traffic::TrafficEpoch;

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rw {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl Rw {
    fn is_write(self) -> bool {
        matches!(self, Rw::Write)
    }
}

/// Configuration of a [`TierManager`].
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Simulated page size in bytes, a power of two. The kernel
    /// migrates 4 KiB pages; large experiments may coarsen this to keep
    /// page counts tractable (behaviour is granularity-invariant for the
    /// studied policies).
    pub page_size: u64,
    /// Placement policy for new pages.
    pub policy: AllocPolicy,
    /// Active migration mechanism.
    pub migration: MigrationMode,
    /// Per-node capacity overrides in bytes (e.g. a `maxmemory` limit).
    pub capacity_override: Vec<(NodeId, u64)>,
    /// Top-tier occupancy fraction that triggers background demotion.
    pub demotion_watermark: f64,
    /// Allow allocations to spill to SSD when all candidate nodes are
    /// full (Table 1's `MMEM-SSD-x` configurations).
    pub allow_ssd_spill: bool,
    /// Socket the workload's threads run on (traffic accounting and
    /// promotion targets).
    pub accessor_socket: SocketId,
}

impl TierConfig {
    /// A reasonable default: 4 KiB pages, bind to the given nodes, no
    /// migration, no SSD.
    pub fn bind(nodes: Vec<NodeId>) -> Self {
        Self {
            page_size: 4096,
            policy: AllocPolicy::Bind(nodes),
            migration: MigrationMode::None,
            capacity_override: Vec::new(),
            demotion_watermark: 0.98,
            allow_ssd_spill: false,
            accessor_socket: SocketId(0),
        }
    }
}

/// Outcome of one page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Where the page was at access time (before any promotion).
    pub location: Location,
    /// The access took a NUMA hint fault.
    pub hint_fault: bool,
    /// The access triggered a promotion to DRAM.
    pub promoted: bool,
    /// Extra software latency incurred (hint fault handling).
    pub fault_cost: SimTime,
}

/// Out-of-memory error: every candidate node was full and SSD spill was
/// disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory;

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "all candidate NUMA nodes are full and SSD spill is disabled"
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Outcome of draining pages off a node (see [`TierManager::evacuate`]
/// and [`TierManager::shrink_node`]).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct EvacuationReport {
    /// The node that was drained.
    pub node: NodeId,
    /// Pages relocated to surviving DRAM/CXL nodes.
    pub pages_moved: u64,
    /// Pages that spilled to SSD because no node had room.
    pub pages_to_ssd: u64,
    /// Virtual time the drain started.
    pub started_at: SimTime,
    /// Virtual time the rate-limited drain completes: the drained bytes
    /// are charged against the promotion rate limiter, so this trails
    /// `started_at` by `excess bytes / promote rate`.
    pub completed_at: SimTime,
}

impl EvacuationReport {
    /// Total pages that left the node.
    pub fn total_pages(&self) -> u64 {
        self.pages_moved + self.pages_to_ssd
    }

    /// Rate-limited drain duration.
    pub fn duration(&self) -> SimTime {
        self.completed_at.saturating_sub(self.started_at)
    }
}

#[derive(Debug, Clone)]
struct NodeInfo {
    id: NodeId,
    tier: MemoryTier,
    socket: SocketId,
    capacity_pages: u64,
    used_pages: u64,
    /// Promotions and demotions that landed here.
    promotions_to: u64,
    demotions_to: u64,
}

impl NodeInfo {
    fn has_room(&self) -> bool {
        self.used_pages < self.capacity_pages
    }
}

/// Page-granular tiered memory manager over a topology.
#[derive(Debug)]
pub struct TierManager {
    cfg: TierConfig,
    nodes: Vec<NodeInfo>,
    /// Per-page state the access path reads, indexed by `PageId.0`.
    pages: Vec<PageMeta>,
    /// Per-page hint-fault history, indexed like `pages`.
    faults: Vec<FaultHistory>,
    cursor: PolicyCursor,
    /// Promotion targets: the top-tier nodes on the accessor socket, in
    /// id order.
    promo_nodes: Vec<NodeId>,
    /// CLOCK rings per node (lazy deletion: entries are validated on pop).
    rings: Vec<VecDeque<PageId>>,
    scan_cursor: u64,
    next_scan: SimTime,
    promo_bucket: Option<TokenBucket>,
    hot_threshold: SimTime,
    promote_after_faults: u32,
    promo_candidates_period: u64,
    next_adjust: SimTime,
    epoch: TrafficEpoch,
    /// Per-node application bytes `[read, written]` (indexed by node
    /// id, then by `is_write`), folded into `epoch` on drain. Touching
    /// is the hottest path in the workspace; a dense array add beats a
    /// `BTreeMap` entry walk per access by an order of magnitude, and
    /// indexing by direction needs no read/write branch.
    node_bytes: Vec<[u64; 2]>,
    stats: TierStats,
    /// Each drain's rate-limited duration, ns.
    evacuation_ns: Vec<u64>,
    /// Occupancy samples per node, in pages, one per tick that found a
    /// `cxl-obs` registry active; empty until the first such tick.
    occupancy: Vec<Histogram>,
    /// Last reported DRAM bandwidth utilization (set by the application
    /// layer from the performance model each epoch; §5.3 policy input).
    dram_bw_util: f64,
    /// Optional event trace (see [`crate::trace`]).
    trace: Option<TraceRing>,
}

impl TierManager {
    /// Builds a manager for a topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; see
    /// [`TierManager::try_new`] for the error-returning form.
    pub fn new(topo: &Topology, cfg: TierConfig) -> Self {
        Self::try_new(topo, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a manager for a topology, rejecting invalid
    /// configurations: a page size that is not a power of two (zero
    /// included), a topology of `u16::MAX` or more nodes (page
    /// locations are packed into 16 bits), a policy referencing nodes
    /// missing from the topology, a demotion watermark outside
    /// `(0, 1]`, or an inconsistent bandwidth-aware migration config
    /// (see [`crate::BandwidthAwareConfig::validate`]).
    pub fn try_new(topo: &Topology, cfg: TierConfig) -> Result<Self, TierError> {
        if !cfg.page_size.is_power_of_two() {
            return Err(TierError::InvalidConfig(format!(
                "page size must be a power of two, not {} bytes",
                cfg.page_size
            )));
        }
        if !(cfg.demotion_watermark > 0.0 && cfg.demotion_watermark <= 1.0) {
            return Err(TierError::InvalidConfig(format!(
                "watermark out of range: {} not in (0, 1]",
                cfg.demotion_watermark
            )));
        }
        if let MigrationMode::BandwidthAware(b) = &cfg.migration {
            b.validate()?;
        }
        let nodes: Vec<NodeInfo> = topo
            .nodes()
            .iter()
            .map(|n| {
                let cap_bytes = cfg
                    .capacity_override
                    .iter()
                    .find(|(id, _)| *id == n.id)
                    .map(|&(_, b)| b)
                    .unwrap_or_else(|| n.capacity_bytes());
                NodeInfo {
                    id: n.id,
                    tier: n.tier,
                    socket: n.socket,
                    capacity_pages: cap_bytes / cfg.page_size,
                    used_pages: 0,
                    promotions_to: 0,
                    demotions_to: 0,
                }
            })
            .collect();
        if nodes.len() >= PackedLocation::MAX_NODES {
            return Err(TierError::InvalidConfig(format!(
                "topology has {} NUMA nodes; page locations pack into 16 bits, \
                 so at most {} are supported",
                nodes.len(),
                PackedLocation::MAX_NODES - 1
            )));
        }
        let check = |id: &NodeId| {
            if nodes.iter().any(|n| n.id == *id) {
                Ok(())
            } else {
                Err(TierError::InvalidConfig(format!(
                    "policy references unknown node {id:?}"
                )))
            }
        };
        match &cfg.policy {
            AllocPolicy::Bind(v) => v.iter().try_for_each(check)?,
            AllocPolicy::Preferred { node, fallback } => {
                check(node)?;
                fallback.iter().try_for_each(check)?;
            }
            AllocPolicy::InterleaveNm { top, low, .. } => {
                top.iter().try_for_each(check)?;
                low.iter().try_for_each(check)?;
            }
        }
        let (promo_bucket, hot_threshold, promote_after_faults) = match &cfg.migration {
            MigrationMode::HotPageSelection(h)
            | MigrationMode::BandwidthAware(crate::migration::BandwidthAwareConfig {
                base: h,
                ..
            }) => {
                h.validate()?;
                (
                    Some(TokenBucket::new(
                        h.promote_rate_limit_bytes_per_sec,
                        // One-second burst, like the kernel's per-interval budget.
                        h.promote_rate_limit_bytes_per_sec,
                    )),
                    h.balancing.hot_threshold,
                    h.promote_after_faults,
                )
            }
            MigrationMode::NumaBalancing(b) => (None, b.hot_threshold, 1),
            MigrationMode::None => (None, SimTime::ZERO, 1),
        };
        let rings = vec![VecDeque::new(); nodes.len()];
        let cursor = PolicyCursor::new(cfg.policy.clone());
        let promo_nodes = nodes
            .iter()
            .filter(|n| n.tier.is_top_tier() && n.socket == cfg.accessor_socket)
            .map(|n| n.id)
            .collect();
        let node_count = nodes.len();
        Ok(Self {
            cfg,
            nodes,
            pages: Vec::new(),
            faults: Vec::new(),
            cursor,
            promo_nodes,
            rings,
            scan_cursor: 0,
            next_scan: SimTime::ZERO,
            promo_bucket,
            hot_threshold,
            promote_after_faults,
            promo_candidates_period: 0,
            next_adjust: SimTime::ZERO,
            epoch: TrafficEpoch::default(),
            node_bytes: vec![[0; 2]; node_count],
            stats: TierStats::default(),
            evacuation_ns: Vec::new(),
            occupancy: Vec::new(),
            dram_bw_util: 0.0,
            trace: None,
        })
    }

    /// Records an application access into the per-node accumulators.
    /// Folded into the public [`TrafficEpoch`] on [`Self::drain_epoch`].
    #[inline]
    fn record_node_access(&mut self, node: NodeId, bytes: u64, is_write: bool) {
        self.node_bytes[node.0][is_write as usize] += bytes;
    }

    /// Enables event tracing with a bounded ring of `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceRing::new(capacity));
    }

    /// The trace ring, if enabled.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// Mutable access to the trace ring (e.g. to drain it), if enabled.
    pub fn trace_mut(&mut self) -> Option<&mut TraceRing> {
        self.trace.as_mut()
    }

    fn record_trace(&mut self, at: SimTime, event: TierEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(at, event);
        }
    }

    /// Reports the current DRAM bandwidth utilization (0..1), the input
    /// to the §5.3 bandwidth-aware policy. Applications call this each
    /// epoch with the utilization the performance model observed.
    /// Non-finite inputs (a NaN from a degenerate bandwidth ratio,
    /// say 0/0 on an idle node) are treated as 0.0 — `f64::clamp`
    /// propagates NaN, which would otherwise disable every watermark
    /// comparison in the policy from here on.
    pub fn set_dram_bandwidth_util(&mut self, util: f64) {
        self.dram_bw_util = if util.is_finite() {
            util.clamp(0.0, 1.0)
        } else if util == f64::INFINITY {
            1.0
        } else {
            0.0
        };
    }

    /// Last reported DRAM bandwidth utilization.
    #[cfg(test)]
    fn dram_bandwidth_util(&self) -> f64 {
        self.dram_bw_util
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.cfg.page_size
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &TierStats {
        &self.stats
    }

    /// Current hot threshold (dynamic under hot-page selection).
    pub fn hot_threshold(&self) -> SimTime {
        self.hot_threshold
    }

    /// `(used, capacity)` pages of a node.
    pub fn node_usage(&self, node: NodeId) -> (u64, u64) {
        let n = &self.nodes[node.0];
        (n.used_pages, n.capacity_pages)
    }

    /// Number of allocated pages currently resident on each node plus SSD,
    /// as `(location, pages)` pairs (only non-empty locations).
    pub fn residency(&self) -> Vec<(Location, u64)> {
        let mut out: Vec<(Location, u64)> = self
            .nodes
            .iter()
            .filter(|n| n.used_pages > 0)
            .map(|n| (Location::Node(n.id), n.used_pages))
            .collect();
        let ssd = self.ssd_pages();
        if ssd > 0 {
            out.push((Location::Ssd, ssd));
        }
        out
    }

    /// Allocated pages on SSD; freed ones hold nothing.
    fn ssd_pages(&self) -> u64 {
        self.pages
            .iter()
            .filter(|p| !p.freed && p.location.is_ssd())
            .count() as u64
    }

    /// Captures a point-in-time placement snapshot.
    pub fn snapshot(&self) -> TierSnapshot {
        let nodes: Vec<(usize, u64, u64)> = self
            .nodes
            .iter()
            .filter(|n| n.capacity_pages > 0 || n.used_pages > 0)
            .map(|n| (n.id.0, n.used_pages, n.capacity_pages))
            .collect();
        let top: u64 = self
            .nodes
            .iter()
            .filter(|n| n.tier.is_top_tier())
            .map(|n| n.used_pages)
            .sum();
        let resident: u64 = self.nodes.iter().map(|n| n.used_pages).sum();
        TierSnapshot {
            nodes,
            ssd_pages: self.ssd_pages(),
            top_tier_fraction: if resident > 0 {
                top as f64 / resident as f64
            } else {
                0.0
            },
            stats: self.stats.clone(),
        }
    }

    /// Retunes the promotion rate limit at runtime, mirroring a write
    /// to `numa_balancing_promote_rate_limit_MBps` (§2.3) on a live
    /// system. Both the configured limit and the live token bucket
    /// change (rate and one-second burst, matching construction);
    /// already-accrued budget is settled at the old rate first, so the
    /// retune never re-prices an elapsed interval.
    ///
    /// Errors (leaving everything unchanged) when no rate-limited
    /// migration mode is active or the rate is not positive and finite.
    pub fn set_promote_rate(&mut self, now: SimTime, bytes_per_sec: f64) -> Result<(), TierError> {
        if !(bytes_per_sec > 0.0 && bytes_per_sec.is_finite()) {
            return Err(TierError::InvalidConfig(format!(
                "promotion rate limit must be positive and finite, got {bytes_per_sec}"
            )));
        }
        let h = match &mut self.cfg.migration {
            MigrationMode::HotPageSelection(h) => h,
            MigrationMode::BandwidthAware(b) => &mut b.base,
            _ => {
                return Err(TierError::WrongPolicy(
                    "set_promote_rate requires a rate-limited migration mode",
                ))
            }
        };
        h.promote_rate_limit_bytes_per_sec = bytes_per_sec;
        self.promo_bucket
            .as_mut()
            .expect("rate-limited modes always carry a promo bucket")
            .retune(now, bytes_per_sec, bytes_per_sec);
        Ok(())
    }

    /// Allocates one page per the placement policy.
    ///
    /// Placement does not depend on the allocation instant `_now`; it is
    /// taken so that allocation reads like the other clocked operations.
    pub fn alloc(&mut self, _now: SimTime) -> Result<PageId, OutOfMemory> {
        let nodes = &self.nodes;
        if let Some(node) = self.cursor.next_fit(|n| nodes[n.0].has_room()) {
            return Ok(self.place_new_page(node));
        }
        if self.cfg.allow_ssd_spill {
            let id = self.push_page(PackedLocation::SSD);
            self.stats.allocated += 1;
            self.stats.ssd_spills += 1;
            Ok(id)
        } else {
            Err(OutOfMemory)
        }
    }

    /// Allocates `n` pages, returning their ids.
    pub fn alloc_n(&mut self, n: u64, now: SimTime) -> Result<Vec<PageId>, OutOfMemory> {
        let first = self.alloc_dense(n, now)?.0;
        Ok((first..first + n).map(PageId).collect())
    }

    /// Allocates `n` pages and returns the first one's id: ids are
    /// dense and never reused, so the pages are `first..first + n` and
    /// no list of them is built.
    pub fn alloc_dense(&mut self, n: u64, now: SimTime) -> Result<PageId, OutOfMemory> {
        let first = PageId(self.pages.len() as u64);
        // One exact reservation instead of doubling keeps the peak heap
        // small, so glibc trims and re-faults it less often when a loop
        // builds and drops stores (measured over Fig. 5's 28 stores:
        // 10.3 k page faults with it, 14.5 k without).
        self.pages.reserve(n as usize);
        self.faults.reserve(n as usize);
        for _ in 0..n {
            self.alloc(now)?;
        }
        Ok(first)
    }

    /// Allocates one page preferring `node`, falling back to the
    /// configured policy (and SSD spill, if enabled) when it is full.
    ///
    /// This is the segregation hook for allocators that know more than
    /// the global policy does — a generational runtime binding its
    /// nursery to DRAM and the tenured region to the expander, say —
    /// without the caller having to juggle two managers over one
    /// topology.
    ///
    /// Errors with [`TierError::UnknownNode`] on an out-of-range node;
    /// otherwise fails only as [`TierManager::alloc`] does, reported as
    /// [`TierError::OutOfMemory`].
    pub fn alloc_preferring(&mut self, node: NodeId, now: SimTime) -> Result<PageId, TierError> {
        if node.0 >= self.nodes.len() {
            return Err(TierError::UnknownNode(node));
        }
        if self.has_room(node) {
            return Ok(self.place_new_page(node));
        }
        self.alloc(now).map_err(TierError::OutOfMemory)
    }

    fn has_room(&self, node: NodeId) -> bool {
        self.nodes[node.0].has_room()
    }

    /// Appends a page record at `location` under the next dense id.
    fn push_page(&mut self, location: PackedLocation) -> PageId {
        let id = PageId(self.pages.len() as u64);
        self.pages.push(PageMeta::new(location));
        self.faults.push(FaultHistory::default());
        id
    }

    fn place_new_page(&mut self, node: NodeId) -> PageId {
        let id = self.push_page(PackedLocation::node(node));
        self.nodes[node.0].used_pages += 1;
        self.rings[node.0].push_back(id);
        self.stats.allocated += 1;
        id
    }

    /// Frees a page.
    ///
    /// # Panics
    ///
    /// Panics on a double free.
    pub fn free(&mut self, page: PageId) {
        let meta = &mut self.pages[page.0 as usize];
        assert!(!meta.freed, "double free of {page:?}");
        meta.freed = true;
        if let Location::Node(n) = meta.location.unpack() {
            self.nodes[n.0].used_pages -= 1;
        }
        self.stats.freed += 1;
    }

    /// Current location of a page.
    pub fn location(&self, page: PageId) -> Location {
        self.pages[page.0 as usize].location.unpack()
    }

    /// Records an access of `bytes` to a page and runs fault-driven
    /// promotion logic.
    ///
    /// # Panics
    ///
    /// Panics if `page` was freed.
    pub fn touch(&mut self, page: PageId, rw: Rw, bytes: u64, now: SimTime) -> AccessOutcome {
        let idx = page.0 as usize;
        let meta = &mut self.pages[idx];
        assert!(!meta.freed, "touch of freed {page:?}");
        meta.referenced = true;
        let hinted = meta.hint_installed;
        let location = meta.location.unpack();
        match location {
            Location::Node(node) => self.record_node_access(node, bytes, rw.is_write()),
            Location::Ssd => self.epoch.record_ssd(bytes, rw.is_write()),
        }

        let mut outcome = AccessOutcome {
            location,
            hint_fault: false,
            promoted: false,
            fault_cost: SimTime::ZERO,
        };

        if !hinted || !self.cfg.migration.is_active() {
            return outcome;
        }

        // Take the hint fault.
        self.pages[idx].hint_installed = false;
        let prev_fault = std::mem::replace(&mut self.faults[idx].last_hint_fault, now);
        self.stats.hint_faults += 1;
        outcome.hint_fault = true;
        outcome.fault_cost = match &self.cfg.migration {
            MigrationMode::NumaBalancing(b) => b.hint_fault_cost,
            MigrationMode::HotPageSelection(h) => h.balancing.hint_fault_cost,
            MigrationMode::BandwidthAware(b) => b.base.balancing.hint_fault_cost,
            MigrationMode::None => SimTime::ZERO,
        };

        // Promotion applies to slow-tier pages only.
        let Location::Node(node) = location else {
            return outcome;
        };
        if self.nodes[node.0].tier.is_top_tier() {
            return outcome;
        }

        match self.cfg.migration.clone() {
            MigrationMode::None => {}
            MigrationMode::NumaBalancing(_) => {
                // The balancing patch promotes on MRU: the faulting access
                // itself is the recency evidence.
                outcome.promoted = self.promote(page, node, now);
            }
            MigrationMode::HotPageSelection(_) => {
                outcome.promoted = self.hot_page_promotion(page, node, prev_fault, now);
            }
            MigrationMode::BandwidthAware(b) => {
                // §5.3: never promote into a bandwidth-saturated top tier.
                if self.dram_bw_util > b.high_watermark {
                    self.stats.promotions_bw_suppressed += 1;
                    self.record_trace(now, TierEvent::PromotionSuppressed { page });
                } else {
                    outcome.promoted = self.hot_page_promotion(page, node, prev_fault, now);
                }
            }
        }
        outcome
    }

    /// The hot-page-selection promotion path: a repeat fault within the
    /// (dynamic) hot threshold, charged against the rate limit.
    fn hot_page_promotion(
        &mut self,
        page: PageId,
        node: NodeId,
        prev_fault: SimTime,
        now: SimTime,
    ) -> bool {
        let recent =
            prev_fault != SimTime::MAX && now.saturating_sub(prev_fault) <= self.hot_threshold;
        let history = &mut self.faults[page.0 as usize];
        if !recent {
            history.fault_streak = 0;
            self.stats.promotions_not_hot += 1;
            return false;
        }
        history.fault_streak = history.fault_streak.saturating_add(1);
        if history.fault_streak < self.promote_after_faults {
            self.stats.promotions_below_streak += 1;
            return false;
        }
        self.promo_candidates_period += 1;
        let bytes = self.cfg.page_size as f64;
        let allowed = self
            .promo_bucket
            .as_mut()
            .map(|b| b.try_take(now, bytes))
            .unwrap_or(true);
        if allowed {
            self.promote(page, node, now)
        } else {
            self.stats.promotions_rate_limited += 1;
            false
        }
    }

    /// Moves a page to a DRAM node on the accessor socket, demoting a
    /// cold page if necessary. Returns `true` on success.
    fn promote(&mut self, page: PageId, from: NodeId, now: SimTime) -> bool {
        let Some(target) = self.promotion_target(now) else {
            return false;
        };
        self.move_page(page, from, target, now);
        self.stats.promotions += 1;
        self.nodes[target.0].promotions_to += 1;
        true
    }

    /// Picks a DRAM node on the accessor socket, making room by demoting
    /// one cold page when every candidate is full.
    fn promotion_target(&mut self, now: SimTime) -> Option<NodeId> {
        if let Some(c) = self.promo_nodes.iter().copied().find(|&c| self.has_room(c)) {
            return Some(c);
        }
        // All full: demote one cold page from the first candidate.
        for i in 0..self.promo_nodes.len() {
            let c = self.promo_nodes[i];
            if self.demote_one(c, now) {
                return Some(c);
            }
        }
        None
    }

    /// Picks the node demoted pages should land on: a non-top-tier node
    /// with room, preferring the accessor socket. A remote-socket CXL
    /// hop costs ~485 ns per access against ~250 ns local (§3.2), so
    /// locality is worth preserving whenever local capacity remains.
    fn demotion_target(&self, prefer: SocketId) -> Option<NodeId> {
        cxl_stats::argmin_by(
            self.nodes
                .iter()
                .filter(|n| !n.tier.is_top_tier() && n.has_room()),
            |n| (n.socket != prefer, n.id.0),
        )
        .map(|n| n.id)
    }

    /// Moves an already-unlinked demotion victim to `target`,
    /// re-validating capacity at move time: the CLOCK walk between
    /// target selection and the move can consume ring entries, and a
    /// stale target would silently over-fill a node. On a stale target
    /// the miss is counted, a fresh target is resolved, and if none
    /// exists the victim is re-linked at the ring front. Returns `true`
    /// if the page moved.
    fn demote_move(
        &mut self,
        page: PageId,
        from: NodeId,
        mut target: NodeId,
        now: SimTime,
    ) -> bool {
        if !self.has_room(target) {
            self.stats.demotions_target_full += 1;
            match self.demotion_target(self.cfg.accessor_socket) {
                Some(fresh) => target = fresh,
                None => {
                    self.rings[from.0].push_front(page);
                    return false;
                }
            }
        }
        let remote = self.nodes[target.0].socket != self.cfg.accessor_socket;
        self.move_page(page, from, target, now);
        self.stats.demotions += 1;
        self.nodes[target.0].demotions_to += 1;
        if remote {
            self.stats.demotions_remote_socket += 1;
        }
        true
    }

    /// Demotes one cold page from a DRAM node to a CXL node with room,
    /// preferring same-socket targets. Returns `true` if a page moved.
    fn demote_one(&mut self, from: NodeId, now: SimTime) -> bool {
        let Some(target) = self.demotion_target(self.cfg.accessor_socket) else {
            return false;
        };
        let here = PackedLocation::node(from);
        // CLOCK second chance over the ring, bounded by its length.
        let mut passes = self.rings[from.0].len();
        while passes > 0 {
            passes -= 1;
            let Some(pid) = self.rings[from.0].pop_front() else {
                return false;
            };
            let meta = &mut self.pages[pid.0 as usize];
            // Lazy deletion: skip freed pages and entries that moved.
            if meta.freed || meta.location != here {
                continue;
            }
            if meta.referenced {
                meta.referenced = false;
                self.rings[from.0].push_back(pid);
                continue;
            }
            return self.demote_move(pid, from, target, now);
        }
        // Everything was referenced: demote the current front anyway
        // (memory pressure wins, as in kernel reclaim).
        while let Some(pid) = self.rings[from.0].pop_front() {
            let meta = &self.pages[pid.0 as usize];
            if !meta.freed && meta.location == here {
                return self.demote_move(pid, from, target, now);
            }
        }
        false
    }

    fn move_page(&mut self, page: PageId, from: NodeId, to: NodeId, now: SimTime) {
        debug_assert_ne!(from, to);
        let meta = &mut self.pages[page.0 as usize];
        debug_assert_eq!(meta.location, PackedLocation::node(from));
        meta.location = PackedLocation::node(to);
        meta.hint_installed = false;
        self.faults[page.0 as usize].fault_streak = 0;
        self.nodes[from.0].used_pages -= 1;
        self.nodes[to.0].used_pages += 1;
        self.rings[to.0].push_back(page);
        self.epoch.record_migration(from, to, self.cfg.page_size);
        self.stats.migration_bytes += self.cfg.page_size;
        if self.trace.is_some() {
            let event = if self.nodes[to.0].tier.is_top_tier() {
                TierEvent::Promoted { page, from, to }
            } else {
                TierEvent::Demoted { page, from, to }
            };
            self.record_trace(now, event);
        }
    }

    /// Explicitly evicts a page to SSD (application-managed tiering, e.g.
    /// KeyDB FLASH cold-value eviction).
    ///
    /// Errors if the page is already on SSD; under concurrent eviction
    /// pressure (or an evacuation racing an application's own cold-value
    /// logic) a stale victim choice is routine, not fatal. Errors with
    /// [`TierError::Freed`] on a freed page, whose capacity `free`
    /// already returned.
    pub fn evict_to_ssd(&mut self, page: PageId) -> Result<(), TierError> {
        let meta = &mut self.pages[page.0 as usize];
        if meta.freed {
            return Err(TierError::Freed(page));
        }
        let Location::Node(node) = meta.location.unpack() else {
            return Err(TierError::AlreadyOnSsd(page));
        };
        meta.location = PackedLocation::SSD;
        meta.hint_installed = false;
        self.nodes[node.0].used_pages -= 1;
        self.stats.evictions_to_ssd += 1;
        self.epoch.record_ssd(self.cfg.page_size, true);
        self.record_trace(
            SimTime::ZERO.max(self.last_trace_time()),
            TierEvent::EvictedToSsd { page },
        );
        Ok(())
    }

    fn last_trace_time(&self) -> SimTime {
        // Evictions are application-driven and carry no explicit clock;
        // reuse the most recent traced timestamp for ordering.
        self.trace
            .as_ref()
            .and_then(|t| t.events().last().map(|e| e.at))
            .unwrap_or(SimTime::ZERO)
    }

    /// Loads a page back from SSD via the allocation policy.
    ///
    /// Errors with [`TierError::NotOnSsd`] if the page is resident,
    /// [`TierError::Freed`] if it was freed (placing it would charge
    /// capacity no `free` returns), or [`TierError::OutOfMemory`] when
    /// no policy node has room.
    pub fn load_from_ssd(&mut self, page: PageId, now: SimTime) -> Result<(), TierError> {
        let meta = self.pages[page.0 as usize];
        if meta.freed {
            return Err(TierError::Freed(page));
        }
        if !meta.location.is_ssd() {
            return Err(TierError::NotOnSsd(page));
        }
        let nodes = &self.nodes;
        let Some(target) = self.cursor.next_fit(|n| nodes[n.0].has_room()) else {
            return Err(TierError::OutOfMemory(OutOfMemory));
        };
        self.pages[page.0 as usize].location = PackedLocation::node(target);
        self.nodes[target.0].used_pages += 1;
        self.rings[target.0].push_back(page);
        self.stats.ssd_loads += 1;
        self.epoch.record_ssd(self.cfg.page_size, false);
        self.record_node_access(target, self.cfg.page_size, true);
        self.record_trace(now, TierEvent::LoadedFromSsd { page, to: target });
        Ok(())
    }

    /// Drains every resident page off `node` and fences it against
    /// future placements — the graceful-degradation path a failing
    /// expander triggers.
    ///
    /// The node's capacity drops to zero first (the allocator, demotion
    /// targeting, and SSD reload all test capacity, so nothing new can
    /// land while the drain runs), then resident pages move in id order
    /// to the best surviving node — other non-top-tier nodes first,
    /// preferring the accessor socket, then DRAM — and spill to SSD once
    /// nothing has room. The drained bytes are charged against the
    /// promotion rate limiter, so the report's `completed_at` reflects
    /// the same migration budget ordinary promotions compete for, and
    /// promotions right after a fault find the bucket drained.
    ///
    /// Errors with [`TierError::OutOfMemory`] when the survivors cannot
    /// absorb the pages and SSD spill is disabled; pages moved before
    /// the error stay moved (the node is already fenced, so a retry
    /// after freeing memory makes progress).
    pub fn evacuate(&mut self, node: NodeId, now: SimTime) -> Result<EvacuationReport, TierError> {
        if node.0 >= self.nodes.len() {
            return Err(TierError::UnknownNode(node));
        }
        self.nodes[node.0].capacity_pages = 0;
        self.drain_node(node, 0, now)
    }

    /// Shrinks `node` to `new_capacity_bytes`, draining overflow pages
    /// exactly like [`TierManager::evacuate`] — the partial-failure
    /// variant for capacity-loss faults (rows of backing DRAM mapped
    /// out rather than a dead device).
    pub fn shrink_node(
        &mut self,
        node: NodeId,
        new_capacity_bytes: u64,
        now: SimTime,
    ) -> Result<EvacuationReport, TierError> {
        if node.0 >= self.nodes.len() {
            return Err(TierError::UnknownNode(node));
        }
        let new_pages = new_capacity_bytes / self.cfg.page_size;
        if new_pages < self.nodes[node.0].capacity_pages {
            self.nodes[node.0].capacity_pages = new_pages;
        }
        self.drain_node(node, new_pages, now)
    }

    /// Raises `node`'s capacity to `new_capacity_bytes` — the inverse of
    /// [`TierManager::shrink_node`], used when a pool lease grows a
    /// host's window onto shared capacity. Growth never moves pages, so
    /// there is no report; a `new_capacity_bytes` at or below the
    /// current capacity is a no-op (shrinking must go through the
    /// draining path).
    pub fn grow_node(&mut self, node: NodeId, new_capacity_bytes: u64) -> Result<(), TierError> {
        if node.0 >= self.nodes.len() {
            return Err(TierError::UnknownNode(node));
        }
        let new_pages = new_capacity_bytes / self.cfg.page_size;
        if new_pages > self.nodes[node.0].capacity_pages {
            self.nodes[node.0].capacity_pages = new_pages;
        }
        Ok(())
    }

    /// Moves all but the first `keep_pages` resident pages (in id
    /// order) off `node`; shared tail of evacuate/shrink.
    fn drain_node(
        &mut self,
        node: NodeId,
        keep_pages: u64,
        now: SimTime,
    ) -> Result<EvacuationReport, TierError> {
        let here = PackedLocation::node(node);
        let victims: Vec<PageId> = self
            .pages
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.freed && m.location == here)
            .map(|(i, _)| PageId(i as u64))
            .skip(keep_pages as usize)
            .collect();
        let mut moved = 0u64;
        let mut to_ssd = 0u64;
        for pid in victims {
            match self.evacuation_target(node) {
                Some(target) => {
                    self.move_page(pid, node, target, now);
                    moved += 1;
                }
                None if self.cfg.allow_ssd_spill => {
                    self.evict_to_ssd(pid)
                        .expect("evacuation victim is resident");
                    to_ssd += 1;
                }
                None => return Err(TierError::OutOfMemory(OutOfMemory)),
            }
        }
        if keep_pages == 0 {
            // A fully fenced node never yields its stale ring entries
            // again; free them instead of leaving them to lazy deletion.
            self.rings[node.0].clear();
        }

        // Charge the drained bytes against the promotion budget: burst
        // absorbs what it can now, the remainder extends the drain at
        // the configured rate.
        let total_pages = moved + to_ssd;
        let total_bytes = (total_pages * self.cfg.page_size) as f64;
        let completed_at = match self.promo_bucket.as_mut() {
            Some(b) if total_bytes > 0.0 => {
                let take = b.available(now).min(total_bytes);
                if take > 0.0 {
                    b.try_take(now, take);
                }
                now + SimTime::from_secs_f64((total_bytes - take) / b.rate_per_sec())
            }
            _ => now,
        };

        self.stats.evacuations += 1;
        self.stats.evacuated_pages += total_pages;
        self.stats.evacuated_to_ssd += to_ssd;
        self.evacuation_ns.push((completed_at - now).as_ns());
        Ok(EvacuationReport {
            node,
            pages_moved: moved,
            pages_to_ssd: to_ssd,
            started_at: now,
            completed_at,
        })
    }

    /// Picks where an evacuated page should land: any surviving node
    /// with room, non-top-tier first (evacuated pages were already
    /// cold enough to live on an expander), preferring the accessor
    /// socket, lowest id as the tiebreak.
    fn evacuation_target(&self, failed: NodeId) -> Option<NodeId> {
        let prefer = self.cfg.accessor_socket;
        cxl_stats::argmin_by(
            self.nodes.iter().filter(|n| n.id != failed && n.has_room()),
            |n| (n.tier.is_top_tier(), n.socket != prefer, n.id.0),
        )
        .map(|n| n.id)
    }

    /// Samples the occupancy of every node with capacity, one point per
    /// tick, while a `cxl-obs` registry is active; the drop hands the
    /// samples over as `tier/node{N}/occupancy_pages`. Ticks advance in
    /// simulated time, so the sampled distribution is deterministic.
    fn sample_occupancy(&mut self) {
        if !cxl_obs::active() {
            return;
        }
        if self.occupancy.is_empty() {
            self.occupancy = vec![Histogram::new(); self.nodes.len()];
        }
        for (n, h) in self.nodes.iter().zip(&mut self.occupancy) {
            if n.capacity_pages > 0 {
                h.record(n.used_pages);
            }
        }
    }

    /// Runs periodic work up to `now`: hint-fault scanning, dynamic
    /// threshold adjustment, and watermark demotion.
    pub fn tick(&mut self, now: SimTime) {
        self.sample_occupancy();
        let (scan_period, scan_pages) = match &self.cfg.migration {
            MigrationMode::None => {
                self.demote_to_watermark(now);
                return;
            }
            MigrationMode::NumaBalancing(b) => (b.scan_period, b.scan_pages),
            MigrationMode::HotPageSelection(h) => (h.balancing.scan_period, h.balancing.scan_pages),
            MigrationMode::BandwidthAware(b) => {
                (b.base.balancing.scan_period, b.base.balancing.scan_pages)
            }
        };

        while self.next_scan <= now {
            self.scan_pass(scan_pages);
            self.next_scan += scan_period;
        }

        match &self.cfg.migration.clone() {
            MigrationMode::HotPageSelection(h)
                if h.dynamic_threshold => {
                    while self.next_adjust <= now {
                        self.adjust_threshold(h.promote_rate_limit_bytes_per_sec, h.adjust_period);
                        self.next_adjust += h.adjust_period;
                    }
                }
            MigrationMode::BandwidthAware(b)
                // Above the high watermark: actively shift load to CXL by
                // demoting (CLOCK-cold first) pages from DRAM nodes.
                if self.dram_bw_util > b.high_watermark => {
                    let ids: Vec<NodeId> = self
                        .nodes
                        .iter()
                        .filter(|n| n.tier.is_top_tier() && n.used_pages > 0)
                        .map(|n| n.id)
                        .collect();
                    let mut budget = b.demote_batch;
                    'outer: loop {
                        let mut any = false;
                        for &id in &ids {
                            if budget == 0 {
                                break 'outer;
                            }
                            if self.demote_one(id, now) {
                                budget -= 1;
                                any = true;
                            }
                        }
                        if !any {
                            break;
                        }
                    }
                }
            _ => {}
        }

        self.demote_to_watermark(now);
    }

    /// Installs hints on the next window of allocated pages (wraps).
    fn scan_pass(&mut self, scan_pages: usize) {
        if self.pages.is_empty() {
            return;
        }
        let len = self.pages.len() as u64;
        for _ in 0..scan_pages.min(self.pages.len()) {
            let idx = (self.scan_cursor % len) as usize;
            self.scan_cursor += 1;
            let meta = &mut self.pages[idx];
            if !meta.freed && !meta.location.is_ssd() {
                meta.hint_installed = true;
            }
        }
    }

    /// The patch's automatic threshold adjustment: compare the candidate
    /// promotion rate over the last period with the rate limit and nudge
    /// the hot threshold toward balance.
    fn adjust_threshold(&mut self, limit_bytes_per_sec: f64, period: SimTime) {
        let candidate_bytes = self.promo_candidates_period as f64 * self.cfg.page_size as f64;
        let budget = limit_bytes_per_sec * period.as_secs_f64();
        let t = self.hot_threshold.as_ns() as f64;
        let new = if candidate_bytes > budget * 1.1 {
            // Too many candidates: tighten (halve) the window.
            (t * 0.5).max(1e6)
        } else if candidate_bytes < budget * 0.5 {
            // Underusing the budget: loosen the window.
            (t * 1.5).min(10e9)
        } else {
            t
        };
        self.hot_threshold = SimTime::from_ns_f64(new);
        self.promo_candidates_period = 0;
    }

    /// Demotes cold pages from DRAM nodes above the watermark.
    fn demote_to_watermark(&mut self, now: SimTime) {
        let ids: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|n| n.tier.is_top_tier() && n.capacity_pages > 0)
            .map(|n| n.id)
            .collect();
        for id in ids {
            loop {
                let n = &self.nodes[id.0];
                let fill = n.used_pages as f64 / n.capacity_pages as f64;
                if fill <= self.cfg.demotion_watermark || !self.demote_one(id, now) {
                    break;
                }
            }
        }
    }

    /// Drains and returns the traffic accumulated since the last drain.
    pub fn drain_epoch(&mut self) -> TrafficEpoch {
        let mut e = std::mem::take(&mut self.epoch);
        for (i, [read, written]) in self.node_bytes.iter_mut().enumerate() {
            for (b, map) in [
                (read, &mut e.node_read_bytes),
                (written, &mut e.node_write_bytes),
            ] {
                if *b > 0 {
                    *map.entry(NodeId(i)).or_insert(0) += std::mem::take(b);
                }
            }
        }
        e
    }
}

impl Drop for TierManager {
    /// Hands the manager's totals to the current `cxl-obs` registry:
    /// each nonzero [`TierStats`] count under `tier/<field>`, demotions
    /// split by socket, per-node promotion and demotion destinations,
    /// the drain counters and durations whenever a drain ran, and each
    /// node's occupancy samples. These are the keys and values one call
    /// per event would have left.
    ///
    /// A manager with nothing to hand over does not touch `cxl-obs`:
    /// a thread's first call there allocates, and building and dropping
    /// Fig. 5's stores with an up-front `active()` check here tripled
    /// their page faults (DESIGN.md §9, "Counted once").
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let s = &self.stats;
        let add = |name: &str, n: u64| {
            if n > 0 {
                cxl_obs::counter_add(name, n);
            }
        };
        add("tier/ssd_spills", s.ssd_spills);
        add("tier/hint_faults", s.hint_faults);
        add("tier/promotions", s.promotions);
        add("tier/promotions_rate_limited", s.promotions_rate_limited);
        add("tier/promotions_not_hot", s.promotions_not_hot);
        add("tier/promotions_below_streak", s.promotions_below_streak);
        add("tier/promotions_bw_suppressed", s.promotions_bw_suppressed);
        add("tier/demotions", s.demotions);
        add("tier/demotions_remote_socket", s.demotions_remote_socket);
        add(
            "tier/demotions_local_socket",
            s.demotions - s.demotions_remote_socket,
        );
        add("tier/demotions_target_full", s.demotions_target_full);
        add("tier/evictions_to_ssd", s.evictions_to_ssd);
        add("tier/ssd_loads", s.ssd_loads);
        add("tier/migration_bytes", s.migration_bytes);
        for n in self
            .nodes
            .iter()
            .filter(|n| n.promotions_to + n.demotions_to > 0)
        {
            add(
                &format!("tier/promotions/to_node{}", n.id.0),
                n.promotions_to,
            );
            add(&format!("tier/demotions/to_node{}", n.id.0), n.demotions_to);
        }
        if s.evacuations > 0 {
            cxl_obs::counter_add("tier/evacuations", s.evacuations);
            cxl_obs::counter_add("tier/evacuated_pages", s.evacuated_pages);
            cxl_obs::counter_add("tier/evacuated_to_ssd", s.evacuated_to_ssd);
            let mut drains = Histogram::new();
            self.evacuation_ns.iter().for_each(|&ns| drains.record(ns));
            cxl_obs::merge("tier/evacuation_duration_ns", &drains);
        }
        for (n, h) in self.nodes.iter().zip(&self.occupancy) {
            if h.count() > 0 {
                cxl_obs::merge(&format!("tier/node{}/occupancy_pages", n.id.0), h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{HotPageConfig, NumaBalancingConfig};
    use crate::trace::TierEvent;
    use cxl_topology::{SncMode, Topology};

    fn topo() -> Topology {
        Topology::paper_testbed(SncMode::Disabled)
    }

    // Node layout with SNC disabled: 0,1 = DRAM sockets; 2,3 = CXL on s0.
    const DRAM0: NodeId = NodeId(0);
    const CXL0: NodeId = NodeId(2);

    fn small_caps(dram_pages: u64, cxl_pages: u64) -> Vec<(NodeId, u64)> {
        vec![
            (DRAM0, dram_pages * 4096),
            (NodeId(1), 0),
            (CXL0, cxl_pages * 4096),
            (NodeId(3), 0),
        ]
    }

    #[test]
    fn bind_allocates_on_bound_node_then_errors() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(2, 0);
        let mut tm = TierManager::new(&topo(), cfg);
        let a = tm.alloc(SimTime::ZERO).unwrap();
        let b = tm.alloc(SimTime::ZERO).unwrap();
        assert_eq!(tm.location(a), Location::Node(DRAM0));
        assert_eq!(tm.location(b), Location::Node(DRAM0));
        assert_eq!(tm.alloc(SimTime::ZERO), Err(OutOfMemory));
        assert_eq!(tm.node_usage(DRAM0), (2, 2));
    }

    #[test]
    fn full_bind_spills_to_ssd_when_allowed() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(1, 0);
        cfg.allow_ssd_spill = true;
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc(SimTime::ZERO).unwrap();
        let spilled = tm.alloc(SimTime::ZERO).unwrap();
        assert_eq!(tm.location(spilled), Location::Ssd);
        assert_eq!(tm.stats().ssd_spills, 1);
    }

    #[test]
    fn interleave_1_1_splits_pages() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 1);
        let mut tm = TierManager::new(&topo(), cfg);
        for _ in 0..100 {
            tm.alloc(SimTime::ZERO).unwrap();
        }
        assert_eq!(tm.node_usage(DRAM0).0, 50);
        assert_eq!(tm.node_usage(CXL0).0, 50);
    }

    #[test]
    fn interleave_falls_through_when_tier_full() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 3, 1);
        cfg.capacity_override = small_caps(10, 1000);
        let mut tm = TierManager::new(&topo(), cfg);
        for _ in 0..100 {
            tm.alloc(SimTime::ZERO).unwrap();
        }
        assert_eq!(tm.node_usage(DRAM0).0, 10);
        assert_eq!(tm.node_usage(CXL0).0, 90);
    }

    #[test]
    fn touch_accumulates_traffic() {
        let mut tm = TierManager::new(&topo(), TierConfig::bind(vec![DRAM0]));
        let p = tm.alloc(SimTime::ZERO).unwrap();
        tm.touch(p, Rw::Read, 64, SimTime::from_ns(10));
        tm.touch(p, Rw::Write, 128, SimTime::from_ns(20));
        let e = tm.drain_epoch();
        assert_eq!(e.node_read_bytes[&DRAM0], 64);
        assert_eq!(e.node_write_bytes[&DRAM0], 128);
        // Drain resets.
        assert_eq!(tm.drain_epoch().total_node_bytes(), 0);
    }

    fn hinted_manager(mode: MigrationMode) -> (TierManager, PageId) {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.migration = mode;
        let mut tm = TierManager::new(&topo(), cfg);
        let p = tm.alloc(SimTime::ZERO).unwrap();
        // Force a scan so the page gets a hint.
        tm.tick(SimTime::from_ms(200));
        (tm, p)
    }

    #[test]
    fn numa_balancing_promotes_on_hint_fault() {
        let (mut tm, p) =
            hinted_manager(MigrationMode::NumaBalancing(NumaBalancingConfig::default()));
        assert_eq!(tm.location(p), Location::Node(CXL0));
        let out = tm.touch(p, Rw::Read, 64, SimTime::from_ms(300));
        assert!(out.hint_fault);
        assert!(out.promoted);
        assert!(out.fault_cost > SimTime::ZERO);
        // Promoted to a DRAM node on socket 0.
        assert_eq!(tm.location(p), Location::Node(DRAM0));
        assert_eq!(tm.stats().promotions, 1);
        assert!(tm.stats().migration_bytes >= 4096);
    }

    #[test]
    #[should_panic(expected = "touch of freed PageId(0)")]
    fn touching_a_freed_page_panics() {
        // A freed CXL page still carries its hint; taking that fault
        // would promote the page and take it off its node a second time.
        let (mut tm, p) =
            hinted_manager(MigrationMode::NumaBalancing(NumaBalancingConfig::default()));
        tm.free(p);
        tm.touch(p, Rw::Read, 64, SimTime::from_ms(300));
    }

    #[test]
    fn hot_page_selection_needs_two_faults_within_threshold() {
        let (mut tm, p) = hinted_manager(MigrationMode::HotPageSelection(HotPageConfig::default()));
        // First fault: not yet hot.
        let o1 = tm.touch(p, Rw::Read, 64, SimTime::from_ms(300));
        assert!(o1.hint_fault && !o1.promoted);
        assert_eq!(tm.stats().promotions_not_hot, 1);
        // Re-install hint, fault again inside the threshold: promotes.
        tm.tick(SimTime::from_ms(400));
        let o2 = tm.touch(p, Rw::Read, 64, SimTime::from_ms(500));
        assert!(o2.hint_fault && o2.promoted, "{o2:?}");
        assert_eq!(tm.location(p), Location::Node(DRAM0));
    }

    #[test]
    fn rate_limit_blocks_promotions() {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        let hp = HotPageConfig {
            // Budget of ~1 page per second.
            promote_rate_limit_bytes_per_sec: 4096.0,
            dynamic_threshold: false,
            ..Default::default()
        };
        cfg.migration = MigrationMode::HotPageSelection(hp);
        let mut tm = TierManager::new(&topo(), cfg);
        let pages = tm.alloc_n(64, SimTime::ZERO).unwrap();
        // Burst allows one page; prime every page with a first fault.
        tm.tick(SimTime::from_ms(200));
        for &p in &pages {
            tm.touch(p, Rw::Read, 64, SimTime::from_ms(300));
        }
        tm.tick(SimTime::from_ms(400));
        let mut promoted = 0;
        for &p in &pages {
            if tm.touch(p, Rw::Read, 64, SimTime::from_ms(500)).promoted {
                promoted += 1;
            }
        }
        assert!(promoted <= 2, "promoted {promoted} despite rate limit");
        assert!(tm.stats().promotions_rate_limited > 0);
    }

    /// Builds a CXL-bound manager with a hot-page config requiring a
    /// streak of `n` in-window faults, plus one allocated page.
    fn streak_manager(n: u32) -> (TierManager, PageId) {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.migration = MigrationMode::HotPageSelection(HotPageConfig {
            dynamic_threshold: false,
            promote_after_faults: n,
            ..Default::default()
        });
        let mut tm = TierManager::new(&topo(), cfg);
        let p = tm.alloc(SimTime::ZERO).unwrap();
        (tm, p)
    }

    /// Re-hints the page and faults it, returning the outcome.
    fn hint_and_fault(tm: &mut TierManager, p: PageId, at_ms: u64) -> AccessOutcome {
        tm.tick(SimTime::from_ms(at_ms));
        tm.touch(p, Rw::Read, 64, SimTime::from_ms(at_ms + 1))
    }

    #[test]
    fn promote_after_faults_defers_until_streak_builds() {
        let (mut tm, p) = streak_manager(3);
        // Fault 1: no previous fault, not hot.
        assert!(!hint_and_fault(&mut tm, p, 200).promoted);
        assert_eq!(tm.stats().promotions_not_hot, 1);
        // Faults 2 and 3: in-window but the streak (1, then 2) is below 3.
        assert!(!hint_and_fault(&mut tm, p, 300).promoted);
        assert!(!hint_and_fault(&mut tm, p, 400).promoted);
        assert_eq!(tm.stats().promotions_below_streak, 2);
        // Fault 4: streak reaches 3 — promoted.
        let out = hint_and_fault(&mut tm, p, 500);
        assert!(out.promoted, "{out:?}");
        assert_eq!(tm.location(p), Location::Node(DRAM0));
    }

    #[test]
    fn out_of_window_fault_resets_the_streak() {
        let (mut tm, p) = streak_manager(2);
        assert!(!hint_and_fault(&mut tm, p, 200).promoted); // First fault.
        assert!(!hint_and_fault(&mut tm, p, 300).promoted); // Streak 1 of 2.
                                                            // A fault outside the 1 s hot threshold zeroes the streak...
        assert!(!hint_and_fault(&mut tm, p, 2400).promoted);
        assert_eq!(tm.stats().promotions_not_hot, 2);
        // ...so the next in-window fault is streak 1 again, still deferred.
        assert!(!hint_and_fault(&mut tm, p, 2500).promoted);
        // And one more completes the streak.
        assert!(hint_and_fault(&mut tm, p, 2600).promoted);
    }

    #[test]
    fn alloc_preferring_overrides_policy_until_full() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(4, 1);
        let mut tm = TierManager::new(&topo(), cfg);
        // Preferred node wins over the Bind(DRAM0) policy.
        let a = tm.alloc_preferring(CXL0, SimTime::ZERO).unwrap();
        assert_eq!(tm.location(a), Location::Node(CXL0));
        // CXL full: falls back to the policy node.
        let b = tm.alloc_preferring(CXL0, SimTime::ZERO).unwrap();
        assert_eq!(tm.location(b), Location::Node(DRAM0));
        // Unknown node is an error, not a panic.
        assert!(tm.alloc_preferring(NodeId(99), SimTime::ZERO).is_err());
    }

    #[test]
    fn promotion_demotes_cold_page_when_dram_full() {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.migration = MigrationMode::NumaBalancing(NumaBalancingConfig::default());
        cfg.capacity_override = small_caps(1, 100);
        // Watermark 1.0 disables background demotion; only promotion
        // pressure forces the swap.
        cfg.demotion_watermark = 1.0;
        let mut tm = TierManager::new(&topo(), cfg);
        let cold = {
            // Fill the single DRAM slot with a direct allocation.
            let mut c2 = TierConfig::bind(vec![DRAM0]);
            c2.capacity_override = small_caps(1, 100);
            // Reuse the same manager instead: allocate via policy Bind(CXL),
            // so place the cold page manually through promotion.
            drop(c2);
            let p = tm.alloc(SimTime::ZERO).unwrap(); // On CXL.
            tm.tick(SimTime::from_ms(200));
            tm.touch(p, Rw::Read, 64, SimTime::from_ms(250)); // Promote: DRAM now full.
            assert_eq!(tm.location(p), Location::Node(DRAM0));
            p
        };
        // Age the cold page's CLOCK bit via a demotion attempt cycle.
        let hot = tm.alloc(SimTime::ZERO).unwrap();
        tm.tick(SimTime::from_ms(400));
        let out = tm.touch(hot, Rw::Read, 64, SimTime::from_ms(450));
        assert!(out.promoted, "{out:?}");
        assert_eq!(tm.location(hot), Location::Node(DRAM0));
        // The cold page was pushed out to CXL.
        assert_eq!(tm.location(cold), Location::Node(CXL0));
        assert!(tm.stats().demotions >= 1);
    }

    #[test]
    fn watermark_demotion_drains_overfull_dram() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(10, 100);
        cfg.demotion_watermark = 0.5;
        cfg.migration = MigrationMode::NumaBalancing(NumaBalancingConfig::default());
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc_n(10, SimTime::ZERO).unwrap();
        assert_eq!(tm.node_usage(DRAM0).0, 10);
        tm.tick(SimTime::from_ms(100));
        assert_eq!(tm.node_usage(DRAM0).0, 5);
        assert_eq!(tm.node_usage(CXL0).0, 5);
    }

    #[test]
    fn evict_and_reload_ssd() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.allow_ssd_spill = true;
        let mut tm = TierManager::new(&topo(), cfg);
        let p = tm.alloc(SimTime::ZERO).unwrap();
        tm.evict_to_ssd(p).unwrap();
        assert!(tm.location(p).is_ssd());
        assert_eq!(tm.node_usage(DRAM0).0, 0);
        tm.load_from_ssd(p, SimTime::from_ms(1)).unwrap();
        assert_eq!(tm.location(p), Location::Node(DRAM0));
        assert_eq!(tm.stats().ssd_loads, 1);
    }

    #[test]
    fn dynamic_threshold_tightens_under_candidate_flood() {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        let hp = HotPageConfig {
            promote_rate_limit_bytes_per_sec: 4096.0, // 1 page/s budget.
            dynamic_threshold: true,
            ..Default::default()
        };
        cfg.migration = MigrationMode::HotPageSelection(hp);
        let mut tm = TierManager::new(&topo(), cfg);
        let before = tm.hot_threshold();
        let pages = tm.alloc_n(512, SimTime::ZERO).unwrap();
        // Generate many candidates: two fault rounds per page.
        tm.tick(SimTime::from_ms(100));
        for &p in &pages {
            tm.touch(p, Rw::Read, 64, SimTime::from_ms(150));
        }
        tm.tick(SimTime::from_ms(300));
        for &p in &pages {
            tm.touch(p, Rw::Read, 64, SimTime::from_ms(350));
        }
        // Cross an adjustment boundary.
        tm.tick(SimTime::from_ms(1100));
        assert!(
            tm.hot_threshold() < before,
            "threshold {:?} not tightened from {:?}",
            tm.hot_threshold(),
            before
        );
    }

    #[test]
    fn residency_reports_all_locations() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 1);
        cfg.allow_ssd_spill = true;
        let mut tm = TierManager::new(&topo(), cfg);
        for _ in 0..10 {
            tm.alloc(SimTime::ZERO).unwrap();
        }
        let p = tm.alloc(SimTime::ZERO).unwrap();
        tm.evict_to_ssd(p).unwrap();
        let res = tm.residency();
        let total: u64 = res.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 11);
        assert!(res.iter().any(|&(l, _)| l == Location::Ssd));
    }

    fn bw_aware_manager() -> TierManager {
        use crate::migration::BandwidthAwareConfig;
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.migration = MigrationMode::BandwidthAware(BandwidthAwareConfig {
            base: HotPageConfig {
                balancing: NumaBalancingConfig {
                    scan_period: SimTime::from_ms(10),
                    scan_pages: 4096,
                    hot_threshold: SimTime::from_secs(1),
                    hint_fault_cost: SimTime::from_ns(300),
                },
                promote_rate_limit_bytes_per_sec: 1e12,
                dynamic_threshold: false,
                adjust_period: SimTime::from_secs(1),
                promote_after_faults: 1,
            },
            high_watermark: 0.75,
            demote_batch: 8,
        });
        TierManager::new(&topo(), cfg)
    }

    #[test]
    fn bandwidth_aware_promotes_when_dram_is_calm() {
        let mut tm = bw_aware_manager();
        let p = tm.alloc(SimTime::ZERO).unwrap();
        tm.set_dram_bandwidth_util(0.30);
        tm.tick(SimTime::from_ms(20));
        tm.touch(p, Rw::Read, 64, SimTime::from_ms(25)); // First fault.
        tm.tick(SimTime::from_ms(40));
        let out = tm.touch(p, Rw::Read, 64, SimTime::from_ms(45));
        assert!(out.promoted, "{out:?}");
        assert_eq!(tm.location(p), Location::Node(DRAM0));
    }

    #[test]
    fn bandwidth_aware_suppresses_promotion_under_pressure() {
        let mut tm = bw_aware_manager();
        let p = tm.alloc(SimTime::ZERO).unwrap();
        tm.set_dram_bandwidth_util(0.90);
        tm.tick(SimTime::from_ms(20));
        tm.touch(p, Rw::Read, 64, SimTime::from_ms(25));
        tm.tick(SimTime::from_ms(40));
        let out = tm.touch(p, Rw::Read, 64, SimTime::from_ms(45));
        assert!(!out.promoted, "{out:?}");
        assert_eq!(tm.location(p), Location::Node(CXL0));
        assert!(tm.stats().promotions_bw_suppressed > 0);
    }

    #[test]
    fn bandwidth_aware_demotes_under_pressure() {
        use crate::migration::BandwidthAwareConfig;
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.migration = MigrationMode::BandwidthAware(BandwidthAwareConfig {
            demote_batch: 8,
            ..Default::default()
        });
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc_n(100, SimTime::ZERO).unwrap();
        assert_eq!(tm.node_usage(DRAM0).0, 100);
        tm.set_dram_bandwidth_util(0.95);
        tm.tick(SimTime::from_ms(200));
        // One tick demotes up to demote_batch cold pages to CXL.
        let (dram_used, _) = tm.node_usage(DRAM0);
        assert!(dram_used <= 92, "dram used {dram_used}");
        assert!(tm.node_usage(CXL0).0 >= 8);
        // Pressure released: no further demotion.
        tm.set_dram_bandwidth_util(0.40);
        let before = tm.node_usage(DRAM0).0;
        tm.tick(SimTime::from_ms(400));
        assert_eq!(tm.node_usage(DRAM0).0, before);
    }

    #[test]
    fn dram_util_is_clamped() {
        let mut tm = bw_aware_manager();
        tm.set_dram_bandwidth_util(7.0);
        assert_eq!(tm.dram_bandwidth_util(), 1.0);
        tm.set_dram_bandwidth_util(-1.0);
        assert_eq!(tm.dram_bandwidth_util(), 0.0);
    }

    #[test]
    fn trace_captures_migration_timeline() {
        let (mut tm, p) =
            hinted_manager(MigrationMode::NumaBalancing(NumaBalancingConfig::default()));
        tm.enable_trace(16);
        tm.touch(p, Rw::Read, 64, SimTime::from_ms(300));
        let trace = tm.trace().expect("trace enabled");
        assert_eq!(
            trace.count_matching(|e| matches!(e, TierEvent::Promoted { .. })),
            1
        );
        let ev = trace.events().next().unwrap();
        assert_eq!(ev.at, SimTime::from_ms(300));
        // Draining empties it.
        assert_eq!(tm.trace_mut().unwrap().drain().len(), 1);
        assert!(tm.trace().unwrap().is_empty());
    }

    #[test]
    fn trace_disabled_by_default() {
        let tm = TierManager::new(&topo(), TierConfig::bind(vec![DRAM0]));
        assert!(tm.trace().is_none());
    }

    #[test]
    fn bandwidth_util_sanitizes_non_finite_input() {
        let mut tm = TierManager::new(&topo(), TierConfig::bind(vec![DRAM0]));
        tm.set_dram_bandwidth_util(0.5);
        assert_eq!(tm.dram_bandwidth_util(), 0.5);
        // A NaN ratio (0/0 from an idle interval) must not stick: every
        // later watermark comparison against a NaN util is false, which
        // would silently disable the §5.3 policy.
        tm.set_dram_bandwidth_util(f64::NAN);
        assert_eq!(tm.dram_bandwidth_util(), 0.0);
        tm.set_dram_bandwidth_util(f64::INFINITY);
        assert_eq!(tm.dram_bandwidth_util(), 1.0);
        tm.set_dram_bandwidth_util(f64::NEG_INFINITY);
        assert_eq!(tm.dram_bandwidth_util(), 0.0);
        tm.set_dram_bandwidth_util(-3.0);
        assert_eq!(tm.dram_bandwidth_util(), 0.0);
        tm.set_dram_bandwidth_util(7.0);
        assert_eq!(tm.dram_bandwidth_util(), 1.0);
    }

    #[test]
    fn empty_manager_snapshot_has_finite_ratios() {
        // Zero resident pages: top_tier_fraction's denominator is 0 and
        // the accessor must return 0.0, not NaN.
        let tm = TierManager::new(&topo(), TierConfig::bind(vec![DRAM0]));
        let snap = tm.snapshot();
        assert_eq!(snap.resident_pages(), 0);
        assert_eq!(snap.top_tier_fraction, 0.0);
        assert_eq!(snap.stats.promotion_rate(), 0.0);
    }

    #[test]
    fn snapshot_reflects_placement() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 3, 1);
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc_n(100, SimTime::ZERO).unwrap();
        let snap = tm.snapshot();
        assert_eq!(snap.resident_pages(), 100);
        assert!((snap.top_tier_fraction - 0.75).abs() < 1e-9);
        assert_eq!(snap.ssd_pages, 0);
        assert!(snap.summary().contains("75% top tier"));
    }

    /// The configured promotion rate limit of a rate-limited mode.
    fn promote_rate(tm: &TierManager) -> Option<f64> {
        match &tm.cfg.migration {
            MigrationMode::HotPageSelection(h) => Some(h.promote_rate_limit_bytes_per_sec),
            MigrationMode::BandwidthAware(b) => Some(b.base.promote_rate_limit_bytes_per_sec),
            _ => None,
        }
    }

    #[test]
    fn set_promote_rate_retunes_config_and_bucket() {
        let mut tm = bw_aware_manager();
        assert_eq!(promote_rate(&tm), Some(1e12));
        tm.set_promote_rate(SimTime::from_ms(10), 4096.0).unwrap();
        assert_eq!(promote_rate(&tm), Some(4096.0));
        // The live bucket follows: the old (effectively unlimited)
        // budget is gone, so a promotion-sized take beyond the new
        // one-second burst fails.
        let b = tm.promo_bucket.as_mut().unwrap();
        assert_eq!(b.rate_per_sec(), 4096.0);
        assert_eq!(b.burst(), 4096.0);
        assert!(!b.try_take(SimTime::from_ms(10), 8192.0));
    }

    #[test]
    fn set_promote_rate_rejects_bad_inputs() {
        let mut tm = bw_aware_manager();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = tm
                .set_promote_rate(SimTime::ZERO, bad)
                .expect_err("invalid rate must be rejected");
            assert!(matches!(err, TierError::InvalidConfig(_)), "{err:?}");
        }
        assert_eq!(promote_rate(&tm), Some(1e12), "config unchanged");
        // Non-rate-limited modes have no bucket to retune.
        let mut plain = TierManager::new(&topo(), TierConfig::bind(vec![DRAM0]));
        assert_eq!(promote_rate(&plain), None);
        let err = plain
            .set_promote_rate(SimTime::ZERO, 4096.0)
            .expect_err("MigrationMode::None must reject");
        assert!(matches!(err, TierError::WrongPolicy(_)), "{err:?}");
    }

    #[test]
    fn free_releases_capacity_once() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(2, 0);
        let mut tm = TierManager::new(&topo(), cfg);
        let a = tm.alloc(SimTime::ZERO).unwrap();
        tm.alloc(SimTime::ZERO).unwrap();
        assert!(tm.alloc(SimTime::ZERO).is_err());
        tm.free(a);
        assert_eq!(tm.node_usage(DRAM0).0, 1);
        assert!(tm.alloc(SimTime::ZERO).is_ok());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut tm = TierManager::new(&topo(), TierConfig::bind(vec![DRAM0]));
        let p = tm.alloc(SimTime::ZERO).unwrap();
        tm.free(p);
        tm.free(p);
    }

    #[test]
    fn evicting_a_freed_page_is_an_error() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(2, 0);
        cfg.allow_ssd_spill = true;
        let mut tm = TierManager::new(&topo(), cfg);
        let p = tm.alloc(SimTime::ZERO).unwrap();
        tm.free(p);
        assert_eq!(tm.evict_to_ssd(p), Err(TierError::Freed(p)));
        // The capacity `free` returned is not returned a second time.
        assert_eq!(tm.node_usage(DRAM0), (0, 2));
        assert_eq!(tm.stats().evictions_to_ssd, 0);
    }

    #[test]
    fn reloading_a_freed_ssd_page_is_an_error() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(2, 0);
        cfg.allow_ssd_spill = true;
        let mut tm = TierManager::new(&topo(), cfg);
        let p = tm.alloc(SimTime::ZERO).unwrap();
        tm.evict_to_ssd(p).unwrap();
        tm.free(p);
        let err = tm.load_from_ssd(p, SimTime::ZERO).unwrap_err();
        assert_eq!(err, TierError::Freed(p));
        assert!(err.to_string().contains("freed"), "{err}");
        // Nothing was placed or charged.
        assert_eq!(tm.node_usage(DRAM0), (0, 2));
        assert_eq!(tm.stats().ssd_loads, 0);
    }

    #[test]
    fn residency_skips_freed_ssd_pages() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(1, 0);
        cfg.allow_ssd_spill = true;
        let mut tm = TierManager::new(&topo(), cfg);
        let resident = tm.alloc(SimTime::ZERO).unwrap();
        let spilled = tm.alloc_n(2, SimTime::ZERO).unwrap();
        tm.free(spilled[0]);
        assert_eq!(tm.location(resident), Location::Node(DRAM0));
        assert_eq!(
            tm.residency(),
            vec![(Location::Node(DRAM0), 1), (Location::Ssd, 1)]
        );
        assert_eq!(tm.snapshot().ssd_pages, 1);
        tm.free(spilled[1]);
        assert_eq!(tm.residency(), vec![(Location::Node(DRAM0), 1)]);
        assert_eq!(tm.snapshot().ssd_pages, 0);
    }

    #[test]
    fn fresh_manager_hands_out_dense_ids_and_never_reuses_one() {
        // Callers index per-page arrays by `PageId.0` on this contract.
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(3, 4);
        cfg.allow_ssd_spill = true;
        let mut tm = TierManager::new(&topo(), cfg);
        let mut ids = vec![tm.alloc(SimTime::ZERO).unwrap()];
        ids.extend(tm.alloc_n(2, SimTime::ZERO).unwrap());
        ids.push(tm.alloc_preferring(CXL0, SimTime::ZERO).unwrap());
        // DRAM0 is full: the next two spill to SSD.
        ids.extend(tm.alloc_n(2, SimTime::ZERO).unwrap());
        assert!(tm.location(ids[5]).is_ssd());
        tm.free(ids[0]);
        tm.free(ids[4]);
        // Freed ids (one resident, one on SSD) are not handed out again.
        ids.push(tm.alloc(SimTime::ZERO).unwrap());
        ids.push(tm.alloc_preferring(CXL0, SimTime::ZERO).unwrap());
        assert_eq!(ids, (0..8).map(PageId).collect::<Vec<_>>());
        assert_eq!(tm.location(ids[6]), Location::Node(DRAM0));
        assert_eq!(tm.location(ids[7]), Location::Node(CXL0));
    }

    #[test]
    fn page_size_must_be_a_power_of_two() {
        for bad in [0, 3_000] {
            let mut cfg = TierConfig::bind(vec![DRAM0]);
            cfg.page_size = bad;
            let err = TierManager::try_new(&topo(), cfg).expect_err("page size accepted");
            assert!(matches!(err, TierError::InvalidConfig(_)), "{err:?}");
            assert!(
                err.to_string().contains(&format!("not {bad} bytes")),
                "{err}"
            );
        }
    }

    #[test]
    fn topology_too_large_to_pack_is_rejected() {
        use cxl_topology::{CxlDevice, DdrGeneration, Socket};
        // One DRAM node plus `devices` expanders.
        let topo_with = |devices: usize| Topology {
            sockets: vec![
                Socket::new(SocketId(0), 56, 8, DdrGeneration::Ddr5_4800, 512)
                    .with_devices(vec![CxlDevice::a1000(); devices]),
            ],
            snc: SncMode::Disabled,
            upi: Vec::new(),
        };
        let too_big = topo_with(u16::MAX as usize - 1);
        assert_eq!(too_big.nodes().len(), u16::MAX as usize);
        let err = TierManager::try_new(&too_big, TierConfig::bind(vec![DRAM0]))
            .expect_err("node indices must not collide with the SSD sentinel");
        assert!(matches!(err, TierError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("65535 NUMA nodes"), "{err}");
        // One node fewer packs, and the last node is usable.
        let largest = topo_with(u16::MAX as usize - 2);
        let last = NodeId(largest.nodes().len() - 1);
        let mut cfg = TierConfig::bind(vec![last]);
        cfg.allow_ssd_spill = true;
        let mut tm = TierManager::try_new(&largest, cfg).unwrap();
        let p = tm.alloc(SimTime::ZERO).unwrap();
        assert_eq!(tm.location(p), Location::Node(last));
        tm.evict_to_ssd(p).unwrap();
        assert_eq!(tm.location(p), Location::Ssd);
    }

    #[test]
    #[should_panic(expected = "policy references unknown node")]
    fn unknown_node_in_policy_panics() {
        TierManager::new(&topo(), TierConfig::bind(vec![NodeId(99)]));
    }

    /// Two sockets, each with DRAM + one CXL expander.
    /// Nodes: 0 = DRAM s0, 1 = DRAM s1, 2 = CXL s0, 3 = CXL s1.
    fn two_socket_cxl_topo() -> Topology {
        use cxl_topology::builder::TopologyBuilder;
        use cxl_topology::{CxlDevice, DdrGeneration};
        TopologyBuilder::new()
            .socket(56, 8, DdrGeneration::Ddr5_4800, 512)
            .with_cxl(CxlDevice::a1000())
            .socket(56, 8, DdrGeneration::Ddr5_4800, 512)
            .with_cxl(CxlDevice::a1000())
            .upi_links(2, 62.4)
            .build()
    }

    #[test]
    fn demotion_prefers_accessor_socket_cxl() {
        // Workload runs on socket 1; node-id-order first-fit would pick
        // the socket-0 expander (node 2) even though the local one
        // (node 3) has room.
        let mut cfg = TierConfig::bind(vec![NodeId(1)]);
        cfg.accessor_socket = SocketId(1);
        cfg.capacity_override = vec![
            (NodeId(0), 0),
            (NodeId(1), 10 * 4096),
            (NodeId(2), 100 * 4096),
            (NodeId(3), 4 * 4096),
        ];
        cfg.demotion_watermark = 0.5;
        cfg.migration = MigrationMode::NumaBalancing(NumaBalancingConfig::default());
        let reg = std::sync::Arc::new(cxl_obs::Registry::new());
        let guard = cxl_obs::scope(reg.clone());
        let mut tm = TierManager::new(&two_socket_cxl_topo(), cfg);
        tm.alloc_n(10, SimTime::ZERO).unwrap();
        tm.tick(SimTime::from_ms(100));

        // Watermark 0.5 demotes 5 pages: local CXL takes its full 4,
        // only the overflow page crosses the UPI link.
        assert_eq!(tm.node_usage(NodeId(1)).0, 5);
        assert_eq!(tm.node_usage(NodeId(3)).0, 4);
        assert_eq!(tm.node_usage(NodeId(2)).0, 1);
        assert_eq!(tm.stats().demotions, 5);
        assert_eq!(tm.stats().demotions_remote_socket, 1);
        // The move-time re-validation never fired: each demote_one call
        // resolved a fresh in-capacity target.
        assert_eq!(tm.stats().demotions_target_full, 0);
        // The counts reach the registry when the manager drops.
        drop(tm);
        drop(guard);
        assert_eq!(reg.counter("tier/demotions/to_node3"), Some(4));
        assert_eq!(reg.counter("tier/demotions/to_node2"), Some(1));
        assert_eq!(reg.counter("tier/demotions_local_socket"), Some(4));
        assert_eq!(reg.counter("tier/demotions_remote_socket"), Some(1));
    }

    #[test]
    fn demotion_stays_local_until_local_cxl_exhausted() {
        let mut cfg = TierConfig::bind(vec![NodeId(0)]);
        cfg.accessor_socket = SocketId(0);
        cfg.capacity_override = vec![
            (NodeId(0), 8 * 4096),
            (NodeId(1), 0),
            (NodeId(2), 8 * 4096),
            (NodeId(3), 8 * 4096),
        ];
        cfg.demotion_watermark = 0.25;
        cfg.migration = MigrationMode::NumaBalancing(NumaBalancingConfig::default());
        let reg = std::sync::Arc::new(cxl_obs::Registry::new());
        let guard = cxl_obs::scope(reg.clone());
        let mut tm = TierManager::new(&two_socket_cxl_topo(), cfg);
        tm.alloc_n(8, SimTime::ZERO).unwrap();
        tm.tick(SimTime::from_ms(1));
        // Six pages leave DRAM to reach the 0.25 watermark; the local
        // expander had room for all of them, so none crossed sockets.
        assert_eq!(tm.node_usage(NodeId(2)).0, 6);
        assert_eq!(tm.node_usage(NodeId(3)).0, 0);
        assert_eq!(tm.stats().demotions, 6);
        assert_eq!(tm.stats().demotions_remote_socket, 0);
        drop(tm);
        drop(guard);
        assert_eq!(reg.counter("tier/demotions_local_socket"), Some(6));
        assert_eq!(reg.counter("tier/demotions_remote_socket"), None);
    }

    #[test]
    fn occupancy_histograms_sampled_each_tick() {
        let mut cfg = TierConfig::bind(vec![DRAM0]);
        cfg.capacity_override = small_caps(10, 100);
        let mut tm = TierManager::new(&topo(), cfg);
        let reg = std::sync::Arc::new(cxl_obs::Registry::new());
        let guard = cxl_obs::scope(reg.clone());
        tm.alloc_n(4, SimTime::ZERO).unwrap();
        tm.tick(SimTime::from_ms(1));
        tm.alloc_n(3, SimTime::ZERO).unwrap();
        tm.tick(SimTime::from_ms(2));
        drop(tm);
        drop(guard);
        let h = reg
            .histogram("tier/node0/occupancy_pages")
            .expect("occupancy sampled");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 4);
        assert_eq!(h.max(), 7);
        // Zero-capacity nodes are not sampled.
        assert!(reg.histogram("tier/node1/occupancy_pages").is_none());
    }

    #[test]
    fn evacuate_moves_every_page_and_fences_the_node() {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.capacity_override = small_caps(8, 8);
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc_n(8, SimTime::ZERO).unwrap();
        assert_eq!(tm.node_usage(CXL0).0, 8);

        let report = tm.evacuate(CXL0, SimTime::from_ms(1)).unwrap();
        assert_eq!(report.pages_moved, 8);
        assert_eq!(report.pages_to_ssd, 0);
        assert_eq!(report.total_pages(), 8);
        // Only DRAM0 has room, so every page lands there.
        assert_eq!(tm.node_usage(CXL0), (0, 0));
        assert_eq!(tm.node_usage(DRAM0).0, 8);
        assert_eq!(tm.stats().evacuations, 1);
        assert_eq!(tm.stats().evacuated_pages, 8);
        // The fenced node rejects future placements.
        assert!(tm.alloc(SimTime::from_ms(2)).is_err());
    }

    #[test]
    fn evacuation_prefers_surviving_expander_over_dram() {
        let mut cfg = TierConfig::bind(vec![NodeId(2)]);
        cfg.capacity_override = vec![
            (NodeId(0), 64 * 4096),
            (NodeId(1), 64 * 4096),
            (NodeId(2), 64 * 4096),
            (NodeId(3), 64 * 4096),
        ];
        let mut tm = TierManager::new(&two_socket_cxl_topo(), cfg);
        tm.alloc_n(6, SimTime::ZERO).unwrap();
        tm.evacuate(NodeId(2), SimTime::from_ms(1)).unwrap();
        // Node 3 is the surviving expander (CXL on socket 1); cold
        // evacuated pages should stay off DRAM while it has room.
        assert_eq!(tm.node_usage(NodeId(3)).0, 6);
        assert_eq!(tm.node_usage(NodeId(0)).0, 0);
        assert_eq!(tm.node_usage(NodeId(1)).0, 0);
    }

    #[test]
    fn evacuation_spills_to_ssd_when_survivors_are_full() {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.capacity_override = small_caps(2, 4);
        cfg.allow_ssd_spill = true;
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc_n(4, SimTime::ZERO).unwrap();
        let report = tm.evacuate(CXL0, SimTime::from_ms(1)).unwrap();
        assert_eq!(report.pages_moved, 2);
        assert_eq!(report.pages_to_ssd, 2);
        assert_eq!(tm.node_usage(DRAM0).0, 2);
        assert_eq!(tm.stats().evacuated_to_ssd, 2);
        let on_ssd = tm
            .residency()
            .iter()
            .find(|&&(l, _)| l == Location::Ssd)
            .map(|&(_, c)| c);
        assert_eq!(on_ssd, Some(2));
    }

    #[test]
    fn evacuation_without_spill_errors_when_survivors_are_full() {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.capacity_override = small_caps(2, 4);
        cfg.allow_ssd_spill = false;
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc_n(4, SimTime::ZERO).unwrap();
        let err = tm.evacuate(CXL0, SimTime::from_ms(1)).expect_err("no room");
        assert!(matches!(err, TierError::OutOfMemory(_)), "{err:?}");
        // The node stays fenced even though the drain was partial, so a
        // retry after freeing memory makes progress.
        assert_eq!(tm.node_usage(CXL0).1, 0);
    }

    #[test]
    fn evacuation_is_charged_against_the_promotion_budget() {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.capacity_override = small_caps(16, 16);
        cfg.migration = MigrationMode::HotPageSelection(HotPageConfig {
            // 1 page/s budget with a one-second (1-page) burst.
            promote_rate_limit_bytes_per_sec: 4096.0,
            ..Default::default()
        });
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc_n(8, SimTime::ZERO).unwrap();
        let report = tm.evacuate(CXL0, SimTime::from_secs(1)).unwrap();
        // Burst covers 1 page instantly; the other 7 drain at 1 page/s.
        assert_eq!(report.started_at, SimTime::from_secs(1));
        assert_eq!(report.completed_at, SimTime::from_secs(8));
        assert_eq!(report.duration(), SimTime::from_secs(7));
    }

    #[test]
    fn shrink_node_drains_only_the_overflow() {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.capacity_override = small_caps(8, 4);
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc_n(4, SimTime::ZERO).unwrap();
        let report = tm.shrink_node(CXL0, 2 * 4096, SimTime::from_ms(1)).unwrap();
        assert_eq!(report.pages_moved, 2);
        assert_eq!(tm.node_usage(CXL0), (2, 2));
        assert_eq!(tm.node_usage(DRAM0).0, 2);
        // Growing back via shrink_node is a no-op on capacity.
        let report = tm
            .shrink_node(CXL0, 64 * 4096, SimTime::from_ms(2))
            .unwrap();
        assert_eq!(report.total_pages(), 0);
        assert_eq!(tm.node_usage(CXL0), (2, 2));
    }

    #[test]
    fn evacuate_unknown_node_is_an_error() {
        let mut tm = TierManager::new(&topo(), TierConfig::bind(vec![DRAM0]));
        let err = tm.evacuate(NodeId(9), SimTime::ZERO).expect_err("bad node");
        assert!(matches!(err, TierError::UnknownNode(NodeId(9))), "{err:?}");
    }

    #[test]
    fn grow_node_raises_capacity_without_moving_pages() {
        let mut cfg = TierConfig::bind(vec![CXL0]);
        cfg.capacity_override = small_caps(8, 4);
        let mut tm = TierManager::new(&topo(), cfg);
        tm.alloc_n(4, SimTime::ZERO).unwrap();
        tm.grow_node(CXL0, 16 * 4096).unwrap();
        assert_eq!(tm.node_usage(CXL0), (4, 16));
        // Growth is monotone: a smaller target never shrinks.
        tm.grow_node(CXL0, 2 * 4096).unwrap();
        assert_eq!(tm.node_usage(CXL0), (4, 16));
        // Lease-shrink then re-grow round-trips through both paths.
        let report = tm.shrink_node(CXL0, 2 * 4096, SimTime::from_ms(1)).unwrap();
        assert_eq!(report.pages_moved, 2);
        tm.grow_node(CXL0, 8 * 4096).unwrap();
        assert_eq!(tm.node_usage(CXL0), (2, 8));
        let err = tm.grow_node(NodeId(9), 4096).expect_err("bad node");
        assert!(matches!(err, TierError::UnknownNode(NodeId(9))), "{err:?}");
    }
}
