//! A tier manager priced through `cxl-perf`: the per-node latency table
//! an application reads on every access, repriced once per epoch from
//! the application's own tier traffic. The KV store and the managed heap
//! both see memory through one [`PricedTier`].

use cxl_perf::{AccessMix, MemSystem, ResourceKind};
use cxl_sim::SimTime;
use cxl_topology::{MemoryTier, NodeId, Topology};

use crate::{EvacuationReport, TierConfig, TierError, TierManager};

/// A [`TierManager`] plus the performance model that prices its traffic.
pub struct PricedTier {
    tm: TierManager,
    sys: MemSystem,
    /// Per-node average access latency, ns, refreshed every epoch.
    lat_ns: Vec<f64>,
    epoch_start: SimTime,
}

/// Idle read latency from the first socket to every node, ns. Offline
/// (failed) expanders have no latency; infinity keeps any stale access
/// to them visibly wrong without panicking the pricing path.
fn idle_latency_table(sys: &MemSystem) -> Vec<f64> {
    sys.nodes()
        .iter()
        .map(|n| {
            sys.try_idle_latency_ns(sys.sockets()[0], n.id, AccessMix::read_only())
                .unwrap_or(f64::INFINITY)
        })
        .collect()
}

impl PricedTier {
    /// Builds the manager and the performance model for `topo`, with
    /// every node priced at its idle latency and the first epoch opening
    /// at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid for `topo` (see [`TierManager::new`]).
    pub fn new(topo: &Topology, cfg: TierConfig) -> Self {
        let sys = MemSystem::new(topo);
        let lat_ns = idle_latency_table(&sys);
        Self {
            tm: TierManager::new(topo, cfg),
            sys,
            lat_ns,
            epoch_start: SimTime::ZERO,
        }
    }

    /// The tier manager.
    #[inline]
    pub fn tier(&self) -> &TierManager {
        &self.tm
    }

    /// The tier manager, for placement, touches and migration.
    #[inline]
    pub fn tier_mut(&mut self) -> &mut TierManager {
        &mut self.tm
    }

    /// The performance model of the current (possibly degraded)
    /// topology.
    pub fn system(&self) -> &MemSystem {
        &self.sys
    }

    /// Average access latency to `node` at the current epoch's prices, ns.
    #[inline]
    pub fn latency_ns(&self, node: NodeId) -> f64 {
        self.lat_ns[node.0]
    }

    /// Rebuilds the performance model for a (possibly degraded) topology
    /// and resets every node to its idle latency there. Pages do not
    /// move; use it for health changes (link downgrade, latency
    /// inflation) that leave capacity alone.
    pub fn apply_topology(&mut self, topo: &Topology) {
        self.sys = MemSystem::new(topo);
        self.lat_ns = idle_latency_table(&self.sys);
    }

    /// Closes the epoch at `now`: turns its traffic into flows from the
    /// first socket (regular, allocating writes, not NT streams), solves
    /// them into the latency table, feeds the socket's DRAM bandwidth
    /// utilization to the manager, and runs the manager's periodic work.
    pub fn reprice(&mut self, now: SimTime) {
        let dur = now.saturating_sub(self.epoch_start);
        let epoch = self.tm.drain_epoch();
        if dur > SimTime::ZERO {
            let socket = self.sys.sockets()[0];
            let mut flows = epoch.flows(socket, dur, false);
            // Traffic recorded on a node that has since failed cannot be
            // priced on the degraded topology; drop it (the pages are
            // gone from that node too).
            flows.retain(|f| self.sys.node_online(f.node));
            if !flows.is_empty() {
                let res = self.sys.solve(&flows);
                for (f, o) in flows.iter().zip(res.flows.iter()) {
                    self.lat_ns[f.node.0] = o.latency_ns;
                }
                // The §5.3 bandwidth-awareness input, from the same
                // solve: the accessor socket's DRAM DDR-group utilization
                // drives the promote/demote watermarks on the tick below.
                // A no-op unless the bandwidth-aware mode is configured.
                if let Some(dram) = self
                    .sys
                    .nodes()
                    .iter()
                    .find(|n| n.socket == socket && n.tier == MemoryTier::LocalDram)
                {
                    self.tm.set_dram_bandwidth_util(
                        res.utilization_of(ResourceKind::DdrGroup(dram.id)),
                    );
                }
            }
        }
        self.tm.tick(now);
        self.epoch_start = now;
    }

    /// Reacts to an expander failure: fences and drains `node` under the
    /// promotion rate limiter, advances `now` to the end of the drain,
    /// and reprices there on `topo`, which must already carry the
    /// failure.
    pub fn evacuate(
        &mut self,
        topo: &Topology,
        node: NodeId,
        now: &mut SimTime,
    ) -> Result<EvacuationReport, TierError> {
        let report = self.tm.evacuate(node, *now)?;
        self.degrade(topo, &report, now);
        Ok(report)
    }

    /// Reacts to a capacity loss: shrinks `node` to `new_capacity_bytes`,
    /// draining the overflow, advances `now` to the end of the drain, and
    /// reprices there on `topo`.
    pub fn shrink(
        &mut self,
        topo: &Topology,
        node: NodeId,
        new_capacity_bytes: u64,
        now: &mut SimTime,
    ) -> Result<EvacuationReport, TierError> {
        let report = self.tm.shrink_node(node, new_capacity_bytes, *now)?;
        self.degrade(topo, &report, now);
        Ok(report)
    }

    fn degrade(&mut self, topo: &Topology, report: &EvacuationReport, now: &mut SimTime) {
        *now = (*now).max(report.completed_at);
        self.apply_topology(topo);
        self.reprice(*now);
    }
}
