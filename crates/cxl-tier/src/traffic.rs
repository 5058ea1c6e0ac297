//! Per-epoch traffic aggregation: the bridge from page-level accesses to
//! the `cxl-perf` flow solver.

use std::collections::BTreeMap;

use serde::Serialize;

use cxl_perf::{AccessMix, FlowSpec};
use cxl_sim::SimTime;
use cxl_topology::{NodeId, SocketId};

/// Bytes moved during one accounting epoch, split by node and direction.
///
/// Application traffic and migration traffic are tracked separately so
/// the thrashing cost of aggressive promotion (§4.2.2) is visible as
/// extra offered load on the memory system.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TrafficEpoch {
    /// Application bytes read from each node.
    pub node_read_bytes: BTreeMap<NodeId, u64>,
    /// Application bytes written to each node.
    pub node_write_bytes: BTreeMap<NodeId, u64>,
    /// Application bytes read from the SSD tier.
    pub ssd_read_bytes: u64,
    /// Application bytes written to the SSD tier.
    pub ssd_write_bytes: u64,
    /// Migration bytes read from each node (source side of page copies).
    pub migration_read_bytes: BTreeMap<NodeId, u64>,
    /// Migration bytes written to each node (destination side).
    pub migration_write_bytes: BTreeMap<NodeId, u64>,
}

impl TrafficEpoch {
    /// Records an application access.
    #[cfg(test)]
    fn record_access(&mut self, node: NodeId, bytes: u64, is_write: bool) {
        let map = if is_write {
            &mut self.node_write_bytes
        } else {
            &mut self.node_read_bytes
        };
        *map.entry(node).or_insert(0) += bytes;
    }

    /// Records an SSD access.
    pub fn record_ssd(&mut self, bytes: u64, is_write: bool) {
        if is_write {
            self.ssd_write_bytes += bytes;
        } else {
            self.ssd_read_bytes += bytes;
        }
    }

    /// Records a page migration from `src` to `dst`.
    pub fn record_migration(&mut self, src: NodeId, dst: NodeId, bytes: u64) {
        *self.migration_read_bytes.entry(src).or_insert(0) += bytes;
        *self.migration_write_bytes.entry(dst).or_insert(0) += bytes;
    }

    /// Total application + migration bytes through NUMA nodes.
    #[cfg(test)]
    pub(crate) fn total_node_bytes(&self) -> u64 {
        self.node_read_bytes.values().sum::<u64>()
            + self.node_write_bytes.values().sum::<u64>()
            + self.migration_read_bytes.values().sum::<u64>()
            + self.migration_write_bytes.values().sum::<u64>()
    }

    /// Converts the epoch into per-node [`FlowSpec`]s for the solver.
    ///
    /// Application and migration bytes are merged per node; the mix is
    /// the observed byte-weighted read fraction. Returns an empty vector
    /// for a zero-length epoch.
    pub fn flows(&self, from: SocketId, duration: SimTime, nt_writes: bool) -> Vec<FlowSpec> {
        if duration == SimTime::ZERO {
            return Vec::new();
        }
        let secs = duration.as_secs_f64();
        let mut per_node: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
        for (&n, &b) in &self.node_read_bytes {
            per_node.entry(n).or_insert((0, 0)).0 += b;
        }
        for (&n, &b) in &self.migration_read_bytes {
            per_node.entry(n).or_insert((0, 0)).0 += b;
        }
        for (&n, &b) in &self.node_write_bytes {
            per_node.entry(n).or_insert((0, 0)).1 += b;
        }
        for (&n, &b) in &self.migration_write_bytes {
            per_node.entry(n).or_insert((0, 0)).1 += b;
        }
        per_node
            .into_iter()
            .filter(|&(_, (r, w))| r + w > 0)
            .map(|(node, (r, w))| {
                let total = (r + w) as f64;
                let mut mix = AccessMix::from_read_fraction(r as f64 / total);
                mix.nt_writes = nt_writes;
                FlowSpec::new(from, node, mix, total / secs / 1e9)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut e = TrafficEpoch::default();
        e.record_access(NodeId(0), 100, false);
        e.record_access(NodeId(0), 50, true);
        e.record_access(NodeId(8), 25, false);
        e.record_migration(NodeId(8), NodeId(0), 4096);
        e.record_ssd(500, true);
        assert_eq!(e.total_node_bytes(), 100 + 50 + 25 + 2 * 4096);
        assert_eq!(e.ssd_write_bytes, 500);
    }

    #[test]
    fn flows_blend_mix_and_rate() {
        let mut e = TrafficEpoch::default();
        // 3 GB read + 1 GB written over one second.
        e.record_access(NodeId(0), 3_000_000_000, false);
        e.record_access(NodeId(0), 1_000_000_000, true);
        let flows = e.flows(SocketId(0), SimTime::from_secs(1), true);
        assert_eq!(flows.len(), 1);
        let f = &flows[0];
        assert_eq!(f.node, NodeId(0));
        assert!((f.mix.read_fraction - 0.75).abs() < 1e-9);
        assert!((f.offered_gbps - 4.0).abs() < 1e-9);
    }

    #[test]
    fn migration_traffic_enters_flows() {
        let mut e = TrafficEpoch::default();
        e.record_migration(NodeId(8), NodeId(0), 1_000_000_000);
        let flows = e.flows(SocketId(0), SimTime::from_secs(1), true);
        assert_eq!(flows.len(), 2);
        // Source side is a pure read; destination a pure write.
        let src = flows.iter().find(|f| f.node == NodeId(8)).unwrap();
        let dst = flows.iter().find(|f| f.node == NodeId(0)).unwrap();
        assert_eq!(src.mix.read_fraction, 1.0);
        assert_eq!(dst.mix.read_fraction, 0.0);
    }

    #[test]
    fn zero_duration_yields_no_flows() {
        let mut e = TrafficEpoch::default();
        e.record_access(NodeId(0), 100, false);
        assert!(e.flows(SocketId(0), SimTime::ZERO, true).is_empty());
    }

    #[test]
    fn empty_epoch_yields_no_flows() {
        let e = TrafficEpoch::default();
        assert!(e.flows(SocketId(0), SimTime::from_secs(1), true).is_empty());
    }
}
