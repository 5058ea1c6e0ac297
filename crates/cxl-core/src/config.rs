//! Table 1: the capacity-experiment configurations.

use serde::{Deserialize, Serialize};

use cxl_sim::SimTime;
use cxl_tier::{AllocPolicy, HotPageConfig, MigrationMode, NumaBalancingConfig, TierConfig};
use cxl_topology::{MemoryTier, NodeId, Topology};

/// The seven configurations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CapacityConfig {
    /// Entire working set in main memory.
    Mmem,
    /// 20 % of the working set spilled to SSD.
    MmemSsd02,
    /// 40 % of the working set spilled to SSD.
    MmemSsd04,
    /// 75 % MMEM + 25 % CXL, 3:1 interleaved.
    Interleave31,
    /// 50 % MMEM + 50 % CXL, 1:1 interleaved.
    Interleave11,
    /// 25 % MMEM + 75 % CXL, 1:3 interleaved.
    Interleave13,
    /// 50 % MMEM + 50 % CXL with hot-page promotion (§2.3 patches).
    HotPromote,
}

impl CapacityConfig {
    /// All configurations in Table 1 order.
    pub fn all() -> [CapacityConfig; 7] {
        [
            CapacityConfig::Mmem,
            CapacityConfig::MmemSsd02,
            CapacityConfig::MmemSsd04,
            CapacityConfig::Interleave31,
            CapacityConfig::Interleave11,
            CapacityConfig::Interleave13,
            CapacityConfig::HotPromote,
        ]
    }

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            CapacityConfig::Mmem => "MMEM",
            CapacityConfig::MmemSsd02 => "MMEM-SSD-0.2",
            CapacityConfig::MmemSsd04 => "MMEM-SSD-0.4",
            CapacityConfig::Interleave31 => "3:1",
            CapacityConfig::Interleave11 => "1:1",
            CapacityConfig::Interleave13 => "1:3",
            CapacityConfig::HotPromote => "Hot-Promote",
        }
    }

    /// Builds the tier-manager configuration for a working set of
    /// `dataset_bytes` on `topo`, returning `(config, flash)` where
    /// `flash` enables KeyDB-FLASH SSD caching.
    ///
    /// Uses the first DRAM node of socket 0 as "MMEM" and the first CXL
    /// node as the expander, matching the paper's single-instance KeyDB
    /// deployment with SNC disabled (§4.1.1).
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks the needed nodes.
    pub fn tier_config(self, topo: &Topology, dataset_bytes: u64) -> (TierConfig, bool) {
        let nodes = topo.nodes();
        let dram = nodes
            .iter()
            .find(|n| n.tier == MemoryTier::LocalDram)
            .expect("topology needs DRAM")
            .id;
        let cxl = nodes
            .iter()
            .find(|n| n.tier == MemoryTier::CxlExpander)
            .map(|n| n.id);
        let other_dram: Vec<NodeId> = nodes
            .iter()
            .filter(|n| n.tier == MemoryTier::LocalDram && n.id != dram)
            .map(|n| n.id)
            .collect();
        let zero_others = |cfg: &mut TierConfig| {
            // Confine the experiment to the chosen nodes, like numactl.
            for &n in &other_dram {
                cfg.capacity_override.push((n, 0));
            }
        };
        let need_cxl = || cxl.expect("configuration requires a CXL node");

        match self {
            CapacityConfig::Mmem => {
                let mut cfg = TierConfig::bind(vec![dram]);
                zero_others(&mut cfg);
                (cfg, false)
            }
            CapacityConfig::MmemSsd02 | CapacityConfig::MmemSsd04 => {
                let keep = if self == CapacityConfig::MmemSsd02 {
                    0.8
                } else {
                    0.6
                };
                let mut cfg = TierConfig::bind(vec![dram]);
                cfg.capacity_override
                    .push((dram, (dataset_bytes as f64 * keep) as u64));
                zero_others(&mut cfg);
                (cfg, true)
            }
            CapacityConfig::Interleave31
            | CapacityConfig::Interleave11
            | CapacityConfig::Interleave13 => {
                let (n, m) = match self {
                    CapacityConfig::Interleave31 => (3, 1),
                    CapacityConfig::Interleave11 => (1, 1),
                    _ => (1, 3),
                };
                let mut cfg = TierConfig::bind(vec![dram]);
                cfg.policy = AllocPolicy::interleave(vec![dram], vec![need_cxl()], n, m);
                zero_others(&mut cfg);
                (cfg, false)
            }
            CapacityConfig::HotPromote => {
                let mut cfg = TierConfig::bind(vec![dram]);
                cfg.policy = AllocPolicy::interleave(vec![dram], vec![need_cxl()], 1, 1);
                // Main memory limited to half the dataset (§4.1.1).
                cfg.capacity_override.push((dram, dataset_bytes / 2));
                zero_others(&mut cfg);
                cfg.migration = MigrationMode::HotPageSelection(hot_promote_params());
                (cfg, false)
            }
        }
    }
}

/// The hot-page-selection parameters used by the Hot-Promote runs.
///
/// Scan pacing is compressed to the simulation's virtual-time scale (the
/// real kernel converges over minutes; the simulated runs last under a
/// second) and the hint-fault cost is amortized per faulting access.
pub fn hot_promote_params() -> HotPageConfig {
    HotPageConfig {
        balancing: NumaBalancingConfig {
            scan_period: SimTime::from_ms(5),
            scan_pages: 4096,
            hot_threshold: SimTime::from_ms(100),
            hint_fault_cost: SimTime::from_ns(300),
        },
        promote_rate_limit_bytes_per_sec: 4e9,
        dynamic_threshold: false,
        adjust_period: SimTime::from_ms(100),
        promote_after_faults: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_topology::SncMode;

    fn topo() -> Topology {
        Topology::paper_testbed(SncMode::Disabled)
    }

    #[test]
    fn seven_configs_with_table1_labels() {
        let labels: Vec<&str> = CapacityConfig::all().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            [
                "MMEM",
                "MMEM-SSD-0.2",
                "MMEM-SSD-0.4",
                "3:1",
                "1:1",
                "1:3",
                "Hot-Promote"
            ]
        );
    }

    #[test]
    fn ssd_configs_limit_dram_capacity() {
        let bytes = 1_000_000_000u64;
        let (cfg, flash) = CapacityConfig::MmemSsd04.tier_config(&topo(), bytes);
        assert!(flash);
        let dram_cap = cfg
            .capacity_override
            .iter()
            .find(|&&(n, _)| n == NodeId(0))
            .map(|&(_, b)| b)
            .unwrap();
        assert_eq!(dram_cap, 600_000_000);
    }

    #[test]
    fn interleave_configs_use_cxl() {
        let (cfg, flash) = CapacityConfig::Interleave13.tier_config(&topo(), 1 << 30);
        assert!(!flash);
        match cfg.policy {
            AllocPolicy::InterleaveNm { n, m, .. } => {
                assert_eq!((n, m), (1, 3));
            }
            ref p => panic!("unexpected policy {p:?}"),
        }
    }

    #[test]
    fn hot_promote_is_rate_limited_migration() {
        let (cfg, _) = CapacityConfig::HotPromote.tier_config(&topo(), 1 << 30);
        assert!(matches!(cfg.migration, MigrationMode::HotPageSelection(_)));
        // DRAM limited to half the dataset.
        let dram_cap = cfg
            .capacity_override
            .iter()
            .find(|&&(n, _)| n == NodeId(0))
            .map(|&(_, b)| b)
            .unwrap();
        assert_eq!(dram_cap, (1u64 << 30) / 2);
    }

    #[test]
    fn mmem_config_confines_to_one_node() {
        let (cfg, _) = CapacityConfig::Mmem.tier_config(&topo(), 1 << 30);
        // Socket 1's DRAM is zeroed so everything lands on node 0.
        assert!(cfg
            .capacity_override
            .iter()
            .any(|&(n, b)| n == NodeId(1) && b == 0));
    }
}
