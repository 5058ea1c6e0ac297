//! Cluster configurations for the §4.2 comparisons.

use serde::{Deserialize, Serialize};

use cxl_perf::ModelParams;

/// How executor memory is placed on each server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// All executor memory in local DRAM.
    MmemOnly,
    /// N:M tiered interleave between DRAM and the CXL expanders.
    Interleave {
        /// Pages per cycle to DRAM.
        n: u32,
        /// Pages per cycle to CXL.
        m: u32,
    },
    /// Memory restricted to `mem_fraction` of the full allocation; the
    /// shortfall spills shuffle data to SSD (Table 1's `MMEM-SSD-x`).
    SpillToSsd {
        /// Fraction of the nominal 1.2 TB kept in memory (0.8 or 0.6).
        mem_fraction: f64,
    },
    /// 1:1 start with hot-page-selection migration (the paper's
    /// Hot-Promote). §4.2.2 finds the kernel thrashing on Spark's
    /// low-locality shuffle traffic.
    HotPromote {
        /// Kernel promotion rate limit in GB/s (converted churn traffic).
        promote_rate_gbps: f64,
    },
}

impl Placement {
    /// Fraction of executor bytes on DRAM under this placement.
    pub fn dram_fraction(&self) -> f64 {
        match *self {
            Placement::MmemOnly | Placement::SpillToSsd { .. } => 1.0,
            Placement::Interleave { n, m } => n as f64 / (n + m) as f64,
            // Promotion pulls the active shuffle window toward DRAM, but
            // streamed-once data keeps half the footprint on CXL.
            Placement::HotPromote { .. } => 0.75,
        }
    }

    /// The paper's label for this configuration.
    pub fn label(&self) -> String {
        match *self {
            Placement::MmemOnly => "MMEM".to_string(),
            Placement::Interleave { n, m } => format!("{n}:{m}"),
            Placement::SpillToSsd { mem_fraction } => {
                format!("MMEM-SSD-{:.1}", 1.0 - mem_fraction)
            }
            Placement::HotPromote { .. } => "Hot-Promote".to_string(),
        }
    }
}

/// A Spark cluster: servers, executors, and cost constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of servers (3 for the baseline, 2 for the CXL configs).
    pub servers: usize,
    /// Total executors across the cluster (150 in the paper).
    pub executors: usize,
    /// Per-core streaming throughput when memory is unconstrained, GB/s
    /// (CPU-side processing rate of scan/shuffle bytes).
    pub core_stream_gbps: f64,
    /// SSD bandwidth per server available to spill, GB/s (sequential
    /// bandwidth derated for concurrent-executor access).
    pub ssd_spill_gbps: f64,
    /// Total spilled bytes per query at `mem_fraction = 0.8`, GB
    /// (§4.2.1 reports ≈320 GB; scaled per query by shuffle share).
    pub spill_base_gb: f64,
    /// Memory placement.
    pub placement: Placement,
    /// Memory-model parameters (RSF ceiling, knees, ...); defaults to
    /// the paper's Sapphire Rapids platform.
    pub params: ModelParams,
}

impl ClusterConfig {
    /// The paper's three-server MMEM baseline.
    pub fn baseline() -> Self {
        Self {
            servers: 3,
            executors: 150,
            core_stream_gbps: 2.0,
            ssd_spill_gbps: 1.6,
            spill_base_gb: 320.0,
            placement: Placement::MmemOnly,
            params: ModelParams::default(),
        }
    }

    /// A two-server CXL cluster with the given interleave ratio.
    pub fn cxl_interleave(n: u32, m: u32) -> Self {
        Self {
            servers: 2,
            placement: Placement::Interleave { n, m },
            ..Self::baseline()
        }
    }

    /// Three servers with memory restricted to `mem_fraction`.
    pub fn spill(mem_fraction: f64) -> Self {
        Self {
            placement: Placement::SpillToSsd { mem_fraction },
            ..Self::baseline()
        }
    }

    /// Two-server Hot-Promote configuration.
    pub fn hot_promote() -> Self {
        Self {
            servers: 2,
            placement: Placement::HotPromote {
                promote_rate_gbps: 3.0,
            },
            ..Self::baseline()
        }
    }

    /// Executors per server (even split).
    pub fn executors_per_server(&self) -> usize {
        self.executors.div_ceil(self.servers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_table_1() {
        assert_eq!(Placement::MmemOnly.label(), "MMEM");
        assert_eq!(Placement::Interleave { n: 3, m: 1 }.label(), "3:1");
        assert_eq!(
            Placement::SpillToSsd { mem_fraction: 0.8 }.label(),
            "MMEM-SSD-0.2"
        );
        assert_eq!(
            Placement::HotPromote {
                promote_rate_gbps: 1.0
            }
            .label(),
            "Hot-Promote"
        );
    }

    #[test]
    fn dram_fractions() {
        assert_eq!(Placement::MmemOnly.dram_fraction(), 1.0);
        assert_eq!(Placement::Interleave { n: 1, m: 1 }.dram_fraction(), 0.5);
        assert_eq!(Placement::Interleave { n: 1, m: 3 }.dram_fraction(), 0.25);
    }

    #[test]
    fn cluster_presets() {
        assert_eq!(ClusterConfig::baseline().servers, 3);
        assert_eq!(ClusterConfig::cxl_interleave(1, 1).servers, 2);
        assert_eq!(ClusterConfig::baseline().executors_per_server(), 50);
        assert_eq!(
            ClusterConfig::cxl_interleave(1, 1).executors_per_server(),
            75
        );
    }
}
