//! Counters exposed by the tier manager.

use serde::Serialize;

/// Cumulative event counters for a [`crate::TierManager`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TierStats {
    /// Pages allocated.
    pub allocated: u64,
    /// Pages freed.
    pub freed: u64,
    /// Allocations that spilled to SSD because every candidate node was
    /// full.
    pub ssd_spills: u64,
    /// Hint faults taken (NUMA balancing / hot-page selection).
    pub hint_faults: u64,
    /// Pages promoted to a top-tier node.
    pub promotions: u64,
    /// Promotions skipped because the rate limit had no budget.
    pub promotions_rate_limited: u64,
    /// Promotions skipped because the page failed the hot threshold.
    pub promotions_not_hot: u64,
    /// Promotions deferred because the page's consecutive in-window
    /// fault streak was still below
    /// [`crate::HotPageConfig::promote_after_faults`]. Always zero at
    /// the default streak requirement of 1.
    pub promotions_below_streak: u64,
    /// Promotions suppressed by the §5.3 bandwidth-aware policy (DRAM
    /// bandwidth above the high watermark).
    pub promotions_bw_suppressed: u64,
    /// Pages demoted from DRAM to CXL.
    pub demotions: u64,
    /// Demotions that landed on a CXL node off the accessor socket
    /// (every later access pays the ~485 ns remote-CXL path, §3.2).
    pub demotions_remote_socket: u64,
    /// Demotions whose selected target was full by move time and had to
    /// be re-resolved (or abandoned) after the victim was already
    /// unlinked from its CLOCK ring.
    pub demotions_target_full: u64,
    /// Pages explicitly moved to SSD by the application (eviction).
    pub evictions_to_ssd: u64,
    /// Pages explicitly brought back from SSD.
    pub ssd_loads: u64,
    /// Bytes copied by migrations (promotions + demotions).
    pub migration_bytes: u64,
    /// Node drains run (full evacuations plus capacity shrinks).
    pub evacuations: u64,
    /// Pages drained off failing/shrinking nodes (any destination).
    pub evacuated_pages: u64,
    /// Evacuated pages that had to spill to SSD because no surviving
    /// node had room.
    pub evacuated_to_ssd: u64,
}

impl TierStats {
    /// Promotion success ratio among hint faults on slow-tier pages.
    #[cfg(test)]
    pub(crate) fn promotion_rate(&self) -> f64 {
        let attempts = self.promotions
            + self.promotions_rate_limited
            + self.promotions_not_hot
            + self.promotions_below_streak;
        if attempts == 0 {
            0.0
        } else {
            self.promotions as f64 / attempts as f64
        }
    }

    /// Promotion + demotion churn in pages.
    pub fn churn(&self) -> u64 {
        self.promotions + self.demotions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = TierStats::default();
        assert_eq!(s.allocated, 0);
        assert_eq!(s.promotion_rate(), 0.0);
        assert_eq!(s.churn(), 0);
    }

    #[test]
    fn promotion_rate_math() {
        let s = TierStats {
            promotions: 3,
            promotions_rate_limited: 1,
            promotions_not_hot: 0,
            ..Default::default()
        };
        assert!((s.promotion_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.churn(), 3);
    }
}

/// Point-in-time view of a [`crate::TierManager`]'s placement state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TierSnapshot {
    /// `(node id, used pages, capacity pages)` per NUMA node.
    pub nodes: Vec<(usize, u64, u64)>,
    /// Pages on the SSD tier.
    pub ssd_pages: u64,
    /// Fraction of resident pages on top-tier (DRAM) nodes.
    pub top_tier_fraction: f64,
    /// Cumulative statistics at snapshot time.
    pub stats: TierStats,
}

impl TierSnapshot {
    /// Total resident pages across nodes.
    pub fn resident_pages(&self) -> u64 {
        self.nodes.iter().map(|&(_, used, _)| used).sum()
    }

    /// Renders a one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "resident {} pages ({:.0}% top tier), ssd {}, promotions {}, demotions {}",
            self.resident_pages(),
            100.0 * self.top_tier_fraction,
            self.ssd_pages,
            self.stats.promotions,
            self.stats.demotions
        )
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    #[test]
    fn snapshot_summary_renders() {
        let s = TierSnapshot {
            nodes: vec![(0, 10, 20), (2, 5, 100)],
            ssd_pages: 3,
            top_tier_fraction: 10.0 / 15.0,
            stats: TierStats::default(),
        };
        assert_eq!(s.resident_pages(), 15);
        assert!(s.summary().contains("15 pages"));
        assert!(s.summary().contains("67% top tier"));
    }
}
