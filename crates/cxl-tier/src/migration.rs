//! Migration mechanisms: NUMA balancing and hot-page selection.
//!
//! Configuration types for the two kernel patches the paper compares
//! (§2.3). The mechanics live in [`crate::manager::TierManager`]; the
//! parameters mirror the kernel sysctls.

use serde::{Deserialize, Serialize};

use cxl_sim::SimTime;

/// Which migration mechanism is active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MigrationMode {
    /// No migrations; pages stay where allocation put them.
    None,
    /// The NUMA-balancing patch: latency-aware MRU promotion driven by
    /// hint faults from page-table scanning.
    NumaBalancing(NumaBalancingConfig),
    /// The v6.1 hot-page-selection patch: NUMA balancing plus a
    /// promotion rate limit and dynamic hot threshold. This is the
    /// paper's "Hot-Promote" configuration (Table 1).
    HotPageSelection(HotPageConfig),
    /// Hot-page selection extended with the bandwidth awareness the
    /// paper calls for in §5.3: promotion into DRAM is suppressed — and
    /// load is actively demoted back to CXL — when DRAM bandwidth
    /// utilization exceeds a watermark, instead of packing hot pages
    /// into an already-contended top tier.
    BandwidthAware(BandwidthAwareConfig),
}

impl MigrationMode {
    /// True when any promotion mechanism is active.
    pub fn is_active(&self) -> bool {
        !matches!(self, MigrationMode::None)
    }
}

/// Parameters of the NUMA-balancing scanner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NumaBalancingConfig {
    /// Interval between scan passes (kernel: `numa_balancing_scan_period`).
    pub scan_period: SimTime,
    /// Pages hinted per scan pass (kernel scans a VA window per pass).
    pub scan_pages: usize,
    /// A second hint fault within this window marks the page hot (MRU).
    pub hot_threshold: SimTime,
    /// Extra latency charged to an access that takes a hint fault.
    pub hint_fault_cost: SimTime,
}

impl Default for NumaBalancingConfig {
    fn default() -> Self {
        Self {
            scan_period: SimTime::from_ms(100),
            scan_pages: 4096,
            hot_threshold: SimTime::from_secs(1),
            hint_fault_cost: SimTime::from_us(2),
        }
    }
}

/// Parameters of hot-page selection (rate-limited promotion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotPageConfig {
    /// Base NUMA-balancing scanner parameters.
    pub balancing: NumaBalancingConfig,
    /// Promotion rate limit in bytes/second (kernel:
    /// `numa_balancing_promote_rate_limit_MBps`, default 65536 MB/s is
    /// effectively unlimited; the paper-relevant regimes are lower).
    pub promote_rate_limit_bytes_per_sec: f64,
    /// Enable the automatic hot-threshold adjustment the later patch
    /// versions added (§4.2.2 finds it "falls short" for Spark).
    pub dynamic_threshold: bool,
    /// Interval at which the dynamic threshold is re-evaluated.
    pub adjust_period: SimTime,
    /// Consecutive in-threshold repeat faults a page needs before it is
    /// treated as a promotion candidate. The kernel patch promotes on
    /// the first repeat fault (`1`, the default); raising this filters
    /// one-shot sweeps — a GC trace re-walking a cold graph produces at
    /// most a couple of in-window faults per page, while a genuinely
    /// hot page keeps faulting scan after scan — at the cost of slower
    /// reaction to real workload shifts. Must be nonzero.
    pub promote_after_faults: u32,
}

impl Default for HotPageConfig {
    fn default() -> Self {
        Self {
            balancing: NumaBalancingConfig::default(),
            promote_rate_limit_bytes_per_sec: 256.0 * 1024.0 * 1024.0,
            dynamic_threshold: true,
            adjust_period: SimTime::from_secs(1),
            promote_after_faults: 1,
        }
    }
}

impl HotPageConfig {
    /// Checks the config is internally consistent: a zero
    /// `promote_after_faults` would make every page permanently
    /// ineligible for promotion, silently disabling the mechanism.
    pub fn validate(&self) -> Result<(), crate::TierError> {
        if self.promote_after_faults == 0 {
            return Err(crate::TierError::InvalidConfig(
                "promote_after_faults must be nonzero (0 disables promotion silently)".to_string(),
            ));
        }
        Ok(())
    }
}

/// Parameters of the §5.3 bandwidth-aware extension.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthAwareConfig {
    /// Underlying hot-page-selection mechanics.
    pub base: HotPageConfig,
    /// DRAM bandwidth utilization above which promotions stop and
    /// demotion pressure starts (§5.3's example: ~0.7 is already risky).
    pub high_watermark: f64,
    /// Pages demoted per tick while above the high watermark, shifting
    /// streaming load onto the expander's spare bandwidth.
    pub demote_batch: usize,
}

impl Default for BandwidthAwareConfig {
    fn default() -> Self {
        Self {
            base: HotPageConfig::default(),
            high_watermark: 0.75,
            demote_batch: 64,
        }
    }
}

impl BandwidthAwareConfig {
    /// Checks the config is internally consistent.
    ///
    /// A watermark outside `[0, 1]` (or NaN) can never or always be
    /// crossed, and `demote_batch == 0` silently turns the
    /// above-watermark demotion into a no-op. Both used to be accepted
    /// and misbehave quietly; now they are rejected where the config is
    /// used ([`crate::TierManager::try_new`]).
    pub fn validate(&self) -> Result<(), crate::TierError> {
        self.base.validate()?;
        if !(0.0..=1.0).contains(&self.high_watermark) {
            return Err(crate::TierError::InvalidConfig(format!(
                "bandwidth-aware high_watermark must lie in [0, 1], got {}",
                self.high_watermark
            )));
        }
        if self.demote_batch == 0 {
            return Err(crate::TierError::InvalidConfig(
                "bandwidth-aware demote_batch must be nonzero (0 disables demotion silently)"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_activity() {
        assert!(!MigrationMode::None.is_active());
        assert!(MigrationMode::NumaBalancing(NumaBalancingConfig::default()).is_active());
        assert!(MigrationMode::HotPageSelection(HotPageConfig::default()).is_active());
        assert!(MigrationMode::BandwidthAware(BandwidthAwareConfig::default()).is_active());
    }

    #[test]
    fn bandwidth_aware_defaults_ordered() {
        let c = BandwidthAwareConfig::default();
        assert!((0.0..=1.0).contains(&c.high_watermark));
        assert!(c.demote_batch > 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn out_of_range_high_watermark_is_rejected() {
        for high in [-0.1, 1.5, f64::NAN] {
            let c = BandwidthAwareConfig {
                high_watermark: high,
                ..Default::default()
            };
            let err = c.validate().expect_err("watermark outside [0, 1]");
            assert!(err.to_string().contains("high_watermark"), "{err}");
        }
    }

    #[test]
    fn zero_demote_batch_is_rejected() {
        let c = BandwidthAwareConfig {
            demote_batch: 0,
            ..Default::default()
        };
        let err = c.validate().expect_err("demote_batch 0 must be rejected");
        assert!(err.to_string().contains("demote_batch"), "{err}");
    }

    #[test]
    fn defaults_are_sane() {
        let nb = NumaBalancingConfig::default();
        assert!(nb.scan_period > SimTime::ZERO);
        assert!(nb.scan_pages > 0);
        let hp = HotPageConfig::default();
        assert!(hp.promote_rate_limit_bytes_per_sec > 0.0);
        assert!(hp.dynamic_threshold);
        // The default streak requirement reproduces the kernel patch:
        // promote on the first in-threshold repeat fault.
        assert_eq!(hp.promote_after_faults, 1);
        assert!(hp.validate().is_ok());
    }

    #[test]
    fn zero_promote_after_faults_is_rejected() {
        let hp = HotPageConfig {
            promote_after_faults: 0,
            ..Default::default()
        };
        let err = hp.validate().expect_err("streak 0 must be rejected");
        assert!(err.to_string().contains("promote_after_faults"), "{err}");
        // The check also reaches bandwidth-aware configs through `base`.
        let bw = BandwidthAwareConfig {
            base: hp,
            ..Default::default()
        };
        assert!(bw.validate().is_err());
    }
}
