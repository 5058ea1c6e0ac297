//! Multi-seed replication: mean ± deviation over independent runs.
//!
//! The paper reports single measurements; a simulation can afford
//! replicates. This helper reruns any seeded experiment metric across
//! seeds and summarizes it, giving the bench binaries error bars and the
//! tests a way to assert that shape conclusions are seed-robust.

use cxl_stats::Summary;
use serde::Serialize;

/// Summary of a replicated metric.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Replicated {
    /// Mean across replicates.
    pub mean: f64,
    /// Population standard deviation across replicates.
    pub std: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
    /// Number of replicates.
    pub n: usize,
}

impl Replicated {
    /// Coefficient of variation (std/mean), 0 when the mean is 0.
    #[cfg(test)]
    fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std / self.mean.abs()
        }
    }

    /// Formats as `mean ± std`.
    pub fn display(&self) -> String {
        format!("{:.1} ± {:.1}", self.mean, self.std)
    }
}

/// Runs `metric` once per seed in `base_seed..base_seed + n` and
/// summarizes the results.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn replicate(n: usize, base_seed: u64, metric: impl Fn(u64) -> f64) -> Replicated {
    assert!(n > 0, "need at least one replicate");
    let mut s = Summary::new();
    for i in 0..n {
        s.add(metric(base_seed + i as u64));
    }
    Replicated {
        mean: s.mean(),
        std: s.std_dev(),
        min: s.min(),
        max: s.max(),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::keydb::{run_cell, Fig5Params};
    use crate::CapacityConfig;
    use cxl_ycsb::Workload;

    #[test]
    fn replicate_computes_summary() {
        let r = replicate(5, 10, |seed| seed as f64);
        assert_eq!(r.n, 5);
        assert_eq!(r.mean, 12.0);
        assert_eq!(r.min, 10.0);
        assert_eq!(r.max, 14.0);
        assert!(r.cv() > 0.0);
        assert!(r.display().contains("±"));
    }

    #[test]
    fn keydb_interleave_slowdown_is_seed_robust() {
        // The 1:1 slowdown conclusion must not hinge on one seed.
        let slowdown = |seed: u64| {
            let p = Fig5Params {
                record_count: 30_000,
                ops: 25_000,
                warmup_ops: 0,
                seed,
            };
            let mmem = run_cell(CapacityConfig::Mmem, Workload::C, p).throughput_ops;
            let il = run_cell(CapacityConfig::Interleave11, Workload::C, p).throughput_ops;
            mmem / il
        };
        let r = replicate(4, 100, slowdown);
        assert!(r.min > 1.2, "min slowdown {}", r.min);
        assert!(r.max < 1.6, "max slowdown {}", r.max);
        assert!(r.cv() < 0.10, "cv {}", r.cv());
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_rejected() {
        replicate(0, 0, |_| 0.0);
    }
}
