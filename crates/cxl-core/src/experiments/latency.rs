//! Fig. 3 and Fig. 4: raw CXL 1.1 performance characteristics (§3).

use serde::Serialize;

use cxl_mlc::{Mlc, MlcConfig};
use cxl_perf::{AccessMix, Distance, MemSystem, Pattern};
use cxl_stats::report::Figure;
use cxl_topology::{SncMode, Topology};

use crate::runner::Runner;

/// Output of the §3 characterization.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyStudy {
    /// Fig. 3(a)–(d): one panel per distance, six mixes each.
    pub fig3: Vec<Figure>,
    /// Fig. 4(a)–(f): one panel per mix, four distances each.
    pub fig4: Vec<Figure>,
    /// Fig. 4(g)–(h): random vs sequential for read-only and write-only.
    pub fig4_random: Vec<Figure>,
    /// Headline numbers asserted against §3.2.
    pub summary: LatencySummary,
}

/// The §3.2 headline numbers.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencySummary {
    /// Local DDR idle read latency, ns (paper: ≈97).
    pub mmem_idle_ns: f64,
    /// Remote DDR idle read latency, ns (paper: ≈130).
    pub mmem_remote_idle_ns: f64,
    /// Local CXL idle read latency, ns (paper: 250.42).
    pub cxl_idle_ns: f64,
    /// Remote CXL idle read latency, ns (paper: 485).
    pub cxl_remote_idle_ns: f64,
    /// Local DDR read-only peak bandwidth, GB/s (paper: ≈67).
    pub mmem_peak_gbps: f64,
    /// Local DDR write-only peak bandwidth, GB/s (paper: 54.6).
    pub mmem_write_peak_gbps: f64,
    /// Local CXL peak at the best (2:1) mix, GB/s (paper: 56.7).
    pub cxl_peak_gbps: f64,
    /// Remote CXL peak at 2:1, GB/s (paper: 20.4).
    pub cxl_remote_peak_gbps: f64,
}

/// Runs the full §3 characterization on the paper's SNC-4 testbed, on an
/// explicit runner. Panels are
/// independent analytic sweeps over one shared [`MemSystem`].
pub fn run_with(runner: &Runner) -> LatencyStudy {
    let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let mlc = Mlc::new(MlcConfig::default());

    let distances = vec![
        Distance::LocalDram,
        Distance::RemoteDram,
        Distance::LocalCxl,
        Distance::RemoteCxl,
    ];
    let fig3 = runner.map(distances, |d| mlc.fig3_panel(&sys, d));
    let fig4 = runner.map(Mlc::paper_mixes().into_iter().collect(), |m| {
        mlc.fig4_panel(&sys, m)
    });
    let fig4_random = runner.map(
        vec![
            AccessMix::read_only().with_pattern(Pattern::Random),
            AccessMix::write_only().with_pattern(Pattern::Random),
        ],
        |m| mlc.fig4_panel(&sys, m),
    );

    let endpoints = Mlc::distance_endpoints(&sys);
    let ep = |d: Distance| {
        endpoints
            .iter()
            .find(|&&(dd, _, _)| dd == d)
            .copied()
            .expect("endpoint present on the testbed")
    };
    let (_, f_ld, n_ld) = ep(Distance::LocalDram);
    let (_, f_rd, n_rd) = ep(Distance::RemoteDram);
    let (_, f_lc, n_lc) = ep(Distance::LocalCxl);
    let (_, f_rc, n_rc) = ep(Distance::RemoteCxl);
    let read = AccessMix::read_only();
    let summary = LatencySummary {
        mmem_idle_ns: sys.idle_latency_ns(f_ld, n_ld, read),
        mmem_remote_idle_ns: sys.idle_latency_ns(f_rd, n_rd, read),
        cxl_idle_ns: sys.idle_latency_ns(f_lc, n_lc, read),
        cxl_remote_idle_ns: sys.idle_latency_ns(f_rc, n_rc, read),
        mmem_peak_gbps: sys.max_bandwidth_gbps(f_ld, n_ld, read),
        mmem_write_peak_gbps: sys.max_bandwidth_gbps(f_ld, n_ld, AccessMix::write_only()),
        cxl_peak_gbps: sys.max_bandwidth_gbps(f_lc, n_lc, AccessMix::ratio(2, 1)),
        cxl_remote_peak_gbps: sys.max_bandwidth_gbps(f_rc, n_rc, AccessMix::ratio(2, 1)),
    };

    LatencyStudy {
        fig3,
        fig4,
        fig4_random,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_covers_all_panels() {
        let s = run_with(&Runner::from_env());
        assert_eq!(s.fig3.len(), 4);
        assert_eq!(s.fig4.len(), 6);
        assert_eq!(s.fig4_random.len(), 2);
    }

    #[test]
    fn summary_matches_paper_numbers() {
        let s = run_with(&Runner::from_env()).summary;
        assert!((s.mmem_idle_ns - 97.0).abs() < 1.0);
        assert!((s.mmem_remote_idle_ns - 130.0).abs() < 2.0);
        assert!((s.cxl_idle_ns - 250.42).abs() < 2.0);
        assert!((s.cxl_remote_idle_ns - 485.0).abs() < 5.0);
        assert!((s.mmem_peak_gbps - 67.0).abs() < 1.5);
        assert!((s.mmem_write_peak_gbps - 54.6).abs() < 1.0);
        assert!((s.cxl_peak_gbps - 56.7).abs() < 1.5);
        assert!((s.cxl_remote_peak_gbps - 20.4).abs() < 1.5);
    }
}
