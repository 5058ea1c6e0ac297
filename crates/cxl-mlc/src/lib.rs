#![warn(missing_docs)]

//! An Intel-MLC-style loaded-latency harness.
//!
//! Methodology (§3.1): MLC assigns a private memory segment to each of 16
//! worker threads and steps up the per-thread operation rate, recording
//! `(bandwidth, latency)` at every step until bandwidth saturates. This
//! harness reproduces that sweep against the `cxl-perf` model: each step
//! offers a byte rate to the flow solver and records the achieved
//! bandwidth and the loaded latency.
//!
//! # Examples
//!
//! ```
//! use cxl_mlc::{Mlc, MlcConfig};
//! use cxl_perf::{AccessMix, MemSystem};
//! use cxl_topology::{NodeId, SncMode, SocketId, Topology};
//!
//! let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
//! let mlc = Mlc::new(MlcConfig::default());
//! let curve = mlc.loaded_latency(&sys, SocketId(0), NodeId(0), AccessMix::read_only());
//! // The sweep starts near idle latency and ends near peak bandwidth.
//! assert!(curve.first().unwrap().latency_ns < 110.0);
//! assert!(curve.iter().map(|p| p.bandwidth_gbps).fold(0.0, f64::max) > 60.0);
//! ```

use serde::{Deserialize, Serialize};

use cxl_perf::{AccessMix, Distance, FlowSpec, MemSystem};
use cxl_stats::report::{Figure, Series, Table};
use cxl_topology::{MemoryTier, NodeId, SocketId};

/// Harness configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlcConfig {
    /// Worker threads issuing traffic (16 in the paper, enough to reach
    /// idle and loaded latency and the saturation point).
    pub threads: usize,
    /// Access granularity in bytes (64 B, matching prior CXL studies).
    pub access_bytes: u64,
    /// Number of injection-rate steps in a sweep.
    pub steps: usize,
    /// Highest offered load as a multiple of the measured peak.
    pub overdrive: f64,
}

impl Default for MlcConfig {
    fn default() -> Self {
        Self {
            threads: 16,
            access_bytes: 64,
            steps: 24,
            overdrive: 1.25,
        }
    }
}

/// One step of a loaded-latency sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadedPoint {
    /// Offered load, GB/s.
    pub offered_gbps: f64,
    /// Achieved bandwidth, GB/s.
    pub bandwidth_gbps: f64,
    /// Loaded latency, ns.
    pub latency_ns: f64,
}

impl LoadedPoint {
    /// The injection rate the worker set actually sustains at this
    /// step: the offered rate until saturation, the achieved bandwidth
    /// past it.
    ///
    /// A closed-loop MLC worker cannot issue faster than the system
    /// retires its requests, so overdriven steps all operate at the
    /// saturated rate — real measurement sweeps plot that achieved
    /// rate, never the nominal one. Earlier consumers read
    /// `offered_gbps` as the operating rate, conflating unreachable
    /// nominal rates with the saturation point past the knee; rate
    /// comparisons against external measurements must use this instead.
    pub fn achieved_rate_gbps(&self) -> f64 {
        self.offered_gbps.min(self.bandwidth_gbps)
    }
}

/// The MLC-style benchmark harness.
#[derive(Debug, Clone)]
pub struct Mlc {
    cfg: MlcConfig,
}

impl Mlc {
    /// Creates a harness.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no threads or steps).
    pub fn new(cfg: MlcConfig) -> Self {
        assert!(cfg.threads > 0, "need at least one thread");
        assert!(cfg.steps >= 2, "need at least two sweep steps");
        assert!(cfg.overdrive > 0.0, "overdrive must be positive");
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &MlcConfig {
        &self.cfg
    }

    /// Runs a full loaded-latency sweep for one distance and mix.
    ///
    /// Points are ordered by increasing offered load. Achieved bandwidth
    /// is monotonically non-decreasing and clamps at the saturation
    /// point; latency rises along the §3.2 contention curve.
    pub fn loaded_latency(
        &self,
        sys: &MemSystem,
        from: SocketId,
        node: NodeId,
        mix: AccessMix,
    ) -> Vec<LoadedPoint> {
        let peak = sys.max_bandwidth_gbps(from, node, mix);
        let top = peak * self.cfg.overdrive;
        (1..=self.cfg.steps)
            .map(|i| {
                let offered = top * i as f64 / self.cfg.steps as f64;
                let out = sys.loaded_point(FlowSpec::new(from, node, mix, offered));
                LoadedPoint {
                    offered_gbps: offered,
                    bandwidth_gbps: out.achieved_gbps,
                    latency_ns: out.latency_ns,
                }
            })
            .collect()
    }

    /// Evaluates the model at an explicit list of offered rates (GB/s),
    /// one solved point per rate, in input order.
    ///
    /// This is how the `cxl-calib` fitter drives the model at exactly
    /// the offered rates of a measurement set — through the same
    /// single-flow solve path [`Mlc::loaded_latency`] uses — instead of
    /// interpolating between grid steps.
    pub fn sweep_at(
        &self,
        sys: &MemSystem,
        from: SocketId,
        node: NodeId,
        mix: AccessMix,
        offered_gbps: &[f64],
    ) -> Vec<LoadedPoint> {
        offered_gbps
            .iter()
            .map(|&offered| {
                let out = sys.loaded_point(FlowSpec::new(from, node, mix, offered));
                LoadedPoint {
                    offered_gbps: offered,
                    bandwidth_gbps: out.achieved_gbps,
                    latency_ns: out.latency_ns,
                }
            })
            .collect()
    }

    /// The read:write mixes plotted in Fig. 3 and Fig. 4.
    pub fn paper_mixes() -> Vec<AccessMix> {
        vec![
            AccessMix::ratio(1, 0),
            AccessMix::ratio(3, 1),
            AccessMix::ratio(2, 1),
            AccessMix::ratio(1, 1),
            AccessMix::ratio(1, 3),
            AccessMix::ratio(0, 1),
        ]
    }

    /// Picks representative `(from, node)` pairs for the four §3
    /// distances on the paper's testbed.
    ///
    /// Returns `(distance, from, node)` tuples for every distance that
    /// exists in the system's topology.
    pub fn distance_endpoints(sys: &MemSystem) -> Vec<(Distance, SocketId, NodeId)> {
        let sockets = sys.sockets().to_vec();
        let mut out = Vec::new();
        let nodes = sys.nodes().to_vec();
        let dram0 = nodes
            .iter()
            .find(|n| n.tier == MemoryTier::LocalDram && n.socket == sockets[0]);
        let cxl0 = nodes
            .iter()
            .find(|n| n.tier == MemoryTier::CxlExpander && n.socket == sockets[0]);
        if let Some(n) = dram0 {
            out.push((Distance::LocalDram, sockets[0], n.id));
            if sockets.len() > 1 {
                out.push((Distance::RemoteDram, sockets[1], n.id));
            }
        }
        if let Some(n) = cxl0 {
            out.push((Distance::LocalCxl, sockets[0], n.id));
            if sockets.len() > 1 {
                out.push((Distance::RemoteCxl, sockets[1], n.id));
            }
        }
        out
    }

    /// Builds one Fig. 3 panel: all paper mixes for one distance.
    pub fn fig3_panel(&self, sys: &MemSystem, distance: Distance) -> Figure {
        let (_, from, node) = Self::distance_endpoints(sys)
            .into_iter()
            .find(|&(d, _, _)| d == distance)
            .expect("distance not available on this topology");
        let mut fig = Figure::new(
            format!("fig3-{}", distance.label()),
            format!("{} loaded latency under read:write mixes", distance.label()),
            "bandwidth (GB/s)",
            "latency (ns)",
        );
        for mix in Self::paper_mixes() {
            let mut s = Series::new(mix.label());
            for p in self.loaded_latency(sys, from, node, mix) {
                s.push(p.bandwidth_gbps, p.latency_ns);
            }
            fig.push(s);
        }
        fig
    }

    /// Builds one Fig. 4 panel: all distances for one mix.
    pub fn fig4_panel(&self, sys: &MemSystem, mix: AccessMix) -> Figure {
        let mut fig = Figure::new(
            format!("fig4-{}", mix.label()),
            format!("MMEM vs CXL across distances, {} mix", mix.label()),
            "bandwidth (GB/s)",
            "latency (ns)",
        );
        for (d, from, node) in Self::distance_endpoints(sys) {
            let mut s = Series::new(d.label());
            for p in self.loaded_latency(sys, from, node, mix) {
                s.push(p.bandwidth_gbps, p.latency_ns);
            }
            fig.push(s);
        }
        fig
    }

    /// Summary matrix: idle latency per (distance × mix), like the §3.2
    /// headline numbers.
    pub fn idle_latency_matrix(&self, sys: &MemSystem) -> Table {
        self.matrix(sys, "mlc-idle", "Idle latency (ns)", |from, node, mix| {
            format!("{:.1}", sys.idle_latency_ns(from, node, mix))
        })
    }

    /// Summary matrix: peak bandwidth per (distance × mix), GB/s.
    pub fn peak_bandwidth_matrix(&self, sys: &MemSystem) -> Table {
        self.matrix(
            sys,
            "mlc-peak",
            "Peak bandwidth (GB/s)",
            |from, node, mix| format!("{:.1}", sys.max_bandwidth_gbps(from, node, mix)),
        )
    }

    fn matrix(
        &self,
        sys: &MemSystem,
        id: &str,
        title: &str,
        cell: impl Fn(SocketId, NodeId, AccessMix) -> String,
    ) -> Table {
        let mixes = Self::paper_mixes();
        let mut headers = vec!["distance".to_string()];
        headers.extend(mixes.iter().map(|m| m.label()));
        let href: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(id, title, &href);
        for (d, from, node) in Self::distance_endpoints(sys) {
            let mut row = vec![d.label().to_string()];
            for &mix in &mixes {
                row.push(cell(from, node, mix));
            }
            t.push_row(row);
        }
        t
    }

    /// Peak bandwidth across a sweep, GB/s.
    pub fn peak_bandwidth(points: &[LoadedPoint]) -> f64 {
        points.iter().map(|p| p.bandwidth_gbps).fold(0.0, f64::max)
    }

    /// Utilization (fraction of peak) at which latency first exceeds
    /// `factor ×` the idle latency — the observable knee.
    pub fn knee_utilization(points: &[LoadedPoint], factor: f64) -> Option<f64> {
        let peak = Self::peak_bandwidth(points);
        let idle = points.first()?.latency_ns;
        points
            .iter()
            .find(|p| p.latency_ns > idle * factor)
            .map(|p| p.bandwidth_gbps / peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_perf::Pattern;
    use cxl_topology::{SncMode, Topology};

    fn sys() -> MemSystem {
        MemSystem::new(&Topology::paper_testbed(SncMode::Snc4))
    }

    fn mlc() -> Mlc {
        Mlc::new(MlcConfig::default())
    }

    #[test]
    fn sweep_is_ordered_and_saturates() {
        let s = sys();
        let m = mlc();
        let pts = m.loaded_latency(&s, SocketId(0), NodeId(0), AccessMix::read_only());
        assert_eq!(pts.len(), 24);
        for w in pts.windows(2) {
            assert!(w[1].offered_gbps > w[0].offered_gbps);
            assert!(w[1].bandwidth_gbps >= w[0].bandwidth_gbps - 1e-9);
            assert!(w[1].latency_ns >= w[0].latency_ns - 1e-9);
        }
        let peak = Mlc::peak_bandwidth(&pts);
        assert!((peak - 66.8).abs() < 1.0, "peak {peak}");
        // Overdriven steps achieve no more than peak.
        assert!(pts.last().unwrap().bandwidth_gbps <= peak + 1e-9);
    }

    #[test]
    fn achieved_rate_clamps_at_saturation() {
        let s = sys();
        let m = mlc();
        let pts = m.loaded_latency(&s, SocketId(0), NodeId(0), AccessMix::read_only());
        let peak = Mlc::peak_bandwidth(&pts);
        for p in &pts {
            let rate = p.achieved_rate_gbps();
            // Below saturation the rate is the offered rate; past it the
            // nominal offered rate is unreachable and the reported rate
            // clamps to what the workers actually sustain.
            if p.bandwidth_gbps < p.offered_gbps {
                assert_eq!(rate, p.bandwidth_gbps, "saturated step reports achieved");
                assert!((rate - peak).abs() < 1e-9);
            } else {
                assert_eq!(rate, p.offered_gbps);
            }
        }
        // The default sweep overdrives to 1.25x peak, so the conflation
        // is actually exercised: some steps must clamp.
        assert!(pts
            .iter()
            .any(|p| p.achieved_rate_gbps() < pts.last().unwrap().offered_gbps - 1.0));
    }

    #[test]
    fn sweep_at_matches_the_grid_sweep_pointwise() {
        let s = sys();
        let m = mlc();
        let grid = m.loaded_latency(&s, SocketId(0), NodeId(0), AccessMix::ratio(2, 1));
        let rates: Vec<f64> = grid.iter().map(|p| p.offered_gbps).collect();
        let explicit = m.sweep_at(&s, SocketId(0), NodeId(0), AccessMix::ratio(2, 1), &rates);
        assert_eq!(explicit.len(), grid.len());
        for (a, b) in grid.iter().zip(explicit.iter()) {
            assert_eq!(a, b, "same offered rate must solve identically");
        }
    }

    #[test]
    fn knee_lands_in_the_papers_band_for_reads() {
        let s = sys();
        let m = mlc();
        let pts = m.loaded_latency(&s, SocketId(0), NodeId(0), AccessMix::read_only());
        let knee = Mlc::knee_utilization(&pts, 1.3).expect("sweep must pass the knee");
        assert!((0.70..=0.92).contains(&knee), "knee at {knee}");
    }

    #[test]
    fn knee_shifts_left_for_writes() {
        let s = sys();
        let m = mlc();
        let read = m.loaded_latency(&s, SocketId(0), NodeId(0), AccessMix::read_only());
        let write = m.loaded_latency(&s, SocketId(0), NodeId(0), AccessMix::write_only());
        let kr = Mlc::knee_utilization(&read, 1.3).unwrap();
        let kw = Mlc::knee_utilization(&write, 1.3).unwrap();
        assert!(kw < kr, "write knee {kw} not left of read knee {kr}");
    }

    #[test]
    fn fig3_panels_have_six_mixes() {
        let s = sys();
        let m = mlc();
        for d in [
            Distance::LocalDram,
            Distance::RemoteDram,
            Distance::LocalCxl,
            Distance::RemoteCxl,
        ] {
            let fig = m.fig3_panel(&s, d);
            assert_eq!(fig.series.len(), 6, "distance {d:?}");
            for series in &fig.series {
                assert_eq!(series.points.len(), 24);
            }
        }
    }

    #[test]
    fn fig4_panel_orders_distances_by_latency() {
        let s = sys();
        let m = mlc();
        let fig = m.fig4_panel(&s, AccessMix::read_only());
        assert_eq!(fig.series.len(), 4);
        // First points (near idle): MMEM < MMEM-r < CXL < CXL-r.
        let firsts: Vec<f64> = fig.series.iter().map(|s| s.points[0].1).collect();
        assert!(firsts[0] < firsts[1]);
        assert!(firsts[1] < firsts[2]);
        assert!(firsts[2] < firsts[3]);
    }

    #[test]
    fn random_equals_sequential() {
        let s = sys();
        let m = mlc();
        let seq = m.loaded_latency(&s, SocketId(0), NodeId(0), AccessMix::read_only());
        let rnd = m.loaded_latency(
            &s,
            SocketId(0),
            NodeId(0),
            AccessMix::read_only().with_pattern(Pattern::Random),
        );
        for (a, b) in seq.iter().zip(rnd.iter()) {
            assert_eq!(a.bandwidth_gbps, b.bandwidth_gbps);
            assert_eq!(a.latency_ns, b.latency_ns);
        }
    }

    #[test]
    fn remote_cxl_peak_is_collapsed() {
        let s = sys();
        let m = mlc();
        let eps = Mlc::distance_endpoints(&s);
        let (_, from, node) = eps
            .into_iter()
            .find(|&(d, _, _)| d == Distance::RemoteCxl)
            .unwrap();
        let pts = m.loaded_latency(&s, from, node, AccessMix::ratio(2, 1));
        let peak = Mlc::peak_bandwidth(&pts);
        assert!(peak < 22.0, "remote CXL peak {peak}");
    }

    #[test]
    fn endpoints_cover_all_distances_on_testbed() {
        let s = sys();
        let eps = Mlc::distance_endpoints(&s);
        assert_eq!(eps.len(), 4);
    }

    #[test]
    fn matrices_cover_distances_and_mixes() {
        let s = sys();
        let m = mlc();
        let idle = m.idle_latency_matrix(&s);
        assert_eq!(idle.rows.len(), 4);
        assert_eq!(idle.headers.len(), 7);
        // Local DRAM read-only idle is the calibrated 97 ns.
        assert!(idle.rows[0][1].starts_with("97"));
        let peak = m.peak_bandwidth_matrix(&s);
        assert_eq!(peak.rows.len(), 4);
        assert!(peak.render().contains("CXL-r"));
    }

    #[test]
    #[should_panic(expected = "at least two sweep steps")]
    fn degenerate_config_panics() {
        Mlc::new(MlcConfig {
            steps: 1,
            ..Default::default()
        });
    }
}
