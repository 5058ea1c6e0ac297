#![warn(missing_docs)]

//! CPU LLM inference over CXL-extended memory bandwidth (§5).
//!
//! The paper's framework (Fig. 9) routes tokenized requests to CPU
//! inference backends, each with 12 threads and a KV cache, all bound to
//! **one SNC-4 domain** (two DDR5-4800 channels) plus one A1000 CXL
//! expander. Token generation streams the full model weights (Alpaca-7B,
//! 4.1 GB) plus the growing KV cache each step, making serving rate a
//! function of memory bandwidth — and, past the §3.2 contention knee, of
//! latency spikes that stall the compute pipeline.
//!
//! Model:
//!
//! * Per-backend demand grows ~1.05 GB/s per thread and plateaus at
//!   24.2 GB/s around 24 threads (Fig. 10(b)).
//! * Backends stripe their traffic over DRAM and CXL according to the
//!   N:M interleave policy; the achieved bandwidth comes from the
//!   `cxl-perf` water-filling solver (synchronized stripes).
//! * A latency penalty derates delivered tokens when the blended loaded
//!   latency spikes: `1 / (1 + (lat − lat_ref)/penalty_scale)`. The
//!   scale is calibrated (635 ns) so that at 60 threads the 3:1 interleave
//!   out-serves MMEM-only by ≈95 % and MMEM-only lands ≈14 % below 1:3
//!   beyond 64 threads (Fig. 10(a)).
//! * KV-cache growth raises per-token traffic from a 12 GB/s model-load
//!   floor to a ≈21 GB/s plateau (Fig. 10(c)).

pub mod server;

use serde::{Deserialize, Serialize};

use cxl_perf::{AccessMix, FlowSpec, MemSystem, ModelParams};
use cxl_topology::{MemoryTier, NodeId, SocketId, Topology};

/// Inference workload and platform constants.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LlmConfig {
    /// Model weight footprint, GB (Alpaca-7B: 4.1).
    pub model_gb: f64,
    /// Effective weight bytes streamed per generated token, GB
    /// (weights divided by the serving batch size).
    pub bytes_per_token_gb: f64,
    /// Per-thread streaming demand, GB/s.
    pub per_thread_gbps: f64,
    /// Single-backend bandwidth plateau, GB/s (Fig. 10(b): 24.2).
    pub backend_plateau_gbps: f64,
    /// Threads per CPU inference backend (12 in §5.1).
    pub threads_per_backend: usize,
    /// Reference (uncontended) latency for the penalty, ns; the model's
    /// MMEM idle latency by default.
    pub lat_ref_ns: f64,
    /// Latency-penalty scale, ns: extra blended latency that halves
    /// delivered throughput.
    pub penalty_scale_ns: f64,
    /// Utilization at which spiking latency is evaluated (a closed
    /// system hovers just under the cap).
    pub util_cap: f64,
    /// I/O-thread model-load bandwidth floor, GB/s (Fig. 10(c): ~12).
    pub kv_floor_gbps: f64,
    /// KV-cache bandwidth plateau, GB/s (Fig. 10(c): ~21).
    pub kv_plateau_gbps: f64,
    /// Read fraction of inference traffic (weights are read-only; the
    /// KV cache appends).
    pub read_fraction: f64,
}

impl Default for LlmConfig {
    fn default() -> Self {
        Self {
            model_gb: 4.1,
            bytes_per_token_gb: 0.51, // Batch of 8 over 4.1 GB.
            per_thread_gbps: 1.05,
            backend_plateau_gbps: 24.2,
            threads_per_backend: 12,
            lat_ref_ns: ModelParams::default().mmem_read_idle_ns,
            penalty_scale_ns: 635.0,
            util_cap: 0.97,
            kv_floor_gbps: 12.0,
            kv_plateau_gbps: 21.0,
            read_fraction: 0.95,
        }
    }
}

/// Memory placement for the inference backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LlmPlacement {
    /// All traffic to the SNC domain's DRAM.
    MmemOnly,
    /// N:M interleave between DRAM and the CXL expander (Table 1).
    Interleave {
        /// Pages to DRAM per cycle.
        n: u32,
        /// Pages to CXL per cycle.
        m: u32,
    },
}

impl LlmPlacement {
    /// Fraction of traffic on DRAM.
    pub fn dram_fraction(self) -> f64 {
        match self {
            LlmPlacement::MmemOnly => 1.0,
            LlmPlacement::Interleave { n, m } => n as f64 / (n + m) as f64,
        }
    }

    /// Paper-style label.
    pub fn label(self) -> String {
        match self {
            LlmPlacement::MmemOnly => "MMEM".to_string(),
            LlmPlacement::Interleave { n, m } => format!("{n}:{m}"),
        }
    }
}

/// One point of the Fig. 10(a) serving-rate curve.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServingPoint {
    /// Total inference threads (backends × threads/backend).
    pub threads: usize,
    /// Delivered serving rate, tokens/s.
    pub tokens_per_sec: f64,
    /// Achieved memory bandwidth, GB/s.
    pub achieved_gbps: f64,
    /// Blended loaded latency, ns.
    pub latency_ns: f64,
}

/// The inference-serving simulator over one SNC domain + one CXL card.
pub struct LlmCluster {
    cfg: LlmConfig,
    sys: MemSystem,
    socket: SocketId,
    dram: NodeId,
    cxl: NodeId,
}

impl LlmCluster {
    /// Builds the §5.1 platform: one SNC-4 domain (2 × DDR5-4800) plus
    /// one A1000.
    pub fn new(cfg: LlmConfig) -> Self {
        let topo = Topology::snc_domain_with_cxl();
        Self::with_topology(cfg, &topo)
    }

    /// Builds over a custom topology (first DRAM node + first CXL node).
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks a DRAM or CXL node.
    pub fn with_topology(cfg: LlmConfig, topo: &Topology) -> Self {
        Self::with_system(cfg, MemSystem::new(topo))
    }

    /// Builds over a prebuilt memory system (tuned platforms, ablations).
    ///
    /// # Panics
    ///
    /// Panics if the system lacks a DRAM or CXL node.
    pub fn with_system(cfg: LlmConfig, sys: MemSystem) -> Self {
        let nodes = sys.nodes().to_vec();
        let dram = nodes
            .iter()
            .find(|n| n.tier == MemoryTier::LocalDram)
            .expect("topology needs a DRAM node")
            .id;
        let cxl = nodes
            .iter()
            .find(|n| n.tier == MemoryTier::CxlExpander)
            .expect("topology needs a CXL node")
            .id;
        let socket = sys.sockets()[0];
        Self {
            cfg,
            sys,
            socket,
            dram,
            cxl,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LlmConfig {
        &self.cfg
    }

    /// Aggregate demand of `threads` inference threads, GB/s
    /// (per-backend plateau applied — Fig. 10(b)).
    pub fn offered_demand_gbps(&self, threads: usize) -> f64 {
        let tpb = self.cfg.threads_per_backend;
        let full_backends = threads / tpb;
        let rem = threads % tpb;
        let backend_bw =
            |t: usize| (t as f64 * self.cfg.per_thread_gbps).min(self.cfg.backend_plateau_gbps);
        full_backends as f64 * backend_bw(tpb) + backend_bw(rem)
    }

    /// Swaps in a degraded topology (downgraded link, inflated latency,
    /// or a dead expander); serving continues on the recomputed curves,
    /// rerouting the CXL stripe to DRAM if the expander is offline.
    pub fn apply_topology(&mut self, topo: &Topology) {
        self.sys = MemSystem::new(topo);
    }

    fn stripes(&self, placement: LlmPlacement) -> Vec<(NodeId, f64)> {
        let f = placement.dram_fraction();
        // A dead expander collapses every interleave to MMEM-only: the
        // pages were evacuated to DRAM, and the traffic follows them.
        if f >= 1.0 || !self.sys.node_online(self.cxl) {
            return vec![(self.dram, 1.0)];
        }
        vec![(self.dram, f), (self.cxl, 1.0 - f)]
    }

    /// Serving rate at a total thread count under a placement.
    pub fn serving_rate(&self, placement: LlmPlacement, threads: usize) -> ServingPoint {
        let demand = self.offered_demand_gbps(threads);
        let mix = AccessMix::from_read_fraction(self.cfg.read_fraction);
        let stripes = self.stripes(placement);

        if demand <= 0.0 {
            return ServingPoint {
                threads,
                tokens_per_sec: 0.0,
                achieved_gbps: 0.0,
                latency_ns: self.sys.idle_latency_ns(self.socket, self.dram, mix),
            };
        }

        // Pass 1: full demand — find the synchronized-stripe throughput.
        let flows: Vec<FlowSpec> = stripes
            .iter()
            .map(|&(n, f)| FlowSpec::new(self.socket, n, mix, demand * f))
            .collect();
        let solved = self.sys.solve(&flows);
        let mut scale: f64 = 1.0;
        for (out, flow) in solved.flows.iter().zip(&flows) {
            if flow.offered_gbps > 0.0 {
                scale = scale.min(out.achieved_gbps / flow.offered_gbps);
            }
        }
        let achieved = demand * scale.min(1.0);

        // Pass 2: latency at the (clamped) steady-state utilization. When
        // demand exceeds capacity the queues sit just under full.
        let lat_scale = if scale < 1.0 {
            scale * self.cfg.util_cap
        } else {
            1.0
        };
        let flows2: Vec<FlowSpec> = stripes
            .iter()
            .map(|&(n, f)| FlowSpec::new(self.socket, n, mix, demand * f * lat_scale))
            .collect();
        let solved2 = self.sys.solve(&flows2);
        let latency_ns: f64 = stripes
            .iter()
            .zip(solved2.flows.iter())
            .map(|(&(_, f), out)| f * out.latency_ns)
            .sum();

        // Latency spikes stall the decode pipeline.
        let penalty =
            1.0 / (1.0 + (latency_ns - self.cfg.lat_ref_ns).max(0.0) / self.cfg.penalty_scale_ns);
        let effective = achieved * penalty;
        ServingPoint {
            threads,
            tokens_per_sec: effective / self.cfg.bytes_per_token_gb,
            achieved_gbps: achieved,
            latency_ns,
        }
    }

    /// Sweeps the Fig. 10(a) thread axis for one placement.
    pub fn sweep(&self, placement: LlmPlacement, thread_counts: &[usize]) -> Vec<ServingPoint> {
        thread_counts
            .iter()
            .map(|&t| self.serving_rate(placement, t))
            .collect()
    }

    /// Fig. 10(b): single-backend memory bandwidth vs thread count.
    pub fn backend_bandwidth_gbps(&self, threads_in_backend: usize) -> f64 {
        (threads_in_backend as f64 * self.cfg.per_thread_gbps).min(self.cfg.backend_plateau_gbps)
    }

    /// Fig. 10(c): single-backend bandwidth vs KV-cache size.
    ///
    /// The floor is the I/O threads streaming model weights; KV reads
    /// add linearly until the backend's decode loop saturates.
    pub fn kv_bandwidth_gbps(&self, kv_cache_gb: f64) -> f64 {
        let slope = (self.cfg.kv_plateau_gbps - self.cfg.kv_floor_gbps) / self.cfg.model_gb;
        (self.cfg.kv_floor_gbps + slope * kv_cache_gb).min(self.cfg.kv_plateau_gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> LlmCluster {
        LlmCluster::new(LlmConfig::default())
    }

    const MMEM: LlmPlacement = LlmPlacement::MmemOnly;
    const I31: LlmPlacement = LlmPlacement::Interleave { n: 3, m: 1 };
    const I11: LlmPlacement = LlmPlacement::Interleave { n: 1, m: 1 };
    const I13: LlmPlacement = LlmPlacement::Interleave { n: 1, m: 3 };

    #[test]
    fn near_linear_scaling_at_low_threads() {
        let c = cluster();
        let r12 = c.serving_rate(MMEM, 12).tokens_per_sec;
        let r36 = c.serving_rate(MMEM, 36).tokens_per_sec;
        let ratio = r36 / r12;
        assert!((2.6..=3.05).contains(&ratio), "scaling ratio {ratio}");
    }

    #[test]
    fn mmem_saturates_near_48_threads() {
        let c = cluster();
        let r48 = c.serving_rate(MMEM, 48).tokens_per_sec;
        let r60 = c.serving_rate(MMEM, 60).tokens_per_sec;
        // Growth stalls (and reverses) past 48 threads (§5.2).
        assert!(r60 < r48 * 1.05, "r48 {r48} r60 {r60}");
    }

    #[test]
    fn interleave_3_1_beats_mmem_by_95_percent_at_60_threads() {
        let c = cluster();
        let mmem = c.serving_rate(MMEM, 60).tokens_per_sec;
        let i31 = c.serving_rate(I31, 60).tokens_per_sec;
        let gain = i31 / mmem - 1.0;
        assert!((0.70..=1.25).contains(&gain), "gain {gain}");
    }

    #[test]
    fn mmem_14_percent_below_1_3_beyond_64_threads() {
        let c = cluster();
        for threads in [66, 72, 84] {
            let mmem = c.serving_rate(MMEM, threads).tokens_per_sec;
            let i13 = c.serving_rate(I13, threads).tokens_per_sec;
            let deficit = 1.0 - mmem / i13;
            assert!(
                (0.02..=0.35).contains(&deficit),
                "threads {threads}: deficit {deficit}"
            );
        }
    }

    #[test]
    fn higher_dram_share_wins_among_interleaves() {
        let c = cluster();
        let r31 = c.serving_rate(I31, 60).tokens_per_sec;
        let r11 = c.serving_rate(I11, 60).tokens_per_sec;
        let r13 = c.serving_rate(I13, 60).tokens_per_sec;
        assert!(r31 > r11, "3:1 {r31} vs 1:1 {r11}");
        assert!(r11 > r13, "1:1 {r11} vs 1:3 {r13}");
    }

    #[test]
    fn mmem_wins_at_low_thread_counts() {
        let c = cluster();
        for threads in [12, 24, 36] {
            let mmem = c.serving_rate(MMEM, threads).tokens_per_sec;
            for p in [I31, I11, I13] {
                let r = c.serving_rate(p, threads).tokens_per_sec;
                assert!(
                    mmem >= r * 0.999,
                    "{} at {threads}: {r} > MMEM {mmem}",
                    p.label()
                );
            }
        }
    }

    #[test]
    fn backend_bandwidth_plateaus_at_24_threads() {
        let c = cluster();
        let b12 = c.backend_bandwidth_gbps(12);
        assert!((b12 - 12.6).abs() < 1e-9);
        let b24 = c.backend_bandwidth_gbps(24);
        assert!((b24 - 24.2).abs() < 1e-9, "b24 {b24}");
        assert_eq!(c.backend_bandwidth_gbps(32), b24);
    }

    #[test]
    fn kv_bandwidth_floor_and_plateau() {
        let c = cluster();
        assert!((c.kv_bandwidth_gbps(0.0) - 12.0).abs() < 1e-9);
        let plateau = c.kv_bandwidth_gbps(100.0);
        assert!((plateau - 21.0).abs() < 1e-9);
        // Monotone non-decreasing in between.
        let mut prev = 0.0;
        for i in 0..=20 {
            let v = c.kv_bandwidth_gbps(i as f64 * 0.5);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn offered_demand_respects_backend_plateau() {
        let c = cluster();
        // 5 backends of 12 threads each: no plateau yet (12.6 < 24.2).
        let d = c.offered_demand_gbps(60);
        assert!((d - 5.0 * 12.6).abs() < 1e-9, "demand {d}");
        // A 30-thread partial split: 2 full backends + 6 threads.
        let d30 = c.offered_demand_gbps(30);
        assert!((d30 - (2.0 * 12.6 + 6.3)).abs() < 1e-9);
    }

    #[test]
    fn zero_threads_serve_nothing() {
        let c = cluster();
        let p = c.serving_rate(MMEM, 0);
        assert_eq!(p.tokens_per_sec, 0.0);
        assert_eq!(p.achieved_gbps, 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(MMEM.label(), "MMEM");
        assert_eq!(I31.label(), "3:1");
        assert_eq!(I13.dram_fraction(), 0.25);
    }

    fn cxl_node(topo: &Topology) -> NodeId {
        topo.nodes()
            .iter()
            .find(|n| n.tier == MemoryTier::CxlExpander)
            .expect("topology has a CXL node")
            .id
    }

    #[test]
    fn dead_expander_reroutes_interleave_to_dram() {
        let mut topo = Topology::snc_domain_with_cxl();
        let mut c = cluster();
        let healthy_i31 = c.serving_rate(I31, 60).tokens_per_sec;

        let node = cxl_node(&topo);
        topo.cxl_device_mut(node).unwrap().health.online = false;
        c.apply_topology(&topo);

        // Serving continues (no panic, nonzero rate), but every
        // placement now rides DRAM alone.
        let degraded = c.serving_rate(I31, 60).tokens_per_sec;
        let mmem = c.serving_rate(MMEM, 60).tokens_per_sec;
        assert!(degraded > 0.0);
        assert_eq!(degraded, mmem, "offline CXL must collapse to MMEM");
        assert!(
            degraded < healthy_i31,
            "losing the expander's bandwidth cannot speed serving up"
        );
    }

    #[test]
    fn link_downgrade_degrades_but_keeps_serving() {
        let mut topo = Topology::snc_domain_with_cxl();
        let mut c = cluster();
        let healthy = c.serving_rate(I13, 72).tokens_per_sec;

        // x16 -> x4 retrain: a quarter of the link bandwidth remains.
        let node = cxl_node(&topo);
        topo.cxl_device_mut(node).unwrap().health.lanes_override = Some(4);
        c.apply_topology(&topo);

        let degraded = c.serving_rate(I13, 72);
        assert!(degraded.tokens_per_sec > 0.0);
        assert!(
            degraded.tokens_per_sec < healthy,
            "x4 link {} vs x16 {healthy}",
            degraded.tokens_per_sec
        );
    }
}
