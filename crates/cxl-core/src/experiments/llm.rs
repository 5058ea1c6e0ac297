//! Fig. 10: CPU LLM inference serving over CXL bandwidth (§5).

use serde::Serialize;

use cxl_llm::{LlmCluster, LlmConfig, LlmPlacement, ServingPoint};
use cxl_stats::report::{Figure, Series};

use crate::runner::Runner;

/// The thread counts swept in Fig. 10(a).
pub fn thread_axis() -> Vec<usize> {
    (1..=8).map(|b| b * 12).collect()
}

/// The placements compared in Fig. 10(a).
pub fn placements() -> Vec<LlmPlacement> {
    vec![
        LlmPlacement::MmemOnly,
        LlmPlacement::Interleave { n: 3, m: 1 },
        LlmPlacement::Interleave { n: 1, m: 1 },
        LlmPlacement::Interleave { n: 1, m: 3 },
    ]
}

/// The Fig. 10 study.
#[derive(Debug, Clone, Serialize)]
pub struct LlmStudy {
    /// `(placement label, sweep)` pairs for Fig. 10(a).
    pub serving: Vec<(String, Vec<ServingPoint>)>,
    /// Fig. 10(b): `(threads, GB/s)` for a single backend.
    pub backend_bw: Vec<(usize, f64)>,
    /// Fig. 10(c): `(KV cache GB, GB/s)` for a single backend.
    pub kv_bw: Vec<(f64, f64)>,
}

impl LlmStudy {
    /// Serving rate for a placement at a thread count, tokens/s.
    pub fn rate(&self, label: &str, threads: usize) -> f64 {
        self.serving
            .iter()
            .find(|(l, _)| l == label)
            .expect("placement present")
            .1
            .iter()
            .find(|p| p.threads == threads)
            .expect("thread count present")
            .tokens_per_sec
    }

    /// Fig. 10(a) as a renderable figure.
    pub fn fig10a(&self) -> Figure {
        let mut fig = Figure::new(
            "fig10a",
            "LLM inference serving rate vs threads",
            "threads",
            "tokens/s",
        );
        for (label, points) in &self.serving {
            let mut s = Series::new(label.clone());
            for p in points {
                s.push(p.threads as f64, p.tokens_per_sec);
            }
            fig.push(s);
        }
        fig
    }

    /// Fig. 10(b) as a renderable figure.
    pub fn fig10b(&self) -> Figure {
        let mut fig = Figure::new(
            "fig10b",
            "Single-backend memory bandwidth vs threads",
            "threads",
            "bandwidth (GB/s)",
        );
        let mut s = Series::new("backend");
        for &(t, bw) in &self.backend_bw {
            s.push(t as f64, bw);
        }
        fig.push(s);
        fig
    }

    /// Fig. 10(c) as a renderable figure.
    pub fn fig10c(&self) -> Figure {
        let mut fig = Figure::new(
            "fig10c",
            "Single-backend bandwidth vs KV-cache size",
            "KV cache (GB)",
            "bandwidth (GB/s)",
        );
        let mut s = Series::new("backend");
        for &(kv, bw) in &self.kv_bw {
            s.push(kv, bw);
        }
        fig.push(s);
        fig
    }
}

/// Runs the Fig. 10 sweeps on the §5.1 platform, on an explicit runner.
/// All three sweeps are
/// analytic; the placement sweep (the expensive one) parallelizes per
/// placement, the single-backend scans per point.
pub fn run_with(runner: &Runner) -> LlmStudy {
    let cluster = LlmCluster::new(LlmConfig::default());
    let axis = thread_axis();
    let serving = runner.map(placements(), |p| (p.label(), cluster.sweep(p, &axis)));
    let backend_bw = runner.map((1..=32).collect(), |t| {
        (t, cluster.backend_bandwidth_gbps(t))
    });
    let kv_bw = runner.map((0..=40).collect(), |i: usize| {
        let kv = i as f64 * 0.2;
        (kv, cluster.kv_bandwidth_gbps(kv))
    });
    LlmStudy {
        serving,
        backend_bw,
        kv_bw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_shape() {
        let s = run_with(&Runner::from_env());
        assert_eq!(s.serving.len(), 4);
        for (_, pts) in &s.serving {
            assert_eq!(pts.len(), 8);
        }
        assert_eq!(s.fig10a().series.len(), 4);
        assert_eq!(s.fig10b().series.len(), 1);
        assert!(!s.fig10c().render().is_empty());
    }

    #[test]
    fn headline_comparisons() {
        let s = run_with(&Runner::from_env());
        // 3:1 beats MMEM by ~95 % at 60 threads.
        let gain = s.rate("3:1", 60) / s.rate("MMEM", 60) - 1.0;
        assert!((0.7..=1.25).contains(&gain), "gain {gain}");
        // MMEM below 1:3 beyond 64 threads.
        assert!(s.rate("MMEM", 72) < s.rate("1:3", 72));
        // MMEM wins at low thread counts.
        assert!(s.rate("MMEM", 24) >= s.rate("1:3", 24));
    }
}
