//! Fig. 8 and the §4.3 elastic-compute analysis.
//!
//! §4.3 asks what happens when a VM's memory lives entirely on CXL: the
//! paper measures KeyDB/YCSB-C at 100 GB bound via `numactl` to MMEM or
//! CXL, finding ≈12.5 % lower throughput and a 9–27 % read-latency
//! penalty — mild enough that discounted CXL-backed instances recover
//! most of the revenue stranded by memory-constrained servers.

use serde::Serialize;

use cxl_cost::RevenueModel;
use cxl_kv::{KvConfig, KvStore, MemProfile};
use cxl_stats::report::{Figure, Series, Table};
use cxl_stats::Histogram;
use cxl_tier::TierConfig;
use cxl_topology::{MemoryTier, SncMode, Topology};
use cxl_ycsb::Workload;

use crate::runner::Runner;

/// Sizing knobs for the Fig. 8 runs.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig8Params {
    /// Records in the store (1 KiB each; the paper uses 100 GB total).
    pub record_count: u64,
    /// Measured operations.
    pub ops: u64,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig8Params {
    fn default() -> Self {
        Self {
            record_count: 100_000,
            ops: 150_000,
            seed: 42,
        }
    }
}

/// The Fig. 8 + §4.3 study.
#[derive(Debug, Clone, Serialize)]
pub struct VmStudy {
    /// Throughput with the instance bound to MMEM, ops/s.
    pub mmem_throughput: f64,
    /// Throughput bound to CXL, ops/s.
    pub cxl_throughput: f64,
    /// Read-latency histograms (ns).
    pub mmem_latency: Histogram,
    /// Read-latency histogram on CXL (ns).
    pub cxl_latency: Histogram,
    /// The revenue model evaluated on the §4.3 example.
    pub revenue: RevenueModel,
}

impl VmStudy {
    /// Fractional throughput loss on CXL (paper: ≈12.5 %).
    pub fn throughput_loss(&self) -> f64 {
        1.0 - self.cxl_throughput / self.mmem_throughput
    }

    /// Read-latency penalty at a percentile (paper band: 9–27 %).
    ///
    /// # Panics
    ///
    /// Panics if either run recorded no reads — a 0/0 here would report
    /// a fabricated penalty instead of a broken run.
    pub fn latency_penalty(&self, percentile: f64) -> f64 {
        let m = self
            .mmem_latency
            .try_percentile(percentile)
            .expect("MMEM run recorded reads") as f64;
        let c = self
            .cxl_latency
            .try_percentile(percentile)
            .expect("CXL run recorded reads") as f64;
        c / m - 1.0
    }

    /// Fig. 8(a): the two read-latency CDFs.
    pub fn fig8a(&self) -> Figure {
        let mut fig = Figure::new(
            "fig8a",
            "KeyDB YCSB-C read latency CDF: MMEM vs CXL",
            "latency (us)",
            "cumulative fraction",
        );
        for (label, h) in [("MMEM", &self.mmem_latency), ("CXL", &self.cxl_latency)] {
            let mut s = Series::new(label);
            for (v, f) in h.cdf() {
                s.push(v as f64 / 1e3, f);
            }
            fig.push(s);
        }
        fig
    }

    /// Fig. 8(b): throughput comparison.
    pub fn fig8b(&self) -> Table {
        let mut t = Table::new(
            "fig8b",
            "KeyDB YCSB-C throughput",
            &["binding", "kops/s", "relative"],
        );
        t.push_row(vec![
            "MMEM".into(),
            format!("{:.1}", self.mmem_throughput / 1e3),
            "1.000".into(),
        ]);
        t.push_row(vec![
            "CXL".into(),
            format!("{:.1}", self.cxl_throughput / 1e3),
            format!("{:.3}", self.cxl_throughput / self.mmem_throughput),
        ]);
        t
    }

    /// §4.3 revenue table.
    pub fn revenue_table(&self) -> Table {
        let mut t = Table::new(
            "revenue",
            "Elastic-compute revenue recovery (§4.3)",
            &["metric", "value"],
        );
        let r = &self.revenue;
        t.push_row(vec![
            "sellable vCPUs (1:4)".into(),
            format!("{}", r.sellable_vcpus()),
        ]);
        t.push_row(vec![
            "stranded vCPUs".into(),
            format!("{}", r.stranded_vcpus()),
        ]);
        t.push_row(vec![
            "revenue loss w/o CXL".into(),
            format!("{:.1}%", 100.0 * r.revenue_loss()),
        ]);
        t.push_row(vec![
            "CXL instance discount".into(),
            format!("{:.0}%", 100.0 * r.cxl_discount),
        ]);
        t.push_row(vec![
            "revenue uplift with CXL".into(),
            format!("{:.2}%", 100.0 * r.revenue_uplift()),
        ]);
        t
    }
}

fn run_binding(topo: &Topology, on_cxl: bool, params: Fig8Params) -> (f64, Histogram) {
    let nodes = topo.nodes();
    let target = nodes
        .iter()
        .find(|n| {
            if on_cxl {
                n.tier == MemoryTier::CxlExpander
            } else {
                n.tier == MemoryTier::LocalDram
            }
        })
        .expect("node available")
        .id;
    let kv = KvConfig {
        record_count: params.record_count,
        profile: MemProfile::standard(),
        eviction: cxl_kv::EvictionPolicy::Clock,
        seed: params.seed,
    };
    let mut store = KvStore::new(topo, TierConfig::bind(vec![target]), kv, false);
    let r = store.run(Workload::C, params.ops);
    (r.throughput_ops, r.read_latency)
}

/// Runs the Fig. 8 comparison on an explicit runner. Both bindings
/// deliberately replay the same seed — the experiment compares one
/// workload trace across placements — so the cells are independent and
/// the paired comparison survives parallel execution bit-for-bit.
pub fn run_with(runner: &Runner, params: Fig8Params) -> VmStudy {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let mut results = runner.map(vec![false, true], |on_cxl| {
        run_binding(&topo, on_cxl, params)
    });
    let (cxl_throughput, cxl_latency) = results.pop().expect("CXL binding ran");
    let (mmem_throughput, mmem_latency) = results.pop().expect("MMEM binding ran");
    VmStudy {
        mmem_throughput,
        cxl_throughput,
        mmem_latency,
        cxl_latency,
        revenue: RevenueModel::paper_example(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> VmStudy {
        run_with(
            &Runner::from_env(),
            Fig8Params {
                record_count: 50_000,
                ops: 60_000,
                seed: 42,
            },
        )
    }

    #[test]
    fn throughput_loss_near_12_5_percent() {
        let s = study();
        let loss = s.throughput_loss();
        assert!((0.08..=0.20).contains(&loss), "loss {loss}");
    }

    #[test]
    fn latency_penalty_in_9_to_27_band() {
        let s = study();
        for p in [50.0, 90.0, 99.0] {
            let pen = s.latency_penalty(p);
            assert!((0.03..=0.35).contains(&pen), "p{p} penalty {pen}");
        }
    }

    #[test]
    fn revenue_uplift_matches_section_4_3() {
        let s = study();
        let uplift = s.revenue.revenue_uplift();
        assert!((uplift - 0.2667).abs() < 0.005, "uplift {uplift}");
    }

    #[test]
    fn reports_render() {
        let s = study();
        assert_eq!(s.fig8a().series.len(), 2);
        assert!(s.fig8b().render().contains("CXL"));
        assert!(s.revenue_table().render().contains("uplift"));
    }
}
