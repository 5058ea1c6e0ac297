//! Fig. 5: KeyDB under YCSB across the Table 1 configurations (§4.1).

use serde::Serialize;

use cxl_kv::{KvConfig, KvStore, MemProfile, RunResult, VALUE_SIZE};
use cxl_stats::report::{Figure, Series, Table};
use cxl_stats::rng::derive_seed;
use cxl_stats::Histogram;
use cxl_topology::{SncMode, Topology};
use cxl_ycsb::{OpTrace, Workload};

use crate::config::CapacityConfig;
use crate::runner::Runner;

/// Sizing knobs for the Fig. 5 runs.
///
/// The paper loads 512 GB; the simulation scales the dataset down (the
/// placement/caching dynamics are size-invariant at fixed skew) and runs
/// enough operations for migration to converge.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig5Params {
    /// Records in the store (1 KiB each).
    pub record_count: u64,
    /// Measured operations per workload.
    pub ops: u64,
    /// Warm-up operations before measuring (hot-set migration).
    pub warmup_ops: u64,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig5Params {
    fn default() -> Self {
        Self {
            record_count: 200_000,
            ops: 200_000,
            warmup_ops: 200_000,
            seed: 42,
        }
    }
}

impl Fig5Params {
    /// A fast variant for tests. The warm-up is still long enough for
    /// Hot-Promote's migration to converge.
    pub fn smoke() -> Self {
        Self {
            record_count: 50_000,
            ops: 40_000,
            warmup_ops: 150_000,
            seed: 42,
        }
    }
}

/// One cell of Fig. 5(a) plus its latency histograms.
#[derive(Debug, Clone, Serialize)]
pub struct KeydbCell {
    /// Configuration label.
    pub config: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Throughput, ops/s.
    pub throughput_ops: f64,
    /// Full sojourn-latency histogram (ns).
    pub latency: Histogram,
    /// Read-only latency histogram (ns).
    pub read_latency: Histogram,
    /// SSD hits during measurement.
    pub ssd_hits: u64,
}

/// The Fig. 5 study.
#[derive(Debug, Clone, Serialize)]
pub struct KeydbStudy {
    /// All `(config × workload)` cells.
    pub cells: Vec<KeydbCell>,
    /// Parameters used.
    pub params: Fig5Params,
}

impl KeydbStudy {
    /// Throughput of one cell, ops/s.
    pub fn throughput(&self, config: CapacityConfig, workload: Workload) -> f64 {
        self.cell(config, workload).throughput_ops
    }

    /// Looks up a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not run.
    pub fn cell(&self, config: CapacityConfig, workload: Workload) -> &KeydbCell {
        self.cells
            .iter()
            .find(|c| c.config == config.label() && c.workload == workload.label())
            .expect("cell not present")
    }

    /// Fig. 5(a): throughput bars (one series per workload).
    pub fn fig5a(&self) -> Figure {
        let mut fig = Figure::new(
            "fig5a",
            "KeyDB YCSB throughput across configurations",
            "configuration index (Table 1 order)",
            "throughput (kops/s)",
        );
        for w in Workload::all() {
            let mut s = Series::new(w.label());
            for (i, c) in CapacityConfig::all().iter().enumerate() {
                s.push(i as f64, self.throughput(*c, w) / 1e3);
            }
            fig.push(s);
        }
        fig
    }

    /// Fig. 5(b): YCSB-A tail latencies per configuration.
    pub fn fig5b(&self) -> Table {
        let mut t = Table::new(
            "fig5b",
            "YCSB-A tail latency (us)",
            &["config", "p50", "p95", "p99", "p99.9"],
        );
        for c in CapacityConfig::all() {
            let cell = self.cell(c, Workload::A);
            let (p50, p95, p99, p999) =
                cell.latency.try_tail().expect("fig5 cells record every op");
            t.push_row(vec![
                c.label().to_string(),
                format!("{:.1}", p50 as f64 / 1e3),
                format!("{:.1}", p95 as f64 / 1e3),
                format!("{:.1}", p99 as f64 / 1e3),
                format!("{:.1}", p999 as f64 / 1e3),
            ]);
        }
        t
    }

    /// Fig. 5(c): YCSB-C latency CDFs per configuration.
    pub fn fig5c(&self) -> Figure {
        let mut fig = Figure::new(
            "fig5c",
            "YCSB-C latency CDF",
            "latency (us)",
            "cumulative fraction",
        );
        for c in CapacityConfig::all() {
            let cell = self.cell(c, Workload::C);
            let mut s = Series::new(c.label());
            for (v, f) in cell.read_latency.cdf() {
                s.push(v as f64 / 1e3, f);
            }
            fig.push(s);
        }
        fig
    }
}

/// The KeyDB configuration of every Fig. 5 store.
fn kv_config(params: Fig5Params) -> KvConfig {
    KvConfig {
        record_count: params.record_count,
        profile: MemProfile::capacity_strained(),
        eviction: cxl_kv::EvictionPolicy::Clock,
        seed: params.seed,
    }
}

fn build_store(config: CapacityConfig, params: Fig5Params) -> KvStore {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let dataset = params.record_count * VALUE_SIZE;
    let (tier, flash) = config.tier_config(&topo, dataset);
    KvStore::new(&topo, tier, kv_config(params), flash)
}

/// A cell from its measured run.
fn cell(config: CapacityConfig, workload: Workload, r: RunResult) -> KeydbCell {
    KeydbCell {
        config: config.label(),
        workload: workload.label(),
        throughput_ops: r.throughput_ops,
        latency: r.latency,
        read_latency: r.read_latency,
        ssd_hits: r.ssd_hits,
    }
}

/// Runs one cell.
pub fn run_cell(config: CapacityConfig, workload: Workload, params: Fig5Params) -> KeydbCell {
    let mut store = build_store(config, params);
    if params.warmup_ops > 0 {
        store.run(workload, params.warmup_ops);
    }
    cell(config, workload, store.run(workload, params.ops))
}

/// Records the runs [`run_cell`] draws on a store seeded with
/// `params.seed`: the warm-up, when there is one, and the measured run.
fn record_runs(workload: Workload, params: Fig5Params) -> (Option<OpTrace>, OpTrace) {
    let kv = kv_config(params);
    let record = |run, ops| OpTrace::record(workload, kv.run_generator_config(run), ops);
    let warmup = (params.warmup_ops > 0).then(|| record(0, params.warmup_ops));
    let measured = record(u64::from(warmup.is_some()), params.ops);
    (warmup, measured)
}

/// Runs the full Fig. 5 grid on an explicit runner.
///
/// The paper runs the same YCSB stream against every Table 1
/// configuration, and so does the study: each workload's warm-up and
/// measured streams are recorded once and replayed into all seven
/// configurations' stores, which [`KvStore::replay`] only accepts as
/// the runs [`run_cell`] would draw. Each workload's cells share the
/// label `fig5/{workload}`, so their stores share its seed, and the
/// output is bit-identical to [`run_cell`] on every cell for any
/// worker count. Only one workload's recordings are alive at a time.
pub fn run_with(runner: &Runner, params: Fig5Params) -> KeydbStudy {
    let configs = CapacityConfig::all();
    let mut columns = Vec::new();
    for workload in Workload::all() {
        let label = format!("fig5/{}", workload.label());
        let seed = derive_seed(params.seed, &label);
        let (warmup, measured) = record_runs(workload, Fig5Params { seed, ..params });
        let grid = configs.iter().map(|&c| (label.clone(), c)).collect();
        let cells = runner.map_seeded(params.seed, grid, |config, seed| {
            let mut store = build_store(config, Fig5Params { seed, ..params });
            if let Some(trace) = &warmup {
                store.replay(trace);
            }
            cell(config, workload, store.replay(&measured))
        });
        columns.push(cells.into_iter());
    }
    // Configuration-major order, as the figures and the JSON read it.
    let mut cells = Vec::with_capacity(configs.len() * columns.len());
    for _ in configs {
        for column in &mut columns {
            cells.push(column.next().expect("one cell per configuration"));
        }
    }
    KeydbStudy { cells, params }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_runs() {
        let cell = run_cell(CapacityConfig::Mmem, Workload::C, Fig5Params::smoke());
        assert!(cell.throughput_ops > 0.0);
        assert_eq!(cell.latency.count(), Fig5Params::smoke().ops);
        assert_eq!(cell.ssd_hits, 0);
    }

    #[test]
    fn ordering_holds_on_workload_c_smoke() {
        let p = Fig5Params::smoke();
        let mmem = run_cell(CapacityConfig::Mmem, Workload::C, p).throughput_ops;
        let il = run_cell(CapacityConfig::Interleave11, Workload::C, p).throughput_ops;
        let ssd = run_cell(CapacityConfig::MmemSsd04, Workload::C, p).throughput_ops;
        let hp = run_cell(CapacityConfig::HotPromote, Workload::C, p).throughput_ops;
        assert!(mmem > il, "MMEM {mmem} vs 1:1 {il}");
        assert!(il > ssd, "1:1 {il} vs SSD {ssd}");
        assert!(hp > il, "Hot-Promote {hp} vs 1:1 {il}");
    }

    #[test]
    fn keydb_interleave_slowdown_is_seed_robust() {
        // The 1:1 slowdown conclusion must not hinge on one seed.
        let mut s = cxl_stats::Summary::new();
        for seed in 100..104 {
            let p = Fig5Params {
                record_count: 30_000,
                ops: 25_000,
                warmup_ops: 0,
                seed,
            };
            let mmem = run_cell(CapacityConfig::Mmem, Workload::C, p).throughput_ops;
            let il = run_cell(CapacityConfig::Interleave11, Workload::C, p).throughput_ops;
            s.add(mmem / il);
        }
        assert!(s.min() > 1.2, "min slowdown {}", s.min());
        assert!(s.max() < 1.6, "max slowdown {}", s.max());
        let cv = s.std_dev() / s.mean();
        assert!(cv < 0.10, "cv {cv}");
    }

    #[test]
    fn figures_render() {
        // Tiny grid to exercise the report paths.
        let p = Fig5Params {
            record_count: 20_000,
            ops: 8_000,
            warmup_ops: 0,
            seed: 1,
        };
        let study = run_with(&Runner::from_env(), p);
        assert_eq!(study.cells.len(), 28);
        let a = study.fig5a();
        assert_eq!(a.series.len(), 4);
        assert_eq!(a.series[0].points.len(), 7);
        let b = study.fig5b();
        assert_eq!(b.rows.len(), 7);
        let c = study.fig5c();
        assert_eq!(c.series.len(), 7);
        assert!(!c.render().is_empty());
    }
}
