//! Heap dynamics: a managed-runtime object graph on tiered memory,
//! GC promotion storms, and the knobs that tame them.
//!
//! The `cxl-heap` workload alternates a pointer-chasing mutator with
//! stop-the-world BFS trace phases. On a DRAM-lean placement the trace
//! sweeps every live page inside the hot-page policy's recency window,
//! and the default kernel-style policy (promote on one repeat fault)
//! reads the sweep as a working-set shift: it promotes swaths of the
//! cold tail, evicting the mutator's resident hot set and burning the
//! migration budget — so the mutator's own p99 degrades *after* the
//! runtime resumes. Two mitigations are studied, separately and
//! together:
//!
//! * **storm-aware promotion** (`promote_after_faults` > 1): a page
//!   must fault repeatedly across scan passes before it is a
//!   candidate. Trace-swept cold pages never build the streak; the
//!   mutator's hot set does.
//! * **hot/cold segregation** (`alloc_preferring`): the runtime places
//!   its tenured region on the expander and keeps DRAM for the nursery
//!   and survivors, pre-empting the storm at allocation time.
//!
//! One more cell drops an expander **mid-trace** — the worst possible
//! moment, with the trace pinning far memory — and gates on zero
//! stranded pages after the evacuation.

use serde::Serialize;

use cxl_heap::{FaultPlan, HeapParams, HeapReport, HeapWorkload, ObjectGraph};
use cxl_sim::SimTime;
use cxl_stats::report::{fmt_f64, Table};
use cxl_tier::{AllocPolicy, HotPageConfig, MigrationMode, NumaBalancingConfig, TierConfig};
use cxl_topology::{MemoryTier, NodeId, SncMode, Topology};

use crate::runner::Runner;

/// Sizing knobs for the heap-dynamics study.
#[derive(Debug, Clone, Serialize)]
pub struct HeapStudyParams {
    /// The workload shape shared by every cell.
    pub heap: HeapParams,
    /// DRAM capacity as a fraction of the heap in the lean cells.
    pub dram_fraction: f64,
    /// `promote_after_faults` for the storm-aware cells.
    pub storm_streak: u32,
    /// Hint-fault scan period, ms. Must exceed the trace duration for
    /// the streak filter to discriminate (a real kernel's scan period
    /// is minutes against millisecond GC pauses; the simulation
    /// compresses both but must keep the ordering).
    pub scan_period_ms: u64,
    /// Recency window for repeat-fault detection, ms.
    pub hot_threshold_ms: u64,
    /// Promotion rate limit, bytes/s. Shared by storm promotions and
    /// post-storm hot-set recovery, which is exactly why storms hurt.
    pub promote_rate_bytes_per_sec: f64,
    /// GC cycle the fault cell's expander dies in.
    pub fault_cycle: u32,
    /// Trace progress fraction at the fault.
    pub fault_progress: f64,
    /// Root seed.
    pub seed: u64,
}

/// Skews the mutator hard into its hot set. The streak filter
/// discriminates by inter-fault time: a page re-faults at most once
/// per scan pass, so hot pages (touched faster than the scan period)
/// fault every pass while cold pages must be touched rarer than the
/// hot threshold. A strongly clustered mutator is what gives cold
/// pages that long touch interval.
fn clustered(mut heap: HeapParams) -> HeapParams {
    heap.hot_bias = 0.99;
    heap
}

impl Default for HeapStudyParams {
    fn default() -> Self {
        let mut heap = clustered(HeapParams::default());
        // Long mutator phases against short traces: hot pages need
        // several scan passes per phase to build their streak, while
        // the whole trace must fit inside fewer passes than the streak
        // requirement (or the sweep itself builds streaks).
        heap.mutator_ops_per_cycle = 100_000;
        Self {
            heap,
            dram_fraction: 0.4,
            storm_streak: 8,
            scan_period_ms: 40,
            hot_threshold_ms: 55,
            promote_rate_bytes_per_sec: 1e9,
            fault_cycle: 1,
            fault_progress: 0.5,
            seed: 42,
        }
    }
}

impl HeapStudyParams {
    /// A fast variant for tests. The smoke heap is ~5x smaller, so its
    /// traces and mutator phases are ~5x shorter; the scan clock
    /// compresses with them to keep the geometry (several scan passes
    /// per mutator phase, fewer passes per trace than the streak).
    pub fn smoke() -> Self {
        Self {
            heap: clustered(HeapParams::smoke()),
            scan_period_ms: 8,
            hot_threshold_ms: 12,
            ..Self::default()
        }
    }
}

/// One placement/policy scheme's run.
#[derive(Debug, Clone, Serialize)]
pub struct HeapCell {
    /// Cell label.
    pub label: String,
    /// `promote_after_faults` the cell ran with.
    pub streak: u32,
    /// Whether the runtime segregated generations across tiers.
    pub segregated: bool,
    /// The workload report.
    pub report: HeapReport,
}

/// The heap-dynamics study.
#[derive(Debug, Clone, Serialize)]
pub struct HeapStudy {
    /// Cells in grid order.
    pub cells: Vec<HeapCell>,
    /// Parameters used.
    pub params: HeapStudyParams,
}

/// One grid cell's configuration.
#[derive(Debug, Clone, Copy, Serialize)]
struct CellSpec {
    /// DRAM sized to hold everything (the rich baseline).
    rich: bool,
    streak: u32,
    segregate: bool,
    fault: bool,
    /// GC cycles override: `Some(0)` is the no-GC control.
    gc_cycles: Option<u32>,
}

fn grid(p: &HeapStudyParams) -> Vec<(String, CellSpec)> {
    let base = CellSpec {
        rich: false,
        streak: 1,
        segregate: false,
        fault: false,
        gc_cycles: None,
    };
    vec![
        ("dram-rich".to_string(), CellSpec { rich: true, ..base }),
        ("lean-default".to_string(), base),
        (
            "lean-storm-aware".to_string(),
            CellSpec {
                streak: p.storm_streak,
                ..base
            },
        ),
        (
            "lean-segregated".to_string(),
            CellSpec {
                segregate: true,
                ..base
            },
        ),
        (
            "lean-seg-storm".to_string(),
            CellSpec {
                streak: p.storm_streak,
                segregate: true,
                ..base
            },
        ),
        (
            "lean-fault".to_string(),
            CellSpec {
                streak: p.storm_streak,
                fault: true,
                ..base
            },
        ),
        (
            "lean-no-gc".to_string(),
            CellSpec {
                gc_cycles: Some(0),
                ..base
            },
        ),
    ]
}

/// Builds one cell's tier config: paper-testbed nodes, DRAM capped by
/// the placement scheme, hot-page promotion with the cell's streak.
fn tier_config(p: &HeapStudyParams, spec: CellSpec, heap_pages: u64) -> TierConfig {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let nodes = topo.nodes();
    let dram = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::LocalDram)
        .expect("testbed has DRAM")
        .id;
    let cxl = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::CxlExpander)
        .expect("testbed has a CXL expander")
        .id;
    // A second expander survives the fault cell's failure (spare
    // pooled capacity): evacuated pages land there instead of falling
    // off the flash cliff.
    let spare = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::CxlExpander && n.id != cxl)
        .map(|n| n.id);
    let others: Vec<NodeId> = nodes
        .iter()
        .filter(|n| n.id != dram && n.id != cxl)
        .map(|n| n.id)
        .collect();

    let mut cfg = TierConfig::bind(vec![dram]);
    let page = cfg.page_size;
    let dram_pages = if spec.rich {
        2 * heap_pages
    } else {
        ((heap_pages as f64 * p.dram_fraction) as u64).max(1)
    };
    if spec.rich {
        cfg.policy = AllocPolicy::Bind(vec![dram]);
    } else {
        cfg.policy = AllocPolicy::interleave(vec![dram], vec![cxl], 1, 3);
    }
    cfg.capacity_override = vec![(dram, dram_pages * page), (cxl, 2 * heap_pages * page)];
    for n in others {
        let cap = if spec.fault && Some(n) == spare {
            2 * heap_pages * page
        } else {
            0
        };
        cfg.capacity_override.push((n, cap));
    }
    // Backstop only: with the spare expander the evacuation should
    // never need the SSD.
    cfg.allow_ssd_spill = spec.fault;
    cfg.migration = MigrationMode::HotPageSelection(HotPageConfig {
        balancing: NumaBalancingConfig {
            scan_period: SimTime::from_ms(p.scan_period_ms),
            scan_pages: 8192,
            hot_threshold: SimTime::from_ms(p.hot_threshold_ms),
            hint_fault_cost: SimTime::from_ns(300),
        },
        promote_rate_limit_bytes_per_sec: p.promote_rate_bytes_per_sec,
        dynamic_threshold: false,
        adjust_period: SimTime::from_ms(100),
        promote_after_faults: spec.streak,
    });
    cfg
}

/// Runs one cell.
fn run_cell(p: &HeapStudyParams, label: String, spec: CellSpec, seed: u64) -> HeapCell {
    let mut heap = p.heap.clone();
    heap.seed = seed;
    if let Some(cycles) = spec.gc_cycles {
        // The control runs the same total mutator ops, just without
        // the traces in between.
        heap.mutator_ops_per_cycle *= u64::from(heap.gc_cycles) + 1;
        heap.gc_cycles = cycles;
    }
    // Size capacities off the actual graph (page count varies with the
    // seed), leaving room for the nursery window and churn slack; the
    // workload then runs on this same graph.
    let g = ObjectGraph::build(&heap.graph, 4096, seed);
    let heap_pages = u64::from(g.page_count) + heap.nursery_pages + 16;
    let tier = tier_config(p, spec, heap_pages);
    debug_assert_eq!(tier.page_size, 4096, "the graph is laid out on 4 KiB pages");
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let fault = spec.fault.then(|| {
        let node = topo
            .nodes()
            .iter()
            .find(|n| n.tier == MemoryTier::CxlExpander)
            .expect("testbed has a CXL expander")
            .id;
        FaultPlan {
            cycle: p.fault_cycle,
            at_progress: p.fault_progress,
            node,
        }
    });
    let report = HeapWorkload::new(&topo, tier, heap, g, spec.segregate, fault).run();
    HeapCell {
        label,
        streak: spec.streak,
        segregated: spec.segregate,
        report,
    }
}

impl HeapStudy {
    /// Looks a cell up by label.
    ///
    /// # Panics
    ///
    /// Panics when the label names no cell.
    pub fn cell(&self, label: &str) -> &HeapCell {
        self.cells
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("no cell labelled {label}"))
    }

    /// Post-GC mutator p99 for a cell, ns (0 when the cell never ran a
    /// post-GC phase).
    pub fn post_gc_p99_ns(&self, label: &str) -> f64 {
        self.cell(label)
            .report
            .mutator_post_gc
            .try_tail()
            .map(|t| t.2 as f64)
            .unwrap_or(0.0)
    }

    /// Trace-phase p99 per visited object, ns.
    pub fn trace_p99_ns(&self, label: &str) -> f64 {
        self.cell(label)
            .report
            .trace
            .try_tail()
            .map(|t| t.2 as f64)
            .unwrap_or(0.0)
    }

    /// Promotion-storm magnitude (trace promotions per traced object).
    pub fn storm(&self, label: &str) -> f64 {
        self.cell(label).report.storm_magnitude()
    }

    /// How many times the default lean cell's storm exceeds the
    /// storm-aware cell's — the headline mitigation factor.
    pub fn storm_reduction(&self) -> f64 {
        let aware = self.storm("lean-storm-aware").max(1e-9);
        self.storm("lean-default") / aware
    }

    /// Post-GC mutator p99 ratio of lean-default over lean-storm-aware
    /// (> 1 means storms measurably hurt the resumed mutator and the
    /// streak filter recovers it).
    pub fn post_gc_recovery(&self) -> f64 {
        let aware = self.post_gc_p99_ns("lean-storm-aware").max(1e-9);
        self.post_gc_p99_ns("lean-default") / aware
    }

    /// Renders the study as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "heap_dynamics",
            "Managed-heap GC on tiered memory: promotion storms vs storm-aware promotion and generational segregation",
            &[
                "config",
                "mut p99 us",
                "post-GC p99 us",
                "trace p99 us",
                "trace promos",
                "storm (promo/obj)",
                "trace demos",
                "trace far %",
                "mut far %",
                "stranded",
            ],
        );
        for c in &self.cells {
            let r = &c.report;
            let p99 = |h: &cxl_stats::Histogram| {
                h.try_tail().map(|t| t.2 as f64 / 1_000.0).unwrap_or(0.0)
            };
            let mut_far = if r.mutator_touches == 0 {
                0.0
            } else {
                100.0 * r.mutator_far_touches as f64 / r.mutator_touches as f64
            };
            t.push_row(vec![
                c.label.clone(),
                fmt_f64(p99(&r.mutator)),
                fmt_f64(p99(&r.mutator_post_gc)),
                fmt_f64(p99(&r.trace)),
                r.trace_promotions.to_string(),
                fmt_f64(r.storm_magnitude()),
                r.trace_demotions.to_string(),
                fmt_f64(100.0 * r.trace_far_fraction()),
                fmt_f64(mut_far),
                r.stranded_pages.to_string(),
            ]);
        }
        t
    }
}

/// Runs the study on an explicit runner. Every cell is seeded from the
/// root seed and its label, so the study is bit-identical for any
/// worker count.
pub fn run_with(runner: &Runner, params: HeapStudyParams) -> HeapStudy {
    let jobs: Vec<(String, (String, CellSpec))> = grid(&params)
        .into_iter()
        .map(|(label, spec)| (format!("heap/{label}"), (label, spec)))
        .collect();
    let p = params.clone();
    let cells = runner.map_seeded(params.seed, jobs, move |(label, spec), seed| {
        run_cell(&p, label, spec, seed)
    });
    HeapStudy { cells, params }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_has_expected_cells() {
        let s = run_with(&Runner::serial(), HeapStudyParams::smoke());
        assert_eq!(s.cells.len(), 7);
        assert_eq!(s.cell("lean-no-gc").report.objects_traced, 0);
        assert_eq!(s.cell("lean-fault").report.stranded_pages, 0);
        assert!(s.cell("lean-fault").report.evacuation.is_some());
        // Same total mutator ops in the control as in the GC cells.
        assert_eq!(
            s.cell("lean-no-gc").report.mutator.count(),
            s.cell("lean-default").report.mutator.count()
        );
    }
}
