//! Fault tolerance: KeyDB serving across expander failures of rising
//! severity.
//!
//! No paper figure shows this — the paper's testbed never loses a card
//! mid-run — but the §6 cost case assumes fleets of commodity ASIC
//! expanders, and fleets see faults. Each scenario runs the same YCSB-C
//! store through a healthy phase, injects one fault (link downgrade,
//! latency inflation, capacity loss, or full expander death), lets the
//! tiering layer react (evacuation under the promotion rate limiter,
//! repricing on the degraded topology), and measures the post-fault
//! phase. The sweep shows graceful degradation: throughput steps down
//! with severity instead of the process dying.

use serde::Serialize;

use cxl_fault::FaultKind;
use cxl_kv::{KvConfig, KvStore, VALUE_SIZE};
use cxl_perf::{AccessMix, MemSystem};
use cxl_stats::report::{fmt_f64, Table};
use cxl_tier::{AllocPolicy, HotPageConfig, MigrationMode, TierConfig};
use cxl_topology::{NodeId, SncMode, SocketId, Topology};
use cxl_ycsb::Workload;

use crate::runner::Runner;

/// SNC-disabled paper testbed: 0,1 = DRAM sockets; 2,3 = CXL on s0.
const DRAM0: NodeId = NodeId(0);
const CXL0: NodeId = NodeId(2);

/// Sizing knobs for the fault-tolerance sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FaultParams {
    /// Records in the store (1 KiB each).
    pub record_count: u64,
    /// Operations per phase (healthy and degraded).
    pub ops: u64,
    /// Evacuation/promotion budget, bytes per second.
    pub promote_rate_bytes_per_sec: f64,
    /// Root seed.
    pub seed: u64,
}

impl Default for FaultParams {
    fn default() -> Self {
        Self {
            record_count: 150_000,
            ops: 120_000,
            // Low enough that evacuating half the dataset overruns the
            // bucket's one-second burst: recovery takes measurable time.
            promote_rate_bytes_per_sec: 32.0 * 1024.0 * 1024.0,
            seed: 42,
        }
    }
}

impl FaultParams {
    /// A fast variant for tests.
    pub fn smoke() -> Self {
        Self {
            record_count: 40_000,
            ops: 25_000,
            promote_rate_bytes_per_sec: 8.0 * 1024.0 * 1024.0,
            ..Default::default()
        }
    }
}

/// One scenario of the severity sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FaultCell {
    /// Scenario label ("healthy", "link-x4", "offline", ...).
    pub scenario: &'static str,
    /// Healthy-phase throughput, kops/s.
    pub pre_kops: f64,
    /// Post-fault throughput, kops/s.
    pub post_kops: f64,
    /// Healthy-phase p99 sojourn latency, µs.
    pub pre_p99_us: f64,
    /// Post-fault p99 sojourn latency, µs.
    pub post_p99_us: f64,
    /// Pages drained off the faulted node (offline/capacity scenarios).
    pub pages_evacuated: u64,
    /// Drained pages that spilled to SSD.
    pub pages_to_ssd: u64,
    /// Rate-limited evacuation duration, ms (recovery time).
    pub recovery_ms: f64,
    /// Pages still resident on the faulted node after recovery.
    pub pages_left_on_node: u64,
    /// Idle CXL read latency after the fault from the store's degraded
    /// solve, ns (0 when the expander is offline — there is no path).
    pub post_idle_cxl_ns: f64,
    /// The same latency recomputed from a fresh solve of the degraded
    /// topology; must equal `post_idle_cxl_ns`.
    pub expected_idle_cxl_ns: f64,
}

/// The severity sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FaultStudy {
    /// One cell per scenario, severity-ordered.
    pub cells: Vec<FaultCell>,
    /// Parameters used.
    pub params: FaultParams,
}

impl FaultStudy {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "fault_tolerance",
            "KeyDB YCSB-C across expander faults (1:1 interleave, flash on)",
            &[
                "scenario",
                "pre kops",
                "post kops",
                "keep %",
                "pre p99 us",
                "post p99 us",
                "evacuated",
                "to ssd",
                "recovery ms",
            ],
        );
        for c in &self.cells {
            t.push_row(vec![
                c.scenario.to_string(),
                fmt_f64(c.pre_kops),
                fmt_f64(c.post_kops),
                fmt_f64(100.0 * c.post_kops / c.pre_kops),
                fmt_f64(c.pre_p99_us),
                fmt_f64(c.post_p99_us),
                c.pages_evacuated.to_string(),
                c.pages_to_ssd.to_string(),
                fmt_f64(c.recovery_ms),
            ]);
        }
        t
    }

    /// The named cell.
    pub fn cell(&self, scenario: &str) -> &FaultCell {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario)
            .unwrap_or_else(|| panic!("no scenario {scenario}"))
    }
}

/// The scenarios, mildest first. `None` is the healthy baseline.
fn scenarios() -> Vec<(&'static str, Option<FaultKind>)> {
    vec![
        ("healthy", None),
        (
            "link-x8",
            Some(FaultKind::LinkDowngrade {
                node: CXL0,
                lanes: 8,
            }),
        ),
        (
            "link-x4",
            Some(FaultKind::LinkDowngrade {
                node: CXL0,
                lanes: 4,
            }),
        ),
        (
            "latency-2x",
            Some(FaultKind::LatencyInflation {
                node: CXL0,
                factor: 2.0,
            }),
        ),
        (
            "latency-4x",
            Some(FaultKind::LatencyInflation {
                node: CXL0,
                factor: 4.0,
            }),
        ),
        // Hot promotion keeps the expander's resident set well under
        // its capacity, so a mild capacity loss is absorbed without a
        // single move; 10% has to drain pages.
        (
            "capacity-50",
            Some(FaultKind::CapacityLoss {
                node: CXL0,
                remaining: 0.5,
            }),
        ),
        (
            "capacity-10",
            Some(FaultKind::CapacityLoss {
                node: CXL0,
                remaining: 0.1,
            }),
        ),
        ("offline", Some(FaultKind::ExpanderOffline { node: CXL0 })),
    ]
}

fn run_cell(
    label: &'static str,
    fault: Option<FaultKind>,
    params: FaultParams,
    seed: u64,
) -> FaultCell {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let dataset_bytes = params.record_count * VALUE_SIZE;
    let mut tc = TierConfig::bind(vec![DRAM0]);
    tc.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 1);
    // DRAM holds 3/4 of the dataset at most: a full evacuation cannot
    // fit entirely in DRAM and must exercise the SSD spill path.
    tc.capacity_override = vec![
        (DRAM0, dataset_bytes * 3 / 4),
        (NodeId(1), 0),
        (CXL0, dataset_bytes),
        (NodeId(3), 0),
    ];
    tc.migration = MigrationMode::HotPageSelection(HotPageConfig {
        promote_rate_limit_bytes_per_sec: params.promote_rate_bytes_per_sec,
        ..Default::default()
    });
    let kv_cfg = KvConfig {
        record_count: params.record_count,
        seed,
        ..Default::default()
    };
    let mut store = KvStore::new(&topo, tc, kv_cfg, true);

    let pre = store.run(Workload::C, params.ops);

    let mut degraded = topo.clone();
    let mut pages_evacuated = 0;
    let mut pages_to_ssd = 0;
    let mut recovery_ms = 0.0;
    if let Some(kind) = &fault {
        kind.apply(&mut degraded)
            .expect("scenario faults are valid");
        match *kind {
            FaultKind::ExpanderOffline { node } => {
                let report = store
                    .fail_expander(&degraded, node)
                    .expect("evacuation survives with flash on");
                pages_evacuated = report.total_pages();
                pages_to_ssd = report.pages_to_ssd;
                recovery_ms = report.duration().as_secs_f64() * 1e3;
            }
            FaultKind::CapacityLoss { node, remaining } => {
                let new_bytes = (dataset_bytes as f64 * remaining) as u64;
                let report = store
                    .shrink_expander(&degraded, node, new_bytes)
                    .expect("shrink survives with flash on");
                pages_evacuated = report.total_pages();
                pages_to_ssd = report.pages_to_ssd;
                recovery_ms = report.duration().as_secs_f64() * 1e3;
            }
            FaultKind::LinkDowngrade { .. } | FaultKind::LatencyInflation { .. } => {
                store.apply_topology(&degraded);
            }
        }
    }

    let post = store.run(Workload::C, params.ops);

    let mix = AccessMix::read_only();
    let degraded_sys = MemSystem::new(&degraded);
    let expected_idle_cxl_ns = degraded_sys
        .try_idle_latency_ns(SocketId(0), CXL0, mix)
        .unwrap_or(0.0);
    // The store's own post-fault solve must agree with the fresh one.
    let post_idle_cxl_ns = store.idle_latency_ns(CXL0).unwrap_or(0.0);

    FaultCell {
        scenario: label,
        pre_kops: pre.throughput_ops / 1e3,
        post_kops: post.throughput_ops / 1e3,
        pre_p99_us: pre
            .latency
            .try_percentile(99.0)
            .expect("pre-fault run has ops") as f64
            / 1e3,
        post_p99_us: post
            .latency
            .try_percentile(99.0)
            .expect("post-fault run has ops") as f64
            / 1e3,
        pages_evacuated,
        pages_to_ssd,
        recovery_ms,
        pages_left_on_node: store.tier().node_usage(CXL0).0,
        post_idle_cxl_ns,
        expected_idle_cxl_ns,
    }
}

/// Runs the sweep on an explicit runner. Each scenario is seeded from
/// the root seed and its label, so the study is bit-identical for any
/// worker count.
pub fn run_with(runner: &Runner, params: FaultParams) -> FaultStudy {
    let grid: Vec<(String, (&'static str, Option<FaultKind>))> = scenarios()
        .into_iter()
        .map(|(label, fault)| (format!("fault/{label}"), (label, fault)))
        .collect();
    let cells = runner.map_seeded(params.seed, grid, |(label, fault), seed| {
        run_cell(label, fault, params, seed)
    });
    FaultStudy { cells, params }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_baseline_runs_clean() {
        let p = FaultParams::smoke();
        let c = run_cell("healthy", None, p, 7);
        assert!(c.pre_kops > 0.0 && c.post_kops > 0.0);
        assert_eq!(c.pages_evacuated, 0);
        assert!((c.post_idle_cxl_ns - c.expected_idle_cxl_ns).abs() < 1e-9);
    }

    #[test]
    fn offline_scenario_empties_the_node_and_keeps_serving() {
        let p = FaultParams::smoke();
        let c = run_cell(
            "offline",
            Some(FaultKind::ExpanderOffline { node: CXL0 }),
            p,
            7,
        );
        assert_eq!(c.pages_left_on_node, 0, "pages survived on a dead node");
        assert!(c.pages_evacuated > 0);
        assert!(c.pages_to_ssd > 0, "DRAM cap must force SSD spill");
        assert!(c.recovery_ms > 0.0, "rate-limited drain takes time");
        assert!(c.post_kops > 0.0, "store must keep serving");
        assert!(c.post_kops < c.pre_kops, "losing a tier is not free");
    }

    #[test]
    fn degraded_latency_matches_fresh_solve() {
        let p = FaultParams::smoke();
        let c = run_cell(
            "latency-2x",
            Some(FaultKind::LatencyInflation {
                node: CXL0,
                factor: 2.0,
            }),
            p,
            7,
        );
        // 97 ns DRAM base + 2x the 153.4 ns CXL adder (§3.1 anchors).
        assert!(
            (c.expected_idle_cxl_ns - (97.0 + 2.0 * 153.4)).abs() < 2.0,
            "expected idle {}",
            c.expected_idle_cxl_ns
        );
        assert!((c.post_idle_cxl_ns - c.expected_idle_cxl_ns).abs() < 1e-9);
        assert!(c.post_kops < c.pre_kops);
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let p = FaultParams {
            record_count: 20_000,
            ops: 8_000,
            ..Default::default()
        };
        let a = run_with(&Runner::new(1), p);
        let b = run_with(&Runner::new(8), p);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.post_kops, y.post_kops);
            assert_eq!(x.post_p99_us, y.post_p99_us);
            assert_eq!(x.pages_evacuated, y.pages_evacuated);
        }
    }
}
