//! §5.3 operationalized: bandwidth-aware tiering vs. capacity-only
//! tiering under a bandwidth-bound workload.
//!
//! The paper's closing insight in §5.3: existing tiered-memory policies
//! migrate hot data from CXL into MMEM whenever capacity allows, even
//! when MMEM bandwidth is already contended — pushing utilization past
//! the knee, spiking latency, and slowing the workload down. "The
//! definition of tiered memory requires rethinking."
//!
//! This experiment builds that exact scenario on the real substrates: a
//! streaming, mildly skewed workload over a [`TierManager`] heap, priced
//! by the `cxl-perf` flow solver every epoch. Four policies compete:
//!
//! * `MMEM` — everything in DRAM (bind).
//! * `1:1` — static interleave.
//! * `Hot-Promote` — hot-page selection; promotes the hot set into DRAM
//!   regardless of bandwidth (the §5.3 pathology).
//! * `BW-Aware` — the paper's recommended policy: hot-page selection
//!   that suspends promotion and sheds load to CXL when DRAM bandwidth
//!   utilization crosses a watermark ([`cxl_tier::BandwidthAwareConfig`]).

use serde::Serialize;

use cxl_llm::LlmConfig;
use cxl_perf::{FlowSpec, MemSystem, ResourceKind};
use cxl_sim::SimTime;
use cxl_stats::dist::{KeyChooser, Zipfian};
use cxl_stats::report::{Series, Table};
use cxl_stats::rng::stream_rng;
use cxl_tier::{
    AllocPolicy, BandwidthAwareConfig, HotPageConfig, Location, MigrationMode, NumaBalancingConfig,
    Rw, TierConfig, TierManager,
};
use cxl_topology::{MemoryTier, NodeId, Topology};

use crate::runner::Runner;

/// The policies compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BalancerPolicy {
    /// Bind to DRAM.
    MmemOnly,
    /// Static 1:1 interleave.
    Interleave11,
    /// Hot-page selection (capacity-only tiering).
    HotPromote,
    /// Bandwidth-aware tiering (§5.3 recommendation).
    BandwidthAware,
}

impl BalancerPolicy {
    /// All policies in report order.
    pub fn all() -> [BalancerPolicy; 4] {
        [
            BalancerPolicy::MmemOnly,
            BalancerPolicy::Interleave11,
            BalancerPolicy::HotPromote,
            BalancerPolicy::BandwidthAware,
        ]
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            BalancerPolicy::MmemOnly => "MMEM",
            BalancerPolicy::Interleave11 => "1:1",
            BalancerPolicy::HotPromote => "Hot-Promote",
            BalancerPolicy::BandwidthAware => "BW-Aware",
        }
    }
}

/// Experiment sizing.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BalancerParams {
    /// Pages in the streaming heap.
    pub pages: u64,
    /// Page touches sampled per epoch.
    pub touches_per_epoch: usize,
    /// Virtual epoch length.
    pub epoch: SimTime,
    /// Warm-up epochs (migration convergence).
    pub warmup_epochs: usize,
    /// Measured epochs.
    pub measure_epochs: usize,
    /// Zipf skew over pages (mild: streaming working sets are flat-ish).
    pub theta: f64,
    /// Root seed.
    pub seed: u64,
}

impl Default for BalancerParams {
    fn default() -> Self {
        Self {
            pages: 20_000,
            touches_per_epoch: 2_000,
            epoch: SimTime::from_ms(5),
            warmup_epochs: 120,
            measure_epochs: 40,
            theta: 0.6,
            seed: 42,
        }
    }
}

/// Outcome for one (policy, intensity) cell.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BalancerCell {
    /// Offered streaming intensity, GB/s.
    pub offered_gbps: f64,
    /// Delivered effective throughput, GB/s (achieved × latency derate).
    pub delivered_gbps: f64,
    /// Mean DRAM bandwidth utilization over the measured window.
    pub dram_util: f64,
    /// Fraction of pages DRAM-resident at the end.
    pub dram_resident: f64,
    /// Promotions suppressed by the bandwidth guard.
    pub suppressed: u64,
}

/// The full study: intensity sweep × policies.
#[derive(Debug, Clone, Serialize)]
pub struct BalancerStudy {
    /// Swept offered intensities, GB/s.
    pub intensities: Vec<f64>,
    /// `(policy label, cells)` rows.
    pub rows: Vec<(&'static str, Vec<BalancerCell>)>,
}

impl BalancerStudy {
    /// Cell lookup.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not run.
    pub fn cell(&self, policy: BalancerPolicy, intensity: f64) -> BalancerCell {
        let idx = self
            .intensities
            .iter()
            .position(|&i| (i - intensity).abs() < 1e-9)
            .expect("intensity present");
        self.rows
            .iter()
            .find(|(l, _)| *l == policy.label())
            .expect("policy present")
            .1[idx]
    }

    /// Renders the delivered-throughput table.
    pub fn table(&self) -> Table {
        let mut headers: Vec<String> = vec!["policy".into()];
        headers.extend(self.intensities.iter().map(|i| format!("{i:.0} GB/s")));
        let href: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "balancer",
            "Delivered throughput (GB/s) vs offered streaming intensity",
            &href,
        );
        for (label, cells) in &self.rows {
            let mut row = vec![label.to_string()];
            row.extend(cells.iter().map(|c| format!("{:.1}", c.delivered_gbps)));
            t.push_row(row);
        }
        t
    }

    /// One policy's curve as a plot series.
    pub fn series(&self, policy: BalancerPolicy) -> Series {
        let mut s = Series::new(policy.label());
        for (i, c) in self.intensities.iter().zip(
            &self
                .rows
                .iter()
                .find(|(l, _)| *l == policy.label())
                .unwrap()
                .1,
        ) {
            s.push(*i, c.delivered_gbps);
        }
        s
    }
}

/// The §5 LLM model's latency derate (same reference latency and
/// scale as [`LlmConfig::default`]): spiking loaded latency stalls the
/// consumer.
fn penalty(latency_ns: f64) -> f64 {
    let llm = LlmConfig::default();
    1.0 / (1.0 + (latency_ns - llm.lat_ref_ns).max(0.0) / llm.penalty_scale_ns)
}

fn scan_cfg() -> NumaBalancingConfig {
    NumaBalancingConfig {
        scan_period: SimTime::from_ms(5),
        scan_pages: 4096,
        hot_threshold: SimTime::from_ms(100),
        hint_fault_cost: SimTime::from_ns(300),
    }
}

fn hot_cfg() -> HotPageConfig {
    HotPageConfig {
        balancing: scan_cfg(),
        promote_rate_limit_bytes_per_sec: 4e9,
        dynamic_threshold: false,
        adjust_period: SimTime::from_ms(100),
        promote_after_faults: 1,
    }
}

fn tier_config(policy: BalancerPolicy, dram: NodeId, cxl: NodeId) -> TierConfig {
    let mut cfg = TierConfig::bind(vec![dram]);
    match policy {
        BalancerPolicy::MmemOnly => {}
        BalancerPolicy::Interleave11 => {
            cfg.policy = AllocPolicy::interleave(vec![dram], vec![cxl], 1, 1);
        }
        BalancerPolicy::HotPromote => {
            cfg.policy = AllocPolicy::interleave(vec![dram], vec![cxl], 1, 1);
            cfg.migration = MigrationMode::HotPageSelection(hot_cfg());
        }
        BalancerPolicy::BandwidthAware => {
            cfg.policy = AllocPolicy::interleave(vec![dram], vec![cxl], 1, 1);
            cfg.migration = MigrationMode::BandwidthAware(BandwidthAwareConfig {
                base: hot_cfg(),
                high_watermark: 0.72,
                demote_batch: 256,
            });
        }
    }
    cfg
}

/// Runs one (policy, intensity) cell.
pub fn run_cell(policy: BalancerPolicy, intensity_gbps: f64, p: BalancerParams) -> BalancerCell {
    // One SNC domain + one expander, like the §5 platform.
    let topo = Topology::snc_domain_with_cxl();
    let sys = MemSystem::new(&topo);
    let nodes = sys.nodes().to_vec();
    let dram = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::LocalDram)
        .expect("DRAM node")
        .id;
    let cxl = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::CxlExpander)
        .expect("CXL node")
        .id;
    let socket = sys.sockets()[0];

    let mut tm = TierManager::new(&topo, tier_config(policy, dram, cxl));
    let pages = tm
        .alloc_n(p.pages, SimTime::ZERO)
        .expect("heap fits in memory");
    tm.drain_epoch();

    let mut zipf = Zipfian::with_theta(p.pages, p.theta);
    let mut rng = stream_rng(p.seed, &format!("balancer.{}", policy.label()));
    let bytes_per_touch =
        (intensity_gbps * p.epoch.as_secs_f64() / p.touches_per_epoch as f64 * 1e9) as u64;

    let mut now = SimTime::ZERO;
    let mut delivered_acc = 0.0;
    let mut util_acc = 0.0;
    let mut measured = 0usize;

    for e in 0..(p.warmup_epochs + p.measure_epochs) {
        for _ in 0..p.touches_per_epoch {
            let page = pages[zipf.next_key(&mut rng) as usize];
            tm.touch(page, Rw::Read, bytes_per_touch, now);
        }
        now += p.epoch;
        let epoch = tm.drain_epoch();
        let flows: Vec<FlowSpec> = epoch.flows(socket, p.epoch, true);
        let solved = sys.solve(&flows);
        let dram_util = solved.utilization_of(ResourceKind::DdrGroup(dram));
        tm.set_dram_bandwidth_util(dram_util);
        tm.tick(now);

        if e >= p.warmup_epochs {
            // Latency is priced at the steady-state operating point: a
            // closed system hovers just under saturation rather than at
            // the clamp (same treatment as the Spark and LLM models).
            let lat_flows: Vec<FlowSpec> = flows
                .iter()
                .zip(&solved.flows)
                .map(|(f, o)| {
                    let mut f2 = *f;
                    let scale = if f.offered_gbps > 0.0 {
                        (o.achieved_gbps / f.offered_gbps).min(1.0)
                    } else {
                        1.0
                    };
                    f2.offered_gbps = f.offered_gbps * scale * 0.93;
                    f2
                })
                .collect();
            let lat_solved = sys.solve(&lat_flows);
            let mut delivered = 0.0;
            for (out, lat) in solved.flows.iter().zip(&lat_solved.flows) {
                delivered += out.achieved_gbps * penalty(lat.latency_ns);
            }
            delivered_acc += delivered;
            util_acc += dram_util;
            measured += 1;
        }
    }

    let dram_resident = pages
        .iter()
        .filter(|&&pg| tm.location(pg) == Location::Node(dram))
        .count() as f64
        / pages.len() as f64;
    BalancerCell {
        offered_gbps: intensity_gbps,
        delivered_gbps: delivered_acc / measured.max(1) as f64,
        dram_util: util_acc / measured.max(1) as f64,
        dram_resident,
        suppressed: tm.stats().promotions_bw_suppressed,
    }
}

/// Runs the full sweep on an explicit runner. Each `(policy,
/// intensity)` cell builds its own tier manager and derives its page
/// stream from the root seed and the policy label (inside
/// [`run_cell`]), so the grid parallelizes without any shared state.
pub fn run_with(runner: &Runner, p: BalancerParams) -> BalancerStudy {
    let intensities = vec![20.0, 40.0, 60.0, 80.0, 100.0];
    let mut grid = Vec::new();
    for policy in BalancerPolicy::all() {
        for &i in &intensities {
            grid.push((policy, i));
        }
    }
    let cells = runner.map(grid, |(policy, i)| run_cell(policy, i, p));
    let rows = BalancerPolicy::all()
        .into_iter()
        .enumerate()
        .map(|(r, policy)| {
            let start = r * intensities.len();
            (
                policy.label(),
                cells[start..start + intensities.len()].to_vec(),
            )
        })
        .collect();
    BalancerStudy { intensities, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BalancerParams {
        BalancerParams {
            pages: 8_000,
            touches_per_epoch: 1_000,
            warmup_epochs: 60,
            measure_epochs: 20,
            ..Default::default()
        }
    }

    #[test]
    fn low_load_favors_dram_heavy_policies() {
        let p = quick();
        let mmem = run_cell(BalancerPolicy::MmemOnly, 30.0, p);
        let il = run_cell(BalancerPolicy::Interleave11, 30.0, p);
        assert!(
            mmem.delivered_gbps >= il.delivered_gbps * 0.98,
            "MMEM {} vs 1:1 {}",
            mmem.delivered_gbps,
            il.delivered_gbps
        );
        // Everything delivered: no contention at 30 GB/s.
        assert!(mmem.delivered_gbps > 28.0);
    }

    #[test]
    fn hot_promote_saturates_dram_at_high_load() {
        // The §5.3 pathology: promotion pushes DRAM past the knee.
        let p = quick();
        let hp = run_cell(BalancerPolicy::HotPromote, 80.0, p);
        assert!(hp.dram_util > 0.85, "dram util {}", hp.dram_util);
        assert!(hp.dram_resident > 0.6, "resident {}", hp.dram_resident);
    }

    #[test]
    fn bandwidth_aware_beats_capacity_only_tiering_under_pressure() {
        let p = quick();
        for intensity in [80.0, 100.0] {
            let hp = run_cell(BalancerPolicy::HotPromote, intensity, p);
            let bw = run_cell(BalancerPolicy::BandwidthAware, intensity, p);
            let mmem = run_cell(BalancerPolicy::MmemOnly, intensity, p);
            assert!(
                bw.delivered_gbps > hp.delivered_gbps,
                "{intensity}: BW {} vs HP {}",
                bw.delivered_gbps,
                hp.delivered_gbps
            );
            assert!(
                bw.delivered_gbps > mmem.delivered_gbps,
                "{intensity}: BW {} vs MMEM {}",
                bw.delivered_gbps,
                mmem.delivered_gbps
            );
            // The guard actually fired and kept DRAM near the watermark.
            assert!(bw.suppressed > 0);
            assert!(bw.dram_util < hp.dram_util);
        }
    }

    #[test]
    fn table_renders_all_cells() {
        let p = BalancerParams {
            pages: 2_000,
            touches_per_epoch: 300,
            warmup_epochs: 10,
            measure_epochs: 5,
            ..Default::default()
        };
        let s = run_with(&Runner::from_env(), p);
        assert_eq!(s.rows.len(), 4);
        let t = s.table();
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("BW-Aware"));
        let series = s.series(BalancerPolicy::BandwidthAware);
        assert_eq!(series.points.len(), 5);
    }
}
