//! Stage-level query execution over the contention-priced memory system.

use serde::Serialize;

use cxl_perf::{AccessMix, FlowSpec, MemSystem};
use cxl_topology::{MemoryTier, NodeId, SncMode, SocketId, Topology};

use crate::cluster::{ClusterConfig, Placement};
use crate::error::SparkError;
use crate::query::{tpch_queries, QueryProfile, StageProfile};

/// Bytes per dependent hash-table access.
const HASH_ACCESS_BYTES: f64 = 64.0;
/// Amortized hint-fault/scanning overhead per 4 KiB under Hot-Promote.
const HOT_PROMOTE_FAULT_NS_PER_4K: f64 = 250.0;
/// Utilization at which the latency seen by reduce-side probes is
/// evaluated when the streaming side saturates a resource. A closed
/// system cannot sit exactly at 100 % utilization; steady state hovers
/// just below the cap with long (but finite) queues.
const LAT_UTIL_CAP: f64 = 0.90;

/// Result of running one query on one cluster configuration.
#[derive(Debug, Clone, Serialize)]
pub struct QueryResult {
    /// Query name.
    pub name: &'static str,
    /// Configuration label (Table 1 style).
    pub config: String,
    /// End-to-end execution time, seconds.
    pub exec_time_s: f64,
    /// Time spent scanning input, seconds.
    pub scan_s: f64,
    /// Time in shuffle writes (including spill writes), seconds.
    pub shuffle_write_s: f64,
    /// Time in shuffle reads (including spill re-reads), seconds.
    pub shuffle_read_s: f64,
    /// Wall time per stage, seconds, in execution order.
    pub stage_times_s: Vec<f64>,
}

impl QueryResult {
    /// Fraction of execution time spent shuffling (Fig. 7(b)).
    pub fn shuffle_fraction(&self) -> f64 {
        if self.exec_time_s == 0.0 {
            return 0.0;
        }
        (self.shuffle_write_s + self.shuffle_read_s) / self.exec_time_s
    }
}

/// Per-socket executor group on one server.
struct Group {
    socket: SocketId,
    cores: f64,
    /// `(node, fraction)` placement stripes.
    stripes: Vec<(NodeId, f64)>,
}

fn build_groups(
    topo: &Topology,
    placement: Placement,
    execs_per_server: usize,
) -> Result<Vec<Group>, SparkError> {
    let nodes = topo.nodes();
    let dram: Vec<NodeId> = nodes
        .iter()
        .filter(|n| n.tier == MemoryTier::LocalDram)
        .map(|n| n.id)
        .collect();
    let cxl: Vec<NodeId> = nodes
        .iter()
        .filter(|n| n.tier == MemoryTier::CxlExpander)
        .map(|n| n.id)
        .collect();
    let f_dram = placement.dram_fraction();
    let cores_per_group = execs_per_server as f64 / topo.sockets.len() as f64;
    topo.sockets
        .iter()
        .map(|s| {
            let own_dram = *dram
                .iter()
                .find(|&&d| nodes[d.0].socket == s.id)
                .ok_or(SparkError::MissingDramNode(s.id))?;
            let mut stripes = vec![(own_dram, f_dram)];
            if f_dram < 1.0 {
                if cxl.is_empty() {
                    return Err(SparkError::NoCxlInTopology);
                }
                let share = (1.0 - f_dram) / cxl.len() as f64;
                for &c in &cxl {
                    stripes.push((c, share));
                }
            }
            Ok(Group {
                socket: s.id,
                cores: cores_per_group,
                stripes,
            })
        })
        .collect()
}

/// Per-stage traffic components on one server.
struct StageLoad {
    scan_gb: f64,
    sw_gb: f64,
    sr_gb: f64,
    hash_gb: f64,
    spill_gb: f64,
}

fn blended_mix(load: &StageLoad) -> AccessMix {
    // Scans are pure reads; shuffle writes are 1:1 (read input, write
    // buckets); shuffle reads are 3:1 (read-mostly with merge output).
    let total = load.scan_gb + load.sw_gb + load.sr_gb;
    if total <= 0.0 {
        return AccessMix::read_only();
    }
    let reads = load.scan_gb + 0.5 * load.sw_gb + 0.75 * load.sr_gb;
    AccessMix::from_read_fraction((reads / total).clamp(0.0, 1.0))
}

/// Builds the migration-churn flows of the Hot-Promote configuration.
fn churn_flows(
    sys: &MemSystem,
    rate_gbps: f64,
    flows: &mut Vec<FlowSpec>,
) -> Result<(), SparkError> {
    let nodes = sys.nodes().to_vec();
    let cxl: Vec<NodeId> = nodes
        .iter()
        .filter(|n| n.tier == MemoryTier::CxlExpander)
        .map(|n| n.id)
        .collect();
    let s0 = sys.sockets()[0];
    let dram0 = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::LocalDram)
        .map(|n| n.id)
        .ok_or(SparkError::MissingDramNode(s0))?;
    for &c in &cxl {
        // Promotions read CXL, demotions write it back: 1:1 on the device.
        flows.push(FlowSpec::new(
            s0,
            c,
            AccessMix::ratio(1, 1),
            rate_gbps / cxl.len() as f64,
        ));
    }
    // The DRAM side of the copies.
    flows.push(FlowSpec::new(s0, dram0, AccessMix::ratio(1, 1), rate_gbps));
    Ok(())
}

/// Computes one stage's wall time on one server, returning
/// `(stage_time_s, scan_s, shuffle_write_s, shuffle_read_s)`.
///
/// Map-side streaming and reduce-side hash probing overlap (Spark runs
/// reduce waves of one shuffle while map waves of the next stream), so
/// the stage time is the maximum of the two, with the probes priced at
/// the latency the streaming side's utilization induces.
fn stage_time(
    sys: &MemSystem,
    groups: &[Group],
    cfg: &ClusterConfig,
    load: &StageLoad,
) -> Result<(f64, f64, f64, f64), SparkError> {
    let n_groups = groups.len() as f64;
    let mix = blended_mix(load);
    let stream_gb_grp = (load.scan_gb + load.sw_gb + load.sr_gb - load.hash_gb) / n_groups;
    let hash_gb_grp = load.hash_gb / n_groups;
    let both = stream_gb_grp > 0.0 && hash_gb_grp > 0.0;

    // Task slots split between the overlapping waves.
    let core_split = if both { 0.5 } else { 1.0 };

    // Pass 1: streaming wave at full CPU demand — find the achievable
    // bandwidth share per group under joint contention.
    let mut flows = Vec::new();
    let mut owners = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        let demand = cfg.core_stream_gbps * g.cores * core_split;
        for &(node, f) in &g.stripes {
            if f > 0.0 && stream_gb_grp > 0.0 {
                flows.push(FlowSpec::new(g.socket, node, mix, demand * f));
                owners.push((gi, f));
            }
        }
    }
    if let Placement::HotPromote { promote_rate_gbps } = cfg.placement {
        churn_flows(sys, promote_rate_gbps, &mut flows)?;
        while owners.len() < flows.len() {
            owners.push((usize::MAX, 0.0));
        }
    }
    let solved = sys.solve(&flows);
    let mut scale = vec![1.0f64; groups.len()];
    for ((out, flow), &(gi, _)) in solved.flows.iter().zip(&flows).zip(&owners) {
        if gi == usize::MAX || flow.offered_gbps <= 0.0 {
            continue;
        }
        scale[gi] = scale[gi].min(out.achieved_gbps / flow.offered_gbps);
    }

    // Pass 2: re-solve with the streaming flows backed off to the
    // steady-state utilization cap; the resulting latencies price the
    // reduce-side probes.
    let mut flows2 = Vec::new();
    let mut owners2 = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        let demand =
            cfg.core_stream_gbps * g.cores * core_split * (scale[gi] * LAT_UTIL_CAP).min(1.0);
        for &(node, f) in &g.stripes {
            if f > 0.0 && stream_gb_grp > 0.0 {
                flows2.push(FlowSpec::new(g.socket, node, mix, demand * f));
                owners2.push((gi, f));
            }
        }
    }
    if let Placement::HotPromote { promote_rate_gbps } = cfg.placement {
        churn_flows(sys, promote_rate_gbps, &mut flows2)?;
        while owners2.len() < flows2.len() {
            owners2.push((usize::MAX, 0.0));
        }
    }
    let solved2 = sys.solve(&flows2);
    let mut lat_ns: Vec<f64> = groups
        .iter()
        .map(|g| {
            // Idle fallback for stripes without streaming flows.
            g.stripes
                .iter()
                .map(|&(n, f)| f * sys.idle_latency_ns(g.socket, n, mix))
                .sum()
        })
        .collect();
    if stream_gb_grp > 0.0 {
        for l in lat_ns.iter_mut() {
            *l = 0.0;
        }
        for ((out, _flow), &(gi, f)) in solved2.flows.iter().zip(&flows2).zip(&owners2) {
            if gi == usize::MAX {
                continue;
            }
            lat_ns[gi] += f * out.latency_ns;
        }
    }

    // Per-group wave times; the slowest group bounds the stage.
    let mut time_s = vec![0.0f64; groups.len()];
    for (gi, g) in groups.iter().enumerate() {
        let stream_t = if stream_gb_grp > 0.0 {
            let rate = cfg.core_stream_gbps * g.cores * core_split * scale[gi].min(1.0);
            stream_gb_grp / rate.max(1e-9)
        } else {
            0.0
        };
        let hash_t = if hash_gb_grp > 0.0 {
            // GB/s == bytes/ns: cores × 64 B per dependent latency.
            let rate = g.cores * core_split * HASH_ACCESS_BYTES / lat_ns[gi].max(1.0);
            hash_gb_grp / rate.max(1e-9)
        } else {
            0.0
        };
        time_s[gi] = stream_t.max(hash_t);
    }

    let mut stage_s = time_s.iter().cloned().fold(0.0, f64::max);

    // Spill I/O: write then re-read through the server's SSDs.
    let spill_io_s = if load.spill_gb > 0.0 {
        2.0 * load.spill_gb / cfg.ssd_spill_gbps
    } else {
        0.0
    };
    stage_s += spill_io_s;

    // Apportion the stage time to components by their byte-time shares.
    let total_bytes = load.scan_gb + load.sw_gb + load.sr_gb;
    let (scan_share, sw_share, sr_share) = if total_bytes > 0.0 {
        (
            load.scan_gb / total_bytes,
            load.sw_gb / total_bytes,
            load.sr_gb / total_bytes,
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    let compute_s = stage_s - spill_io_s;
    let scan_s = compute_s * scan_share;
    let sw_s = compute_s * sw_share + spill_io_s / 2.0;
    let sr_s = compute_s * sr_share + spill_io_s / 2.0;
    Ok((stage_s, scan_s, sw_s, sr_s))
}

fn hot_promote_overhead_factor() -> f64 {
    1.0 + HOT_PROMOTE_FAULT_NS_PER_4K / 4096.0 / (1.0 / 2.0)
    // 250 ns per 4 KiB at a 2 GB/s per-core stream: 250e-9 s per 4096 B
    // of work that itself takes 4096 B / 2 GB/s = 2.048e-6 s => ~12 %.
}

/// Runs one query on a cluster configuration.
///
/// # Panics
///
/// Panics when the paper-testbed topology cannot host the placement;
/// that cannot happen for the built-in configurations. Use
/// [`try_run_query`] when simulating user-built or fault-degraded
/// topologies.
pub fn run_query(cfg: &ClusterConfig, query: &QueryProfile) -> QueryResult {
    try_run_query(cfg, query).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`run_query`]: topology-shape problems come back as
/// a [`SparkError`] instead of a panic.
pub fn try_run_query(cfg: &ClusterConfig, query: &QueryProfile) -> Result<QueryResult, SparkError> {
    let needs_cxl = matches!(
        cfg.placement,
        Placement::Interleave { .. } | Placement::HotPromote { .. }
    );
    let topo = if needs_cxl {
        Topology::paper_testbed(SncMode::Disabled)
    } else {
        Topology::baseline_server(SncMode::Disabled)
    };
    let sys = MemSystem::with_params(&topo, &cfg.params);
    let groups = build_groups(&topo, cfg.placement, cfg.executors_per_server())?;

    // Spill volume for this query, scaled from the 0.8 anchor.
    let total_spill_gb = match cfg.placement {
        Placement::SpillToSsd { mem_fraction } => {
            let mean_shuffle: f64 = tpch_queries()
                .iter()
                .map(|q| q.total_shuffle_write_gb())
                .sum::<f64>()
                / 4.0;
            cfg.spill_base_gb
                * ((1.0 - mem_fraction) / 0.2)
                * (query.total_shuffle_write_gb() / mean_shuffle)
        }
        _ => 0.0,
    };
    let total_sw = query.total_shuffle_write_gb().max(1e-9);

    let mut exec = 0.0;
    let mut scan_t = 0.0;
    let mut sw_t = 0.0;
    let mut sr_t = 0.0;
    let mut stage_times_s = Vec::with_capacity(query.stages.len());
    for s in &query.stages {
        let load = per_server_load(s, cfg, total_spill_gb, total_sw);
        let (t, sc, sw, sr) = stage_time(&sys, &groups, cfg, &load)?;
        exec += t;
        scan_t += sc;
        sw_t += sw;
        sr_t += sr;
        stage_times_s.push(t);
    }
    if matches!(cfg.placement, Placement::HotPromote { .. }) {
        let f = hot_promote_overhead_factor();
        exec *= f;
        scan_t *= f;
        sw_t *= f;
        sr_t *= f;
        for t in &mut stage_times_s {
            *t *= f;
        }
    }
    Ok(QueryResult {
        name: query.name,
        config: cfg.placement.label(),
        exec_time_s: exec,
        scan_s: scan_t,
        shuffle_write_s: sw_t,
        shuffle_read_s: sr_t,
        stage_times_s,
    })
}

fn per_server_load(
    s: &StageProfile,
    cfg: &ClusterConfig,
    total_spill_gb: f64,
    total_sw_gb: f64,
) -> StageLoad {
    let n = cfg.servers as f64;
    let hash = (s.shuffle_write_gb + s.shuffle_read_gb) * s.hash_fraction;
    let spill = total_spill_gb * (s.shuffle_write_gb / total_sw_gb);
    StageLoad {
        scan_gb: s.scan_gb / n,
        sw_gb: s.shuffle_write_gb / n,
        sr_gb: s.shuffle_read_gb / n,
        hash_gb: hash / n,
        spill_gb: spill / n,
    }
}

/// Runs every paper query on a configuration.
///
/// # Panics
///
/// Panics under the same (impossible-for-built-in-configs) conditions
/// as [`run_query`]; use [`try_run_all`] otherwise.
pub fn run_all(cfg: &ClusterConfig) -> Vec<QueryResult> {
    try_run_all(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`run_all`].
pub fn try_run_all(cfg: &ClusterConfig) -> Result<Vec<QueryResult>, SparkError> {
    tpch_queries()
        .iter()
        .map(|q| try_run_query(cfg, q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(cfg: &ClusterConfig) -> Vec<f64> {
        run_all(cfg).iter().map(|r| r.exec_time_s).collect()
    }

    #[test]
    fn mmem_baseline_is_fastest() {
        let base = times(&ClusterConfig::baseline());
        for cfg in [
            ClusterConfig::cxl_interleave(3, 1),
            ClusterConfig::cxl_interleave(1, 1),
            ClusterConfig::cxl_interleave(1, 3),
            ClusterConfig::spill(0.8),
            ClusterConfig::spill(0.6),
            ClusterConfig::hot_promote(),
        ] {
            let t = times(&cfg);
            for (b, x) in base.iter().zip(&t) {
                assert!(x > b, "{}: {x} <= baseline {b}", cfg.placement.label());
            }
        }
    }

    #[test]
    fn interleave_slowdowns_in_papers_band() {
        // §4.2.2: 1.4x–9.8x across queries and ratios.
        let base = times(&ClusterConfig::baseline());
        let mut all = Vec::new();
        for (n, m) in [(3, 1), (1, 1), (1, 3)] {
            let t = times(&ClusterConfig::cxl_interleave(n, m));
            for (b, x) in base.iter().zip(&t) {
                all.push(x / b);
            }
        }
        let min = all.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = all.iter().cloned().fold(0.0, f64::max);
        assert!((1.2..=2.5).contains(&min), "min slowdown {min}");
        assert!((4.0..=12.0).contains(&max), "max slowdown {max}");
    }

    #[test]
    fn degradation_grows_with_cxl_share() {
        let t31 = times(&ClusterConfig::cxl_interleave(3, 1));
        let t11 = times(&ClusterConfig::cxl_interleave(1, 1));
        let t13 = times(&ClusterConfig::cxl_interleave(1, 3));
        for i in 0..t31.len() {
            assert!(t31[i] < t11[i]);
            assert!(t11[i] < t13[i]);
        }
    }

    #[test]
    fn interleave_beats_ssd_spill() {
        // §4.2.2: "the interleaving approach remains significantly faster
        // than spilling data to SSDs" (comparing the middle ratio).
        let t11: f64 = times(&ClusterConfig::cxl_interleave(1, 1)).iter().sum();
        let t_ssd6: f64 = times(&ClusterConfig::spill(0.6)).iter().sum();
        assert!(t11 < t_ssd6, "1:1 {t11} vs SSD-0.4 {t_ssd6}");
    }

    #[test]
    fn hot_promote_slowdown_exceeds_34_percent() {
        let base = times(&ClusterConfig::baseline());
        let hp = times(&ClusterConfig::hot_promote());
        let worst = base.iter().zip(&hp).map(|(b, x)| x / b).fold(0.0, f64::max);
        assert!(worst > 1.34, "hot-promote worst slowdown {worst}");
    }

    #[test]
    fn shuffle_dominates_for_shuffle_heavy_queries() {
        for r in run_all(&ClusterConfig::baseline()) {
            let f = r.shuffle_fraction();
            assert!((0.35..=0.95).contains(&f), "{}: shuffle frac {f}", r.name);
        }
        // Spill configurations push the fraction higher (§4.2.2).
        let base_f: f64 = run_all(&ClusterConfig::baseline())
            .iter()
            .map(|r| r.shuffle_fraction())
            .sum();
        let spill_f: f64 = run_all(&ClusterConfig::spill(0.6))
            .iter()
            .map(|r| r.shuffle_fraction())
            .sum();
        assert!(spill_f > base_f);
    }

    #[test]
    fn q9_takes_longest_on_baseline() {
        let rs = run_all(&ClusterConfig::baseline());
        let q9 = rs.iter().find(|r| r.name == "Q9").unwrap();
        for r in &rs {
            if r.name != "Q9" {
                assert!(q9.exec_time_s > r.exec_time_s);
            }
        }
    }

    #[test]
    fn stage_times_sum_to_query_time() {
        let cfg = ClusterConfig::cxl_interleave(1, 1);
        for r in run_all(&cfg) {
            assert!(!r.stage_times_s.is_empty());
            let sum: f64 = r.stage_times_s.iter().sum();
            assert!(
                (sum - r.exec_time_s).abs() < 1e-9,
                "{}: stages {sum} vs total {}",
                r.name,
                r.exec_time_s
            );
        }
    }

    #[test]
    fn results_are_deterministic() {
        let a = times(&ClusterConfig::cxl_interleave(1, 3));
        let b = times(&ClusterConfig::cxl_interleave(1, 3));
        assert_eq!(a, b);
    }
}
