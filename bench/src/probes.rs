//! Per-layer probes: each times calls into one layer's public API with
//! inputs shaped by the workload's configuration and traced counts, so
//! a change to that layer shows up here even when the whole study's
//! wall time is too noisy to resolve it.
//!
//! Probes run after the traced study with recording off and the solve
//! cache cleared, so they measure the layer as an untraced run uses it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cxl_calib::{fit, CalibrationTarget, FitConfig, SerialMap};
use cxl_core::CapacityConfig;
use cxl_kv::{KvConfig, KvStore};
use cxl_perf::{solve_cache_reset, AccessMix, FlowSpec, MemSystem, ModelParams};
use cxl_sim::{Engine, SimTime};
use cxl_stats::rng::derive_seed;
use cxl_tier::{
    AllocPolicy, HotPageConfig, MigrationMode, NumaBalancingConfig, Rw, TierConfig, TierManager,
};
use cxl_topology::{MemoryTier, SncMode, SocketId, Topology};
use cxl_ycsb::{Generator, GeneratorConfig, Workload as Mix};

use crate::trace::Tracer;
use crate::workload::{calib_params, heap_params, Workload};

/// Every probe metric, in run order.
const PROBES: [&str; 7] = [
    "sim.dispatch_ns",
    "perf.solve_miss_us",
    "perf.solve_hit_ns",
    "tier.touch_ns",
    "ycsb.gen_ns",
    "kv.op_ns",
    "calib.eval_us",
];

/// The workload-specific inputs the probes are shaped by.
struct Shape {
    /// YCSB mixes the workload issues (the KV mix for workloads that
    /// issue none, so every probe reports on every workload).
    mixes: &'static [Mix],
    /// Records per KV store.
    records: u64,
    /// Pending events the workload's engine held at its deepest.
    queue_depth: u64,
    /// Operations per timed probe loop.
    ops: u64,
}

fn shape(w: Workload, quick: bool, queue_depth: u64) -> Shape {
    let (mixes, records): (&'static [Mix], u64) = match w {
        Workload::ServeOpenLoop => (&[Mix::B, Mix::C], 40_000),
        _ => (&[Mix::A, Mix::B, Mix::C, Mix::D], 200_000),
    };
    Shape {
        mixes,
        records: if quick { records / 4 } else { records },
        queue_depth: queue_depth.max(1),
        ops: if quick { 100_000 } else { 1_000_000 },
    }
}

/// Runs every probe, each in its own span; returns metric → value.
pub fn run_all(
    w: Workload,
    seed: u64,
    quick: bool,
    queue_depth: u64,
    tracer: &mut Tracer,
) -> BTreeMap<String, f64> {
    let s = shape(w, quick, queue_depth);
    let mut out = BTreeMap::new();
    for name in PROBES {
        solve_cache_reset();
        let (v, _) = tracer.span(&format!("probe/{name}"), |_| match name {
            "sim.dispatch_ns" => dispatch_ns(&s, seed),
            "perf.solve_miss_us" => solve_miss_us(w, &s),
            "perf.solve_hit_ns" => solve_hit_ns(w, &s),
            "tier.touch_ns" => touch_ns(w, &s, seed, quick),
            "ycsb.gen_ns" => gen_ns(&s, seed),
            "kv.op_ns" => kv_op_ns(&s, seed),
            "calib.eval_us" => eval_us(seed, quick),
            _ => unreachable!("unknown probe {name}"),
        });
        out.insert(name.to_string(), v);
    }
    out
}

/// xorshift64: cheap deterministic noise for probe inputs.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `Engine::schedule_at` + `step` per event, at the traced queue depth.
fn dispatch_ns(s: &Shape, seed: u64) -> f64 {
    let mut rng = derive_seed(seed, "probe/dispatch") | 1;
    let spread = 2 * s.queue_depth * 1_000;
    let mut engine: Engine<u64> = Engine::new(0);
    for _ in 0..s.queue_depth {
        let at = SimTime::from_ns(next(&mut rng) % spread);
        engine.schedule_at(at, |e| *e.state_mut() += 1);
    }
    let start = Instant::now();
    for _ in 0..s.ops {
        engine.step();
        let at = engine.now() + SimTime::from_ns(1 + next(&mut rng) % spread);
        engine.schedule_at(at, |e| *e.state_mut() += 1);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(engine.state());
    ns / s.ops as f64
}

/// The topology the workload's solves run over, and one flow per node.
fn flows(w: Workload, offered_gbps: f64) -> (Topology, Vec<FlowSpec>) {
    let topo = match w {
        Workload::CalibFit => CalibrationTarget::registry()[0].topology(),
        _ => Topology::paper_testbed(SncMode::Disabled),
    };
    let flows = topo
        .nodes()
        .iter()
        .map(|n| FlowSpec::new(SocketId(0), n.id, AccessMix::ratio(2, 1), offered_gbps))
        .collect();
    (topo, flows)
}

/// `MemSystem::solve` on a flow set it has not seen.
fn solve_miss_us(w: Workload, s: &Shape) -> f64 {
    let (topo, mut fl) = flows(w, 4.0);
    let sys = MemSystem::new(&topo);
    let solves = s.ops / 200;
    let start = Instant::now();
    for k in 0..solves {
        for (i, f) in fl.iter_mut().enumerate() {
            f.offered_gbps = 4.0 + (k as f64) * 1e-3 + i as f64;
        }
        black_box(sys.solve(&fl));
    }
    start.elapsed().as_secs_f64() * 1e6 / solves as f64
}

/// `MemSystem::solve` on a flow set already in the cache.
fn solve_hit_ns(w: Workload, s: &Shape) -> f64 {
    let (topo, fl) = flows(w, 4.0);
    let sys = MemSystem::new(&topo);
    black_box(sys.solve(&fl));
    let solves = s.ops / 5;
    let start = Instant::now();
    for _ in 0..solves {
        black_box(sys.solve(black_box(&fl)));
    }
    start.elapsed().as_nanos() as f64 / solves as f64
}

/// The workload's tier regime: the heap study's lean storm-aware cell
/// for `heap_gc`, Table 1's Hot-Promote for the rest.
fn tier_regime(w: Workload, seed: u64, quick: bool, records: u64) -> (TierConfig, u64) {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    if w != Workload::HeapGc {
        let (cfg, _) = CapacityConfig::HotPromote.tier_config(&topo, records * 1024);
        return (cfg, records / 4);
    }
    let p = heap_params(seed, quick);
    let pages = u64::from(cxl_heap::ObjectGraph::build(&p.heap.graph, 4096, seed).page_count);
    let node = |tier| {
        topo.nodes()
            .iter()
            .find(|n| n.tier == tier)
            .expect("testbed has the tier")
            .id
    };
    let (dram, cxl) = (node(MemoryTier::LocalDram), node(MemoryTier::CxlExpander));
    let mut cfg = TierConfig::bind(vec![dram]);
    cfg.policy = AllocPolicy::interleave(vec![dram], vec![cxl], 1, 3);
    cfg.capacity_override = vec![
        (
            dram,
            (pages as f64 * p.dram_fraction) as u64 * cfg.page_size,
        ),
        (cxl, 2 * pages * cfg.page_size),
    ];
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
        promote_after_faults: p.storm_streak,
    });
    (cfg, pages)
}

/// `TierManager::touch` on a Zipfian page stream, 1 µs of simulated
/// time apart, with the periodic `tick` the workloads run (untimed)
/// every 4000 touches.
fn touch_ns(w: Workload, s: &Shape, seed: u64, quick: bool) -> f64 {
    let (cfg, pages) = tier_regime(w, seed, quick, s.records);
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let mut tm = TierManager::new(&topo, cfg);
    let ids = tm.alloc_n(pages, SimTime::ZERO).expect("probe pages fit");
    let gen_cfg = GeneratorConfig {
        record_count: pages,
        value_size: 4096,
        seed,
    };
    let ops = Generator::new(s.mixes[0], gen_cfg).batch(s.ops as usize);
    let mut busy = 0.0;
    for (chunk_no, chunk) in ops.chunks(4_000).enumerate() {
        let base = chunk_no as u64 * 4_000;
        let start = Instant::now();
        for (i, op) in chunk.iter().enumerate() {
            let rw = if op.is_write() { Rw::Write } else { Rw::Read };
            let now = SimTime::from_ns((base + i as u64) * 1_000);
            black_box(tm.touch(ids[(op.key() % pages) as usize], rw, 64, now));
        }
        busy += start.elapsed().as_nanos() as f64;
        tm.tick(SimTime::from_ns((base + chunk.len() as u64) * 1_000));
    }
    busy / ops.len() as f64
}

/// `Generator::batch` per op, averaged over the workload's mixes.
fn gen_ns(s: &Shape, seed: u64) -> f64 {
    let per_mix = s.ops as usize / s.mixes.len();
    let mut ns = 0.0;
    for &mix in s.mixes {
        let cfg = GeneratorConfig {
            record_count: s.records,
            value_size: 1024,
            seed,
        };
        let mut g = Generator::new(mix, cfg);
        let start = Instant::now();
        for _ in 0..per_mix / 1_000 {
            black_box(g.batch(1_000));
        }
        ns += start.elapsed().as_nanos() as f64;
    }
    ns / (per_mix / 1_000 * 1_000 * s.mixes.len()) as f64
}

/// `KvStore::run` per op on a Hot-Promote store of the workload's size,
/// after an untimed warm-up of the same length.
fn kv_op_ns(s: &Shape, seed: u64) -> f64 {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let (tier, flash) = CapacityConfig::HotPromote.tier_config(&topo, s.records * 1024);
    let cfg = KvConfig {
        record_count: s.records,
        seed,
        ..KvConfig::default()
    };
    let mut store = KvStore::new(&topo, tier, cfg, flash);
    let ops = s.ops / 2;
    store.run(s.mixes[0], ops);
    let start = Instant::now();
    black_box(store.run(s.mixes[0], ops));
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// One `cxl_calib::fit` of the first registered target with the serial
/// candidate map, per objective evaluation.
fn eval_us(seed: u64, quick: bool) -> f64 {
    let target = CalibrationTarget::registry()[0];
    let (topo, set, space) = (target.topology(), target.measurements(), target.space());
    let fit_seed = derive_seed(seed, &format!("calib/{}", target.name));
    let p = calib_params(seed, quick);
    let start_params = space.perturbed_start(&ModelParams::default(), fit_seed, p.perturb_frac);
    let cfg = FitConfig {
        seed: fit_seed,
        ..p.fit
    };
    let start = Instant::now();
    let r = fit(&SerialMap, &topo, &set, &space, start_params, &cfg);
    start.elapsed().as_secs_f64() * 1e6 / r.evaluations as f64
}
