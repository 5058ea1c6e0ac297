//! The four benchmark workloads: which study each one runs, the world
//! construction its cells do before simulated time starts, and the
//! invariants every run must keep whatever the seed.
//!
//! Every study runs through its public `run_with` on a serial runner:
//! the host has two cores, so a single worker is the only setting whose
//! timings mean anything.

use std::hint::black_box;

use cxl_calib::CalibrationTarget;
use cxl_core::experiments::{calib, heap, keydb, serve};
use cxl_core::{CapacityConfig, Runner};
use cxl_heap::ObjectGraph;
use cxl_kv::{KvConfig, KvStore};
use cxl_serve::{
    generate_arrivals, AutoscaleConfig, BurstConfig, CostConfig, Phase, ServeConfig, TenantClass,
    TenantConfig,
};
use cxl_sim::SimTime;
use cxl_stats::rng::derive_seed;
use cxl_topology::{SncMode, Topology};
use cxl_ycsb::Workload as Mix;
use serde::Serialize;

use crate::trace::Tracer;

/// One benchmark workload: a whole golden-gated study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5: seven Table-1 configurations × YCSB A–D.
    KvYcsb,
    /// Open-loop multi-tenant serving: the deep event queue and the
    /// migration-heavy tier user.
    ServeOpenLoop,
    /// Managed-heap GC: write-bearing tier traffic over an object graph.
    HeapGc,
    /// Model calibration: solver work with no engine or tier calls.
    CalibFit,
}

/// Every workload, in reporting order.
pub const ALL: [Workload; 4] = [
    Workload::KvYcsb,
    Workload::ServeOpenLoop,
    Workload::HeapGc,
    Workload::CalibFit,
];

impl Workload {
    /// The name `BENCHMARK.json` and the command line use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvYcsb => "kv_ycsb",
            Workload::ServeOpenLoop => "serve_open_loop",
            Workload::HeapGc => "heap_gc",
            Workload::CalibFit => "calib_fit",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed sim-metrics golden the study's traced run must
    /// reproduce at seed 42 with default parameters.
    pub fn golden(self) -> &'static str {
        match self {
            Workload::KvYcsb => "fig5_sim_metrics.json",
            Workload::ServeOpenLoop => "serve_dynamics_sim_metrics.json",
            Workload::HeapGc => "heap_dynamics_sim_metrics.json",
            Workload::CalibFit => "calib_sim_metrics.json",
        }
    }
}

/// What one study run left behind for checking.
pub struct StudyOutcome {
    /// Host seconds inside `run_with`.
    pub wall_s: f64,
    /// FNV-1a digest of the serialized study.
    pub digest: String,
    /// Items the study's cells were built from, counted from its output
    /// (the number [`setup`] must reproduce).
    pub items: u64,
    /// The first broken invariant, if any.
    pub violation: Option<String>,
}

fn fig5_params(seed: u64, quick: bool) -> keydb::Fig5Params {
    let base = if quick {
        keydb::Fig5Params::smoke()
    } else {
        keydb::Fig5Params::default()
    };
    keydb::Fig5Params { seed, ..base }
}

fn serve_params(seed: u64, quick: bool) -> serve::ServeParams {
    let base = if quick {
        serve::ServeParams::smoke()
    } else {
        serve::ServeParams::default()
    };
    serve::ServeParams { seed, ..base }
}

/// The heap study's parameters (public so probes can shape their tier
/// regime like the study's cells).
pub fn heap_params(seed: u64, quick: bool) -> heap::HeapStudyParams {
    let base = if quick {
        heap::HeapStudyParams::smoke()
    } else {
        heap::HeapStudyParams::default()
    };
    heap::HeapStudyParams { seed, ..base }
}

/// The calibration study's parameters.
pub fn calib_params(seed: u64, quick: bool) -> calib::CalibParams {
    let base = if quick {
        calib::CalibParams::smoke()
    } else {
        calib::CalibParams::default()
    };
    calib::CalibParams { seed, ..base }
}

/// FNV-1a over the study's JSON: equal digests mean equal outputs.
fn digest<T: Serialize>(study: &T) -> String {
    let json = serde_json::to_string(study).expect("study serializes");
    let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Runs the workload's study once on a serial runner, timed as the
/// span `study`, and checks its invariants.
pub fn run_study(w: Workload, seed: u64, quick: bool, tracer: &mut Tracer) -> StudyOutcome {
    let runner = Runner::serial();
    let (digest, items, violation, wall_s) = match w {
        Workload::KvYcsb => {
            let p = fig5_params(seed, quick);
            let (s, wall) = tracer.span("study", |_| keydb::run_with(&runner, p));
            let bad = s
                .cells
                .iter()
                .find(|c| c.latency.count() != p.ops)
                .map(|c| {
                    format!(
                        "cell {}/{} recorded {} of {} op latencies",
                        c.config,
                        c.workload,
                        c.latency.count(),
                        p.ops
                    )
                });
            (digest(&s), s.cells.len() as u64, bad, wall)
        }
        Workload::ServeOpenLoop => {
            let p = serve_params(seed, quick);
            let (s, wall) = tracer.span("study", |_| serve::run_with(&runner, p));
            let v = s.total_guardrail_violations();
            let bad = (v != 0).then(|| format!("{v} guardrail violations"));
            let arrivals = s.cells.iter().flat_map(|c| &c.report.tenants);
            (digest(&s), arrivals.map(|t| t.arrivals).sum(), bad, wall)
        }
        Workload::HeapGc => {
            let p = heap_params(seed, quick);
            let (s, wall) = tracer.span("study", |_| heap::run_with(&runner, p));
            let bad = s
                .cells
                .iter()
                .find(|c| c.report.stranded_pages != 0)
                .map(|c| {
                    format!(
                        "cell {} stranded {} pages",
                        c.label, c.report.stranded_pages
                    )
                });
            (digest(&s), s.cells.len() as u64, bad, wall)
        }
        Workload::CalibFit => {
            let p = calib_params(seed, quick);
            let (s, wall) = tracer.span("study", |_| calib::run_with(&runner, p));
            // `within_tolerance` holds at seed 42 (the golden pins it)
            // but not from every perturbed start, so the any-seed
            // invariant is the fitter's own: a fit never ends worse
            // than it started.
            let bad = s
                .cells
                .iter()
                .find(|c| c.fitted.max_residual_pct > c.start.max_residual_pct)
                .map(|c| {
                    format!(
                        "target {} fitted to {:.3}% from a {:.3}% start",
                        c.target, c.fitted.max_residual_pct, c.start.max_residual_pct
                    )
                });
            let curves = s.cells.iter().flat_map(|c| &c.fitted.curves);
            (digest(&s), curves.map(|r| r.points as u64).sum(), bad, wall)
        }
    };
    StudyOutcome {
        wall_s,
        digest,
        items,
        violation,
    }
}

/// Performs the world construction the study's cells do before
/// simulated time starts, through the same public calls and with the
/// same label-derived seeds. Returns how many items it built: stores,
/// arrivals, object graphs or measurement points, which must equal
/// [`StudyOutcome::items`]; the serving scenario in particular is
/// rebuilt here from public types, and drift from the study's private
/// builder shows up as a different arrival count.
pub fn setup(w: Workload, seed: u64, quick: bool) -> u64 {
    match w {
        Workload::KvYcsb => {
            // `keydb::build_store`, once per (configuration, mix) cell.
            let p = fig5_params(seed, quick);
            let mut stores = 0;
            for config in CapacityConfig::all() {
                for mix in Mix::all() {
                    let topo = Topology::paper_testbed(SncMode::Disabled);
                    let kv = KvConfig {
                        record_count: p.record_count,
                        seed: derive_seed(p.seed, &format!("fig5/{}", mix.label())),
                        ..KvConfig::default()
                    };
                    let (tier, flash) = config.tier_config(&topo, p.record_count * 1024);
                    black_box(KvStore::new(&topo, tier, kv, flash));
                    stores += 1;
                }
            }
            stores
        }
        Workload::ServeOpenLoop => {
            let p = serve_params(seed, quick);
            let mut arrivals = 0;
            for (label, rate_mult, adaptive, static_slabs) in serve_grid(&p) {
                let mut cfg = serve_scenario(&p, rate_mult, adaptive, static_slabs);
                cfg.seed = derive_seed(p.seed, &format!("serve/{label}"));
                for t in 0..cfg.tenants.len() {
                    arrivals += black_box(generate_arrivals(&cfg, t)).len() as u64;
                }
            }
            arrivals
        }
        Workload::HeapGc => {
            let p = heap_params(seed, quick);
            let mut graphs = 0;
            for label in HEAP_CELLS {
                let cell_seed = derive_seed(p.seed, &format!("heap/{label}"));
                black_box(ObjectGraph::build(&p.heap.graph, 4096, cell_seed));
                graphs += 1;
            }
            graphs
        }
        Workload::CalibFit => CalibrationTarget::registry()
            .iter()
            .map(|t| {
                let set = black_box(t.measurements());
                set.curves
                    .iter()
                    .map(|c| c.points.len() as u64)
                    .sum::<u64>()
            })
            .sum(),
    }
}

/// The heap study's cell labels, which key its per-cell seeds.
const HEAP_CELLS: [&str; 7] = [
    "dram-rich",
    "lean-default",
    "lean-storm-aware",
    "lean-segregated",
    "lean-seg-storm",
    "lean-fault",
    "lean-no-gc",
];

/// The serving study's cells: (label, rate multiplier, adaptive,
/// static slabs).
fn serve_grid(p: &serve::ServeParams) -> [(&'static str, f64, bool, u64); 4] {
    [
        ("adaptive", 1.0, true, 0),
        ("static-lean", 1.0, false, 0),
        ("static-peak", 1.0, false, p.static_peak_slabs),
        ("overload", p.overload_mult, true, 0),
    ]
}

/// The serving study's diurnal scenario, rebuilt from public types.
fn serve_scenario(
    p: &serve::ServeParams,
    rate_mult: f64,
    adaptive: bool,
    static_slabs: u64,
) -> ServeConfig {
    let phase = SimTime::from_ms(p.phase_ms);
    let kv = |name: &str, workload, rate: f64, phase_mults: Vec<f64>, burst| TenantConfig {
        name: name.to_string(),
        class: TenantClass::Kv {
            workload,
            ops_per_request: p.ops_per_request,
            record_count: p.record_count,
        },
        base_rate_rps: rate * rate_mult,
        phase_mults,
        burst,
        queue_cap: 4_096,
        admission_rate_rps: rate * 8.0,
        admission_burst: 64.0,
        workers: 2,
        slo_p99_ms: 200.0,
    };
    ServeConfig {
        tenants: vec![
            kv(
                "kv-a",
                Mix::B,
                p.kv_rate_rps,
                vec![1.0, 1.7, 1.4, 0.3],
                Some(BurstConfig {
                    mult: 1.3,
                    mean_on_s: 0.3,
                    mean_off_s: 0.9,
                }),
            ),
            kv(
                "kv-b",
                Mix::C,
                p.kv_rate_rps * 0.75,
                vec![0.6, 1.6, 1.9, 0.4],
                None,
            ),
            TenantConfig {
                name: "llm-a".to_string(),
                class: TenantClass::Llm {
                    prompt_tokens: 32,
                    mean_output_tokens: 8,
                },
                base_rate_rps: p.llm_rate_rps * rate_mult,
                phase_mults: vec![1.0, 1.5, 1.0, 0.3],
                burst: None,
                queue_cap: 256,
                admission_rate_rps: p.llm_rate_rps * 8.0,
                admission_burst: 16.0,
                workers: 3,
                slo_p99_ms: 4_000.0,
            },
        ],
        phases: vec![
            Phase::new("ramp", phase),
            Phase::new("peak", phase),
            Phase::new("evening", phase),
            Phase::new("night", phase + phase),
        ],
        autoscale: adaptive.then(|| AutoscaleConfig {
            period: SimTime::from_ms(p.autoscale_period_ms),
            ladder: vec![0, 1, 2, 4, 6],
            ..AutoscaleConfig::default()
        }),
        static_lease_slabs: static_slabs,
        fault_at: Some(p.fault_at()),
        pool_slabs: 18,
        cost: CostConfig::default(),
        seed: 0,
    }
}
