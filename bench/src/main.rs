//! Whole-study benchmark of the CXL simulator.
//!
//! Times four golden-gated studies cold, each run in a fresh process on
//! one worker thread, checks their outputs, and splits their time per
//! layer from a separate traced run:
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- --seed 42
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload kv_ycsb --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Every metric prints as `workload metric value unit`; the last line
//! of stdout is a JSON summary, and `bench/out/` receives `result.json`
//! plus one span trace per workload. See `bench/README.md`.

mod child;
mod probes;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Serialize;
use serde_json::Value;

use child::{ChildReport, Kind};
use stats::Summary;
use workload::Workload;

const USAGE: &str = "usage: cxl-repo-bench [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--repeat-check] [--out DIR] [--golden-dir DIR] [--inject-panic]";

/// Fewest measured rounds per workload, however short the budget.
const MIN_REPS: usize = 3;

/// The seed the committed goldens were captured at.
const GOLDEN_SEED: u64 = 42;

/// The benchmark crate's directory (the repository root is its parent).
const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat_check: bool,
    out: PathBuf,
    golden_dir: PathBuf,
    inject_panic: bool,
    child: Option<Kind>,
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: GOLDEN_SEED,
        seconds: None,
        trace: None,
        quick: false,
        repeat_check: false,
        out: Path::new(BENCH_DIR).join("out"),
        golden_dir: Path::new(BENCH_DIR).join("../results/golden"),
        inject_panic: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let v = value(&mut it, &flag)?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value(&mut it, &flag)?;
                a.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value(&mut it, &flag)?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {v}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--quick" => a.quick = true,
            "--repeat-check" => a.repeat_check = true,
            "--out" => a.out = value(&mut it, &flag)?.into(),
            "--golden-dir" => a.golden_dir = value(&mut it, &flag)?.into(),
            "--inject-panic" => a.inject_panic = true,
            "--child" => {
                let v = value(&mut it, &flag)?;
                a.child = Some(Kind::parse(&v).ok_or(format!("unknown child kind {v}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// What `BENCHMARK.json` fixes: the run length and the end-to-end
/// regression bounds.
struct Spec {
    run_seconds: f64,
    bounds: Vec<(String, f64)>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let path = Path::new(BENCH_DIR).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let run_seconds = v["run_seconds"]
            .as_f64()
            .ok_or("BENCHMARK.json lacks run_seconds")?;
        let bounds = v["end_to_end"]
            .as_array()
            .ok_or("BENCHMARK.json lacks end_to_end")?
            .iter()
            .map(|m| match (m["name"].as_str(), m["bound"].as_f64()) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("end_to_end entries need a name and a bound".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds,
            bounds,
        })
    }
}

/// How long and how checked one benchmark invocation runs.
struct Plan {
    seed: u64,
    quick: bool,
    /// Seconds of measurement per workload and phase.
    budget_s: f64,
    min_reps: usize,
    golden_dir: PathBuf,
    inject_panic: bool,
}

/// Measured rounds and the seconds they took.
#[derive(Default)]
struct Budget {
    rounds: usize,
    elapsed_s: f64,
}

impl Budget {
    fn done(&self, plan: &Plan) -> bool {
        self.rounds >= plan.min_reps && self.elapsed_s >= plan.budget_s
    }

    fn add(&mut self, since: Instant) {
        self.rounds += 1;
        self.elapsed_s += since.elapsed().as_secs_f64();
    }
}

/// Everything measured for one workload.
struct Run {
    w: Workload,
    attempted: u64,
    failed: u64,
    /// The first clean study run, whose digest and items every later
    /// run must reproduce; when the per-layer phase runs, the traced run
    /// with its export, probes and spans.
    reference: Option<ChildReport>,
    golden: &'static str,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Untraced and traced study walls of the per-layer phase.
    pair_untraced: Vec<f64>,
    pair_traced: Vec<f64>,
}

impl Run {
    fn new(w: Workload) -> Run {
        Run {
            w,
            attempted: 0,
            failed: 0,
            reference: None,
            golden: "skipped",
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            rss_mb: Vec::new(),
            pair_untraced: Vec::new(),
            pair_traced: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) -> Option<ChildReport> {
        self.failed += 1;
        eprintln!("{}: FAILED: {why}", self.w.name());
        None
    }

    /// Runs one child; returns its report when it exited cleanly, kept
    /// the study's invariants and reproduced the reference. The first
    /// clean study run becomes the reference.
    fn spawn(&mut self, plan: &Plan, kind: Kind, inject_panic: bool) -> Option<ChildReport> {
        self.attempted += 1;
        let r = match spawn_child(plan, self.w, kind, inject_panic) {
            Ok(r) => r,
            Err(e) => return self.fail(format!("{} child {e}", kind.arg())),
        };
        if let Some(v) = &r.violation {
            return self.fail(format!("invariant broken: {v}"));
        }
        if let Some(reference) = &self.reference {
            if kind == Kind::Setup && r.items != reference.items {
                let why = format!(
                    "set-up built {} items but the study's cells hold {}",
                    r.items, reference.items
                );
                return self.fail(why);
            }
            if kind != Kind::Setup && r.digest != reference.digest {
                let why = format!(
                    "study digest {} != reference {}",
                    r.digest, reference.digest
                );
                return self.fail(why);
            }
        } else if kind != Kind::Setup {
            self.reference = Some(r.clone());
        }
        Some(r)
    }

    /// Runs the traced reference with its probes and checks its `sim`
    /// section against the committed golden (seed 42, full-size studies
    /// only).
    fn run_reference(&mut self, plan: &Plan) {
        let Some(r) = self.spawn(plan, Kind::Traced { probes: true }, false) else {
            return;
        };
        if plan.seed != GOLDEN_SEED || plan.quick {
            return;
        }
        let sim = &r.export.as_ref().expect("traced children export")["sim"];
        let path = plan.golden_dir.join(self.w.golden());
        let golden = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::parse_value(&t).map_err(|e| e.to_string()));
        self.golden = match golden {
            Ok(g) if canonical(&g) == canonical(sim) => "match",
            Ok(_) => {
                self.fail(format!("sim section differs from {}", path.display()));
                "mismatch"
            }
            Err(e) => {
                self.fail(format!("cannot read {}: {e}", path.display()));
                "unreadable"
            }
        };
    }
}

/// `v` with object keys sorted and every number as `f64`, so exports
/// compare by content like the Python golden checker does, whatever
/// the key order and integer-or-float spelling of the writer.
fn canonical(v: &Value) -> Value {
    match v {
        Value::Object(o) => {
            let mut o: Vec<_> = o.iter().map(|(k, v)| (k.clone(), canonical(v))).collect();
            o.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(o)
        }
        Value::Array(a) => Value::Array(a.iter().map(canonical).collect()),
        Value::I64(_) | Value::U64(_) => Value::F64(v.as_f64().expect("a number")),
        v => v.clone(),
    }
}

/// Runs this binary again as a child and parses its report line.
fn spawn_child(
    plan: &Plan,
    w: Workload,
    kind: Kind,
    inject_panic: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate itself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind.arg(), "--workload", w.name()])
        .args(["--seed", &plan.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if plan.quick {
        cmd.arg("--quick");
    }
    if inject_panic {
        cmd.arg("--inject-panic");
    }
    let out = cmd.output().map_err(|e| format!("did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("printed no report: {e}"))
}

/// Runs the end-to-end and per-layer phases. The per-layer phase's
/// traced reference runs first, so that in a full run every untraced
/// study must reproduce the traced one's digest.
fn measure(plan: &Plan, workloads: &[Workload], e2e: bool, layer: bool) -> Vec<Run> {
    let mut runs: Vec<Run> = workloads.iter().map(|&w| Run::new(w)).collect();
    let mut layer_budgets: Vec<Budget> = runs.iter().map(|_| Budget::default()).collect();
    if layer {
        for (r, b) in runs.iter_mut().zip(&mut layer_budgets) {
            let start = Instant::now();
            r.run_reference(plan);
            b.elapsed_s = start.elapsed().as_secs_f64();
        }
    }
    if e2e {
        // Round-robin across workloads, so slow drift in the host spreads
        // over all of them instead of landing on one.
        let mut budgets: Vec<Budget> = runs.iter().map(|_| Budget::default()).collect();
        while budgets.iter().any(|b| !b.done(plan)) {
            for (r, b) in runs.iter_mut().zip(&mut budgets) {
                if b.done(plan) {
                    continue;
                }
                let start = Instant::now();
                let inject = plan.inject_panic && b.rounds == 0;
                if let Some(c) = r.spawn(plan, Kind::Study, inject) {
                    r.wall_s.push(c.wall_s);
                    r.rss_mb.push(c.rss_mb);
                }
                if let Some(c) = r.spawn(plan, Kind::Setup, false) {
                    r.setup_s.push(c.wall_s);
                }
                b.add(start);
            }
        }
    }
    if layer {
        for (r, b) in runs.iter_mut().zip(&mut layer_budgets) {
            while !b.done(plan) {
                let start = Instant::now();
                if let Some(c) = r.spawn(plan, Kind::Study, false) {
                    r.pair_untraced.push(c.wall_s);
                }
                if let Some(c) = r.spawn(plan, Kind::Traced { probes: false }, false) {
                    r.pair_traced.push(c.wall_s);
                }
                b.add(start);
            }
        }
    }
    runs
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Spread over repetitions, for repeated measurements.
    summary: Option<Summary>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        summary: None,
    }
}

fn e2e_metrics(r: &Run) -> Vec<Metric> {
    [
        ("wall_s", "s", &r.wall_s),
        ("setup_s", "s", &r.setup_s),
        ("peak_rss_mb", "MB", &r.rss_mb),
    ]
    .into_iter()
    .filter_map(|(name, unit, samples)| {
        Summary::of(samples).map(|s| Metric {
            summary: Some(s),
            ..metric(name, unit, s.median)
        })
    })
    .collect()
}

fn layer_metrics(r: &Run) -> Vec<Metric> {
    let (Some(reference), Some(traced), Some(untraced)) = (
        &r.reference,
        Summary::of(&r.pair_traced),
        Summary::of(&r.pair_untraced),
    ) else {
        return Vec::new();
    };
    let Some(export) = &reference.export else {
        return Vec::new();
    };
    let num =
        |section: &str, key: &str, field: &str| export[section][key][field].as_f64().unwrap_or(0.0);
    let sim = |key: &str| num("sim", key, "value");
    let wall = |key: &str| num("wall", key, "value");
    let sum_sim = |keep: &dyn Fn(&str) -> bool| -> f64 {
        export["sim"]
            .as_object()
            .unwrap_or_default()
            .iter()
            .filter(|(k, _)| keep(k))
            .fold(0.0, |acc, (_, v)| acc + v["value"].as_f64().unwrap_or(0.0))
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let probe = |name: &str| reference.probes.get(name).copied().unwrap_or(0.0);
    let solves = wall("perf/solve_cache_hits") + wall("perf/solve_cache_misses");
    let keys: usize = ["sim", "wall"]
        .iter()
        .map(|s| export[*s].as_object().map_or(0, |o| o.len()))
        .sum();
    let cell_ms = |field| num("wall", "runner/cell_wall_ns", field) / 1e6;
    let handled = sim("serve/served") + sim("serve/shed") + sim("serve/rejected");
    let evaluations = sum_sim(&|k| k.starts_with("calib/") && k.ends_with("/evaluations"));
    let promote_ratio = ratio(sim("tier/promotions"), sim("tier/hint_faults"));
    vec![
        metric("runner.cells", "count", sim("runner/cells")),
        metric("runner.cell_p50_ms", "ms", cell_ms("p50")),
        metric("runner.cell_max_ms", "ms", cell_ms("max")),
        metric("sim.events", "count", sim("sim/events_executed")),
        metric("sim.queue_depth_max", "count", sim("sim/heap_depth_max")),
        metric("sim.dispatch_ns", "ns", probe("sim.dispatch_ns")),
        metric("perf.solves", "count", solves),
        metric(
            "perf.solve_hit_ratio",
            "ratio",
            ratio(wall("perf/solve_cache_hits"), solves),
        ),
        metric(
            "perf.solver_iterations",
            "count",
            wall("perf/solver_iterations"),
        ),
        metric(
            "perf.component_misses",
            "count",
            wall("perf/solve_component_misses"),
        ),
        metric("perf.solve_miss_us", "us", probe("perf.solve_miss_us")),
        metric("perf.solve_hit_ns", "ns", probe("perf.solve_hit_ns")),
        metric("tier.hint_faults", "count", sim("tier/hint_faults")),
        metric("tier.promotions", "count", sim("tier/promotions")),
        metric("tier.demotions", "count", sim("tier/demotions")),
        metric("tier.migrated_mb", "MB", sim("tier/migration_bytes") / 1e6),
        metric("tier.ssd_loads", "count", sim("tier/ssd_loads")),
        metric("tier.promote_ratio", "ratio", promote_ratio),
        metric("tier.touch_ns", "ns", probe("tier.touch_ns")),
        metric(
            "ycsb.ops",
            "count",
            sum_sim(&|k| k.starts_with("ycsb/ops/")),
        ),
        metric("ycsb.gen_ns", "ns", probe("ycsb.gen_ns")),
        metric("kv.op_ns", "ns", probe("kv.op_ns")),
        metric("serve.requests", "count", handled),
        metric("heap.objects_traced", "count", sim("heap/objects_traced")),
        metric("heap.mutator_ops", "count", sim("heap/mutator_ops")),
        metric("calib.evaluations", "count", evaluations),
        metric("calib.eval_us", "us", probe("calib.eval_us")),
        metric("obs.traced_wall_s", "s", traced.median),
        metric(
            "obs.overhead_frac",
            "ratio",
            traced.median / untraced.median - 1.0,
        ),
        metric("obs.export_ms", "ms", reference.export_ms),
        metric("obs.keys", "count", keys as f64),
    ]
}

/// A metric as `result.json` carries it.
#[derive(Serialize)]
struct MetricOut {
    value: f64,
    unit: String,
    q1: Option<f64>,
    q3: Option<f64>,
    n: Option<usize>,
}

/// The last line of stdout.
#[derive(Serialize)]
struct SummaryLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ValueUnit>,
}

#[derive(Serialize)]
struct ValueUnit {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct WorkloadResult {
    attempted: u64,
    failed: u64,
    sim_digest: String,
    golden: String,
    metrics: BTreeMap<String, MetricOut>,
}

#[derive(Serialize)]
struct ResultFile {
    schema: String,
    seed: u64,
    seconds: f64,
    quick: bool,
    workloads: BTreeMap<String, WorkloadResult>,
}

#[derive(Serialize)]
struct TraceFile {
    trace_id: String,
    spans: Vec<trace::SpanRecord>,
}

fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("benchmark output serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Prints every metric, writes `result.json` and the span traces, and
/// prints the summary line. Returns the process exit code.
fn report(plan: &Plan, seconds: f64, out: &Path, runs: &[Run]) -> Result<i32, String> {
    let mut line = SummaryLine {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    let mut file = ResultFile {
        schema: "cxl-repo-bench/v1".to_string(),
        seed: plan.seed,
        seconds,
        quick: plan.quick,
        workloads: BTreeMap::new(),
    };
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for r in runs {
        let name = r.w.name();
        let mut metrics = BTreeMap::new();
        for m in e2e_metrics(r).iter().chain(&layer_metrics(r)) {
            println!("{name} {} {} {}", m.name, m.value, m.unit);
            // One workload keys metrics by their declared names, as the
            // per-workload contract of BENCHMARK.json expects.
            let key = if runs.len() == 1 {
                m.name.to_string()
            } else {
                format!("{name}/{}", m.name)
            };
            let unit = m.unit.to_string();
            let value = m.value;
            line.metrics.insert(key, ValueUnit { value, unit });
            let out = MetricOut {
                value,
                unit: m.unit.to_string(),
                q1: m.summary.map(|s| s.q1),
                q3: m.summary.map(|s| s.q3),
                n: m.summary.map(|s| s.n),
            };
            metrics.insert(m.name.to_string(), out);
        }
        line.attempted += r.attempted;
        line.failed += r.failed;
        let digest = r.reference.as_ref().map_or("", |c| &c.digest).to_string();
        let result = WorkloadResult {
            attempted: r.attempted,
            failed: r.failed,
            sim_digest: digest,
            golden: r.golden.to_string(),
            metrics,
        };
        file.workloads.insert(name.to_string(), result);
        if let Some(reference) = r.reference.as_ref().filter(|c| c.export.is_some()) {
            let trace = TraceFile {
                trace_id: format!("{name}-{}", plan.seed),
                spans: reference.spans.clone(),
            };
            write_json(&out.join(format!("{name}.trace.json")), &trace)?;
        }
    }
    write_json(&out.join("result.json"), &file)?;
    line.correct = line.failed == 0;
    println!(
        "{}",
        serde_json::to_string(&line).expect("summary serializes")
    );
    Ok(i32::from(!line.correct))
}

/// Measures the end-to-end phase twice and checks that the two sets'
/// medians agree within the bounds `BENCHMARK.json` fixes.
fn repeat_check(plan: &Plan, workloads: &[Workload], spec: &Spec) -> i32 {
    let sets = [
        measure(plan, workloads, true, false),
        measure(plan, workloads, true, false),
    ];
    let mut ok = sets.iter().flatten().all(|r| r.failed == 0);
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "set 1", "set 2", "ratio", "bound"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        let (ma, mb) = (e2e_metrics(a), e2e_metrics(b));
        for (name, bound) in &spec.bounds {
            let find = |ms: &[Metric]| ms.iter().find(|m| m.name == name).map(|m| m.value);
            let (Some(x), Some(y)) = (find(&ma), find(&mb)) else {
                println!("{:<16} {name:<12} missing", a.w.name());
                ok = false;
                continue;
            };
            let ratio = y / x;
            let agree = (ratio - 1.0).abs() <= *bound;
            ok &= agree;
            println!(
                "{:<16} {name:<12} {x:>12.6} {y:>12.6} {ratio:>7.4} {bound:>6.2}  {}",
                a.w.name(),
                if agree { "agree" } else { "DISAGREE" }
            );
        }
    }
    i32::from(!ok)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(kind) = args.child {
        let Some(w) = args.workload else {
            eprintln!("error: --child needs --workload\n{USAGE}");
            std::process::exit(2);
        };
        // The self-tests' stand-in for a crashing study.
        assert!(!args.inject_panic, "injected failure");
        let report = child::run(kind, w, args.seed, args.quick);
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
        return;
    }
    let spec = Spec::load().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let plan = Plan {
        seed: args.seed,
        quick: args.quick,
        budget_s: if args.quick { 0.0 } else { seconds },
        min_reps: if args.quick { 1 } else { MIN_REPS },
        golden_dir: args.golden_dir,
        inject_panic: args.inject_panic,
    };
    let workloads = args.workload.map_or(workload::ALL.to_vec(), |w| vec![w]);
    if args.repeat_check {
        std::process::exit(repeat_check(&plan, &workloads, &spec));
    }
    let (e2e, layer) = match args.trace {
        None => (true, true),
        Some(traced) => (!traced, traced),
    };
    let runs = measure(&plan, &workloads, e2e, layer);
    match report(&plan, seconds, &args.out, &runs) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
