//! The child side of the benchmark: every measured run is a fresh
//! process, because the `cxl-perf` solve cache is process-wide and a
//! second study in one process would run against a cache no user's
//! first run has.
//!
//! A child runs one thing, prints one JSON line (a [`ChildReport`]) on
//! stdout and exits. A panic exits non-zero, which the parent counts as
//! a failed run.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::probes;
use crate::trace::{SpanRecord, Tracer};
use crate::workload::{self, Workload};

/// What a child runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The workload's world construction, timed.
    Setup,
    /// The study with recording off: the end-to-end measurement.
    Study,
    /// The study with a metrics registry on, exported and kept as the
    /// per-layer reference; with `probes`, followed by the layer probes.
    Traced {
        /// Run the layer probes after the study.
        probes: bool,
    },
}

impl Kind {
    /// The `--child` argument naming this kind.
    pub fn arg(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Study => "study",
            Kind::Traced { probes: false } => "traced",
            Kind::Traced { probes: true } => "probes",
        }
    }

    /// Parses a `--child` argument.
    pub fn parse(s: &str) -> Option<Kind> {
        [
            Kind::Setup,
            Kind::Study,
            Kind::Traced { probes: false },
            Kind::Traced { probes: true },
        ]
        .into_iter()
        .find(|k| k.arg() == s)
    }
}

/// One child's result line.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Seconds of the timed part: set-up for [`Kind::Setup`], the
    /// study's `run_with` otherwise.
    pub wall_s: f64,
    /// Peak resident set of the process, MB.
    pub rss_mb: f64,
    /// Items the set-up built (stores, arrivals, graphs, points), or
    /// for a study the items its cells were built from.
    pub items: u64,
    /// Digest of the serialized study (empty for set-up).
    pub digest: String,
    /// The first broken study invariant.
    pub violation: Option<String>,
    /// The `cxl-obs` export of a traced run.
    pub export: Option<Value>,
    /// Milliseconds `Registry::export_json` took.
    pub export_ms: f64,
    /// The benchmark's spans around each layer call.
    pub spans: Vec<SpanRecord>,
    /// Probe metric → value.
    pub probes: BTreeMap<String, f64>,
}

/// Runs one child and returns its report.
pub fn run(kind: Kind, w: Workload, seed: u64, quick: bool) -> ChildReport {
    let mut tracer = Tracer::default();
    let mut report = ChildReport::default();
    match kind {
        Kind::Setup => {
            let (items, secs) = tracer.span("setup", |_| workload::setup(w, seed, quick));
            report.items = items;
            report.wall_s = secs;
        }
        Kind::Study => {
            let o = workload::run_study(w, seed, quick, &mut tracer);
            report.wall_s = o.wall_s;
            report.items = o.items;
            report.digest = o.digest;
            report.violation = o.violation;
        }
        Kind::Traced { probes } => {
            tracer.span(&format!("traced/{}", w.name()), |t| {
                // Set-up runs untraced: its tier and solver calls are
                // not part of the study's metrics.
                t.span("setup", |_| workload::setup(w, seed, quick));
                cxl_perf::solve_cache_reset();
                cxl_obs::enable();
                let o = workload::run_study(w, seed, quick, t);
                cxl_obs::disable();
                let (json, secs) = t.span("export", |_| cxl_obs::global().export_json());
                let export = serde_json::parse_value(&json).expect("cxl-obs export parses");
                report.export_ms = secs * 1e3;
                if probes {
                    let depth = export["sim"]["sim/heap_depth_max"]["value"]
                        .as_u64()
                        .unwrap_or(0);
                    report.probes = probes::run_all(w, seed, quick, depth, t);
                }
                report.export = Some(export);
                report.wall_s = o.wall_s;
                report.items = o.items;
                report.digest = o.digest;
                report.violation = o.violation;
            });
        }
    }
    report.rss_mb = peak_rss_mb();
    report.spans = tracer.into_spans();
    report
}

/// The process's peak resident set (`VmHWM`, the value `ru_maxrss`
/// reports), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
