//! The eight golden-gated studies' deterministic metrics.
//!
//! Each study runs at its default parameters through its `run_with`,
//! under a scoped registry, on one worker and on eight. The `sim`
//! section of that registry's export must equal the study's
//! `results/golden/<name>_sim_metrics.json` by content: object keys
//! sorted and every number compared as an `f64`. One golden matched at
//! both worker counts pins every counted key and value and shows that
//! none depends on the worker count. An exact match also implies each
//! study's hard gates: no stranded page, no guardrail-violation key, and
//! `calib/<target>/within_tolerance` = 1 for every target.
//!
//! Default-size studies take seconds in release and minutes in a debug
//! build. Run with `cargo test --release --test sim_goldens -- --ignored`.

use std::path::Path;
use std::sync::Arc;

use cxl_repro::core_api::experiments::{autotune, calib, faults, fleet, heap, keydb, pool, serve};
use cxl_repro::core_api::runner::Runner;
use cxl_repro::obs;
use serde::Value;

/// `v` with object keys sorted and every number as an `f64`.
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

/// The `sim` export of `study` run under a fresh scoped registry.
fn sim_export<T>(study: impl FnOnce() -> T) -> Value {
    let reg = Arc::new(obs::Registry::new());
    {
        let _scope = obs::scope(reg.clone());
        study();
    }
    serde_json::parse_value(&reg.export_sim_json()).expect("the export parses")
}

/// Names the keys on which `got` and `want` differ.
fn diff(got: &Value, want: &Value) -> String {
    let (got, want) = (
        got.as_object().unwrap_or(&[]),
        want.as_object().unwrap_or(&[]),
    );
    let find =
        |o: &[(String, Value)], k: &str| o.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
    let mut out = Vec::new();
    for (k, v) in want {
        match find(got, k) {
            None => out.push(format!("missing {k}")),
            Some(g) if g != *v => out.push(format!("changed {k}: {g:?} != {v:?}")),
            Some(_) => {}
        }
    }
    out.extend(
        got.iter()
            .filter(|(k, _)| find(want, k).is_none())
            .map(|(k, _)| format!("extra {k}")),
    );
    out.join("\n")
}

/// Runs `study` on 1 and 8 workers and compares both exports with the
/// golden `results/golden/<golden>_sim_metrics.json`.
fn check<T>(golden: &str, study: impl Fn(&Runner) -> T) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results/golden")
        .join(format!("{golden}_sim_metrics.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let want = canonical(&serde_json::parse_value(&text).expect("the golden parses"));
    for jobs in [1, 8] {
        let got = canonical(&sim_export(|| study(&Runner::new(jobs))));
        assert!(
            got == want,
            "{golden} at {jobs} workers diverges from {}:\n{}",
            path.display(),
            diff(&got, &want)
        );
    }
}

#[test]
#[ignore = "default-size study; run in release with --ignored"]
fn fig5_matches_its_golden() {
    check("fig5", |r| keydb::run_with(r, keydb::Fig5Params::default()));
}

#[test]
#[ignore = "default-size study; run in release with --ignored"]
fn fault_tolerance_matches_its_golden() {
    check("fault_tolerance", |r| {
        faults::run_with(r, faults::FaultParams::default())
    });
}

#[test]
#[ignore = "default-size study; run in release with --ignored"]
fn pool_dynamics_matches_its_golden() {
    check("pool_dynamics", |r| {
        pool::run_with(r, pool::PoolParams::default())
    });
}

#[test]
#[ignore = "default-size study; run in release with --ignored"]
fn autotune_matches_its_golden() {
    check("autotune", |r| {
        autotune::run_with(r, autotune::AutotuneParams::default())
    });
}

#[test]
#[ignore = "default-size study; run in release with --ignored"]
fn fleet_dynamics_matches_its_golden() {
    check("fleet_dynamics", |r| {
        fleet::run_with(r, fleet::FleetParams::default())
    });
}

#[test]
#[ignore = "default-size study; run in release with --ignored"]
fn serve_dynamics_matches_its_golden() {
    check("serve_dynamics", |r| {
        serve::run_with(r, serve::ServeParams::default())
    });
}

#[test]
#[ignore = "default-size study; run in release with --ignored"]
fn heap_dynamics_matches_its_golden() {
    check("heap_dynamics", |r| {
        heap::run_with(r, heap::HeapStudyParams::default())
    });
}

#[test]
#[ignore = "default-size study; run in release with --ignored"]
fn calibrate_matches_its_golden() {
    check("calib", |r| {
        calib::run_with(r, calib::CalibParams::default())
    });
}
