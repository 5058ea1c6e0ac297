//! Self-tests of the benchmark binary: it emits exactly the metrics
//! `BENCHMARK.json` declares, reports a golden it cannot reproduce, and
//! survives a crashing child.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

/// Runs the benchmark; returns (exit code, stdout lines, stderr).
fn bench(args: &[&str]) -> (i32, Vec<String>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cxl-repo-bench"))
        .args(args)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines = stdout.lines().map(str::to_string).collect();
    let code = out.status.code().expect("benchmark exits normally");
    (
        code,
        lines,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The summary JSON on the last stdout line.
fn summary(lines: &[String]) -> Value {
    serde_json::parse_value(lines.last().expect("benchmark prints")).expect("summary is JSON")
}

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::parse_value(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap()
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    spec()[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("name");
            (
                name.to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn quick_mode_emits_exactly_the_declared_metrics() {
    let out = scratch("quick");
    let (code, lines, stderr) = bench(&["--quick", "--out", out.to_str().unwrap()]);
    assert_eq!(code, 0, "quick run failed: {stderr}");
    assert_eq!(summary(&lines)["failed"].as_u64(), Some(0));

    let mut expected = declared("end_to_end");
    expected.extend(declared("per_layer"));
    for w in spec()["workloads"].as_array().unwrap() {
        let w = w["name"].as_str().unwrap();
        let emitted: BTreeSet<(String, String)> = lines[..lines.len() - 1]
            .iter()
            .filter_map(|l| {
                let f: Vec<&str> = l.split(' ').collect();
                (f.len() == 4 && f[0] == w).then(|| {
                    assert!(valid_name(f[1]), "bad metric name {}", f[1]);
                    assert!(f[2].parse::<f64>().is_ok(), "bad value in {l}");
                    (f[1].to_string(), f[3].to_string())
                })
            })
            .collect();
        assert_eq!(emitted, expected, "metrics of {w}");
    }
    let result = std::fs::read_to_string(out.join("result.json")).expect("result.json");
    assert!(result.contains("sim_digest"));
    assert!(out.join("kv_ycsb.trace.json").exists());
}

#[test]
fn per_workload_runs_emit_one_metric_set_each() {
    let out = scratch("per_workload");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = ["--quick", "--workload", "calib_fit", "--trace", trace];
        let (code, lines, stderr) = bench(&[&args[..], &["--out", out.to_str().unwrap()]].concat());
        assert_eq!(code, 0, "--trace {trace} failed: {stderr}");
        let s = summary(&lines);
        assert_eq!(s["correct"], Value::Bool(true));
        let emitted: BTreeSet<(String, String)> = s["metrics"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v["unit"].as_str().unwrap().to_string()))
            .collect();
        assert_eq!(emitted, declared(section), "--trace {trace}");
    }
}

#[test]
fn tampered_golden_is_reported_as_a_failure() {
    let dir = scratch("golden");
    let (good, bad) = (dir.join("good"), dir.join("bad"));
    let name = "calib_sim_metrics.json";
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../results/golden")
        .join(name);
    let text = std::fs::read_to_string(golden).expect("committed golden");
    let tampered = text.replacen("\"value\": 5\n", "\"value\": 6\n", 1);
    assert_ne!(tampered, text, "tampering must change the golden");
    for (d, t) in [(&good, &text), (&bad, &tampered)] {
        std::fs::create_dir_all(d).unwrap();
        std::fs::write(d.join(name), t).unwrap();
    }
    let run = |golden: &Path| {
        let out = dir.join("out");
        bench(&[
            "--workload",
            "calib_fit",
            "--seed",
            "42",
            "--seconds",
            "0",
            "--trace",
            "1",
            "--golden-dir",
            golden.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
    };
    let (code, lines, stderr) = run(&good);
    assert_eq!(code, 0, "untampered copy must pass: {stderr}");
    assert_eq!(summary(&lines)["correct"], Value::Bool(true));

    let (code, lines, stderr) = run(&bad);
    assert_ne!(code, 0);
    let s = summary(&lines);
    assert_eq!(s["correct"], Value::Bool(false));
    assert_eq!(s["failed"].as_u64(), Some(1));
    assert!(stderr.contains("differs from"), "{stderr}");
}

#[test]
fn panicking_child_counts_as_failed_without_aborting() {
    let out = scratch("panic");
    let (code, lines, _) = bench(&[
        "--workload",
        "calib_fit",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--inject-panic",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_ne!(code, 0, "a failed run must exit non-zero");
    let s = summary(&lines);
    assert_eq!(s["correct"], Value::Bool(false));
    assert_eq!(s["failed"].as_u64(), Some(1));
    // A study and a set-up child in each of the three rounds: the run
    // went on past the first round's panic.
    assert_eq!(s["attempted"].as_u64(), Some(6), "{s:?}");
    assert!(s["metrics"]["wall_s"]["value"].as_f64().is_some(), "{s:?}");
}
