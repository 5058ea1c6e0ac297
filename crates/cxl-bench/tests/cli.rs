//! Command-line failure modes of the regeneration binaries: a bad
//! `--jobs` or an unwritable `--metrics` path must exit non-zero with a
//! message instead of falling back silently.

use std::process::{Command, Output};

fn fig3(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(args)
        .env_remove("CXL_JOBS")
        .env_remove("CXL_METRICS")
        .output()
        .expect("fig3 runs")
}

#[test]
fn bad_jobs_values_exit_with_usage_status() {
    for args in [
        &["--jobs", "0"][..],
        &["--jobs", "abc"],
        &["--jobs"],
        &["--jobs=0"],
        &["--jobs", "--json"],
    ] {
        let out = fig3(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--jobs"), "{args:?}: stderr {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?}: study ran anyway");
    }
}

#[test]
fn unwritable_metrics_path_fails_the_run() {
    let out = fig3(&["--jobs", "1", "--metrics", "/nonexistent-dir/m.json"]);
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to write metrics"), "{stderr:?}");
}

#[test]
fn valid_metrics_path_is_written() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-fig3-metrics.json");
    let _ = std::fs::remove_file(&path);
    let arg = path.to_str().expect("utf-8 path");
    let out = fig3(&["--jobs", "1", "--metrics", arg]);
    assert!(out.status.success(), "{:?}", out.status);
    let json = std::fs::read_to_string(&path).expect("metrics written");
    assert!(json.contains("cxl-obs/v1"), "unexpected export: {json}");
}
