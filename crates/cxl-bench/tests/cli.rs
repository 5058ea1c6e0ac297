//! Command-line failure modes of the regeneration binaries: a bad
//! `--jobs` or `CXL_JOBS`, a `--metrics` without a path, or an
//! unwritable `--metrics` path must exit non-zero with a message
//! instead of falling back silently.

use std::process::{Command, Output};

/// Runs fig3 with `args` in a scratch directory, with `CXL_METRICS`
/// unset and `CXL_JOBS` set to `cxl_jobs` (unset for `None`).
fn fig3(args: &[&str], cxl_jobs: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig3"));
    cmd.args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env_remove("CXL_METRICS");
    match cxl_jobs {
        Some(v) => cmd.env("CXL_JOBS", v),
        None => cmd.env_remove("CXL_JOBS"),
    };
    cmd.output().expect("fig3 runs")
}

/// Asserts that `out` is a usage error (status 2, no study output)
/// whose message names `what`.
fn assert_usage_error(out: &Output, what: &str, case: &str) {
    assert_eq!(out.status.code(), Some(2), "{case}: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(what), "{case}: stderr {stderr:?}");
    assert!(out.stdout.is_empty(), "{case}: study ran anyway");
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
        assert_usage_error(&fig3(args, None), "--jobs", &format!("{args:?}"));
    }
}

#[test]
fn bad_cxl_jobs_values_exit_with_usage_status() {
    for v in ["0", "abc", "-2", "1.5", " 2"] {
        let case = format!("CXL_JOBS={v:?}");
        assert_usage_error(&fig3(&[], Some(v)), "CXL_JOBS", &case);
    }
    // Blank means the machine's parallelism, and `--jobs` wins over
    // the variable.
    for (args, v) in [(&[][..], " "), (&["--jobs", "1"], "abc")] {
        let out = fig3(args, Some(v));
        assert!(
            out.status.success(),
            "{args:?} CXL_JOBS={v:?}: {:?}",
            out.status
        );
    }
}

#[test]
fn metrics_without_a_path_exits_with_usage_status() {
    for args in [
        &["--jobs", "1", "--metrics"][..],
        &["--jobs", "1", "--metrics", ""],
        &["--jobs", "1", "--metrics="],
        &["--jobs", "1", "--metrics", "--json"],
        &["--metrics", "--jobs", "1"],
    ] {
        assert_usage_error(&fig3(args, None), "--metrics", &format!("{args:?}"));
    }
}

#[test]
fn unwritable_metrics_path_fails_the_run() {
    let out = fig3(
        &["--jobs", "1", "--metrics", "/nonexistent-dir/m.json"],
        None,
    );
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to write metrics"), "{stderr:?}");
}

#[test]
fn valid_metrics_path_is_written() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-fig3-metrics.json");
    let _ = std::fs::remove_file(&path);
    let arg = path.to_str().expect("utf-8 path");
    let out = fig3(&["--jobs", "1", "--metrics", arg], None);
    assert!(out.status.success(), "{:?}", out.status);
    let json = std::fs::read_to_string(&path).expect("metrics written");
    assert!(json.contains("cxl-obs/v1"), "unexpected export: {json}");
}
