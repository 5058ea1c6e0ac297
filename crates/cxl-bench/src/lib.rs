#![warn(missing_docs)]

//! Shared output helpers for the table/figure regeneration binaries.
//!
//! Every binary prints the paper artifact as aligned text; passing
//! `--json` switches to a machine-readable dump. Run them with, e.g.:
//!
//! ```text
//! cargo run --release -p cxl-bench --bin fig3
//! cargo run --release -p cxl-bench --bin fig5 -- --json
//! ```

use serde::Serialize;

/// True when `--json` was passed on the command line.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Builds the experiment runner for a regeneration binary.
///
/// Worker count precedence: `--jobs N` (or `--jobs=N`) on the command
/// line, then the `CXL_JOBS` environment variable, then the machine's
/// available parallelism. Output is bit-identical for any value.
///
/// A `--jobs` that is zero, not a number, or missing its value, and a
/// `CXL_JOBS` that is neither blank nor a positive integer, print an
/// error and exit with status 2.
pub fn runner_from_args() -> cxl_core::Runner {
    let runner = match jobs_arg(std::env::args().skip(1)) {
        Ok(Some(n)) => Ok(cxl_core::Runner::new(n)),
        Ok(None) => cxl_core::Runner::try_from_env(),
        Err(e) => Err(e),
    };
    runner.unwrap_or_else(|e| usage_error(&e))
}

/// Prints `error: {msg}` and exits with status 2, the usage error.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The value of the first `name V` / `name=V` in `args`, `None` when
/// the flag is absent. A missing or empty value, or one that starts
/// with `--` (the next flag), is an error naming the flag.
fn flag_value(
    mut args: impl Iterator<Item = String>,
    name: &str,
) -> Result<Option<String>, String> {
    let inline = format!("{name}=");
    while let Some(a) = args.next() {
        let v = if a == name {
            args.next().ok_or(format!("{name} needs a value"))?
        } else if let Some(v) = a.strip_prefix(&inline) {
            v.to_string()
        } else {
            continue;
        };
        if v.is_empty() || v.starts_with("--") {
            return Err(format!("{name} needs a value, got {v:?}"));
        }
        return Ok(Some(v));
    }
    Ok(None)
}

/// The worker count from the first `--jobs N` / `--jobs=N` in `args`,
/// `None` when the flag is absent.
fn jobs_arg(args: impl Iterator<Item = String>) -> Result<Option<usize>, String> {
    flag_value(args, "--jobs")?
        .map(|v| cxl_core::runner::parse_jobs("--jobs", &v))
        .transpose()
}

/// Destination of the metrics export, from `--metrics <path>`,
/// `--metrics=<path>`, or the `CXL_METRICS` environment variable (flag
/// wins). `None` disables metrics collection entirely.
///
/// A `--metrics` with a missing or empty path, or with a path that
/// starts with `--`, prints an error and exits with status 2.
pub fn metrics_path() -> Option<std::path::PathBuf> {
    match flag_value(std::env::args().skip(1), "--metrics") {
        Ok(Some(p)) => Some(p.into()),
        Ok(None) => std::env::var("CXL_METRICS")
            .ok()
            .filter(|v| !v.trim().is_empty())
            .map(Into::into),
        Err(e) => usage_error(&e),
    }
}

/// Enables metrics collection when a destination is configured and
/// exports the registry when dropped.
///
/// Call at the top of every regeneration binary's `main`:
///
/// ```no_run
/// let _metrics = cxl_bench::metrics_guard();
/// ```
///
/// With no `--metrics`/`CXL_METRICS`, collection stays disabled and the
/// instrumentation throughout the simulation crates remains a no-op.
#[must_use = "the guard exports metrics when dropped"]
pub fn metrics_guard() -> MetricsGuard {
    let path = metrics_path();
    if path.is_some() {
        cxl_obs::enable();
    }
    MetricsGuard { path }
}

/// RAII handle returned by [`metrics_guard`]; writes the JSON export on
/// drop, and exits the process with status 1 if the write fails.
#[derive(Debug)]
pub struct MetricsGuard {
    path: Option<std::path::PathBuf>,
}

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let json = cxl_obs::global().export_json();
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("# metrics written to {}", path.display()),
            Err(e) => {
                eprintln!("error: failed to write metrics to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// True when `--chart` was passed on the command line.
pub fn chart_mode() -> bool {
    std::env::args().any(|a| a == "--chart")
}

/// Renders a figure either as an ASCII chart (with `--chart`) or as its
/// plain `x y` listing.
pub fn figure_text(fig: &cxl_stats::report::Figure) -> String {
    if chart_mode() {
        cxl_stats::chart::render_chart(fig, 72, 20)
    } else {
        fig.render()
    }
}

/// Prints a serializable report either as JSON (with `--json`) or via
/// the provided text renderer.
pub fn emit<T: Serialize>(value: &T, text: impl FnOnce() -> String) {
    if json_mode() {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("report serializes")
        );
    } else {
        println!("{}", text());
    }
}

/// Formats a `paper vs measured` comparison line for the shape summary
/// each binary appends.
pub fn shape_line(what: &str, paper: &str, measured: impl std::fmt::Display) -> String {
    format!("  {what:<58} paper: {paper:<18} measured: {measured}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_line_contains_fields() {
        let l = shape_line("MMEM idle latency", "97 ns", "97.0 ns");
        assert!(l.contains("97 ns"));
        assert!(l.contains("measured"));
    }
}
