#![warn(missing_docs)]

//! Simulation-wide observability for the CXL reproduction.
//!
//! The paper's conclusions hang on per-tier traffic shape — where pages
//! land, how often they migrate, where each experiment spends its
//! latency budget. End-of-run aggregates hide placement bugs (a
//! demotion landing on remote-socket CXL at 485 ns while a local node
//! at 250 ns has room is invisible until a figure looks wrong), so this
//! crate gives every layer a shared metrics spine to record into and
//! every test a registry to assert against.
//!
//! # Model
//!
//! A [`Registry`] holds named metrics of four shapes:
//!
//! * **counter** — monotonically increasing `u64` (`tier/promotions`),
//! * **max** — high-water mark (`sim/heap_depth_max`),
//! * **gauge** — last-written `f64` (`tier/dram_bw_util`),
//! * **histogram** — [`cxl_stats::Histogram`] of `u64` samples
//!   (`kv/access_ns/cxl`).
//!
//! Every metric carries a [`Class`]:
//!
//! * [`Class::Sim`] — derived from simulated time or simulated state.
//!   Counter adds and histogram-bucket increments are commutative, so
//!   aggregate values are **bit-identical across worker counts** when
//!   the same cells run; CI diffs the `sim` export section between
//!   `--jobs 1` and `--jobs 8`.
//! * [`Class::Wall`] — wall clock or scheduling dependent (cell
//!   runtimes, worker occupancy), plus host-side effort counters such
//!   as `perf/solves`. Excluded from determinism comparisons.
//!
//! # Dispatch and the zero-cost no-op mode
//!
//! Instrumented crates call the free functions ([`counter_add`],
//! [`counter_max`], [`merge`], [`span`], …). Each call resolves its
//! target registry:
//!
//! 1. a thread-scoped registry installed with [`scope`], if any —
//!    always recording (tests use this for isolation; the experiment
//!    runner propagates the caller's scope into its workers), else
//! 2. the process [`global`] registry, only if [`enable`]d.
//!
//! With no scope installed and the global registry disabled (the
//! default), every recording call is a thread-local read plus one
//! relaxed atomic load — the hot layers stay instrumented at ~zero
//! cost until a `--metrics` run or a test turns collection on.
//!
//! # Owners hand over totals once
//!
//! A count a layer keeps in its own state is not recorded per event.
//! The owner hands its totals to the registry current on its thread
//! once, when it finishes: the tier manager (`TierStats`, drain
//! durations and occupancy samples), the pool manager, the KV store's
//! per-access latencies, the control-plane controller and the event
//! engine when they drop; the serving, heap and pooling runs when they
//! build their reports; and a KV run by [`merge`]-ing its latency
//! histogram. A hand-off checks [`active`] at most once, does nothing
//! while the thread is panicking, and adds exactly the keys and values
//! the per-event calls would have, so exports do not depend on which
//! way a count arrived. Per-event calls remain only where nothing owns
//! the count: fault injections, the runner's cells, two rare KV
//! counters, the YCSB op counts (per block of generated ops) and the
//! solver's wall-clock effort counters (per solve).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! let reg = Arc::new(cxl_obs::Registry::new());
//! {
//!     let _guard = cxl_obs::scope(reg.clone());
//!     cxl_obs::counter_add("tier/promotions", 3);
//!     cxl_obs::counter_max("sim/heap_depth_max", 12);
//! }
//! assert_eq!(reg.counter("tier/promotions"), Some(3));
//! let json = reg.export_json();
//! assert!(json.contains("tier/promotions"));
//! ```

mod registry;
mod span;

pub use registry::{Class, Registry};
pub use span::Span;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static SCOPED: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide registry (disabled until [`enable`] is called).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Turns on recording into the [`global`] registry.
pub fn enable() {
    GLOBAL_ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording into the [`global`] registry back off.
pub fn disable() {
    GLOBAL_ENABLED.store(false, Ordering::Relaxed);
}

/// True when the [`global`] registry is recording.
fn enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// True when a recording call on this thread would reach any registry.
///
/// Gate expensive label construction (`format!`) on this.
pub fn active() -> bool {
    enabled() || SCOPED.with(|s| !s.borrow().is_empty())
}

/// The innermost thread-scoped registry, if one is installed.
pub fn current() -> Option<Arc<Registry>> {
    SCOPED.with(|s| s.borrow().last().cloned())
}

/// Guard returned by [`scope`]; uninstalls the registry on drop.
pub struct ScopeGuard {
    _private: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Installs `registry` as this thread's recording target until the
/// returned guard drops. Scopes nest; the innermost wins.
pub fn scope(registry: Arc<Registry>) -> ScopeGuard {
    SCOPED.with(|s| s.borrow_mut().push(registry));
    ScopeGuard { _private: () }
}

fn dispatch(f: impl FnOnce(&Registry)) {
    SCOPED.with(|s| {
        if let Some(reg) = s.borrow().last() {
            f(reg);
        } else if enabled() {
            f(global());
        }
    });
}

/// Adds `n` to a deterministic ([`Class::Sim`]) counter.
pub fn counter_add(name: &str, n: u64) {
    dispatch(|r| r.counter_add(Class::Sim, name, n));
}

/// Adds `n` to a scheduling-dependent ([`Class::Wall`]) counter.
pub fn wall_counter_add(name: &str, n: u64) {
    dispatch(|r| r.counter_add(Class::Wall, name, n));
}

/// Raises a deterministic high-water mark to at least `v`.
pub fn counter_max(name: &str, v: u64) {
    dispatch(|r| r.counter_max(Class::Sim, name, v));
}

/// Raises a scheduling-dependent high-water mark to at least `v`.
pub fn wall_counter_max(name: &str, v: u64) {
    dispatch(|r| r.counter_max(Class::Wall, name, v));
}

/// Sets a deterministic gauge. Only meaningful from a single logical
/// stream — parallel writers make the final value scheduling-dependent.
pub fn gauge_set(name: &str, v: f64) {
    dispatch(|r| r.gauge_set(Class::Sim, name, v));
}

/// Records one sample into a scheduling-dependent histogram.
fn wall_record(name: &str, value: u64) {
    dispatch(|r| r.record(Class::Wall, name, value));
}

/// Adds every sample of `h` to a deterministic histogram, as one
/// [`Registry::record`] per sample would: how an owner that keeps its
/// own histogram hands it over. An empty `h` registers nothing.
pub fn merge(name: &str, h: &cxl_stats::Histogram) {
    dispatch(|r| r.merge(Class::Sim, name, h));
}

/// Starts a wall-clock span; its elapsed nanoseconds are recorded into
/// the [`Class::Wall`] histogram `name` when the returned guard drops.
/// A no-op (no clock read) when nothing is [`active`].
pub fn span(name: &str) -> Span {
    Span::start(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share this lock so enable()/disable() from one
    // test cannot race another's assertions.
    static GLOBAL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_global_records_nothing() {
        let _l = GLOBAL_LOCK.lock().unwrap();
        disable();
        counter_add("test/disabled_counter", 5);
        assert_eq!(global().counter("test/disabled_counter"), None);
    }

    #[test]
    fn enabled_global_records() {
        let _l = GLOBAL_LOCK.lock().unwrap();
        enable();
        counter_add("test/enabled_counter", 2);
        counter_add("test/enabled_counter", 3);
        disable();
        assert_eq!(global().counter("test/enabled_counter"), Some(5));
    }

    #[test]
    fn scoped_registry_shadows_global() {
        let reg = Arc::new(Registry::new());
        {
            let _g = scope(reg.clone());
            assert!(active());
            counter_add("test/scoped", 7);
            merge("test/scoped_hist", &{
                let mut h = cxl_stats::Histogram::new();
                h.record(42);
                h
            });
        }
        assert_eq!(reg.counter("test/scoped"), Some(7));
        assert_eq!(reg.histogram("test/scoped_hist").unwrap().count(), 1);
        // Nothing leaked to the global registry.
        assert_eq!(global().counter("test/scoped"), None);
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        let _a = scope(outer.clone());
        {
            let _b = scope(inner.clone());
            counter_add("test/nested", 1);
        }
        counter_add("test/nested", 10);
        assert_eq!(inner.counter("test/nested"), Some(1));
        assert_eq!(outer.counter("test/nested"), Some(10));
    }

    #[test]
    fn span_records_into_wall_histogram() {
        let reg = Arc::new(Registry::new());
        {
            let _g = scope(reg.clone());
            let _s = span("test/span_ns");
        }
        let h = reg.histogram("test/span_ns").expect("span recorded");
        assert_eq!(h.count(), 1);
        // Wall metrics stay out of the deterministic export.
        assert!(!reg.export_sim_json().contains("test/span_ns"));
        assert!(reg.export_json().contains("test/span_ns"));
    }

    #[test]
    fn span_without_active_registry_is_noop() {
        let _l = GLOBAL_LOCK.lock().unwrap();
        disable();
        let s = span("test/noop_span");
        drop(s);
        assert!(global().histogram("test/noop_span").is_none());
    }
}
