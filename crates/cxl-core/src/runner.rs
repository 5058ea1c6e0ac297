//! Deterministic parallel execution of experiment cells.
//!
//! Every study in [`crate::experiments`] is a grid of independent cells
//! (configuration × workload, policy × intensity, …). This module runs
//! such grids on a bounded worker pool while keeping the output
//! **bit-identical** to a serial run:
//!
//! * results are written back by cell index, so completion order never
//!   reorders a study;
//! * cells that consume randomness receive a seed derived from the root
//!   seed and a stable cell label via [`cxl_stats::rng::derive_seed`],
//!   never from shared generator state, so scheduling cannot perturb any
//!   random stream.
//!
//! The worker count comes from [`Runner::try_from_env`]: the `CXL_JOBS`
//! environment variable if set, otherwise the machine's available
//! parallelism. `Runner::new(1)` degenerates to a plain in-place loop
//! with no threads spawned at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cxl_stats::rng::derive_seed;

/// Environment variable bounding the worker pool.
pub const JOBS_ENV: &str = "CXL_JOBS";

/// Parses the worker count `source` (`--jobs` or [`JOBS_ENV`]) gave:
/// a positive integer, or an error naming `source`.
pub fn parse_jobs(source: &str, v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{source} expects a positive integer, got {v:?}")),
    }
}

/// A bounded worker pool for experiment cells.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    jobs: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Runner {
    /// A runner with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Runner { jobs: jobs.max(1) }
    }

    /// A single-worker runner: cells run in a plain loop on the calling
    /// thread.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// The runner `CXL_JOBS` asks for: that many workers, or the
    /// machine's available parallelism when it is unset or blank.
    ///
    /// # Errors
    ///
    /// A `CXL_JOBS` that is anything but blank or a positive integer
    /// (see [`parse_jobs`]).
    pub fn try_from_env() -> Result<Self, String> {
        let v = match std::env::var(JOBS_ENV) {
            Ok(v) => v,
            Err(std::env::VarError::NotPresent) => String::new(),
            Err(std::env::VarError::NotUnicode(v)) => v.to_string_lossy().into_owned(),
        };
        if v.trim().is_empty() {
            let n = std::thread::available_parallelism().map_or(1, |n| n.get());
            return Ok(Runner::new(n));
        }
        parse_jobs(JOBS_ENV, &v).map(Runner::new)
    }

    /// [`Runner::try_from_env`].
    ///
    /// # Panics
    ///
    /// Panics with its error on a malformed `CXL_JOBS`.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` on the pool, preserving input order.
    ///
    /// Workers claim cells from a shared counter (dynamic scheduling, so
    /// an expensive cell does not stall the tail of the grid) and write
    /// results into the slot of the cell they claimed. A panic in any
    /// cell propagates to the caller.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .map(|item| {
                    cxl_obs::counter_add("runner/cells", 1);
                    let _cell = cxl_obs::span("runner/cell_wall_ns");
                    f(item)
                })
                .collect();
        }

        let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let in_flight = AtomicUsize::new(0);
        let f = &f;
        // Thread-scoped metric registries don't cross thread boundaries
        // on their own; carry the caller's innermost scope into every
        // worker so cells record where the caller expects.
        let obs = cxl_obs::current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _obs_scope = obs.clone().map(cxl_obs::scope);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = work[i]
                            .lock()
                            .expect("work slot poisoned")
                            .take()
                            .expect("cell claimed twice");
                        let busy = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                        cxl_obs::wall_counter_max("runner/in_flight_max", busy as u64);
                        cxl_obs::counter_add("runner/cells", 1);
                        let out = {
                            let _cell = cxl_obs::span("runner/cell_wall_ns");
                            f(item)
                        };
                        in_flight.fetch_sub(1, Ordering::Relaxed);
                        *slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("cell produced no result")
            })
            .collect()
    }

    /// Like [`Runner::map`], but hands each cell a seed derived from
    /// `root_seed` and the cell's label.
    ///
    /// The label — not the scheduling order — keys the derivation, so a
    /// cell's random stream is a pure function of `(root_seed, label)`.
    /// Cells that must share a stream by experimental design (paired
    /// comparisons over one workload trace) simply share a label.
    pub fn map_seeded<I, T, F>(&self, root_seed: u64, items: Vec<(String, I)>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I, u64) -> T + Sync,
    {
        let cells: Vec<(I, u64)> = items
            .into_iter()
            .map(|(label, item)| {
                let seed = derive_seed(root_seed, &label);
                (item, seed)
            })
            .collect();
        self.map(cells, |(item, seed)| f(item, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let r = Runner::new(8);
        let out = r.map((0..100).collect(), |i: usize| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let work = |i: u64| {
            // A cell with some arithmetic so threads interleave.
            (0..1000u64).fold(i, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        let serial = Runner::serial().map((0..64).collect(), work);
        let parallel = Runner::new(8).map((0..64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn seeds_depend_on_label_not_schedule() {
        let items = |n: usize| (0..n).map(|i| (format!("cell/{i}"), i)).collect::<Vec<_>>();
        let serial = Runner::serial().map_seeded(42, items(32), |_, seed| seed);
        let parallel = Runner::new(8).map_seeded(42, items(32), |_, seed| seed);
        assert_eq!(serial, parallel);
        // Distinct labels get distinct seeds.
        let mut sorted = serial.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), serial.len());
    }

    #[test]
    fn jobs_clamps_to_one() {
        assert_eq!(Runner::new(0).jobs(), 1);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = Runner::new(4).map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
