#![warn(missing_docs)]

//! Statistics utilities shared across the CXL reproduction workspace.
//!
//! This crate bundles the measurement machinery the paper's experiments
//! rely on:
//!
//! * [`Histogram`] — an HDR-style log-bucketed latency histogram used to
//!   report tail latencies and CDFs (Figs 5(b), 5(c), 8(a)).
//! * [`dist`] — YCSB-compatible key choosers (Zipfian, scrambled Zipfian,
//!   latest, uniform) used by the KeyDB experiments (§4.1, §4.3).
//! * [`Summary`] — streaming mean/variance/min/max accumulator, and
//!   [`Ewma`], the moving average behind the serving autoscaler and the
//!   fleet lend controllers.
//! * [`report`] — plain-text table and series rendering for the benchmark
//!   binaries that regenerate the paper's tables and figures.
//! * [`chart`] — ASCII line charts so figure shapes render in a terminal.
//! * [`quantile`] — the audited nearest-rank quantile shared by every
//!   sizing/SLO computation (one rank convention, no per-crate copies).
//! * [`rng`] — deterministic seed derivation so every experiment is
//!   reproducible from a single root seed.
//! * [`select`] — shared argmin/argmax scans with a pinned first-wins
//!   tie-break so deterministic simulations agree on "the best candidate".

pub mod chart;
pub mod dist;
pub mod histogram;
pub mod quantile;
pub mod report;
pub mod rng;
pub mod select;
pub mod summary;

pub use dist::{Exponential, KeyChooser, Latest, Normal, ScrambledZipfian, Uniform, Zipfian};
pub use histogram::Histogram;
pub use quantile::nearest_rank;
pub use select::{argmax_by, argmin_by};
pub use summary::{Ewma, Summary};
