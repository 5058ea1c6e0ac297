#![warn(missing_docs)]

//! Calibrated analytic performance model of the paper's memory system.
//!
//! The paper measures four access "distances" — local DDR (MMEM), remote
//! socket DDR (MMEM-r), local CXL, remote CXL — under varied read:write
//! mixes with Intel MLC (§3). All higher-level experiments (KeyDB, Spark,
//! LLM inference) are downstream of exactly those loaded-latency /
//! bandwidth-contention curves, so this crate models the memory system as
//! a set of shared *resources* (DDR channel groups, PCIe link directions,
//! UPI link directions, posted-write credit pools, the remote snoop
//! filter) traversed by *flows* (an accessing socket, a target NUMA node,
//! a read:write mix, an offered byte rate).
//!
//! A max-min water-filling solver computes the achieved bandwidth of
//! concurrently contending flows, and per-resource queueing-delay curves
//! (flat until a knee at 60–83 % utilization, then super-linear — §3.2)
//! produce the loaded latency.
//!
//! Calibration targets (all from §3.2–§3.4 of the paper) are the
//! defaults of [`ModelParams`] and are asserted by this crate's tests:
//!
//! * MMEM: 97 ns idle, ~67 GB/s read peak (87 % of 76.8 GB/s), 54.6 GB/s
//!   write-only, knee at 75–83 % shifting left with writes.
//! * MMEM-r: 130 ns read idle, 71.77 ns NT-write idle, read peak close to
//!   local, bandwidth collapsing as writes are added, write-only lowest.
//! * CXL: 250.42 ns idle, 56.7 GB/s peak at a 2:1 mix, read-only lower
//!   (PCIe per-direction limit), 73.6 % link efficiency.
//! * CXL-r: 485 ns idle, total bandwidth clamped near 20.4 GB/s by the
//!   CPU's Remote Snoop Filter while UPI stays below 30 % utilized.

mod curve;
mod mix;
mod params;
mod system;

pub use mix::{AccessMix, Pattern};
pub use params::{ModelParams, SSD_BW_GBPS, SSD_READ_LATENCY_NS};
pub use system::{
    solve_cache_reset, Distance, FlowOutcome, FlowSpec, LatencyBreakdown, MemSystem, PerfError,
    ResourceKind, SolveResult,
};
