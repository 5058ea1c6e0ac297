#![warn(missing_docs)]

//! OS-level tiered memory management for the CXL reproduction.
//!
//! This crate reimplements, at page granularity on the simulator's
//! virtual clock, the Linux mechanisms the paper evaluates (§2.3):
//!
//! * **Allocation policies** — node binding (`numactl`-style), preferred
//!   node, and the *N:M interleave* patch that directs N pages to
//!   top-tier (DRAM) nodes and M pages to lower-tier (CXL) nodes
//!   (`vm.numa_tier_interleave`).
//! * **NUMA balancing** — periodic page-table scanning installs hint
//!   faults; a fault on a slow-tier page promotes recently used (MRU)
//!   pages to DRAM.
//! * **Hot page selection** — the v6.1 kernel patch: a promotion rate
//!   limit (`numa_balancing_promote_rate_limit_MBps`) enforced with a
//!   token bucket, plus automatic hot-threshold adjustment to match the
//!   observed candidate rate to the limit.
//! * **Demotion** — when top-tier occupancy crosses a watermark, cold
//!   pages (CLOCK second-chance order) demote to CXL.
//! * **SSD spill** — an unbounded swap tier for the `MMEM-SSD-x`
//!   configurations of Table 1 and Spark shuffle spill.
//!
//! The manager also aggregates per-epoch traffic (application reads and
//! writes plus migration copies) into `cxl-perf` [`cxl_perf::FlowSpec`]s
//! so applications can price memory accesses under contention;
//! [`PricedTier`] does that pricing once per epoch for every application
//! that reads latencies from the model.

pub mod error;
pub mod manager;
pub mod migration;
pub mod page;
pub mod policy;
pub mod priced;
pub mod stats;
pub mod trace;
pub mod traffic;

pub use error::TierError;
pub use manager::{AccessOutcome, EvacuationReport, OutOfMemory, Rw, TierConfig, TierManager};
pub use migration::{BandwidthAwareConfig, HotPageConfig, MigrationMode, NumaBalancingConfig};
pub use page::{Location, PageId};
pub use policy::AllocPolicy;
pub use priced::PricedTier;
pub use stats::{TierSnapshot, TierStats};
pub use trace::{TierEvent, TraceRing, TracedEvent};
pub use traffic::TrafficEpoch;
