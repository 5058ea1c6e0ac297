#![warn(missing_docs)]

//! A KeyDB-like key-value store over tiered memory (§4.1).
//!
//! KeyDB extends Redis with multiple server threads running the event
//! loop and a FLASH mode that spills data to disk (RocksDB in the real
//! system). This simulation keeps the pieces that matter for the paper's
//! capacity study:
//!
//! * a page-backed value heap placed by a [`cxl_tier::TierManager`]
//!   (bind / N:M interleave / hot-promote policies from Table 1),
//! * a `maxmemory` limit with LRU (CLOCK second-chance) caching of hot
//!   pages in memory and cold pages on SSD (the `MMEM-SSD-x` configs),
//! * a closed-loop YCSB client and a multi-threaded server modeled on
//!   the `cxl-sim` virtual clock,
//! * per-operation service times combining a CPU component with
//!   dependent memory accesses priced by the `cxl-perf` model under the
//!   measured traffic (so bandwidth contention and migration churn feed
//!   back into op latency).

pub mod store;

pub use store::{EvictionPolicy, KvConfig, KvStore, MemProfile, RunResult, VALUE_SIZE};
