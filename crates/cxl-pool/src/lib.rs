#![warn(missing_docs)]

//! Dynamic multi-host CXL memory pooling (§7.1 projection).
//!
//! The paper's cost argument (§6–§7) sizes a *static* pool with a
//! Monte-Carlo quantile study (`cxl-cost::pooling`): assume perfect
//! liquidity, install the p99 of aggregate demand, split the saving.
//! This crate supplies the missing dynamics: a discrete-event control
//! plane in which a pool manager owns switch-attached expander capacity
//! and N simulated hosts lease it as their demand moves.
//!
//! - [`PoolManager`] arbitrates a slab-granular address space
//!   ([`PoolAddressSpace`]): grants what is free, queues shortfalls
//!   FIFO, revokes capacity above fair share from the largest holders,
//!   and models fragmentation/compaction explicitly.
//! - [`DemandProcess`] drives each host with bursty, exponentially
//!   distributed demand derived from the `cxl-cost` revenue geometry
//!   (vCPUs × GiB/vCPU).
//! - [`sim::run`] wires it together on `cxl-sim`: leased capacity
//!   appears to each host's `cxl-tier` manager as a far NUMA node
//!   behind a CXL 2.0 switch (latency from `cxl-perf`, including the
//!   switch hop), revocations drain through the tier migration path,
//!   and a `cxl-fault` expander failure mass-revokes the whole pool
//!   with graceful degradation to local DRAM + SSD.
//!
//! The headline comparison — dynamic pooling installs less memory than
//! per-host static provisioning at the same SLO — is exercised by the
//! `pool_dynamics` benchmark in `cxl-bench`.

pub mod address;
pub mod demand;
pub mod fleet;
mod host;
pub mod lease;
pub mod manager;
pub mod sim;

pub use address::{Extent, PoolAddressSpace};
pub use demand::{DemandConfig, DemandProcess};
pub use fleet::{FleetConfig, FleetHost, FleetPlan, FleetReport, HostSpec, WorkloadClass};
pub use host::SLO_PERCENTILE;
pub use lease::{HostId, Lease, LeaseId};
pub use manager::{Grant, GrantOutcome, PoolManager, PoolStats, RequestResponse, RevocationNotice};
pub use sim::{run, PoolSimConfig, PoolSimReport, DRAM_NODE, POOL_NODE};
