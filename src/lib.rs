#![warn(missing_docs)]

//! Umbrella crate for the CXL-ASIC reproduction workspace.
//!
//! Re-exports the member crates so examples and integration tests can use
//! a single dependency. See `README.md` for the workspace tour.

pub use cxl_alloc as alloc;
pub use cxl_calib as calib;
pub use cxl_core as core_api;
pub use cxl_cost as cost;
pub use cxl_ctl as ctl;
pub use cxl_fault as fault;
pub use cxl_heap as heap;
pub use cxl_kv as kv;
pub use cxl_llm as llm;
pub use cxl_mlc as mlc;
pub use cxl_obs as obs;
pub use cxl_perf as perf;
pub use cxl_pool as pool;
pub use cxl_serve as serve;
pub use cxl_sim as sim;
pub use cxl_spark as spark;
pub use cxl_stats as stats;
pub use cxl_tier as tier;
pub use cxl_topology as topology;
pub use cxl_ycsb as ycsb;

/// Convenience re-exports for downstream users.
///
/// ```
/// use cxl_repro::prelude::*;
///
/// let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
/// let bw = sys.max_bandwidth_gbps(SocketId(0), NodeId(0), AccessMix::read_only());
/// assert!(bw > 60.0);
/// ```
pub mod prelude {
    pub use cxl_core::CapacityConfig;
    pub use cxl_cost::{CostModel, CostModelParams, RevenueModel};
    pub use cxl_ctl::{Controller, ControllerConfig, Guardrails, KnobSpec, Plant};
    pub use cxl_fault::{FaultEvent, FaultKind, FaultSchedule};
    pub use cxl_perf::{AccessMix, FlowSpec, MemSystem, ModelParams};
    pub use cxl_sim::{Engine, SimTime};
    pub use cxl_stats::{Histogram, Summary};
    pub use cxl_tier::{AllocPolicy, MigrationMode, TierConfig, TierManager};
    pub use cxl_topology::{CxlDevice, NodeId, SncMode, SocketId, Topology, TopologyBuilder};
    pub use cxl_ycsb::Workload;
}
