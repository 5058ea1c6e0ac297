//! One runner per paper table/figure.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`latency`] | Fig. 3 (loaded latency per distance) and Fig. 4 (per-mix distance comparison, random vs sequential) |
//! | [`keydb`] | Fig. 5 (YCSB throughput/tail latency across Table 1 configs) |
//! | [`spark`] | Fig. 7 (TPC-H normalized execution time, shuffle share) |
//! | [`vm`] | Fig. 8 (KeyDB on CXL vs MMEM) and the §4.3 revenue analysis |
//! | [`llm`] | Fig. 10 (LLM serving rate, backend bandwidth, KV-cache bandwidth) |
//! | [`cost`] | Table 3 and the §6 worked example |
//! | [`processors`] | Table 2 |
//! | [`balancer`] | §5.3's insight operationalized: bandwidth-aware tiering vs capacity-only tiering |
//! | [`colocation`] | Multi-tenant isolation: parking the bandwidth hog on CXL (§3.4) |
//! | [`slo`] | Open-loop tail-latency capacity per placement |
//! | [`faults`] | Graceful degradation: KeyDB across expander faults of rising severity |
//! | [`pool`] | §7.1 projection: dynamic multi-host pooling vs static per-host provisioning |
//! | [`fleet`] | ROADMAP item 2: multi-rack pooling over a rack/spine fabric with path-priced leases |
//! | [`autotune`] | Online adaptive control (`cxl-ctl`) vs every static config on a phased trace |
//! | [`serve`] | Open-loop multi-tenant serving (`cxl-serve`): adaptive leases vs static provisioning on a diurnal trace with a mid-run fault |
//! | [`heap`] | Managed-heap GC on tiered memory (`cxl-heap`): promotion storms vs storm-aware promotion and generational segregation |
//! | [`calib`] | ROADMAP item 5: calibration & validation — fit the model to every registered measurement set (`cxl-calib`), gate on residual tolerances |

pub mod autotune;
pub mod balancer;
pub mod calib;
pub mod colocation;
pub mod cost;
pub mod faults;
pub mod fleet;
pub mod heap;
pub mod keydb;
pub mod latency;
pub mod llm;
pub mod pool;
pub mod processors;
pub mod serve;
pub mod slo;
pub mod spark;
pub mod vm;
