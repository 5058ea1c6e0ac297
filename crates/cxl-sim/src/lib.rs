#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine.
//!
//! The application experiments (KeyDB/YCSB, Spark shuffle, LLM serving)
//! run on a virtual nanosecond clock: requests arrive, worker threads
//! serve them with service times derived from the `cxl-perf` model, and
//! the engine advances time event by event. Everything is deterministic:
//! ties are broken by insertion order, and no wall-clock or OS
//! randomness is involved.
//!
//! The engine keeps its own event counts and hands them to `cxl-obs`
//! once, when it drops or [`Engine::into_state`] returns
//! (`sim/events_executed`, `sim/events_cancelled`, `sim/heap_depth_max`).
//!
//! # Examples
//!
//! ```
//! use cxl_sim::{Engine, SimTime};
//!
//! let mut engine: Engine<u32> = Engine::new(0);
//! engine.schedule_after(SimTime::from_ns(10), |e| *e.state_mut() += 1);
//! engine.schedule_after(SimTime::from_ns(5), |e| *e.state_mut() += 10);
//! engine.run();
//! assert_eq!(*engine.state(), 11);
//! assert_eq!(engine.now(), SimTime::from_ns(10));
//! ```

pub mod engine;
pub mod queueing;
pub mod ratelimit;
pub mod time;

pub use engine::{Engine, EventId};
pub use queueing::MultiServer;
pub use ratelimit::TokenBucket;
pub use time::SimTime;
