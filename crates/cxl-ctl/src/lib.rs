//! # cxl-ctl — online adaptive control plane
//!
//! The paper's sweeps (interleave ratios in §4.2, promotion rate limits
//! in §4.4, pool provisioning in §5) find the best static configuration
//! *per workload* — but real services change phase. This crate closes
//! the loop online: a deterministic feedback controller that runs as
//! periodic ticks on the `cxl-sim` engine and re-tunes the system it
//! rides on.
//!
//! Two planes:
//!
//! * **Actuator plane** ([`KnobSpec`], [`Plant`]) — typed, ordered
//!   ladders of settings (N:M interleave, promotion-rate retunes, pool
//!   lease sizes) applied transactionally through a plant that may
//!   reject illegal actions.
//! * **Policy plane** ([`Controller`], [`ControllerConfig`],
//!   [`Guardrails`]) — a gradient-free hill climber probing one knob at
//!   a time with hysteresis and per-knob cooldowns, wrapped in
//!   guardrails: bounded actuation rate, automatic rollback on
//!   objective regression (plus an emergency path for collapses), and a
//!   post-actuation invariant check whose failures feed the CI-gated
//!   `ctl/guardrail_violations` counter.
//!
//! The controller's only input is the objective the caller measures
//! each tick; it keeps the last measurement window of it and nothing
//! else. Its counters go to the `cxl-obs` registry like every other
//! layer's.
//!
//! [`run_on_engine`] mounts the loop on an [`cxl_sim::Engine`] so
//! control ticks interleave deterministically with workload events and
//! fault injections — the whole closed loop is bit-identical across
//! `--jobs`.

#![warn(missing_docs)]

pub mod error;
pub mod harness;
pub mod knob;
pub mod policy;

pub use error::CtlError;
pub use harness::{run_on_engine, ControlLoop, TraceEntry};
pub use knob::{KnobSpec, Plant};
pub use policy::{Controller, ControllerConfig, Guardrails, TickOutcome};
