#![warn(missing_docs)]

//! Deterministic fault injection for the CXL reproduction.
//!
//! The paper's cost case rests on ASIC expanders being commodity parts;
//! commodity parts fail. This crate models the failure modes a CXL
//! memory deployment actually sees — a dead expander, a PCIe link that
//! retrains at a lower width, a marginal device running slow, rows of
//! backing DRAM mapped out — as [`FaultKind`] values that mutate a
//! [`Topology`]'s per-device [`cxl_topology::DeviceHealth`] overlay.
//!
//! Faults arrive through a [`FaultSchedule`]: an explicit list of
//! timestamped events, or a seeded draw ([`FaultSchedule::seeded`])
//! that is bit-identical for a given `(seed, horizon, node set)` no
//! matter how many worker threads the surrounding experiment uses.
//! [`install`] arms a schedule on a `cxl-sim` [`Engine`] so faults fire
//! at their simulated times; the handler reacts by evacuating pages
//! (`cxl_tier::TierManager::evacuate`) and re-solving the degraded
//! topology (`cxl_perf::MemSystem`), keeping the workload serving
//! instead of panicking.

use serde::{Deserialize, Serialize};

use cxl_sim::{Engine, EventId, SimTime};
use cxl_topology::{NodeId, Topology};
use rand::Rng;

/// Legal PCIe link widths a degraded link can retrain to.
const LINK_WIDTHS: [u32; 5] = [1, 2, 4, 8, 16];

/// A fault-injection failure: the fault references a node the topology
/// does not expose as a CXL expander, or carries nonsense parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The target node is not a CXL expander in this topology (DRAM
    /// nodes do not fail through this crate, and unknown ids are bugs).
    NotAnExpander(NodeId),
    /// A fault parameter is out of range; the message says which.
    InvalidFault(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::NotAnExpander(n) => {
                write!(f, "node {n:?} is not a CXL expander in this topology")
            }
            FaultError::InvalidFault(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// One injectable failure mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The expander stops responding entirely: capacity and bandwidth
    /// drop to zero and every resident page must evacuate.
    ExpanderOffline {
        /// The failing expander's NUMA node.
        node: NodeId,
    },
    /// The PCIe link retrains at a lower width (x16 -> x8 -> x4 ...):
    /// bandwidth shrinks proportionally, idle latency is unchanged.
    LinkDowngrade {
        /// The affected expander's NUMA node.
        node: NodeId,
        /// Retrained width; clamped to the nominal width at apply time.
        lanes: u32,
    },
    /// The device serves every access `factor`x slower (thermal
    /// throttling, a marginal controller, pathological refresh).
    LatencyInflation {
        /// The affected expander's NUMA node.
        node: NodeId,
        /// Multiplier on the controller's load-to-use latency (>= 1).
        factor: f64,
    },
    /// Part of the backing DRAM is mapped out (post-package repair,
    /// poisoned rows); `remaining` of the capacity survives.
    CapacityLoss {
        /// The affected expander's NUMA node.
        node: NodeId,
        /// Surviving capacity fraction in [0, 1].
        remaining: f64,
    },
}

impl FaultKind {
    /// The targeted node.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultKind::ExpanderOffline { node }
            | FaultKind::LinkDowngrade { node, .. }
            | FaultKind::LatencyInflation { node, .. }
            | FaultKind::CapacityLoss { node, .. } => node,
        }
    }

    /// Checks the fault's parameters are physically meaningful.
    pub fn validate(&self) -> Result<(), FaultError> {
        match *self {
            FaultKind::ExpanderOffline { .. } => Ok(()),
            FaultKind::LinkDowngrade { lanes, .. } => {
                if LINK_WIDTHS.contains(&lanes) {
                    Ok(())
                } else {
                    Err(FaultError::InvalidFault(format!(
                        "link width x{lanes} is not a PCIe width (expected one of x1/x2/x4/x8/x16)"
                    )))
                }
            }
            FaultKind::LatencyInflation { factor, .. } => {
                if factor.is_finite() && factor >= 1.0 {
                    Ok(())
                } else {
                    Err(FaultError::InvalidFault(format!(
                        "latency factor {factor} must be finite and >= 1"
                    )))
                }
            }
            FaultKind::CapacityLoss { remaining, .. } => {
                if remaining.is_finite() && (0.0..=1.0).contains(&remaining) {
                    Ok(())
                } else {
                    Err(FaultError::InvalidFault(format!(
                        "remaining capacity fraction {remaining} must lie in [0, 1]"
                    )))
                }
            }
        }
    }

    /// Applies the fault to `topo` by mutating the target device's
    /// health overlay. Validates first; a bad config is an error, not a
    /// panic, and leaves the topology untouched.
    pub fn apply(&self, topo: &mut Topology) -> Result<(), FaultError> {
        self.validate()?;
        let node = self.node();
        let dev = topo
            .cxl_device_mut(node)
            .ok_or(FaultError::NotAnExpander(node))?;
        match *self {
            FaultKind::ExpanderOffline { .. } => dev.health.online = false,
            FaultKind::LinkDowngrade { lanes, .. } => dev.health.lanes_override = Some(lanes),
            FaultKind::LatencyInflation { factor, .. } => dev.health.latency_factor = factor,
            FaultKind::CapacityLoss { remaining, .. } => dev.health.capacity_fraction = remaining,
        }
        cxl_obs::counter_add("fault/injected", 1);
        cxl_obs::counter_add(self.metric(), 1);
        Ok(())
    }

    /// Per-kind observability counter name.
    pub fn metric(&self) -> &'static str {
        match self {
            FaultKind::ExpanderOffline { .. } => "fault/expander_offline",
            FaultKind::LinkDowngrade { .. } => "fault/link_downgrade",
            FaultKind::LatencyInflation { .. } => "fault/latency_inflation",
            FaultKind::CapacityLoss { .. } => "fault/capacity_loss",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::ExpanderOffline { node } => write!(f, "node{} offline", node.0),
            FaultKind::LinkDowngrade { node, lanes } => {
                write!(f, "node{} link x{lanes}", node.0)
            }
            FaultKind::LatencyInflation { node, factor } => {
                write!(f, "node{} latency {factor}x", node.0)
            }
            FaultKind::CapacityLoss { node, remaining } => {
                write!(f, "node{} capacity {:.0}%", node.0, remaining * 100.0)
            }
        }
    }
}

/// A fault at a simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Injection time on the simulation clock.
    pub at: SimTime,
    /// What breaks.
    pub kind: FaultKind,
}

/// A time-ordered list of faults to inject into one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Builds a schedule, sorting events by time (stable: simultaneous
    /// faults keep their given order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self { events }
    }

    /// An empty schedule (the healthy baseline).
    pub fn none() -> Self {
        Self { events: Vec::new() }
    }

    /// Draws `n` faults uniformly over `(0, horizon]` and over the
    /// topology's expander nodes, mixing all four kinds. The draw is a
    /// pure function of `seed` and the arguments: two runs with the
    /// same inputs produce byte-identical schedules regardless of host
    /// thread count, so fault experiments stay reproducible under
    /// `--jobs N`.
    pub fn seeded(seed: u64, topo: &Topology, n: usize, horizon: SimTime) -> Self {
        let expanders: Vec<NodeId> = topo
            .nodes()
            .iter()
            .filter(|nd| nd.tier == cxl_topology::MemoryTier::CxlExpander)
            .map(|nd| nd.id)
            .collect();
        if expanders.is_empty() {
            return Self::none();
        }
        let mut rng = cxl_stats::rng::stream_rng(seed, "fault.schedule");
        let events = (0..n)
            .map(|_| {
                let node = expanders[rng.gen_range(0..expanders.len())];
                let at_ns = rng.gen_range(1..=horizon.as_ns().max(1));
                let kind = match rng.gen_range(0u32..4) {
                    0 => FaultKind::ExpanderOffline { node },
                    1 => FaultKind::LinkDowngrade {
                        node,
                        lanes: LINK_WIDTHS[rng.gen_range(0..LINK_WIDTHS.len() - 1)],
                    },
                    2 => FaultKind::LatencyInflation {
                        node,
                        factor: 1.0 + rng.gen_range(0.25f64..4.0),
                    },
                    _ => FaultKind::CapacityLoss {
                        node,
                        remaining: rng.gen_range(0.25f64..0.95),
                    },
                };
                FaultEvent {
                    at: SimTime::from_ns(at_ns),
                    kind,
                }
            })
            .collect();
        Self::new(events)
    }

    /// The events, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates every event's parameters against `topo` without
    /// applying anything — reject a bad schedule before the run, not
    /// 40 virtual minutes into it.
    pub fn validate(&self, topo: &Topology) -> Result<(), FaultError> {
        for ev in &self.events {
            ev.kind.validate()?;
            if topo.cxl_device(ev.kind.node()).is_none() {
                return Err(FaultError::NotAnExpander(ev.kind.node()));
            }
        }
        Ok(())
    }
}

/// Arms `schedule` on a simulation engine: each fault fires at its
/// simulated time and is handed to `on_fault` together with the engine,
/// so the handler can mutate state (apply the fault to its topology,
/// evacuate pages, re-solve). Returns the scheduled event ids, which
/// [`Engine::cancel`] accepts to disarm pending faults (each cancel
/// scans the engine's pending events).
///
/// Events at or before the engine's current time are clamped to fire
/// immediately rather than panicking the scheduler.
pub fn install<S: 'static>(
    engine: &mut Engine<S>,
    schedule: &FaultSchedule,
    on_fault: impl FnMut(&mut Engine<S>, &FaultEvent) + 'static,
) -> Vec<EventId> {
    let handler = std::rc::Rc::new(std::cell::RefCell::new(on_fault));
    schedule
        .events()
        .iter()
        .cloned()
        .map(|ev| {
            let handler = handler.clone();
            let at = ev.at.max(engine.now());
            engine.schedule_at(at, move |eng| {
                (handler.borrow_mut())(eng, &ev);
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_topology::SncMode;

    // Paper testbed, SNC disabled: 0,1 DRAM; 2,3 CXL.
    const CXL0: NodeId = NodeId(2);

    fn topo() -> Topology {
        Topology::paper_testbed(SncMode::Disabled)
    }

    #[test]
    fn offline_fault_zeroes_capacity() {
        let mut t = topo();
        let cap = |t: &Topology| t.nodes()[CXL0.0].capacity_gib;
        assert!(cap(&t) > 0);
        FaultKind::ExpanderOffline { node: CXL0 }
            .apply(&mut t)
            .unwrap();
        assert_eq!(cap(&t), 0);
        assert!(!t.cxl_device(CXL0).unwrap().health.online);
    }

    #[test]
    fn downgrade_and_inflation_mutate_health() {
        let mut t = topo();
        FaultKind::LinkDowngrade {
            node: CXL0,
            lanes: 8,
        }
        .apply(&mut t)
        .unwrap();
        FaultKind::LatencyInflation {
            node: CXL0,
            factor: 2.0,
        }
        .apply(&mut t)
        .unwrap();
        let dev = t.cxl_device(CXL0).unwrap();
        assert_eq!(dev.effective_lanes(), 8);
        assert_eq!(
            dev.effective_controller_latency_ns(),
            2.0 * dev.controller_latency_ns
        );
    }

    #[test]
    fn bad_configs_are_rejected_not_applied() {
        let mut t = topo();
        let bad = [
            FaultKind::LinkDowngrade {
                node: CXL0,
                lanes: 3,
            },
            FaultKind::LatencyInflation {
                node: CXL0,
                factor: 0.5,
            },
            FaultKind::CapacityLoss {
                node: CXL0,
                remaining: 1.5,
            },
        ];
        for fault in bad {
            let err = fault.apply(&mut t).expect_err("must reject");
            assert!(matches!(err, FaultError::InvalidFault(_)), "{err}");
        }
        // Nothing leaked into the topology.
        assert!(t.cxl_device(CXL0).unwrap().health.is_healthy());
        // DRAM nodes cannot fail through this crate.
        let err = FaultKind::ExpanderOffline { node: NodeId(0) }
            .apply(&mut t)
            .expect_err("DRAM is not an expander");
        assert_eq!(err, FaultError::NotAnExpander(NodeId(0)));
    }

    #[test]
    fn schedules_sort_and_validate() {
        let sched = FaultSchedule::new(vec![
            FaultEvent {
                at: SimTime::from_ms(20),
                kind: FaultKind::ExpanderOffline { node: CXL0 },
            },
            FaultEvent {
                at: SimTime::from_ms(5),
                kind: FaultKind::LinkDowngrade {
                    node: NodeId(3),
                    lanes: 4,
                },
            },
        ]);
        assert_eq!(sched.events()[0].at, SimTime::from_ms(5));
        sched.validate(&topo()).unwrap();

        let bad = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_ms(1),
            kind: FaultKind::ExpanderOffline { node: NodeId(17) },
        }]);
        assert_eq!(
            bad.validate(&topo()),
            Err(FaultError::NotAnExpander(NodeId(17)))
        );
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_valid() {
        let t = topo();
        let horizon = SimTime::from_secs(10);
        let a = FaultSchedule::seeded(42, &t, 16, horizon);
        let b = FaultSchedule::seeded(42, &t, 16, horizon);
        assert_eq!(a, b, "same seed must give the identical schedule");
        assert_eq!(a.events().len(), 16);
        a.validate(&t).unwrap();
        assert!(a
            .events()
            .iter()
            .all(|e| e.at <= horizon && e.at > SimTime::ZERO));
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));

        let c = FaultSchedule::seeded(43, &t, 16, horizon);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn install_fires_in_time_order_on_the_engine() {
        struct State {
            topo: Topology,
            seen: Vec<(SimTime, NodeId)>,
        }
        let mut engine = Engine::new(State {
            topo: topo(),
            seen: Vec::new(),
        });
        let sched = FaultSchedule::new(vec![
            FaultEvent {
                at: SimTime::from_ms(8),
                kind: FaultKind::ExpanderOffline { node: NodeId(3) },
            },
            FaultEvent {
                at: SimTime::from_ms(2),
                kind: FaultKind::LinkDowngrade {
                    node: CXL0,
                    lanes: 8,
                },
            },
        ]);
        install(&mut engine, &sched, |eng, ev| {
            let now = eng.now();
            let st = eng.state_mut();
            ev.kind.apply(&mut st.topo).unwrap();
            st.seen.push((now, ev.kind.node()));
        });
        engine.run();
        let st = engine.state();
        assert_eq!(
            st.seen,
            vec![
                (SimTime::from_ms(2), CXL0),
                (SimTime::from_ms(8), NodeId(3)),
            ]
        );
        assert_eq!(st.topo.cxl_device(CXL0).unwrap().effective_lanes(), 8);
        assert!(!st.topo.cxl_device(NodeId(3)).unwrap().health.online);
    }
}
