//! Runs the control loop as periodic ticks on the `cxl-sim` engine.
//!
//! The controller does not own a clock: it becomes one repeating event
//! on an [`Engine`], firing every control period in virtual time. This
//! keeps the control plane inside the same deterministic event order as
//! the workload it steers — a fault scheduled between two ticks lands
//! between the same two ticks on every run and under any `--jobs`.

use cxl_sim::{Engine, SimTime};
use serde::Serialize;

use crate::knob::Plant;
use crate::policy::{Controller, TickOutcome};

/// One row of the control-loop trace.
#[derive(Debug, Clone, Serialize)]
pub struct TraceEntry {
    /// Controller tick index (1-based).
    pub tick: u64,
    /// Virtual time the tick fired.
    pub at: SimTime,
    /// Objective measured over the interval that just elapsed.
    pub objective: f64,
    /// What the controller did.
    pub outcome: TickOutcome,
    /// Setting index per knob after the tick.
    pub settings: Vec<usize>,
}

/// The engine state for a control run: controller, plant, and the
/// per-tick trace. Recovered whole via [`Engine::into_state`] when
/// the run ends.
#[derive(Debug)]
pub struct ControlLoop<P> {
    /// The policy plane.
    pub controller: Controller,
    /// The system under control.
    pub plant: P,
    /// One entry per tick, in firing order.
    pub trace: Vec<TraceEntry>,
}

/// Drives `controller` over `plant` as a repeating engine event.
///
/// Every `period` of virtual time, `step` advances the plant across the
/// interval ending at the current tick and returns the objective
/// measured over it (higher is better), and the controller decides.
/// The loop stops after the last tick at or before `until`.
///
/// `setup` runs once before the clock starts and may schedule extra
/// events on the engine — fault injections, phase switches — that
/// interleave deterministically with the control ticks (FIFO tie-break
/// on equal timestamps). Pass `|_| {}` when none are needed.
pub fn run_on_engine<P, F>(
    controller: Controller,
    plant: P,
    period: SimTime,
    until: SimTime,
    mut step: F,
    setup: impl FnOnce(&mut Engine<ControlLoop<P>>),
) -> ControlLoop<P>
where
    P: Plant + 'static,
    F: FnMut(&mut P, SimTime) -> f64 + 'static,
{
    assert!(period > SimTime::ZERO, "control period must be positive");
    let mut engine = Engine::new(ControlLoop {
        controller,
        plant,
        trace: Vec::new(),
    });
    setup(&mut engine);
    engine.schedule_every(period, move |e| {
        let now = e.now();
        let s = e.state_mut();
        let objective = step(&mut s.plant, now);
        let outcome = s.controller.tick(objective, &mut s.plant);
        s.trace.push(TraceEntry {
            tick: s.controller.ticks(),
            at: now,
            objective,
            outcome,
            settings: s.controller.current_settings().to_vec(),
        });
        // Reschedule while the next tick still lands inside the run.
        now + period <= until
    });
    engine.run_until(until);
    engine.into_state()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CtlError;
    use crate::knob::KnobSpec;
    use crate::policy::ControllerConfig;

    struct Ramp {
        setting: usize,
        disturbed: bool,
    }

    impl Plant for Ramp {
        fn apply(&mut self, _knob: usize, setting: usize) -> Result<(), CtlError> {
            self.setting = setting;
            Ok(())
        }
    }

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            warmup_ticks: 2,
            settle_ticks: 0,
            measure_ticks: 2,
            hysteresis: 0.01,
            crash_tolerance: 0.9,
            min_action_gap_ticks: 1,
            shift_tolerance: 0.3,
            max_probe_extensions: 0,
        }
    }

    fn knob(len: usize) -> KnobSpec {
        KnobSpec::new("k", (0..len).map(|i| (format!("s{i}"), i as f64)), 0)
    }

    fn launch(until_ms: u64) -> ControlLoop<Ramp> {
        let ctl = Controller::new(cfg(), vec![knob(4)], vec![0]).unwrap();
        let plant = Ramp {
            setting: 0,
            disturbed: false,
        };
        run_on_engine(
            ctl,
            plant,
            SimTime::from_ms(1),
            SimTime::from_ms(until_ms),
            |p: &mut Ramp, _now| {
                // Objective rises with the setting; halves after the
                // disturbance to force re-convergence pressure.
                let base = 10.0 * (1 + p.setting) as f64;
                if p.disturbed {
                    base * 0.5
                } else {
                    base
                }
            },
            |_| {},
        )
    }

    #[test]
    fn ticks_land_on_the_period_grid() {
        let run = launch(10);
        assert_eq!(run.trace.len(), 10, "one tick per period up to `until`");
        for (i, t) in run.trace.iter().enumerate() {
            assert_eq!(t.at, SimTime::from_ms(i as u64 + 1));
            assert_eq!(t.tick, i as u64 + 1);
        }
    }

    #[test]
    fn loop_climbs_the_ladder() {
        let run = launch(60);
        assert_eq!(
            run.controller.current_settings(),
            &[3],
            "objective is monotone in the setting, so the top commits"
        );
        // The run may end mid-probe (the climber keeps exploring); the
        // plant then sits at the probe setting, one step off committed.
        if !run.controller.is_probing() {
            assert_eq!(run.plant.setting, 3);
        }
        assert!(run.controller.commits() >= 3);
        assert_eq!(run.controller.guardrails().violations, 0);
    }

    #[test]
    fn identical_runs_trace_identically() {
        let a = launch(40);
        let b = launch(40);
        let render = |r: &ControlLoop<Ramp>| {
            r.trace
                .iter()
                .map(|t| {
                    format!(
                        "{}@{} {:?} {:?} {}",
                        t.tick, t.at, t.outcome, t.settings, t.objective
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&a), render(&b), "bit-identical control traces");
    }

    #[test]
    fn setup_events_interleave_with_ticks() {
        let ctl = Controller::new(cfg(), vec![knob(4)], vec![0]).unwrap();
        let plant = Ramp {
            setting: 0,
            disturbed: false,
        };
        let run = run_on_engine(
            ctl,
            plant,
            SimTime::from_ms(1),
            SimTime::from_ms(40),
            |p: &mut Ramp, _| 10.0 * (1 + p.setting) as f64 * if p.disturbed { 0.5 } else { 1.0 },
            |e| {
                // A mid-run disturbance, as the fault path does it.
                e.schedule_at(SimTime::from_us(20_500), |e| {
                    let s = e.state_mut();
                    s.plant.disturbed = true;
                    s.controller.notify_disturbance();
                });
            },
        );
        assert!(run.plant.disturbed);
        // The controller restarted warmup mid-run and still re-converged
        // to the top setting afterwards.
        assert_eq!(run.controller.current_settings(), &[3]);
        assert_eq!(run.controller.guardrails().violations, 0);
    }
}
