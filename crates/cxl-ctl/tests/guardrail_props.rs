//! Property tests for the controller's guardrail invariants.
//!
//! Pins the three safety properties the control plane rests on, across
//! randomized knob ladders, objective landscapes, and controller
//! configurations:
//!
//! 1. **Capacity is never exceeded** — a plant that rejects illegal
//!    settings is never driven past its capacity, and the
//!    `guardrail_violations` counter stays zero (rejections are the
//!    guardrail working, not failing).
//! 2. **Rollback restores the pre-probe setting** — every probe either
//!    commits to exactly the probed setting or restores exactly the
//!    setting it started from, never a third state.
//! 3. **Actuation rate is bounded** — probe starts respect
//!    `min_action_gap_ticks`, and total plant actuations are bounded by
//!    twice the probe count (one apply per probe, at most one rollback
//!    re-apply each).

use cxl_ctl::{Controller, ControllerConfig, CtlError, KnobSpec, Plant, TickOutcome};
use proptest::prelude::*;

/// A pool-lease-like plant: each setting asks for `slabs[setting]`
/// slabs; asking past `capacity` is rejected (transactionally — the old
/// setting stays).
struct LeasePlant {
    slabs: Vec<u64>,
    setting: usize,
    capacity: u64,
    applies: u64,
}

impl Plant for LeasePlant {
    fn apply(&mut self, _knob: usize, setting: usize) -> Result<(), CtlError> {
        let want = self.slabs[setting];
        if want > self.capacity {
            return Err(CtlError::Rejected(format!(
                "lease of {want} slabs exceeds pool capacity {}",
                self.capacity
            )));
        }
        self.setting = setting;
        self.applies += 1;
        Ok(())
    }

    fn check_invariants(&self) -> Result<(), String> {
        let used = self.slabs[self.setting];
        if used <= self.capacity {
            Ok(())
        } else {
            Err(format!("holding {used} slabs > capacity {}", self.capacity))
        }
    }
}

/// Assembles a scenario from raw draws: a strictly increasing slab
/// ladder (cumulative sums of `incs`), a capacity that always admits
/// the first rung (legal initial state), and a controller config from
/// the drawn fields.
fn make_scenario(
    incs: &[u64],
    cap_extra: u64,
    warmup: u32,
    settle: u32,
    measure: u32,
    gap: u32,
    hysteresis: f64,
) -> (Vec<u64>, u64, ControllerConfig) {
    let slabs: Vec<u64> = incs
        .iter()
        .scan(0u64, |acc, &i| {
            *acc += i;
            Some(*acc)
        })
        .collect();
    let capacity = slabs[0] + cap_extra;
    let cfg = ControllerConfig {
        warmup_ticks: warmup,
        settle_ticks: settle,
        measure_ticks: measure,
        hysteresis,
        crash_tolerance: 0.5,
        min_action_gap_ticks: gap,
        shift_tolerance: 0.5,
        max_probe_extensions: 1,
    };
    (slabs, capacity, cfg)
}

fn build(
    slabs: &[u64],
    capacity: u64,
    cfg: &ControllerConfig,
    cooldown: u32,
) -> (Controller, LeasePlant) {
    let knob = KnobSpec::new(
        "lease_slabs",
        slabs.iter().map(|&s| (format!("{s}slabs"), s as f64)),
        cooldown,
    );
    let ctl = Controller::new(cfg.clone(), vec![knob], vec![0]).expect("valid config");
    let plant = LeasePlant {
        slabs: slabs.to_vec(),
        setting: 0,
        capacity,
        applies: 0,
    };
    (ctl, plant)
}

proptest! {
    #[test]
    fn capacity_never_exceeded_and_no_violations(
        incs in prop::collection::vec(1u64..=8, 2..=6),
        objs in prop::collection::vec(1.0f64..100.0, 6usize),
        cap_extra in 1u64..=40,
        warmup in 0u32..=4,
        settle in 0u32..=2,
        measure in 1u32..=3,
        gap in 1u32..=5,
        hysteresis in 0.0f64..0.2,
        cooldown in 0u32..=8,
        ticks in 10usize..=120,
    ) {
        let (slabs, capacity, cfg) =
            make_scenario(&incs, cap_extra, warmup, settle, measure, gap, hysteresis);
        let (mut ctl, mut plant) = build(&slabs, capacity, &cfg, cooldown);
        for _ in 0..ticks {
            let obj = objs[plant.setting];
            ctl.tick(obj, &mut plant);
            // The live setting is legal after every tick, no exception.
            prop_assert!(
                slabs[plant.setting] <= capacity,
                "holding {} slabs > capacity {}",
                slabs[plant.setting],
                capacity
            );
            prop_assert!(plant.check_invariants().is_ok());
        }
        // Rejected probes are counted as rejections, never violations.
        prop_assert_eq!(ctl.guardrails().violations, 0);
    }

    #[test]
    fn every_probe_commits_or_restores_exactly(
        incs in prop::collection::vec(1u64..=8, 2..=6),
        objs in prop::collection::vec(1.0f64..100.0, 6usize),
        cap_extra in 1u64..=40,
        warmup in 0u32..=4,
        settle in 0u32..=2,
        measure in 1u32..=3,
        gap in 1u32..=5,
        hysteresis in 0.0f64..0.2,
        cooldown in 0u32..=8,
        ticks in 10usize..=120,
    ) {
        let (slabs, capacity, cfg) =
            make_scenario(&incs, cap_extra, warmup, settle, measure, gap, hysteresis);
        let (mut ctl, mut plant) = build(&slabs, capacity, &cfg, cooldown);
        // The in-flight probe's origin, from the outcome stream.
        let mut pending: Option<(usize, usize)> = None; // (from, to)
        for _ in 0..ticks {
            let obj = objs[plant.setting];
            match ctl.tick(obj, &mut plant) {
                TickOutcome::ProbeStarted { from, to, .. } => {
                    prop_assert!(pending.is_none(), "two probes in flight");
                    prop_assert_eq!(plant.setting, to, "probe applied");
                    pending = Some((from, to));
                }
                TickOutcome::Committed { to, .. } => {
                    let (_, probed) = pending.take().expect("commit without probe");
                    prop_assert_eq!(to, probed);
                    prop_assert_eq!(plant.setting, to);
                    prop_assert_eq!(ctl.current_settings()[0], to);
                }
                TickOutcome::RolledBack { restored, .. }
                | TickOutcome::EmergencyRollback { restored, .. } => {
                    let (from, _) = pending.take().expect("rollback without probe");
                    prop_assert_eq!(restored, from, "rollback restores pre-probe");
                    prop_assert_eq!(plant.setting, from);
                    prop_assert_eq!(ctl.current_settings()[0], from);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn actuation_rate_is_bounded(
        incs in prop::collection::vec(1u64..=8, 2..=6),
        objs in prop::collection::vec(1.0f64..100.0, 6usize),
        cap_extra in 1u64..=40,
        warmup in 0u32..=4,
        settle in 0u32..=2,
        measure in 1u32..=3,
        gap in 1u32..=5,
        hysteresis in 0.0f64..0.2,
        cooldown in 0u32..=8,
        ticks in 10usize..=120,
    ) {
        let (slabs, capacity, cfg) =
            make_scenario(&incs, cap_extra, warmup, settle, measure, gap, hysteresis);
        let (mut ctl, mut plant) = build(&slabs, capacity, &cfg, cooldown);
        let mut probe_ticks: Vec<u64> = Vec::new();
        for _ in 0..ticks {
            let obj = objs[plant.setting];
            if let TickOutcome::ProbeStarted { .. } = ctl.tick(obj, &mut plant) {
                probe_ticks.push(ctl.ticks());
            }
        }
        // Consecutive probe starts respect the gap.
        for pair in probe_ticks.windows(2) {
            prop_assert!(
                pair[1] - pair[0] >= u64::from(cfg.min_action_gap_ticks),
                "probes at ticks {} and {} violate gap {}",
                pair[0],
                pair[1],
                cfg.min_action_gap_ticks
            );
        }
        // Each probe actuates once, plus at most one rollback re-apply.
        prop_assert!(
            plant.applies <= 2 * ctl.probes(),
            "{} applies > 2 x {} probes",
            plant.applies,
            ctl.probes()
        );
        prop_assert_eq!(ctl.probes(), probe_ticks.len() as u64);
    }
}
