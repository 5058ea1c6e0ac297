//! The policy plane: a gradient-free hill climber wrapped in guardrails.
//!
//! One knob is probed at a time (the paper's sweeps show the knobs
//! interact weakly enough for coordinate ascent: interleave ratio,
//! promotion rate, and lease size each have a unimodal response in
//! their regime), a commit requires clearing a hysteresis band over the
//! pre-probe baseline, and every knob cools down after a change so the
//! controller cannot thrash. The guardrail layer bounds the actuation
//! rate, restores the pre-probe setting on objective regression
//! (including an emergency path for mid-probe collapses), and verifies
//! plant invariants after every actuation — a violation there is the
//! CI-gated `ctl/guardrail_violations` counter.
//!
//! Converged operation is *quiescent*: a direction that was probed and
//! lost (rolled back, or declined by the plant) is blocked until the
//! world changes, so a controller sitting at a peak stops paying probe
//! overhead — essential when a neighboring setting is much worse, as
//! MMEM-only placement is once DRAM bandwidth saturates. "The world
//! changed" is detected as a steady-state objective move beyond
//! [`ControllerConfig::shift_tolerance`] (a workload phase change), at
//! which point every blocked direction reopens; commits and
//! [`Controller::notify_disturbance`] reopen them too.

use std::collections::VecDeque;

use serde::Serialize;

use crate::error::CtlError;
use crate::knob::{KnobSpec, Plant};

/// Tuning of the hill climber and its guardrails.
#[derive(Debug, Clone, Serialize)]
pub struct ControllerConfig {
    /// Ticks observed before the first probe (objective baseline fill).
    pub warmup_ticks: u32,
    /// Ticks discarded after an actuation before measuring (transient
    /// settle: migrations in flight, queues re-forming).
    pub settle_ticks: u32,
    /// Ticks averaged per measurement window (baseline and probe).
    pub measure_ticks: u32,
    /// Relative improvement a probe must clear to commit
    /// (`probe > baseline * (1 + hysteresis)`).
    pub hysteresis: f64,
    /// Mid-probe emergency rollback when the objective stays below
    /// `baseline * (1 - crash_tolerance)` for two consecutive ticks —
    /// do not wait out the window while the system burns. (One tick is
    /// not a collapse: plants pay transient single-tick costs right
    /// after an actuation — migration bursts, cache refill stalls.)
    pub crash_tolerance: f64,
    /// Guardrail: minimum ticks between probe starts (bounded actuation
    /// rate; rollbacks are exempt — undo must never be rate-limited).
    pub min_action_gap_ticks: u32,
    /// Relative steady-state objective move that counts as a workload
    /// shift and reopens every blocked probe direction. Set it above
    /// the objective's tick-to-tick noise and below the smallest phase
    /// change worth reacting to.
    pub shift_tolerance: f64,
    /// Extra measurement windows granted to a probe whose window mean
    /// fails the hysteresis bar while the window itself still shows the
    /// payoff transient arriving — some sample clears the bar, or the
    /// back half of the window improves on the front half by more than
    /// the hysteresis band. Capacity actions earn over horizons longer
    /// than any affordable settle window; the extension bridges them.
    /// Zero restores strict one-window decisions; a flat failing probe
    /// never extends regardless.
    pub max_probe_extensions: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            warmup_ticks: 4,
            settle_ticks: 1,
            measure_ticks: 3,
            hysteresis: 0.02,
            crash_tolerance: 0.5,
            min_action_gap_ticks: 2,
            shift_tolerance: 0.1,
            max_probe_extensions: 1,
        }
    }
}

impl ControllerConfig {
    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), CtlError> {
        if self.measure_ticks == 0 {
            return Err(CtlError::InvalidConfig(
                "measure_ticks must be nonzero (no window to decide on)".into(),
            ));
        }
        if !(self.hysteresis >= 0.0 && self.hysteresis.is_finite()) {
            return Err(CtlError::InvalidConfig(format!(
                "hysteresis must be finite and non-negative, got {}",
                self.hysteresis
            )));
        }
        if !(self.crash_tolerance > 0.0 && self.crash_tolerance <= 1.0) {
            return Err(CtlError::InvalidConfig(format!(
                "crash_tolerance must lie in (0, 1], got {}",
                self.crash_tolerance
            )));
        }
        if !(self.shift_tolerance > 0.0 && self.shift_tolerance.is_finite()) {
            return Err(CtlError::InvalidConfig(format!(
                "shift_tolerance must be finite and positive, got {}",
                self.shift_tolerance
            )));
        }
        Ok(())
    }
}

/// Guardrail state and counters.
///
/// The [`Controller`] hands these counters to `cxl-obs` (`ctl/...`)
/// when it drops, so the exported metrics JSON carries them;
/// `violations` must stay 0 — CI fails the run otherwise.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Guardrails {
    /// Probe actuations applied.
    pub actions_applied: u64,
    /// Probe starts suppressed by the actuation-rate gate.
    pub actions_blocked: u64,
    /// Actuations the plant declined (normal operation, counted).
    pub actions_rejected: u64,
    /// Plant invariant failures after an actuation (must stay 0).
    pub violations: u64,
    last_probe_tick: Option<u64>,
}

/// Outcome of one guarded actuation attempt.
enum ApplyOutcome {
    Applied,
    Rejected,
}

impl Guardrails {
    /// True when the rate gate allows a new probe at `tick`.
    fn may_probe(&self, tick: u64, min_gap: u32) -> bool {
        match self.last_probe_tick {
            Some(last) => tick.saturating_sub(last) >= u64::from(min_gap.max(1)),
            None => true,
        }
    }

    /// Applies `(knob, setting)` through the plant, counting the result
    /// and running the invariant check. `is_probe` marks rate-gated
    /// probe starts (rollbacks pass `false`: undo is never throttled,
    /// and does not reset the gate).
    fn apply<P: Plant>(
        &mut self,
        plant: &mut P,
        knob: usize,
        setting: usize,
        tick: u64,
        is_probe: bool,
    ) -> ApplyOutcome {
        match plant.apply(knob, setting) {
            Ok(()) => {
                self.actions_applied += 1;
                if is_probe {
                    self.last_probe_tick = Some(tick);
                }
                if let Err(breach) = plant.check_invariants() {
                    self.violations += 1;
                    // The breach text is diagnostic; the counter is the
                    // contract (CI fails on nonzero).
                    let _ = breach;
                }
                ApplyOutcome::Applied
            }
            Err(_) => {
                self.actions_rejected += 1;
                ApplyOutcome::Rejected
            }
        }
    }
}

/// What one controller tick did (for traces, tests, and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TickOutcome {
    /// Still filling the warmup window; no actuation considered.
    Warmup,
    /// Holding the current settings; no eligible probe this tick.
    Steady,
    /// Probe suppressed by the actuation-rate guardrail.
    Blocked,
    /// A probe actuation was applied (`knob` moved `from -> to`).
    ProbeStarted {
        /// Knob index probed.
        knob: usize,
        /// Setting index before the probe.
        from: usize,
        /// Setting index under test.
        to: usize,
    },
    /// The plant declined the probe actuation.
    ProbeRejected {
        /// Knob index whose actuation was declined.
        knob: usize,
    },
    /// Probe in flight, discarding transient ticks.
    Settling {
        /// Knob index under test.
        knob: usize,
    },
    /// Probe in flight, accumulating the measurement window.
    Measuring {
        /// Knob index under test.
        knob: usize,
    },
    /// The window mean fell short but the window still shows the
    /// payoff transient arriving: the probe earned another measurement
    /// window (see [`ControllerConfig::max_probe_extensions`]).
    ProbeExtended {
        /// Knob index under test.
        knob: usize,
    },
    /// The probe cleared the hysteresis band; the new setting stays.
    Committed {
        /// Knob index committed.
        knob: usize,
        /// Previous setting index.
        from: usize,
        /// Newly committed setting index.
        to: usize,
    },
    /// The probe failed to improve; the pre-probe setting was restored.
    RolledBack {
        /// Knob index rolled back.
        knob: usize,
        /// Setting index restored.
        restored: usize,
    },
    /// Mid-probe objective collapse; restored without finishing the
    /// window.
    EmergencyRollback {
        /// Knob index rolled back.
        knob: usize,
        /// Setting index restored.
        restored: usize,
    },
}

#[derive(Debug, Clone)]
struct Probe {
    knob: usize,
    prev_setting: usize,
    probe_setting: usize,
    baseline: f64,
    settle_remaining: u32,
    measured: Vec<f64>,
    /// Consecutive ticks spent below the crash floor (see
    /// [`ControllerConfig::crash_tolerance`]).
    crash_strikes: u8,
    /// Extra measurement windows this probe may still earn.
    extensions_left: u32,
}

#[derive(Debug, Clone)]
enum Mode {
    Warmup { remaining: u32 },
    Steady,
    Probing(Probe),
}

/// The feedback controller: coordinate-ascent hill climbing over a set
/// of [`KnobSpec`] ladders, guarded by [`Guardrails`].
///
/// Call [`Controller::tick`] once per control interval with the
/// objective measured over the interval that just elapsed (higher is
/// better). The controller decides — at most one actuation per tick —
/// and applies it through the plant.
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    knobs: Vec<KnobSpec>,
    current: Vec<usize>,
    /// Preferred probe direction per knob (+1 up-ladder, -1 down);
    /// flipped on a failed probe so the climber explores both sides.
    dir: Vec<i8>,
    /// Per knob: `[down, up]` directions closed by a failed or declined
    /// probe. A blocked direction is not re-probed until a commit on
    /// that knob, a detected shift, or a disturbance reopens it — this
    /// is what makes a converged controller quiescent.
    blocked: Vec<[bool; 2]>,
    cooldown_until: Vec<u64>,
    next_knob: usize,
    /// The last `measure_ticks` objectives, oldest first: the baseline
    /// a probe is judged against and the shift detector's reference.
    window: VecDeque<f64>,
    guardrails: Guardrails,
    mode: Mode,
    tick_index: u64,
    /// Ticks left during which the shift detector stays quiet while the
    /// baseline window refills after a commit, rollback, or shift.
    rebaseline: u32,
    /// Ticks left during which probing holds off after a detected
    /// shift, so probe baselines never mix pre- and post-shift levels.
    shift_quiet: u32,
    probes: u64,
    commits: u64,
    rollbacks: u64,
    emergency_rollbacks: u64,
    shifts: u64,
    probe_extensions: u64,
    disturbances: u64,
}

/// `[down, up]` index for a probe direction.
fn dir_idx(d: i8) -> usize {
    usize::from(d > 0)
}

impl Controller {
    /// Builds a controller holding `knobs` at the `initial` setting
    /// indices.
    ///
    /// The caller is responsible for the plant already *being* at those
    /// settings (the controller never blind-applies the initial state).
    pub fn new(
        cfg: ControllerConfig,
        knobs: Vec<KnobSpec>,
        initial: Vec<usize>,
    ) -> Result<Self, CtlError> {
        cfg.validate()?;
        if knobs.is_empty() {
            return Err(CtlError::InvalidConfig(
                "controller needs at least one knob".into(),
            ));
        }
        if initial.len() != knobs.len() {
            return Err(CtlError::InvalidConfig(format!(
                "initial settings ({}) must match knob count ({})",
                initial.len(),
                knobs.len()
            )));
        }
        for (k, (&idx, spec)) in initial.iter().zip(&knobs).enumerate() {
            if idx >= spec.len() {
                return Err(CtlError::UnknownSetting {
                    knob: k,
                    setting: idx,
                    len: spec.len(),
                });
            }
        }
        let n = knobs.len();
        let window = VecDeque::with_capacity(cfg.measure_ticks as usize);
        let warmup = cfg.warmup_ticks;
        Ok(Self {
            cfg,
            knobs,
            current: initial,
            dir: vec![1; n],
            blocked: vec![[false; 2]; n],
            cooldown_until: vec![0; n],
            next_knob: 0,
            window,
            guardrails: Guardrails::default(),
            mode: Mode::Warmup { remaining: warmup },
            tick_index: 0,
            rebaseline: 0,
            shift_quiet: 0,
            probes: 0,
            commits: 0,
            rollbacks: 0,
            emergency_rollbacks: 0,
            shifts: 0,
            probe_extensions: 0,
            disturbances: 0,
        })
    }

    /// One control interval: record `objective` (measured over the
    /// interval that just elapsed; higher is better) and act.
    pub fn tick<P: Plant>(&mut self, objective: f64, plant: &mut P) -> TickOutcome {
        self.tick_index += 1;
        self.detect_shift(objective);
        if self.window.len() == self.cfg.measure_ticks as usize {
            self.window.pop_front();
        }
        self.window.push_back(objective);
        match std::mem::replace(&mut self.mode, Mode::Steady) {
            Mode::Warmup { remaining } => {
                if remaining > 1 {
                    self.mode = Mode::Warmup {
                        remaining: remaining - 1,
                    };
                } // else: Steady (already in place).
                TickOutcome::Warmup
            }
            Mode::Steady => self.steady_tick(plant),
            Mode::Probing(probe) => self.probing_tick(probe, objective, plant),
        }
    }

    /// Steady-state change detection: while holding (not probing — the
    /// crash check covers probes), an objective move beyond the shift
    /// tolerance relative to the recent baseline means the workload
    /// changed phase. Every blocked direction reopens so the climber
    /// re-explores, and the detector stays quiet while the baseline
    /// window refills (also after commits and rollbacks, whose
    /// objective steps are expected, not shifts).
    fn detect_shift(&mut self, objective: f64) {
        let steady = matches!(self.mode, Mode::Steady);
        if self.rebaseline > 0 {
            self.rebaseline -= 1;
            return;
        }
        if !steady {
            return;
        }
        let Some(baseline) = self.baseline() else {
            return;
        };
        if (objective - baseline).abs() > self.cfg.shift_tolerance * baseline.abs().max(1e-9) {
            for b in &mut self.blocked {
                *b = [false; 2];
            }
            self.rebaseline = self.cfg.measure_ticks;
            self.shift_quiet = self.cfg.measure_ticks;
            self.shifts += 1;
        }
    }

    fn steady_tick<P: Plant>(&mut self, plant: &mut P) -> TickOutcome {
        // Right after a shift the history window still holds pre-shift
        // values; a probe measured against that mix would mis-decide.
        // Hold until the window refills at the new level.
        if self.shift_quiet > 0 {
            self.shift_quiet -= 1;
            return TickOutcome::Steady;
        }
        // Same while the window refills after a commit or rollback: the
        // history still holds probe-period values, and a probe measured
        // against that stale baseline mis-decides (a rolled-back probe's
        // depressed window would make any next move look like a win).
        if self.rebaseline > 0 {
            return TickOutcome::Steady;
        }
        // A baseline needs a full measurement window of history.
        if self.window.len() < self.cfg.measure_ticks as usize {
            return TickOutcome::Steady;
        }
        if !self
            .guardrails
            .may_probe(self.tick_index, self.cfg.min_action_gap_ticks)
        {
            self.guardrails.actions_blocked += 1;
            return TickOutcome::Blocked;
        }
        let Some((knob, probe_setting)) = self.pick_probe() else {
            return TickOutcome::Steady;
        };
        let prev_setting = self.current[knob];
        let baseline = self.baseline().expect("length checked above");
        match self
            .guardrails
            .apply(plant, knob, probe_setting, self.tick_index, true)
        {
            ApplyOutcome::Applied => {
                self.probes += 1;
                // Advance the cursor so the *next* probe starts from the
                // following knob even if this one commits.
                self.next_knob = (knob + 1) % self.knobs.len();
                self.mode = Mode::Probing(Probe {
                    knob,
                    prev_setting,
                    probe_setting,
                    baseline,
                    settle_remaining: self.cfg.settle_ticks,
                    measured: Vec::with_capacity(self.cfg.measure_ticks as usize),
                    crash_strikes: 0,
                    extensions_left: self.cfg.max_probe_extensions,
                });
                TickOutcome::ProbeStarted {
                    knob,
                    from: prev_setting,
                    to: probe_setting,
                }
            }
            ApplyOutcome::Rejected => {
                // The plant said no (e.g. pool exhausted). That
                // direction stays closed until the world changes; try
                // the other one next time and let the cursor move on.
                let d = if probe_setting > prev_setting {
                    1i8
                } else {
                    -1
                };
                self.blocked[knob][dir_idx(d)] = true;
                self.dir[knob] = -self.dir[knob];
                self.next_knob = (knob + 1) % self.knobs.len();
                TickOutcome::ProbeRejected { knob }
            }
        }
    }

    /// Round-robin scan for the next probe-eligible knob, starting at
    /// the cursor: off cooldown, more than one setting, and an open
    /// neighbor on the ladder in the preferred (else opposite)
    /// direction. Directions closed by a failed probe are skipped — a
    /// fully explored knob costs nothing to hold.
    fn pick_probe(&mut self) -> Option<(usize, usize)> {
        let n = self.knobs.len();
        for i in 0..n {
            let k = (self.next_knob + i) % n;
            if self.cooldown_until[k] > self.tick_index || self.knobs[k].len() < 2 {
                continue;
            }
            let cur = self.current[k] as i64;
            let len = self.knobs[k].len() as i64;
            let preferred = self.dir[k];
            for d in [preferred, -preferred] {
                let candidate = cur + i64::from(d);
                if (0..len).contains(&candidate) && !self.blocked[k][dir_idx(d)] {
                    self.dir[k] = d;
                    return Some((k, candidate as usize));
                }
            }
        }
        None
    }

    fn probing_tick<P: Plant>(
        &mut self,
        mut probe: Probe,
        objective: f64,
        plant: &mut P,
    ) -> TickOutcome {
        // Emergency path: a sustained collapse is not waited out. One
        // tick below the floor only arms the trigger — actuations often
        // cost one transient stall tick (migration burst, cache refill)
        // that says nothing about the probed setting's steady state.
        if objective < probe.baseline * (1.0 - self.cfg.crash_tolerance) {
            probe.crash_strikes += 1;
            if probe.crash_strikes >= 2 {
                self.emergency_rollbacks += 1;
                return self.finish_rollback(probe, plant, true);
            }
        } else {
            probe.crash_strikes = 0;
        }
        if probe.settle_remaining > 0 {
            probe.settle_remaining -= 1;
            let knob = probe.knob;
            self.mode = Mode::Probing(probe);
            return TickOutcome::Settling { knob };
        }
        probe.measured.push(objective);
        if probe.measured.len() < self.cfg.measure_ticks as usize {
            let knob = probe.knob;
            self.mode = Mode::Probing(probe);
            return TickOutcome::Measuring { knob };
        }
        let probe_mean = probe.measured.iter().sum::<f64>() / probe.measured.len() as f64;
        if probe_mean > probe.baseline * (1.0 + self.cfg.hysteresis) {
            // Commit: the probe setting becomes current; the knob cools
            // down; the direction that worked is kept open for the next
            // climb step, while the setting just left is known-worse —
            // don't crawl back to it until the world changes.
            let Probe {
                knob,
                prev_setting,
                probe_setting,
                ..
            } = probe;
            let d = if probe_setting > prev_setting {
                1i8
            } else {
                -1
            };
            self.blocked[knob] = [false; 2];
            self.blocked[knob][dir_idx(-d)] = true;
            self.current[knob] = probe_setting;
            self.cooldown_until[knob] =
                self.tick_index + u64::from(self.knobs[knob].cooldown_ticks);
            self.rebaseline = self.cfg.measure_ticks;
            self.commits += 1;
            TickOutcome::Committed {
                knob,
                from: prev_setting,
                to: probe_setting,
            }
        } else if probe.extensions_left > 0 && {
            // The window mean says no, but the window itself says the
            // probe is still riding its payoff transient: either some
            // sample already cleared the bar, or the back half of the
            // window improves on the front half by more than the
            // hysteresis band (a flat failing probe does neither).
            let bar = probe.baseline * (1.0 + self.cfg.hysteresis);
            let max = probe
                .measured
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let mid = probe.measured.len() / 2;
            let half_mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
            let improving = mid > 0
                && half_mean(&probe.measured[mid..])
                    > half_mean(&probe.measured[..mid]) * (1.0 + self.cfg.hysteresis);
            max > bar || improving
        } {
            probe.extensions_left -= 1;
            probe.measured.clear();
            let knob = probe.knob;
            self.mode = Mode::Probing(probe);
            self.probe_extensions += 1;
            TickOutcome::ProbeExtended { knob }
        } else {
            self.rollbacks += 1;
            self.finish_rollback(probe, plant, false)
        }
    }

    /// Restores the pre-probe setting. Rollback actuations bypass the
    /// rate gate (undo must always be possible) but still run the
    /// invariant check. A plant that declines its own previous setting
    /// has broken the transactional-apply contract: that counts as a
    /// guardrail violation and the controller accepts the probe setting
    /// as the new reality rather than lying about the plant state.
    fn finish_rollback<P: Plant>(
        &mut self,
        probe: Probe,
        plant: &mut P,
        emergency: bool,
    ) -> TickOutcome {
        let Probe {
            knob,
            prev_setting,
            probe_setting,
            ..
        } = probe;
        match self
            .guardrails
            .apply(plant, knob, prev_setting, self.tick_index, false)
        {
            ApplyOutcome::Applied => {
                self.current[knob] = prev_setting;
            }
            ApplyOutcome::Rejected => {
                self.guardrails.violations += 1;
                self.current[knob] = probe_setting;
            }
        }
        // A failed direction is closed until the world changes (commit,
        // shift, or disturbance), and the preference flips. Only the
        // emergency path engages the knob cooldown: a plain rollback
        // restored the old value, so there is nothing to let settle,
        // but a collapse says this knob is dangerous right now — back
        // off before touching it again.
        let d = if probe_setting > prev_setting {
            1i8
        } else {
            -1
        };
        self.blocked[knob][dir_idx(d)] = true;
        self.dir[knob] = -self.dir[knob];
        self.rebaseline = self.cfg.measure_ticks;
        if emergency {
            self.cooldown_until[knob] =
                self.tick_index + u64::from(self.knobs[knob].cooldown_ticks);
        }
        let restored = self.current[knob];
        if emergency {
            TickOutcome::EmergencyRollback { knob, restored }
        } else {
            TickOutcome::RolledBack { knob, restored }
        }
    }

    /// Tells the controller the plant changed beneath it (a fault, a
    /// topology change): any in-flight probe is abandoned **keeping the
    /// current plant state** (the pre-fault baseline is meaningless),
    /// cooldowns and the objective window are cleared, and a fresh
    /// warmup begins so re-convergence starts from clean measurements.
    pub fn notify_disturbance(&mut self) {
        if let Mode::Probing(probe) = &self.mode {
            // The probe setting is what the plant is physically at.
            self.current[probe.knob] = probe.probe_setting;
        }
        self.mode = Mode::Warmup {
            remaining: self.cfg.warmup_ticks.max(1),
        };
        // Restart the round-robin at the first knob, so knob order
        // encodes post-disturbance probing priority.
        self.next_knob = 0;
        for c in &mut self.cooldown_until {
            *c = 0;
        }
        for b in &mut self.blocked {
            *b = [false; 2];
        }
        self.rebaseline = 0;
        self.shift_quiet = 0;
        self.window.clear();
        self.disturbances += 1;
    }

    /// Current setting index per knob.
    pub fn current_settings(&self) -> &[usize] {
        &self.current
    }

    /// Current setting label per knob, `knob=label` pairs joined.
    pub fn describe_settings(&self) -> String {
        self.knobs
            .iter()
            .zip(&self.current)
            .map(|(k, &i)| format!("{}={}", k.name, k.labels[i]))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The knob table.
    pub fn knobs(&self) -> &[KnobSpec] {
        &self.knobs
    }

    /// Guardrail counters.
    pub fn guardrails(&self) -> &Guardrails {
        &self.guardrails
    }

    /// Probes started.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Probes committed.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Probes rolled back (including emergencies).
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks + self.emergency_rollbacks
    }

    /// Mid-probe emergency rollbacks alone.
    pub fn emergency_rollbacks(&self) -> u64 {
        self.emergency_rollbacks
    }

    /// Steady-state workload shifts detected (blocked directions
    /// reopened).
    pub fn shifts(&self) -> u64 {
        self.shifts
    }

    /// Ticks processed.
    pub fn ticks(&self) -> u64 {
        self.tick_index
    }

    /// Mean of the window, or `None` before the first tick. Summed
    /// newest-first: an oldest-first sum can differ in the last bit, and
    /// the hysteresis and shift tests compare against this value.
    fn baseline(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        Some(self.window.iter().rev().sum::<f64>() / self.window.len() as f64)
    }

    /// True while a probe is in flight.
    #[cfg(test)]
    pub(crate) fn is_probing(&self) -> bool {
        matches!(self.mode, Mode::Probing(_))
    }
}

impl Drop for Controller {
    /// Hands the controller's counters to the current `cxl-obs`
    /// registry, each nonzero one under `ctl/<name>`: the keys and
    /// values one call per tick or actuation would have left.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let g = &self.guardrails;
        for (name, n) in [
            ("ctl/ticks", self.tick_index),
            ("ctl/probes", self.probes),
            ("ctl/commits", self.commits),
            ("ctl/rollbacks", self.rollbacks),
            ("ctl/emergency_rollbacks", self.emergency_rollbacks),
            ("ctl/probe_extensions", self.probe_extensions),
            ("ctl/shifts", self.shifts),
            ("ctl/disturbances", self.disturbances),
            ("ctl/actions_applied", g.actions_applied),
            ("ctl/actions_blocked", g.actions_blocked),
            ("ctl/actions_rejected", g.actions_rejected),
            ("ctl/guardrail_violations", g.violations),
        ] {
            if n > 0 {
                cxl_obs::counter_add(name, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plant whose objective is a concave function of two knob
    /// settings, with an optional per-knob legal ceiling.
    struct MockPlant {
        settings: Vec<usize>,
        best: Vec<usize>,
        ceiling: Vec<usize>,
        applies: u64,
    }

    impl MockPlant {
        fn new(initial: Vec<usize>, best: Vec<usize>) -> Self {
            let ceiling = vec![usize::MAX; initial.len()];
            Self {
                settings: initial,
                best,
                ceiling,
                applies: 0,
            }
        }

        /// Objective peaks at `best` and falls off by distance.
        fn objective(&self) -> f64 {
            let dist: usize = self
                .settings
                .iter()
                .zip(&self.best)
                .map(|(&s, &b)| s.abs_diff(b))
                .sum();
            100.0 - 10.0 * dist as f64
        }
    }

    impl Plant for MockPlant {
        fn apply(&mut self, knob: usize, setting: usize) -> Result<(), CtlError> {
            if setting > self.ceiling[knob] {
                return Err(CtlError::Rejected(format!(
                    "setting {setting} above ceiling {}",
                    self.ceiling[knob]
                )));
            }
            self.settings[knob] = setting;
            self.applies += 1;
            Ok(())
        }
    }

    fn knob(name: &str, len: usize, cooldown: u32) -> KnobSpec {
        KnobSpec::new(
            name,
            (0..len).map(|i| (format!("s{i}"), i as f64)),
            cooldown,
        )
    }

    fn fast_cfg() -> ControllerConfig {
        ControllerConfig {
            warmup_ticks: 2,
            settle_ticks: 0,
            measure_ticks: 2,
            hysteresis: 0.01,
            crash_tolerance: 0.5,
            min_action_gap_ticks: 1,
            shift_tolerance: 0.25,
            max_probe_extensions: 0,
        }
    }

    /// Drives controller+plant for `ticks`, returning the outcomes.
    fn drive(ctl: &mut Controller, plant: &mut MockPlant, ticks: usize) -> Vec<TickOutcome> {
        (0..ticks)
            .map(|_| ctl.tick(plant.objective(), plant))
            .collect()
    }

    /// Finishes any in-flight probe so the plant reflects `current`
    /// (a run can legitimately end mid-probe with the plant at the
    /// probe setting — that is the climber still exploring).
    fn settle(ctl: &mut Controller, plant: &mut MockPlant) {
        for _ in 0..16 {
            if !ctl.is_probing() {
                break;
            }
            ctl.tick(plant.objective(), plant);
        }
        assert!(!ctl.is_probing(), "probe window should resolve quickly");
    }

    #[test]
    fn climbs_to_the_optimum_and_stays() {
        let mut plant = MockPlant::new(vec![0, 0], vec![3, 2]);
        let mut ctl = Controller::new(
            fast_cfg(),
            vec![knob("a", 5, 0), knob("b", 4, 0)],
            vec![0, 0],
        )
        .unwrap();
        let outcomes = drive(&mut ctl, &mut plant, 120);
        settle(&mut ctl, &mut plant);
        assert_eq!(plant.settings, vec![3, 2], "converged to the optimum");
        assert_eq!(ctl.current_settings(), &[3, 2]);
        assert!(ctl.commits() >= 5, "commits: {}", ctl.commits());
        assert!(outcomes.contains(&TickOutcome::Committed {
            knob: 0,
            from: 0,
            to: 1
        }));
        // At the peak, further probes roll back and the climber holds.
        assert!(ctl.rollbacks() > 0);
        assert_eq!(ctl.guardrails().violations, 0);
    }

    #[test]
    fn rollback_restores_pre_probe_setting_then_goes_quiescent() {
        // Already at the optimum: one probe per direction rolls back,
        // then both directions are closed and the controller holds
        // without paying any further probe overhead.
        let mut plant = MockPlant::new(vec![2], vec![2]);
        let mut ctl = Controller::new(fast_cfg(), vec![knob("a", 5, 0)], vec![2]).unwrap();
        let outcomes = drive(&mut ctl, &mut plant, 60);
        settle(&mut ctl, &mut plant);
        assert_eq!(plant.settings, vec![2]);
        assert_eq!(ctl.rollbacks(), 2, "one failed probe per direction");
        assert_eq!(ctl.commits(), 0);
        for o in &outcomes {
            if let TickOutcome::RolledBack { restored, .. } = o {
                assert_eq!(*restored, 2);
            }
        }
        // Quiescent tail: no probes once both neighbors are known-worse.
        assert!(
            outcomes[20..]
                .iter()
                .all(|o| matches!(o, TickOutcome::Steady)),
            "converged controller must stop probing"
        );
    }

    #[test]
    fn shift_reopens_blocked_directions() {
        // Converge and go quiescent at the optimum, then move the
        // optimum and shift the objective level past the tolerance: the
        // climber must wake up and re-converge without a disturbance
        // notification.
        struct Shifting {
            setting: usize,
            best: usize,
            boost: f64,
        }
        impl Plant for Shifting {
            fn apply(&mut self, _k: usize, s: usize) -> Result<(), CtlError> {
                self.setting = s;
                Ok(())
            }
        }
        let obj = |p: &Shifting| p.boost + 100.0 - 10.0 * p.setting.abs_diff(p.best) as f64;
        let mut plant = Shifting {
            setting: 0,
            best: 0,
            boost: 0.0,
        };
        let mut ctl = Controller::new(fast_cfg(), vec![knob("a", 4, 0)], vec![0]).unwrap();
        for _ in 0..30 {
            let o = obj(&plant);
            ctl.tick(o, &mut plant);
        }
        assert_eq!(ctl.current_settings(), &[0], "converged at the optimum");
        let probes_before = ctl.probes();
        // Phase change: level drops 40% and the peak moves to 2.
        plant.best = 2;
        plant.boost = -40.0;
        for _ in 0..40 {
            let o = obj(&plant);
            ctl.tick(o, &mut plant);
        }
        assert!(ctl.shifts() >= 1, "the level change must register");
        assert!(ctl.probes() > probes_before, "probing must resume");
        assert_eq!(ctl.current_settings(), &[2], "re-converged to the new peak");
    }

    #[test]
    fn warmup_defers_probing() {
        let mut plant = MockPlant::new(vec![0], vec![3]);
        let cfg = ControllerConfig {
            warmup_ticks: 5,
            ..fast_cfg()
        };
        let mut ctl = Controller::new(cfg, vec![knob("a", 5, 0)], vec![0]).unwrap();
        let outcomes = drive(&mut ctl, &mut plant, 5);
        assert!(outcomes.iter().all(|o| *o == TickOutcome::Warmup));
        assert_eq!(plant.applies, 0, "no actuation during warmup");
    }

    #[test]
    fn actuation_rate_is_bounded() {
        let mut plant = MockPlant::new(vec![0], vec![7]);
        let cfg = ControllerConfig {
            min_action_gap_ticks: 5,
            ..fast_cfg()
        };
        let mut ctl = Controller::new(cfg, vec![knob("a", 8, 0)], vec![0]).unwrap();
        let ticks = 100;
        drive(&mut ctl, &mut plant, ticks);
        // Probes are gated to one per 5 ticks; rollback re-applies are
        // exempt but each belongs to a probe, so total applies are
        // bounded by 2x the probe budget.
        let max_probes = (ticks as u64 / 5) + 1;
        assert!(
            ctl.probes() <= max_probes,
            "{} probes > bound {max_probes}",
            ctl.probes()
        );
        assert!(plant.applies <= 2 * max_probes);
        assert!(ctl.guardrails().actions_blocked > 0, "gate engaged");
    }

    #[test]
    fn rejected_probe_flips_direction_and_counts() {
        // Ceiling at the current setting: probing up is always illegal.
        let mut plant = MockPlant::new(vec![1], vec![3]);
        plant.ceiling[0] = 1;
        let mut ctl = Controller::new(fast_cfg(), vec![knob("a", 5, 0)], vec![1]).unwrap();
        let outcomes = drive(&mut ctl, &mut plant, 30);
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, TickOutcome::ProbeRejected { .. })));
        assert!(ctl.guardrails().actions_rejected > 0);
        // Rejections are not violations.
        assert_eq!(ctl.guardrails().violations, 0);
        // The climber still explored downward (setting 0 is legal).
        assert!(plant.applies > 0);
    }

    #[test]
    fn emergency_rollback_on_collapse() {
        /// Objective collapses whenever the knob leaves setting 0.
        struct Cliff {
            setting: usize,
        }
        impl Plant for Cliff {
            fn apply(&mut self, _k: usize, s: usize) -> Result<(), CtlError> {
                self.setting = s;
                Ok(())
            }
        }
        let mut plant = Cliff { setting: 0 };
        let cfg = ControllerConfig {
            settle_ticks: 2,
            measure_ticks: 3,
            ..fast_cfg()
        };
        let mut ctl = Controller::new(cfg, vec![knob("a", 3, 0)], vec![0]).unwrap();
        let mut saw_emergency = false;
        for _ in 0..40 {
            let obj = if plant.setting == 0 { 100.0 } else { 1.0 };
            if let TickOutcome::EmergencyRollback { restored, .. } = ctl.tick(obj, &mut plant) {
                saw_emergency = true;
                assert_eq!(restored, 0);
            }
        }
        assert!(saw_emergency, "collapse must trigger the emergency path");
        assert_eq!(plant.setting, 0, "always restored");
        assert!(ctl.emergency_rollbacks() > 0);
    }

    #[test]
    fn slow_payoff_probe_earns_an_extension_and_commits() {
        /// Setting 1 opens worse than setting 0 but improves every tick
        /// it is held — a payoff horizon longer than one measurement
        /// window, like a capacity grow paying off through cache warm-up.
        struct SlowPayoff {
            setting: usize,
            held: u64,
        }
        impl Plant for SlowPayoff {
            fn apply(&mut self, _k: usize, s: usize) -> Result<(), CtlError> {
                if s != self.setting {
                    self.held = 0;
                }
                self.setting = s;
                Ok(())
            }
        }
        let cfg = ControllerConfig {
            measure_ticks: 3,
            max_probe_extensions: 1,
            ..fast_cfg()
        };
        let mut ctl = Controller::new(cfg, vec![knob("a", 2, 0)], vec![0]).unwrap();
        let mut plant = SlowPayoff {
            setting: 0,
            held: 0,
        };
        let mut saw_extension = false;
        let mut committed = false;
        for _ in 0..30 {
            let obj = if plant.setting == 0 {
                100.0
            } else {
                plant.held += 1;
                // 70, 100, 130, ...: the first window straddles the
                // baseline, the second clears it decisively.
                40.0 + 30.0 * plant.held as f64
            };
            match ctl.tick(obj, &mut plant) {
                TickOutcome::ProbeExtended { knob } => {
                    assert_eq!(knob, 0);
                    saw_extension = true;
                }
                TickOutcome::Committed { to, .. } => {
                    assert_eq!(to, 1);
                    committed = true;
                }
                TickOutcome::RolledBack { .. } | TickOutcome::EmergencyRollback { .. } => {
                    panic!("slow-payoff probe must not roll back")
                }
                _ => {}
            }
            if committed {
                break;
            }
        }
        assert!(saw_extension, "mean-fails/latest-clears must extend");
        assert!(committed, "the extended window must commit");
    }

    #[test]
    fn cooldown_spaces_probes_of_one_knob() {
        // best = [2]: the first commit (0 -> 1) engages the 20-tick
        // cooldown, so the second climb step must wait it out.
        let mut plant = MockPlant::new(vec![0], vec![2]);
        let mut ctl = Controller::new(fast_cfg(), vec![knob("a", 3, 20)], vec![0]).unwrap();
        drive(&mut ctl, &mut plant, 24);
        assert_eq!(ctl.commits(), 1, "cooldown holds the second commit");
        assert_eq!(ctl.current_settings(), &[1]);
        drive(&mut ctl, &mut plant, 30);
        settle(&mut ctl, &mut plant);
        assert_eq!(ctl.current_settings(), &[2], "climb resumes after cooldown");
    }

    #[test]
    fn disturbance_restarts_warmup_and_clears_cooldowns() {
        let mut plant = MockPlant::new(vec![0], vec![2]);
        let mut ctl = Controller::new(fast_cfg(), vec![knob("a", 3, 50)], vec![0]).unwrap();
        drive(&mut ctl, &mut plant, 30);
        // One commit (0 -> 1) fits before the 50-tick cooldown engages.
        assert_eq!(ctl.current_settings(), &[1]);
        assert_eq!(ctl.commits(), 1);
        ctl.notify_disturbance();
        assert!(!ctl.is_probing());
        assert_eq!(ctl.baseline(), None, "window cleared");
        // Re-converges after the disturbance despite the long cooldown
        // that would otherwise still be in force.
        plant.best = vec![0];
        drive(&mut ctl, &mut plant, 60);
        settle(&mut ctl, &mut plant);
        assert_eq!(ctl.current_settings(), &[0], "re-converged");
        assert_eq!(ctl.guardrails().violations, 0);
    }

    #[test]
    fn baseline_sums_the_window_newest_first() {
        let mut plant = MockPlant::new(vec![0], vec![0]);
        let cfg = ControllerConfig {
            warmup_ticks: 8,
            measure_ticks: 4,
            ..fast_cfg()
        };
        let mut ctl = Controller::new(cfg, vec![knob("a", 2, 0)], vec![0]).unwrap();
        assert_eq!(ctl.baseline(), None);
        for v in [0.1, 0.2, 0.3, 0.4] {
            ctl.tick(v, &mut plant);
        }
        // ((0.4 + 0.3) + 0.2) + 0.1 rounds below 1; the oldest-first sum
        // is exactly 1, a baseline of 0.25.
        assert_eq!(
            ctl.baseline().map(f64::to_bits),
            Some(0.24999999999999997f64.to_bits())
        );
        ctl.tick(0.5, &mut plant);
        assert_eq!(ctl.window.len(), 4, "the oldest point left the window");
        assert_eq!(ctl.baseline(), Some((0.5 + 0.4 + 0.3 + 0.2) / 4.0));
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let bad = ControllerConfig {
            measure_ticks: 0,
            ..Default::default()
        };
        assert!(matches!(
            Controller::new(bad, vec![knob("a", 2, 0)], vec![0]),
            Err(CtlError::InvalidConfig(_))
        ));
        assert!(matches!(
            Controller::new(ControllerConfig::default(), vec![], vec![]),
            Err(CtlError::InvalidConfig(_))
        ));
        assert!(matches!(
            Controller::new(ControllerConfig::default(), vec![knob("a", 2, 0)], vec![5]),
            Err(CtlError::UnknownSetting { .. })
        ));
    }

    #[test]
    fn single_setting_knob_is_never_probed() {
        let mut plant = MockPlant::new(vec![0], vec![0]);
        let mut ctl = Controller::new(fast_cfg(), vec![knob("fixed", 1, 0)], vec![0]).unwrap();
        drive(&mut ctl, &mut plant, 20);
        assert_eq!(ctl.probes(), 0);
        assert_eq!(plant.applies, 0);
    }

    #[test]
    fn describe_settings_names_labels() {
        let ctl = Controller::new(
            fast_cfg(),
            vec![knob("rate", 3, 0), knob("lease", 2, 0)],
            vec![2, 0],
        )
        .unwrap();
        assert_eq!(ctl.describe_settings(), "rate=s2 lease=s0");
    }
}
