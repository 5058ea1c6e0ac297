//! Online auto-tuning: the `cxl-ctl` control plane versus every static
//! configuration on a phased trace.
//!
//! The paper's sweeps pick the best *static* configuration per workload
//! (interleave ratio in §4.2, promotion rate in §4.4, pool provisioning
//! in §5). This experiment closes the loop online and asks the question
//! the sweeps cannot: when the workload changes phase mid-run, can a
//! feedback controller riding the live system beat every static choice?
//!
//! Two plants, both driven by the same [`cxl_ctl::Controller`] hill
//! climber:
//!
//! * **KV plant** — a flash-backed KeyDB store on the paper testbed,
//!   running a phased YCSB trace (C read-only → A update-heavy →
//!   D insert/growth, the last phase twice as long), with the fixed
//!   expander dying at the phase-3 boundary so the insert-growth phase
//!   runs entirely on degraded capacity. The controller tunes a pool-lease knob that grows or
//!   shrinks a lease-backed expander through `cxl-pool` grants and the
//!   rate-limited evacuation path, plus the promotion rate limit. The objective is throughput minus a
//!   per-slab lease cost, so holding capacity "just in case" is not
//!   free — exactly the pooling economics of §5.
//! * **LLM plant** — the §4.5 serving model under a thread ramp that
//!   rises and falls (48 → 84 → 96 → 48). The controller walks the
//!   placement ladder (MMEM, 3:1 … 1:3); DRAM-heavy placements win at
//!   low thread counts but collapse one by one as DRAM bandwidth
//!   saturates (MMEM ≥ 60T, 3:1 ≥ 72T, 2:1 ≥ 96T), and the final
//!   descent forces the climber to walk back up the ladder — so no
//!   static placement wins every stage.
//!
//! The adaptive cells run as periodic ticks on the `cxl-sim` engine
//! ([`cxl_ctl::run_on_engine`]) with the fault scheduled between two
//! ticks; the static cells run the identical tick grid in a plain loop
//! with the identical fault boundary. Every cell goes through
//! [`Runner::map_seeded`], so the whole study is bit-identical for any
//! `--jobs`.

use serde::Serialize;

use cxl_ctl::{run_on_engine, Controller, ControllerConfig, CtlError, KnobSpec, Plant};
use cxl_llm::{LlmCluster, LlmConfig, LlmPlacement};
use cxl_pool::{HostId, PoolManager};
use cxl_serve::lease::{self, LeasedKv};
use cxl_sim::SimTime;
use cxl_stats::report::{fmt_f64, Table};
use cxl_ycsb::Workload;

use crate::runner::Runner;

/// The single KV host on the pool.
const HOST: HostId = HostId(0);

/// Promotion-rate ladder, MiB/s.
const PROMO_MIB: [f64; 4] = [8.0, 32.0, 128.0, 512.0];
/// Lease ladder, slabs (one slab = 1/8 of the dataset): none, or the
/// full four-slab entitlement. Binary on purpose — the §5 economics
/// question is whether leasing pays at all at the going rate, and a
/// single committed probe crosses the whole capacity gap inside one
/// recovery window instead of paying a full probe cycle per rung.
const LEASE_SLABS: [u64; 2] = [0, 4];
/// Total slabs in the shared pool.
const POOL_SLABS: u64 = 6;
/// LLM thread-ramp stages: rise to saturation, then fall back. Each
/// stage has a different best placement (MMEM, 2:1, 1:1, MMEM).
const LLM_STAGES: [usize; 4] = [48, 84, 96, 48];

/// Sizing knobs for the auto-tuning study.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AutotuneParams {
    /// Records in the KV store (1 KiB each).
    pub record_count: u64,
    /// KV operations executed per control tick.
    pub ops_per_tick: u64,
    /// Control ticks per healthy workload phase; the capacity-pressure
    /// phase runs twice this long so re-convergence fits inside it.
    pub ticks_per_phase: u64,
    /// Acceptance window: mean of the last `window` ticks of a phase.
    pub window: usize,
    /// Lease cost, kops/s of objective per held slab. Makes capacity
    /// hoarding lose during healthy phases (§5 pooling economics).
    pub lease_cost_kops: f64,
    /// Control ticks per LLM thread-ramp stage.
    pub llm_ticks_per_stage: u64,
    /// Root seed.
    pub seed: u64,
}

impl Default for AutotuneParams {
    fn default() -> Self {
        Self {
            record_count: 100_000,
            ops_per_tick: 8_000,
            ticks_per_phase: 48,
            window: 8,
            lease_cost_kops: 35.0,
            llm_ticks_per_stage: 32,
            seed: 42,
        }
    }
}

impl AutotuneParams {
    /// A fast variant for tests.
    pub fn smoke() -> Self {
        Self {
            record_count: 30_000,
            ops_per_tick: 3_000,
            ticks_per_phase: 32,
            window: 4,
            llm_ticks_per_stage: 28,
            ..Default::default()
        }
    }

    /// Total KV control ticks: two healthy phases plus the doubled
    /// capacity-pressure phase.
    pub fn kv_ticks(&self) -> u64 {
        4 * self.ticks_per_phase
    }

    /// The tick after which the fixed expander dies: the phase-2/3
    /// boundary, so the capacity-pressure phase opens degraded.
    pub fn fault_tick(&self) -> u64 {
        2 * self.ticks_per_phase
    }
}

/// One configuration's run over the phased KV trace.
#[derive(Debug, Clone, Serialize)]
pub struct KvCell {
    /// Configuration label (`adaptive` or `static-p<rate>-l<slabs>`).
    pub label: String,
    /// True for the controller-driven cell.
    pub adaptive: bool,
    /// Objective per tick (kops minus lease cost), tick order.
    pub objectives: Vec<f64>,
    /// Mean objective over the last `window` ticks of each phase; the
    /// third window closes the doubled capacity-pressure phase, long
    /// after the expander death.
    pub phase_windows: [f64; 3],
    /// Sum of the objective over the whole trace.
    pub total: f64,
    /// Slabs held when the run ended.
    pub final_slabs: u64,
    /// Final settings, `knob=label` pairs (adaptive cell only).
    pub final_settings: String,
    /// Probes started (adaptive cell only).
    pub probes: u64,
    /// Probes committed.
    pub commits: u64,
    /// Probes rolled back (including emergencies).
    pub rollbacks: u64,
    /// Emergency (collapse) rollbacks.
    pub emergency_rollbacks: u64,
    /// Actuations the plant rejected (pool exhaustion etc.).
    pub rejected: u64,
    /// Guardrail invariant violations — must stay zero.
    pub violations: u64,
}

/// One placement's run over the LLM thread ramp.
#[derive(Debug, Clone, Serialize)]
pub struct LlmCell {
    /// Configuration label (`adaptive` or a static placement).
    pub label: String,
    /// True for the controller-driven cell.
    pub adaptive: bool,
    /// Serving rate per tick, ktokens/s, tick order.
    pub objectives: Vec<f64>,
    /// Mean serving rate over the last `window` ticks of each stage.
    pub stage_windows: Vec<f64>,
    /// Sum of the serving rate over the whole ramp.
    pub total: f64,
    /// Placement in force when the run ended.
    pub final_placement: String,
    /// Probes committed (adaptive cell only).
    pub commits: u64,
    /// Guardrail invariant violations — must stay zero.
    pub violations: u64,
}

/// The full study: adaptive-vs-static on both plants.
#[derive(Debug, Clone, Serialize)]
pub struct AutotuneStudy {
    /// KV cells, adaptive first.
    pub kv_cells: Vec<KvCell>,
    /// LLM cells, adaptive first.
    pub llm_cells: Vec<LlmCell>,
    /// Parameters used.
    pub params: AutotuneParams,
}

impl AutotuneStudy {
    /// The controller-driven KV cell.
    pub fn kv_adaptive(&self) -> &KvCell {
        self.kv_cells
            .iter()
            .find(|c| c.adaptive)
            .expect("adaptive kv cell")
    }

    /// The static KV cells.
    pub fn kv_statics(&self) -> Vec<&KvCell> {
        self.kv_cells.iter().filter(|c| !c.adaptive).collect()
    }

    /// Best static phase-window mean for phase `i` (0-based).
    pub fn kv_best_static_window(&self, i: usize) -> f64 {
        self.kv_statics()
            .iter()
            .map(|c| c.phase_windows[i])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Best static total over the whole trace.
    pub fn kv_best_static_total(&self) -> f64 {
        self.kv_statics()
            .iter()
            .map(|c| c.total)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The controller-driven LLM cell.
    pub fn llm_adaptive(&self) -> &LlmCell {
        self.llm_cells
            .iter()
            .find(|c| c.adaptive)
            .expect("adaptive llm cell")
    }

    /// The static LLM cells.
    pub fn llm_statics(&self) -> Vec<&LlmCell> {
        self.llm_cells.iter().filter(|c| !c.adaptive).collect()
    }

    /// Best static stage-window mean for ramp stage `i`.
    pub fn llm_best_static_window(&self, i: usize) -> f64 {
        self.llm_statics()
            .iter()
            .map(|c| c.stage_windows[i])
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Best static LLM total over the whole ramp.
    pub fn llm_best_static_total(&self) -> f64 {
        self.llm_statics()
            .iter()
            .map(|c| c.total)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Guardrail violations summed over every cell — the CI gate.
    pub fn total_violations(&self) -> u64 {
        self.kv_cells.iter().map(|c| c.violations).sum::<u64>()
            + self.llm_cells.iter().map(|c| c.violations).sum::<u64>()
    }

    /// True when the adaptive KV cell's window mean is within `frac` of
    /// the best static in every phase (the convergence claim).
    pub fn kv_adaptive_within(&self, frac: f64) -> bool {
        let a = self.kv_adaptive();
        (0..3).all(|i| a.phase_windows[i] >= (1.0 - frac) * self.kv_best_static_window(i))
    }

    /// True when the adaptive LLM cell's window mean is within `frac`
    /// of the best static at every ramp stage.
    pub fn llm_adaptive_within(&self, frac: f64) -> bool {
        let a = self.llm_adaptive();
        (0..LLM_STAGES.len())
            .all(|i| a.stage_windows[i] >= (1.0 - frac) * self.llm_best_static_window(i))
    }

    /// Renders the KV half as a table.
    pub fn kv_table(&self) -> Table {
        let mut t = Table::new(
            "autotune_kv",
            "KeyDB phased trace (C -> A -> D + expander death): adaptive vs static",
            &[
                "config",
                "P1 window",
                "P2 window",
                "post-fault window",
                "total",
                "final slabs",
                "commits",
                "rollbacks",
                "rejected",
                "violations",
            ],
        );
        for c in &self.kv_cells {
            t.push_row(vec![
                c.label.clone(),
                fmt_f64(c.phase_windows[0]),
                fmt_f64(c.phase_windows[1]),
                fmt_f64(c.phase_windows[2]),
                fmt_f64(c.total),
                c.final_slabs.to_string(),
                c.commits.to_string(),
                c.rollbacks.to_string(),
                c.rejected.to_string(),
                c.violations.to_string(),
            ]);
        }
        t
    }

    /// Renders the LLM half as a table.
    pub fn llm_table(&self) -> Table {
        let mut t = Table::new(
            "autotune_llm",
            "LLM serving thread ramp (48 -> 84 -> 96 -> 48): adaptive vs static placements",
            &[
                "config",
                "48T window",
                "84T window",
                "96T window",
                "48T' window",
                "total",
                "final placement",
                "commits",
            ],
        );
        for c in &self.llm_cells {
            t.push_row(vec![
                c.label.clone(),
                fmt_f64(c.stage_windows[0]),
                fmt_f64(c.stage_windows[1]),
                fmt_f64(c.stage_windows[2]),
                fmt_f64(c.stage_windows[3]),
                fmt_f64(c.total),
                c.final_placement.clone(),
                c.commits.to_string(),
            ]);
        }
        t
    }
}

/// Mean of `objs[end - window .. end]` (`end` is a 1-based tick count).
fn window_mean(objs: &[f64], end: u64, window: usize) -> f64 {
    let end = end as usize;
    let start = end.saturating_sub(window);
    let slice = &objs[start..end];
    slice.iter().sum::<f64>() / slice.len() as f64
}

// ---------------------------------------------------------------------
// KV plant
// ---------------------------------------------------------------------

/// The flash-backed KeyDB store plus the pool lease it draws on.
struct KvPlant {
    kv: LeasedKv,
    pool: PoolManager,
    held_slabs: u64,
    ticks_done: u64,
    ticks_per_phase: u64,
    ops_per_tick: u64,
    lease_cost_kops: f64,
}

impl KvPlant {
    fn new(params: &AutotuneParams, seed: u64) -> Self {
        // DRAM + the fixed expander barely cover the initial dataset;
        // workload-D growth and any evacuation must go to the leased
        // expander or spill to SSD.
        let kv = LeasedKv::new(
            params.record_count,
            (9, 20),
            (5, 8),
            PROMO_MIB[1] * 1024.0 * 1024.0,
            seed,
        );
        Self {
            kv,
            pool: PoolManager::new(POOL_SLABS, 1, 0.25),
            held_slabs: 0,
            ticks_done: 0,
            ticks_per_phase: params.ticks_per_phase,
            ops_per_tick: params.ops_per_tick,
            lease_cost_kops: params.lease_cost_kops,
        }
    }

    /// Runs one control interval of the phased trace and returns the
    /// objective: delivered kops minus the lease bill.
    fn tick(&mut self) -> f64 {
        self.ticks_done += 1;
        let phase = (self.ticks_done - 1) / self.ticks_per_phase;
        let workload = match phase {
            0 => Workload::C,
            1 => Workload::A,
            _ => Workload::D,
        };
        let res = self.kv.store.run(workload, self.ops_per_tick);
        res.kops() - self.lease_cost_kops * self.held_slabs as f64
    }
}

impl Plant for KvPlant {
    fn apply(&mut self, knob: usize, setting: usize) -> Result<(), CtlError> {
        match knob {
            // The lease moves all or nothing (see `lease::resize`).
            0 => {
                let now = self.kv.store.now();
                lease::resize(
                    &mut self.pool,
                    HOST,
                    &mut self.held_slabs,
                    LEASE_SLABS[setting],
                    now,
                    Some(&mut self.kv),
                )
            }
            1 => self
                .kv
                .store
                .set_promote_rate(PROMO_MIB[setting] * 1024.0 * 1024.0)
                .map_err(|e| CtlError::Rejected(e.to_string())),
            k => Err(CtlError::UnknownKnob(k)),
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        lease::audit(&self.pool, HOST, self.held_slabs, Some(&self.kv))
    }
}

// The lease knob comes first: the round-robin restarts at knob 0 after
// a disturbance, so capacity is the first thing re-probed post-fault.
fn kv_knobs() -> Vec<KnobSpec> {
    vec![
        KnobSpec::new(
            "lease_slabs",
            LEASE_SLABS.iter().map(|&s| (format!("{s}slabs"), s as f64)),
            2,
        ),
        KnobSpec::new(
            "promote_rate",
            PROMO_MIB
                .iter()
                .map(|&m| (format!("{m:.0}MiB/s"), m * 1024.0 * 1024.0)),
            4,
        ),
    ]
}

fn kv_controller_config() -> ControllerConfig {
    // Settle 12 / measure 8: a lease grow pays its bill instantly but
    // earns through cache-in and insert placement over the following
    // dozens of ticks, so measurement must start after that transient
    // or every capacity probe reads as a regression; and the post-fault
    // objective has deep one-tick cache-in stalls, so the window must
    // be wide enough that one stall cannot veto a paying probe.
    ControllerConfig {
        warmup_ticks: 3,
        settle_ticks: 12,
        measure_ticks: 8,
        hysteresis: 0.02,
        // A grow probe drops the *net* objective by the full lease bill
        // the instant it starts, before any throughput gain lands — so
        // the crash floor must sit well below baseline-minus-bill, or
        // the emergency path reads the bill as a collapse. 0.85 keeps
        // it armed for true collapses (near-zero throughput) only.
        crash_tolerance: 0.85,
        min_action_gap_ticks: 1,
        shift_tolerance: 0.12,
        // A lease grow's earnings arrive over a Zipf cache-warm-up
        // horizon (~50 ticks) no affordable settle window covers; the
        // extension rule bridges it, one window at a time, for as long
        // as the window keeps showing the transient arriving.
        max_probe_extensions: 4,
    }
}

fn make_kv_cell(
    label: String,
    adaptive: bool,
    objectives: Vec<f64>,
    plant: &KvPlant,
    ctl: Option<&Controller>,
    params: &AutotuneParams,
) -> KvCell {
    let tpp = params.ticks_per_phase;
    let phase_windows = [
        window_mean(&objectives, tpp, params.window),
        window_mean(&objectives, 2 * tpp, params.window),
        window_mean(&objectives, params.kv_ticks(), params.window),
    ];
    let total = objectives.iter().sum();
    KvCell {
        label,
        adaptive,
        phase_windows,
        total,
        objectives,
        final_slabs: plant.held_slabs,
        final_settings: ctl.map(|c| c.describe_settings()).unwrap_or_default(),
        probes: ctl.map_or(0, |c| c.probes()),
        commits: ctl.map_or(0, |c| c.commits()),
        rollbacks: ctl.map_or(0, |c| c.rollbacks()),
        emergency_rollbacks: ctl.map_or(0, |c| c.emergency_rollbacks()),
        rejected: ctl.map_or(0, |c| c.guardrails().actions_rejected),
        violations: ctl.map_or(0, |c| c.guardrails().violations),
    }
}

fn run_kv_adaptive(params: AutotuneParams, seed: u64) -> KvCell {
    let plant = KvPlant::new(&params, seed);
    let ctl = Controller::new(kv_controller_config(), kv_knobs(), vec![0, 1])
        .expect("kv controller config is valid");
    let period = SimTime::from_ms(1);
    // The fault fires between tick `fault_tick` and the next one.
    let fault_at = SimTime::from_us(params.fault_tick() * 1_000 + 500);
    let run = run_on_engine(
        ctl,
        plant,
        period,
        SimTime::from_ms(params.kv_ticks()),
        |p: &mut KvPlant, _now| p.tick(),
        move |e| {
            e.schedule_at(fault_at, |e| {
                let s = e.state_mut();
                s.plant.kv.fail_fixed_expander();
                s.controller.notify_disturbance();
            });
        },
    );
    let objectives: Vec<f64> = run.trace.iter().map(|t| t.objective).collect();
    make_kv_cell(
        "adaptive".to_string(),
        true,
        objectives,
        &run.plant,
        Some(&run.controller),
        &params,
    )
}

fn run_kv_static(
    label: String,
    promo_idx: usize,
    lease_idx: usize,
    params: AutotuneParams,
    seed: u64,
) -> KvCell {
    let mut plant = KvPlant::new(&params, seed);
    plant.apply(0, lease_idx).expect("static lease applies");
    plant
        .apply(1, promo_idx)
        .expect("static promote rate applies");
    let mut objectives = Vec::with_capacity(params.kv_ticks() as usize);
    for t in 1..=params.kv_ticks() {
        objectives.push(plant.tick());
        if t == params.fault_tick() {
            plant.kv.fail_fixed_expander();
        }
    }
    make_kv_cell(label, false, objectives, &plant, None, &params)
}

// ---------------------------------------------------------------------
// LLM plant
// ---------------------------------------------------------------------

/// The §4.5 serving model with a routeable placement knob.
struct LlmPlant {
    cluster: LlmCluster,
    ladder: Vec<LlmPlacement>,
    setting: usize,
    ticks_done: u64,
    ticks_per_stage: u64,
}

impl LlmPlant {
    fn new(params: &AutotuneParams) -> Self {
        Self {
            cluster: LlmCluster::new(LlmConfig::default()),
            ladder: llm_ladder(),
            setting: 0,
            ticks_done: 0,
            ticks_per_stage: params.llm_ticks_per_stage,
        }
    }

    /// One control interval: serve at the current ramp stage's thread
    /// count and report ktokens/s.
    fn tick(&mut self) -> f64 {
        self.ticks_done += 1;
        let stage = ((self.ticks_done - 1) / self.ticks_per_stage) as usize;
        let threads = LLM_STAGES[stage.min(LLM_STAGES.len() - 1)];
        self.cluster
            .serving_rate(self.ladder[self.setting], threads)
            .tokens_per_sec
            / 1e3
    }
}

impl Plant for LlmPlant {
    fn apply(&mut self, _knob: usize, setting: usize) -> Result<(), CtlError> {
        // Placement is a routing decision; swapping it is always legal.
        self.setting = setting;
        Ok(())
    }
}

/// Placement ladder ordered by falling DRAM fraction.
fn llm_ladder() -> Vec<LlmPlacement> {
    vec![
        LlmPlacement::MmemOnly,
        LlmPlacement::Interleave { n: 3, m: 1 },
        LlmPlacement::Interleave { n: 2, m: 1 },
        LlmPlacement::Interleave { n: 1, m: 1 },
        LlmPlacement::Interleave { n: 1, m: 2 },
        LlmPlacement::Interleave { n: 1, m: 3 },
    ]
}

fn llm_controller_config() -> ControllerConfig {
    // The serving model is analytic, so one measure tick is exact and
    // hysteresis can sit near zero. A tight action gap plus the
    // quiescence machinery (probe directions close once known-worse,
    // reopened by shift detection) means the climber sprints to the
    // stage optimum and then pays no probe overhead until the ramp
    // moves the objective by more than `shift_tolerance`.
    ControllerConfig {
        warmup_ticks: 2,
        settle_ticks: 0,
        measure_ticks: 1,
        hysteresis: 0.01,
        crash_tolerance: 0.6,
        min_action_gap_ticks: 1,
        shift_tolerance: 0.05,
        max_probe_extensions: 0,
    }
}

fn llm_ticks(params: &AutotuneParams) -> u64 {
    LLM_STAGES.len() as u64 * params.llm_ticks_per_stage
}

fn make_llm_cell(
    label: String,
    adaptive: bool,
    objectives: Vec<f64>,
    plant: &LlmPlant,
    ctl: Option<&Controller>,
    params: &AutotuneParams,
) -> LlmCell {
    let tps = params.llm_ticks_per_stage;
    let window = params.window.min(tps as usize);
    let stage_windows = (1..=LLM_STAGES.len() as u64)
        .map(|s| window_mean(&objectives, s * tps, window))
        .collect();
    let total = objectives.iter().sum();
    LlmCell {
        label,
        adaptive,
        stage_windows,
        total,
        objectives,
        final_placement: plant.ladder[plant.setting].label(),
        commits: ctl.map_or(0, |c| c.commits()),
        violations: ctl.map_or(0, |c| c.guardrails().violations),
    }
}

fn run_llm_adaptive(params: AutotuneParams) -> LlmCell {
    let plant = LlmPlant::new(&params);
    let knob = KnobSpec::new(
        "placement",
        llm_ladder().iter().map(|p| (p.label(), p.dram_fraction())),
        0,
    );
    let ctl = Controller::new(llm_controller_config(), vec![knob], vec![0])
        .expect("llm controller config is valid");
    let run = run_on_engine(
        ctl,
        plant,
        SimTime::from_ms(1),
        SimTime::from_ms(llm_ticks(&params)),
        |p: &mut LlmPlant, _now| p.tick(),
        |_| {},
    );
    let objectives: Vec<f64> = run.trace.iter().map(|t| t.objective).collect();
    make_llm_cell(
        "adaptive".to_string(),
        true,
        objectives,
        &run.plant,
        Some(&run.controller),
        &params,
    )
}

fn run_llm_static(setting: usize, params: AutotuneParams) -> LlmCell {
    let mut plant = LlmPlant::new(&params);
    plant.setting = setting;
    let objectives: Vec<f64> = (0..llm_ticks(&params)).map(|_| plant.tick()).collect();
    let label = format!("static-{}", plant.ladder[setting].label());
    make_llm_cell(label, false, objectives, &plant, None, &params)
}

// ---------------------------------------------------------------------
// Study assembly
// ---------------------------------------------------------------------

/// One cell of the combined grid (KV and LLM cells share the runner).
#[derive(Clone)]
enum Job {
    KvAdaptive,
    KvStatic {
        label: String,
        promo_idx: usize,
        lease_idx: usize,
    },
    LlmAdaptive,
    LlmStatic {
        setting: usize,
    },
}

enum CellResult {
    Kv(KvCell),
    Llm(LlmCell),
}

/// The static KV grid: promotion-rate endpoints crossed with lease
/// sizes, covering "never lease", "modest lease", "max lease".
fn kv_static_grid() -> Vec<(String, usize, usize)> {
    let mut grid = Vec::new();
    for &promo_idx in &[1usize, 3] {
        for &lease_idx in &[0usize, 1] {
            grid.push((
                format!(
                    "static-p{:.0}M-l{}",
                    PROMO_MIB[promo_idx], LEASE_SLABS[lease_idx]
                ),
                promo_idx,
                lease_idx,
            ));
        }
    }
    grid
}

/// Runs the study on an explicit runner. Every cell is seeded from the
/// root seed and its label, so the study is bit-identical for any
/// worker count.
pub fn run_with(runner: &Runner, params: AutotuneParams) -> AutotuneStudy {
    let mut grid: Vec<(String, Job)> = vec![("autotune/kv/adaptive".to_string(), Job::KvAdaptive)];
    for (label, promo_idx, lease_idx) in kv_static_grid() {
        grid.push((
            format!("autotune/kv/{label}"),
            Job::KvStatic {
                label,
                promo_idx,
                lease_idx,
            },
        ));
    }
    grid.push(("autotune/llm/adaptive".to_string(), Job::LlmAdaptive));
    for setting in 0..llm_ladder().len() {
        grid.push((
            format!("autotune/llm/static-{setting}"),
            Job::LlmStatic { setting },
        ));
    }

    let results = runner.map_seeded(params.seed, grid, move |job, seed| match job {
        Job::KvAdaptive => CellResult::Kv(run_kv_adaptive(params, seed)),
        Job::KvStatic {
            label,
            promo_idx,
            lease_idx,
        } => CellResult::Kv(run_kv_static(label, promo_idx, lease_idx, params, seed)),
        // The LLM model is analytic: no seed enters it.
        Job::LlmAdaptive => CellResult::Llm(run_llm_adaptive(params)),
        Job::LlmStatic { setting } => CellResult::Llm(run_llm_static(setting, params)),
    });

    let mut kv_cells = Vec::new();
    let mut llm_cells = Vec::new();
    for r in results {
        match r {
            CellResult::Kv(c) => kv_cells.push(c),
            CellResult::Llm(c) => llm_cells.push(c),
        }
    }
    AutotuneStudy {
        kv_cells,
        llm_cells,
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llm_adaptive_beats_every_static_placement() {
        let p = AutotuneParams::smoke();
        let adaptive = run_llm_adaptive(p);
        assert_eq!(adaptive.violations, 0);
        assert!(adaptive.commits >= 1, "the ramp forces at least one move");
        for setting in 0..llm_ladder().len() {
            let s = run_llm_static(setting, p);
            assert!(
                adaptive.total > s.total,
                "adaptive {} must beat {} ({})",
                adaptive.total,
                s.label,
                s.total
            );
        }
    }

    #[test]
    fn kv_lease_knob_is_transactional_against_the_pool() {
        let p = AutotuneParams::smoke();
        let mut plant = KvPlant::new(&p, 7);
        // The pool holds 6 slabs; the full entitlement fits.
        plant.apply(0, 1).expect("lease of 4 slabs fits the pool");
        assert_eq!(plant.held_slabs, 4);
        plant
            .check_invariants()
            .expect("invariants hold at 4 slabs");
        // Shrink drains the leased node through evacuation and returns
        // the slabs to the pool.
        plant.apply(0, 0).expect("shrink back to no lease");
        assert_eq!(plant.held_slabs, 0);
        assert_eq!(plant.pool.granted_slabs(HOST), 0);
        plant
            .check_invariants()
            .expect("invariants hold at 0 slabs");
    }

    #[test]
    fn kv_adaptive_survives_the_fault_and_grows_the_lease() {
        let p = AutotuneParams::smoke();
        let c = run_kv_adaptive(p, 7);
        assert_eq!(c.violations, 0, "no guardrail violations");
        assert_eq!(c.objectives.len() as u64, p.kv_ticks());
        assert!(
            c.objectives.iter().all(|o| o.is_finite()),
            "store keeps serving through the fault"
        );
        assert!(
            c.final_slabs > 0,
            "post-fault capacity pressure must make the controller lease"
        );
    }

    #[test]
    fn study_is_deterministic_across_worker_counts() {
        let p = AutotuneParams::smoke();
        let a = run_with(&Runner::new(1), p);
        let b = run_with(&Runner::new(8), p);
        for (x, y) in a.kv_cells.iter().zip(&b.kv_cells) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.objectives, y.objectives, "kv {} diverged", x.label);
            assert_eq!(x.final_slabs, y.final_slabs);
            assert_eq!(x.commits, y.commits);
        }
        for (x, y) in a.llm_cells.iter().zip(&b.llm_cells) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.objectives, y.objectives, "llm {} diverged", x.label);
        }
    }
}
