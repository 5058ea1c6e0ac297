//! Calibration & validation: fit the performance model to every
//! registered measurement set and report the residuals CI gates on.
//!
//! For each [`CalibrationTarget`] the study evaluates the shipped
//! [`ModelParams`] defaults against the target's measurement set,
//! deliberately perturbs every free dimension, re-fits with the
//! deterministic coordinate descent, and reports start/fitted
//! residuals plus shipped-vs-fitted parameter deltas. The fitter's
//! candidate grids are sharded across [`Runner::map`] through the
//! [`RunnerMap`] adapter, so the whole study is bit-identical at any
//! `--jobs` while still using every core.
//!
//! Two properties are load-bearing:
//!
//! * **`paper_s3` guards the defaults.** Its measurement set *is* the
//!   §3 calibration surface, so its fitted residual staying inside the
//!   pinned tolerance means the shipped constants still reproduce the
//!   paper's tables after whatever change is under review.
//! * **The external targets guard the fitter.** Their sets were
//!   generated from deliberately different device parameters
//!   (slower controllers, switch hops, CXL-DMSim/CXLMemSim stand-ins);
//!   landing inside tolerance from the shipped defaults shows the
//!   harness can actually *recover* a foreign device, not just score
//!   the one it started on.

use serde::Serialize;

use cxl_calib::{
    evaluate, fit, param_deltas, CalibrationTarget, CandidateMap, FitConfig, ParamDelta,
    ResidualReport,
};
use cxl_perf::ModelParams;
use cxl_stats::report::{fmt_f64, Table};
use cxl_stats::rng::derive_seed;

use crate::runner::Runner;

/// [`CandidateMap`] adapter: scores the fitter's candidate grids on
/// the deterministic parallel runner. `Runner::map` preserves input
/// order, which is exactly the contract `CandidateMap` requires.
#[derive(Debug, Clone, Copy)]
pub struct RunnerMap<'a>(pub &'a Runner);

impl CandidateMap for RunnerMap<'_> {
    fn map_losses(
        &self,
        candidates: Vec<ModelParams>,
        eval: &(dyn Fn(&ModelParams) -> f64 + Sync),
    ) -> Vec<f64> {
        self.0.map(candidates, |p| eval(&p))
    }
}

/// Knobs for the calibration study.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CalibParams {
    /// Descent schedule (the per-target seed is derived from `seed`,
    /// overriding `fit.seed`).
    pub fit: FitConfig,
    /// Relative perturbation applied to every free dimension of the
    /// shipped defaults before fitting.
    pub perturb_frac: f64,
    /// Root seed for perturbation and dimension visit order.
    pub seed: u64,
}

impl Default for CalibParams {
    fn default() -> Self {
        Self {
            fit: FitConfig::default(),
            perturb_frac: 0.10,
            seed: 42,
        }
    }
}

impl CalibParams {
    /// A faster schedule for tests: fewer rounds and a coarser grid,
    /// still covering every target.
    pub fn smoke() -> Self {
        Self {
            fit: FitConfig {
                rounds: 4,
                candidates_per_dim: 5,
                ..FitConfig::default()
            },
            ..Self::default()
        }
    }
}

/// One target's calibration run.
#[derive(Debug, Clone, Serialize)]
pub struct CalibCell {
    /// Target name.
    pub target: String,
    /// What the target models.
    pub description: String,
    /// Pinned CI tolerance on the fitted max point residual, percent.
    pub tolerance_pct: f64,
    /// Residuals of the *unfitted* shipped defaults on this set.
    pub shipped: ResidualReport,
    /// Residuals at the perturbed start the fit ran from.
    pub start: ResidualReport,
    /// Residuals after the fit.
    pub fitted: ResidualReport,
    /// Shipped-vs-fitted values of every free dimension.
    pub deltas: Vec<ParamDelta>,
    /// Accepted descent moves.
    pub steps: usize,
    /// Objective evaluations spent.
    pub evaluations: u64,
    /// Whether the fitted max residual is within the pinned tolerance
    /// — the CI gate.
    pub within_tolerance: bool,
}

/// Output of the calibration study.
#[derive(Debug, Clone, Serialize)]
pub struct CalibStudy {
    /// The knobs the study ran with.
    pub params: CalibParams,
    /// One cell per registered target, in registry order.
    pub cells: Vec<CalibCell>,
}

/// Runs the study on an explicit runner. Targets run serially; within
/// each target the fitter's candidate grids fan out across the runner.
pub fn run_with(runner: &Runner, params: CalibParams) -> CalibStudy {
    let cells: Vec<CalibCell> = CalibrationTarget::registry()
        .iter()
        .map(|t| run_target(runner, &params, t))
        .collect();

    cxl_obs::counter_add("calib/targets", cells.len() as u64);
    for c in &cells {
        let g = |k: &str, v: f64| cxl_obs::gauge_set(&format!("calib/{}/{k}", c.target), v);
        g("shipped_max_residual_pct", c.shipped.max_residual_pct);
        g("start_max_residual_pct", c.start.max_residual_pct);
        g("max_residual_pct", c.fitted.max_residual_pct);
        g("rmse_pct", c.fitted.rmse_pct);
        g("tolerance_pct", c.tolerance_pct);
        g(
            "within_tolerance",
            if c.within_tolerance { 1.0 } else { 0.0 },
        );
        cxl_obs::counter_add(&format!("calib/{}/evaluations", c.target), c.evaluations);
        cxl_obs::counter_add(&format!("calib/{}/steps", c.target), c.steps as u64);
        cxl_obs::counter_add(
            &format!("calib/{}/points", c.target),
            c.fitted.curves.iter().map(|r| r.points as u64).sum(),
        );
    }

    CalibStudy { params, cells }
}

fn run_target(runner: &Runner, params: &CalibParams, t: &CalibrationTarget) -> CalibCell {
    let topo = t.topology();
    let set = t.measurements();
    let space = t.space();
    let shipped = ModelParams::default();
    let seed = derive_seed(params.seed, &format!("calib/{}", t.name));

    let shipped_report = evaluate(&topo, &shipped, &set);
    let start = space.perturbed_start(&shipped, seed, params.perturb_frac);
    let cfg = FitConfig { seed, ..params.fit };
    let r = fit(&RunnerMap(runner), &topo, &set, &space, start, &cfg);
    let start_report = evaluate(&topo, &r.start, &set);
    let fitted_report = evaluate(&topo, &r.fitted, &set);
    let within = fitted_report.max_residual_pct <= t.tolerance_pct;

    CalibCell {
        target: t.name.to_string(),
        description: t.description.to_string(),
        tolerance_pct: t.tolerance_pct,
        shipped: shipped_report,
        start: start_report,
        fitted: fitted_report,
        deltas: param_deltas(&space, &shipped, &r.fitted),
        steps: r.steps.len(),
        evaluations: r.evaluations,
        within_tolerance: within,
    }
}

impl CalibStudy {
    /// The cell for `target`.
    ///
    /// # Panics
    ///
    /// Panics when the target is not in the study.
    pub fn cell(&self, target: &str) -> &CalibCell {
        self.cells
            .iter()
            .find(|c| c.target == target)
            .unwrap_or_else(|| panic!("no calibration cell '{target}'"))
    }

    /// Fitted max point residual for `target`, percent.
    pub fn max_residual_pct(&self, target: &str) -> f64 {
        self.cell(target).fitted.max_residual_pct
    }

    /// True when every target's fitted residual is inside its pinned
    /// tolerance — the condition CI enforces.
    pub fn all_within_tolerance(&self) -> bool {
        self.cells.iter().all(|c| c.within_tolerance)
    }

    /// Fitted value of a free dimension on `target`.
    ///
    /// # Panics
    ///
    /// Panics when the target or field is not in the study.
    pub fn fitted_value(&self, target: &str, field: &str) -> f64 {
        self.cell(target)
            .deltas
            .iter()
            .find(|d| d.field == field)
            .unwrap_or_else(|| panic!("'{target}' does not fit '{field}'"))
            .fitted
    }

    /// The residual table (one row per target).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "calibration",
            "Model calibration: fitted residuals per measurement set (max point residual gated by the pinned tolerance)",
            &[
                "target",
                "points",
                "shipped max %",
                "start max %",
                "fitted max %",
                "fitted rmse %",
                "tol %",
                "ok",
                "steps",
                "evals",
            ],
        );
        for c in &self.cells {
            t.push_row(vec![
                c.target.clone(),
                c.fitted
                    .curves
                    .iter()
                    .map(|r| r.points)
                    .sum::<usize>()
                    .to_string(),
                fmt_f64(c.shipped.max_residual_pct),
                fmt_f64(c.start.max_residual_pct),
                fmt_f64(c.fitted.max_residual_pct),
                fmt_f64(c.fitted.rmse_pct),
                fmt_f64(c.tolerance_pct),
                if c.within_tolerance { "yes" } else { "NO" }.to_string(),
                c.steps.to_string(),
                c.evaluations.to_string(),
            ]);
        }
        t
    }

    /// The shipped-vs-fitted parameter-delta table (one row per free
    /// dimension per target).
    pub fn delta_table(&self) -> Table {
        let mut t = Table::new(
            "calibration_deltas",
            "Fitted vs shipped model parameters, per target and free dimension",
            &["target", "field", "shipped", "fitted", "delta %"],
        );
        for c in &self.cells {
            for d in &c.deltas {
                t.push_row(vec![
                    c.target.clone(),
                    d.field.clone(),
                    fmt_f64(d.shipped),
                    fmt_f64(d.fitted),
                    fmt_f64(d.delta_pct),
                ]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_covers_every_registered_target() {
        let s = run_with(&Runner::serial(), CalibParams::smoke());
        assert_eq!(s.cells.len(), CalibrationTarget::registry().len());
        for c in &s.cells {
            assert!(
                c.start.max_residual_pct > 0.0,
                "{}: start not perturbed",
                c.target
            );
            assert!(
                c.fitted.max_residual_pct <= c.start.max_residual_pct,
                "{}: fit made things worse",
                c.target
            );
            assert!(c.evaluations > 0);
        }
    }

    #[test]
    fn parallel_candidate_scoring_matches_serial() {
        let p = CalibParams::smoke();
        let a = run_with(&Runner::serial(), p);
        let b = run_with(&Runner::new(8), p);
        let ja = serde_json::to_string(&a).expect("serializes");
        let jb = serde_json::to_string(&b).expect("serializes");
        assert_eq!(ja, jb, "study must be bit-identical at any worker count");
    }

    #[test]
    fn default_schedule_lands_every_target_inside_tolerance() {
        let s = run_with(&Runner::from_env(), CalibParams::default());
        for c in &s.cells {
            assert!(
                c.within_tolerance,
                "{}: fitted max residual {:.3}% vs tolerance {:.1}%",
                c.target, c.fitted.max_residual_pct, c.tolerance_pct
            );
        }
        assert!(s.all_within_tolerance());
    }
}
