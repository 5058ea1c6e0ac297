//! Multi-application cost mixtures.
//!
//! §6 notes that the Abstract Cost Model covers "only one type of
//! application at a time" and flags multi-application estates as future
//! work. This module provides the straightforward composition: a fleet
//! is a weighted mixture of application classes, each with its own
//! measured `(R_d, R_c)`; server counts compose linearly because each
//! class runs on its own slice of the fleet.

use serde::{Deserialize, Serialize};

use crate::error::CostError;
use crate::model::{CostModel, CostModelParams};

/// One application class within a fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppClass {
    /// Display name, e.g. `"Spark SQL"`.
    pub name: String,
    /// Fraction of the baseline fleet this class occupies (weights must
    /// sum to 1).
    pub fleet_fraction: f64,
    /// The class's cost-model parameters.
    pub params: CostModelParams,
}

/// A weighted mixture of application classes.
#[derive(Debug, Clone, Serialize)]
pub struct FleetMixture {
    classes: Vec<AppClass>,
}

impl FleetMixture {
    /// Builds a mixture.
    ///
    /// # Panics
    ///
    /// Panics if there are no classes, a weight is non-positive, or the
    /// weights do not sum to 1 (±1e-6). Use
    /// [`FleetMixture::try_new`] for user-supplied fleet descriptions.
    pub fn new(classes: Vec<AppClass>) -> Self {
        Self::try_new(classes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`FleetMixture::new`]: malformed fleet
    /// descriptions come back as a [`CostError`] instead of a panic.
    pub fn try_new(classes: Vec<AppClass>) -> Result<Self, CostError> {
        if classes.is_empty() {
            return Err(CostError::EmptyMixture);
        }
        let total: f64 = classes.iter().map(|c| c.fleet_fraction).sum();
        if (total - 1.0).abs() >= 1e-6 {
            return Err(CostError::UnnormalizedWeights(total));
        }
        if let Some(c) = classes.iter().find(|c| c.fleet_fraction <= 0.0) {
            return Err(CostError::NonPositiveWeight(c.name.clone()));
        }
        Ok(Self { classes })
    }

    /// The classes.
    pub fn classes(&self) -> &[AppClass] {
        &self.classes
    }

    /// Fleet-wide `N_cxl / N_baseline`: the weighted sum of per-class
    /// ratios.
    pub fn server_ratio(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.fleet_fraction * CostModel::new(c.params).server_ratio())
            .sum()
    }

    /// Fleet-wide TCO saving with a common relative server cost `R_t`
    /// (taken from each class's params, weighted).
    pub fn tco_saving(&self) -> f64 {
        1.0 - self
            .classes
            .iter()
            .map(|c| c.fleet_fraction * CostModel::new(c.params).server_ratio() * c.params.rt)
            .sum::<f64>()
    }

    /// Per-class `(name, server_ratio, tco_saving)` breakdown.
    pub fn breakdown(&self) -> Vec<(String, f64, f64)> {
        self.classes
            .iter()
            .map(|c| {
                let m = CostModel::new(c.params);
                (c.name.clone(), m.server_ratio(), m.tco_saving())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(name: &str, w: f64, rd: f64, rc: f64) -> AppClass {
        AppClass {
            name: name.to_string(),
            fleet_fraction: w,
            params: CostModelParams {
                rd,
                rc,
                c: 2.0,
                rt: 1.1,
            },
        }
    }

    #[test]
    fn single_class_matches_plain_model() {
        let m = FleetMixture::new(vec![class("kv", 1.0, 10.0, 8.0)]);
        assert!((m.server_ratio() - 0.6729).abs() < 1e-3);
        assert!((m.tco_saving() - 0.2598).abs() < 1e-3);
    }

    #[test]
    fn mixture_interpolates_between_classes() {
        let fast = class("kv", 0.5, 10.0, 9.0);
        let slow = class("spark", 0.5, 10.0, 3.0);
        let mix = FleetMixture::new(vec![fast.clone(), slow.clone()]);
        let rf = CostModel::new(fast.params).server_ratio();
        let rs = CostModel::new(slow.params).server_ratio();
        let r = mix.server_ratio();
        assert!(r > rf.min(rs) && r < rf.max(rs));
        assert!((r - 0.5 * (rf + rs)).abs() < 1e-12);
    }

    #[test]
    fn breakdown_lists_every_class() {
        let mix = FleetMixture::new(vec![
            class("kv", 0.7, 10.0, 9.0),
            class("spark", 0.3, 10.0, 3.0),
        ]);
        let b = mix.breakdown();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].0, "kv");
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn unnormalized_weights_rejected() {
        FleetMixture::new(vec![class("a", 0.5, 10.0, 8.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mixture_rejected() {
        FleetMixture::new(vec![]);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert_eq!(
            FleetMixture::try_new(vec![]).unwrap_err(),
            crate::error::CostError::EmptyMixture
        );
        let err = FleetMixture::try_new(vec![class("a", 0.5, 10.0, 8.0)]).unwrap_err();
        assert!(matches!(
            err,
            crate::error::CostError::UnnormalizedWeights(t) if (t - 0.5).abs() < 1e-12
        ));
        let mut bad = vec![class("a", 1.0, 10.0, 8.0), class("b", 0.0, 10.0, 8.0)];
        bad[0].fleet_fraction = 1.0;
        let err = FleetMixture::try_new(bad).unwrap_err();
        assert!(matches!(
            err,
            crate::error::CostError::NonPositiveWeight(n) if n == "b"
        ));
        assert!(FleetMixture::try_new(vec![class("kv", 1.0, 10.0, 8.0)]).is_ok());
    }
}
