//! Streaming summary statistics: Welford's mean/variance accumulator
//! and an exponentially weighted moving average.

use serde::Serialize;

/// Running mean / variance / min / max accumulator.
///
/// # Examples
///
/// ```
/// use cxl_stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] {
///     s.add(v);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), 1.0);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator (Chan et al. parallel combination).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exponentially weighted moving average, seeded by the first push.
///
/// Each later push moves the average a fraction `alpha` of the way
/// toward the new value (`e + alpha * (v - e)`), so a higher `alpha`
/// tracks faster. Pure `f64` arithmetic in push order: a deterministic
/// input stream gives a bit-identical average.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an empty average with weight `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside (0, 1].
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must lie in (0, 1], got {alpha}"
        );
        Self { alpha, value: None }
    }

    /// Folds one observation into the average.
    pub fn push(&mut self, v: f64) {
        self.value = Some(match self.value {
            Some(e) => e + self.alpha * (v - e),
            None => v,
        });
    }

    /// The average so far, or `None` before the first push.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn known_statistics() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(v);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 4.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 31) % 97) as f64).collect();
        let mut whole = Summary::new();
        let mut left = Summary::new();
        let mut right = Summary::new();
        for (i, &x) in data.iter().enumerate() {
            whole.add(x);
            if i < 400 {
                left.add(x)
            } else {
                right.add(x)
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-6);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.add(3.0);
        a.add(5.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&Summary::new());
        assert_eq!((a.count(), a.mean(), a.variance()), before);

        let mut empty = Summary::new();
        empty.merge(&a);
        assert_eq!(empty.count(), a.count());
        assert_eq!(empty.mean(), a.mean());
    }

    #[test]
    fn ewma_seeds_on_first_push_and_steps_toward_each_value() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.push(10.0);
        assert_eq!(e.value(), Some(10.0), "first push seeds the EWMA");
        e.push(20.0);
        assert_eq!(e.value(), Some(15.0));
        e.push(20.0);
        assert_eq!(e.value(), Some(17.5));
        // The update is `e + alpha * (v - e)`. The algebraic rewrite
        // `alpha * v + (1 - alpha) * e` gives 0.27999999999999997 here;
        // the autoscaler and lend-cap thresholds compare against this
        // value, so its form is pinned to the bit.
        let mut e = Ewma::new(0.3);
        e.push(0.1);
        e.push(0.7);
        assert_eq!(e.value().map(f64::to_bits), Some(0.28f64.to_bits()));
        // Weight 1 is legal (no smoothing); 0 and anything above 1 are not.
        let mut e = Ewma::new(1.0);
        e.push(1.0);
        e.push(3.0);
        assert_eq!(e.value(), Some(3.0));
        for bad in [0.0, 1.5, f64::NAN] {
            assert!(
                std::panic::catch_unwind(|| Ewma::new(bad)).is_err(),
                "alpha {bad} must be rejected"
            );
        }
    }
}
