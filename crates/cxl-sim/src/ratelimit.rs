//! Token-bucket rate limiting in virtual time.
//!
//! The hot-page-selection kernel patch caps promotion/demotion throughput
//! with `numa_balancing_promote_rate_limit_MBps` (§2.3); the tiering
//! layer models that limit with this bucket.

use crate::time::SimTime;

/// A token bucket refilling continuously in virtual time.
///
/// Tokens are abstract units (the tiering layer uses bytes).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket with a refill `rate_per_sec` and a `burst`
    /// capacity, starting full.
    ///
    /// Zero is a valid configuration, not an error: admission-control
    /// callers model a suspended tenant as `rate = 0` (the bucket never
    /// refills once drained) or `burst = 0` (the bucket holds nothing
    /// and every positive take fails). Neither divides by the rate
    /// anywhere, so there is no div-by-zero or unbounded virtual-time
    /// step to guard against.
    ///
    /// # Panics
    ///
    /// Panics if the rate or burst is negative, NaN, or infinite.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(
            rate_per_sec >= 0.0 && rate_per_sec.is_finite(),
            "invalid rate {rate_per_sec}"
        );
        assert!(burst >= 0.0 && burst.is_finite(), "invalid burst {burst}");
        Self {
            rate_per_sec,
            burst,
            tokens: burst,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        // Virtual time must not run backwards: a caller observing the
        // bucket at an earlier instant than a previous observation is a
        // simulation-ordering bug, and silently ignoring it would let
        // the bucket answer with state from the caller's future. Debug
        // builds fail loudly; release builds count the regression and
        // answer conservatively: no refill, `last` unchanged, so the
        // bucket is never refilled from an interval that already
        // elapsed once.
        if now < self.last {
            cxl_obs::counter_add("sim/tokenbucket_time_regressions", 1);
            debug_assert!(
                false,
                "token bucket observed time regression: now {now:?} < last {last:?}",
                last = self.last,
            );
            return;
        }
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
            self.last = now;
        }
    }

    /// Attempts to take `amount` tokens at `now`. Returns `true` on
    /// success; on failure no tokens are consumed.
    pub fn try_take(&mut self, now: SimTime, amount: f64) -> bool {
        self.refill(now);
        if self.tokens >= amount {
            self.tokens -= amount;
            true
        } else {
            false
        }
    }

    /// Tokens currently available at `now`.
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// The configured refill rate.
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }

    /// Updates the refill rate (used by the dynamic threshold logic).
    /// A rate of 0 freezes refill (tenant suspension) without touching
    /// tokens already accrued.
    ///
    /// # Panics
    ///
    /// Panics if the new rate is negative, NaN, or infinite.
    pub fn set_rate(&mut self, now: SimTime, rate_per_sec: f64) {
        assert!(
            rate_per_sec >= 0.0 && rate_per_sec.is_finite(),
            "invalid rate {rate_per_sec}"
        );
        self.refill(now);
        self.rate_per_sec = rate_per_sec;
    }

    /// The configured burst capacity.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    /// Retunes both refill rate and burst capacity at `now` (a runtime
    /// controller changing a rate limit mid-run, where [`set_rate`]
    /// alone would leave the old burst ceiling in force).
    ///
    /// Accrued tokens are settled at the old rate first, then clamped
    /// to the new burst — shrinking the burst forfeits the excess
    /// immediately; growing it never mints tokens the old rate had not
    /// already earned.
    ///
    /// Retuning to `rate = 0` and/or `burst = 0` is the "suspend this
    /// tenant" actuation: a zero burst forfeits all accrued tokens
    /// immediately, a zero rate stops further accrual.
    ///
    /// [`set_rate`]: TokenBucket::set_rate
    ///
    /// # Panics
    ///
    /// Panics if the new rate or burst is negative, NaN, or infinite.
    pub fn retune(&mut self, now: SimTime, rate_per_sec: f64, burst: f64) {
        assert!(
            rate_per_sec >= 0.0 && rate_per_sec.is_finite(),
            "invalid rate {rate_per_sec}"
        );
        assert!(burst >= 0.0 && burst.is_finite(), "invalid burst {burst}");
        self.refill(now);
        self.rate_per_sec = rate_per_sec;
        self.burst = burst;
        self.tokens = self.tokens.min(burst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_drains() {
        let mut b = TokenBucket::new(100.0, 50.0);
        assert!(b.try_take(SimTime::ZERO, 50.0));
        assert!(!b.try_take(SimTime::ZERO, 1.0));
    }

    #[test]
    fn refills_over_time() {
        let mut b = TokenBucket::new(100.0, 50.0);
        assert!(b.try_take(SimTime::ZERO, 50.0));
        // After 0.2 s at 100/s, 20 tokens are back.
        let t = SimTime::from_ms(200);
        assert!(b.try_take(t, 20.0));
        assert!(!b.try_take(t, 1.0));
    }

    #[test]
    fn burst_caps_accumulation() {
        let mut b = TokenBucket::new(1_000.0, 10.0);
        let t = SimTime::from_secs(100);
        assert!((b.available(t) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn failed_take_preserves_tokens() {
        let mut b = TokenBucket::new(1.0, 5.0);
        assert!(!b.try_take(SimTime::ZERO, 10.0));
        assert!((b.available(SimTime::ZERO) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn set_rate_changes_refill() {
        let mut b = TokenBucket::new(1.0, 100.0);
        assert!(b.try_take(SimTime::ZERO, 100.0));
        b.set_rate(SimTime::ZERO, 1_000.0);
        assert!(b.try_take(SimTime::from_ms(50), 50.0));
    }

    /// ISSUE 8: zero rate is a valid "suspended tenant" config — the
    /// bucket serves its initial burst and then never refills, at any
    /// horizon (no infinite virtual-time step, no div-by-zero).
    #[test]
    fn zero_rate_never_refills() {
        let mut b = TokenBucket::new(0.0, 2.0);
        assert!(b.try_take(SimTime::ZERO, 2.0), "initial burst is held");
        for t in [
            SimTime::from_ms(1),
            SimTime::from_secs(1),
            SimTime::from_secs(1_000_000),
        ] {
            assert!(!b.try_take(t, 1.0), "nothing refills at rate 0 (t = {t:?})");
            assert_eq!(b.available(t), 0.0);
        }
    }

    /// ISSUE 8: zero burst holds nothing and admits nothing, but a
    /// zero-sized take still succeeds (vacuously) without panicking.
    #[test]
    fn zero_burst_admits_nothing() {
        let mut b = TokenBucket::new(100.0, 0.0);
        let t = SimTime::from_secs(10);
        assert_eq!(b.available(t), 0.0, "refill clamps to the zero burst");
        assert!(!b.try_take(t, 1.0));
        assert!(b.try_take(t, 0.0), "empty take is a no-op, not a panic");
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn negative_rate_panics() {
        TokenBucket::new(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn nan_rate_panics() {
        TokenBucket::new(f64::NAN, 1.0);
    }

    #[test]
    fn retune_changes_rate_and_burst() {
        let mut b = TokenBucket::new(100.0, 50.0);
        assert!(b.try_take(SimTime::ZERO, 50.0));
        b.retune(SimTime::ZERO, 1_000.0, 200.0);
        assert_eq!(b.rate_per_sec(), 1_000.0);
        assert_eq!(b.burst(), 200.0);
        // 0.5 s at the new rate: 500 earned, capped at the new burst.
        assert!((b.available(SimTime::from_ms(500)) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn retune_settles_at_old_rate_before_switching() {
        let mut b = TokenBucket::new(100.0, 50.0);
        assert!(b.try_take(SimTime::ZERO, 50.0));
        // 100 ms at the *old* 100/s rate earns 10 tokens; the retune
        // must not re-price that elapsed interval at the new rate.
        b.retune(SimTime::from_ms(100), 1_000.0, 50.0);
        assert!((b.available(SimTime::from_ms(100)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn retune_shrinking_burst_forfeits_excess() {
        let mut b = TokenBucket::new(100.0, 50.0);
        // Full at 50; shrinking the burst to 10 clamps immediately.
        b.retune(SimTime::ZERO, 100.0, 10.0);
        assert!((b.available(SimTime::ZERO) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn retune_growing_burst_does_not_mint_tokens() {
        let mut b = TokenBucket::new(100.0, 50.0);
        assert!(b.try_take(SimTime::ZERO, 50.0));
        b.retune(SimTime::ZERO, 100.0, 500.0);
        assert_eq!(b.available(SimTime::ZERO), 0.0, "no free tokens");
    }

    /// ISSUE 8: retuning to (0, 0) is the suspend actuation — accrued
    /// tokens are forfeited and nothing ever comes back until retuned.
    #[test]
    fn retune_to_zero_suspends_and_resumes() {
        let mut b = TokenBucket::new(100.0, 50.0);
        b.retune(SimTime::ZERO, 0.0, 0.0);
        assert_eq!(b.available(SimTime::from_secs(60)), 0.0);
        assert!(!b.try_take(SimTime::from_secs(60), 1.0));
        // Resuming: tokens accrue only from the resume instant.
        b.retune(SimTime::from_secs(60), 10.0, 5.0);
        assert_eq!(b.available(SimTime::from_secs(60)), 0.0, "no back-pay");
        assert!((b.available(SimTime::from_secs(61)) - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid burst")]
    fn retune_rejects_negative_burst() {
        let mut b = TokenBucket::new(1.0, 1.0);
        b.retune(SimTime::ZERO, 1.0, -1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time regression")]
    fn time_regression_is_rejected_in_debug() {
        let mut b = TokenBucket::new(100.0, 50.0);
        assert!(b.try_take(SimTime::from_ms(10), 1.0));
        // Observing the bucket before the last refill must trip the
        // regression check.
        b.try_take(SimTime::from_ms(5), 1.0);
    }

    /// The release-mode path: regressions are counted and answered
    /// conservatively instead of panicking. Runs in release builds
    /// (`cargo test --release -p cxl-sim`).
    #[test]
    #[cfg(not(debug_assertions))]
    fn time_regression_counts_and_freezes_refill() {
        let reg = std::sync::Arc::new(cxl_obs::Registry::new());
        let _scope = cxl_obs::scope(reg.clone());
        let mut b = TokenBucket::new(100.0, 50.0);
        assert!(b.try_take(SimTime::from_ms(100), 50.0), "drain the burst");
        // A regressed observation refills nothing: 10 ms would be worth
        // one token, but the interval before `last` already elapsed.
        assert!(!b.try_take(SimTime::from_ms(90), 1.0));
        assert_eq!(b.available(SimTime::from_ms(80)), 0.0);
        assert_eq!(
            reg.counter("sim/tokenbucket_time_regressions"),
            Some(2),
            "both regressed observations are counted"
        );
        // `last` stayed at 100 ms, so time resuming forward refills
        // exactly from there (100 -> 200 ms at 100/s = 10 tokens), not
        // from any regressed instant.
        assert!((b.available(SimTime::from_ms(200)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn equal_timestamps_are_fine() {
        let mut b = TokenBucket::new(100.0, 50.0);
        let t = SimTime::from_ms(10);
        assert!(b.try_take(t, 1.0));
        assert!(b.try_take(t, 1.0));
        assert!((b.available(t) - 48.0).abs() < 1e-9);
    }
}
