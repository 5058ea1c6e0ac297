//! Virtual simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// The same type serves as instant and duration; simulations start at
/// zero and only ever move forward.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time, used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Constructs from fractional seconds, rounding to the nearest ns.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid seconds value: {s}");
        SimTime(round_to_u64(s * 1e9))
    }

    /// Constructs from fractional nanoseconds, rounding.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid ns value: {ns}");
        SimTime(round_to_u64(ns))
    }

    /// Raw nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }
}

/// `x.round() as u64` for every `x >= 0` that is not NaN, in straight
/// line: baseline x86-64 has no `roundsd`, so `f64::round` is a call
/// into a software `round`.
///
/// Exact: below 2^63 the truncation `t` is representable and `x - t`
/// is computed without error (Sterbenz's lemma, or `t = 0`), so the
/// test sees the true fraction, and a half rounds away from zero as
/// `round` does. A fraction exists only below 2^52, so `t + 1` cannot
/// overflow. From 2^63 on `x` is an integer, and from 2^64 on
/// (infinity included) both sides saturate to `u64::MAX`. The signed
/// conversions are one instruction each; the unsigned ones are not.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    if x < 9_223_372_036_854_775_808.0 {
        let t = x as i64;
        (t + (x - t as f64 >= 0.5) as i64) as u64
    } else {
        x as u64
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert_eq!(SimTime::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimTime::from_secs(1).as_ns(), 1_000_000_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_ns(), 500_000_000);
        assert_eq!(SimTime::from_ns_f64(97.4).as_ns(), 97);
        assert!((SimTime::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(30);
        assert_eq!((a + b).as_ns(), 130);
        assert_eq!((a - b).as_ns(), 70);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ns(), 130);
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ns(1)), None);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert_eq!(SimTime::ZERO, SimTime::from_ns(0));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12ns");
        assert_eq!(SimTime::from_ns(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_ms(2).to_string(), "2.000ms");
        assert_eq!(SimTime::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn negative_seconds_panic() {
        SimTime::from_secs_f64(-1.0);
    }

    /// Both float constructors against `f64::round` at `x`.
    fn assert_rounds_like_round(x: f64) {
        assert_eq!(
            SimTime::from_ns_f64(x).as_ns(),
            x.round() as u64,
            "from_ns_f64({x:e})"
        );
        assert_eq!(
            SimTime::from_secs_f64(x).as_ns(),
            (x * 1e9).round() as u64,
            "from_secs_f64({x:e})"
        );
    }

    /// SplitMix64: a dependency-free bit stream for the sweeps below.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `n` random finite non-negative `f64` bit patterns.
    fn assert_rounds_like_round_on_bit_patterns(n: u64, seed: u64) {
        let mut state = seed;
        let mut checked = 0;
        while checked < n {
            let x = f64::from_bits(splitmix64(&mut state) >> 1);
            if x.is_finite() {
                assert_rounds_like_round(x);
                checked += 1;
            }
        }
    }

    #[test]
    fn rounding_is_exact_at_the_edges() {
        let two = |e: i32| 2f64.powi(e);
        let edges = [
            0.0,
            5e-324,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            two(52) - 0.5,
            two(52) + 0.5,
            two(53) + 1.0,
            two(63),
            two(64),
            1e300,
            f64::MAX,
        ];
        for x in edges {
            assert_rounds_like_round(x);
            // And the neighbouring floats on either side.
            let bits = x.to_bits();
            for b in [bits.saturating_sub(1), bits + 1] {
                let y = f64::from_bits(b);
                if y.is_finite() {
                    assert_rounds_like_round(y);
                }
            }
        }
    }

    #[test]
    fn rounding_is_exact_on_random_bit_patterns() {
        assert_rounds_like_round_on_bit_patterns(1_000_000, 1);
    }

    #[test]
    fn rounding_is_exact_over_the_studies_range() {
        // Service and arrival times of the studies: 0 to 10 ms.
        let mut state = 2;
        for _ in 0..1_000_000 {
            let ns = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 1e7;
            assert_eq!(SimTime::from_ns_f64(ns).as_ns(), ns.round() as u64, "{ns}");
            let s = ns * 1e-9;
            assert_eq!(
                SimTime::from_secs_f64(s).as_ns(),
                (s * 1e9).round() as u64,
                "{s:e} s"
            );
        }
    }

    #[test]
    #[ignore = "10^8 patterns; run in release"]
    fn rounding_is_exact_over_1e8_bit_patterns() {
        assert_rounds_like_round_on_bit_patterns(100_000_000, 3);
    }
}
