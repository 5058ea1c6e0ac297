//! YCSB-compatible key-choosing distributions.
//!
//! The KeyDB experiments (§4.1) use the YCSB default Zipfian distribution
//! for workloads A–C and the "latest" distribution for workload D. These
//! implementations follow the original YCSB generators (Gray et al.'s
//! incremental Zipfian) so that hot-key skew — which drives the
//! Hot-Promote results — matches the paper's setup.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use rand::Rng;

/// Zipfian skew constant used by YCSB by default.
pub const YCSB_ZIPFIAN_CONSTANT: f64 = 0.99;

/// A source of keys in `[0, item_count)`.
pub trait KeyChooser {
    /// Draws the next key.
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64;

    /// Number of items the chooser draws from.
    fn item_count(&self) -> u64;
}

/// Uniform distribution over `[0, n)`.
#[derive(Debug, Clone)]
pub struct Uniform {
    n: u64,
}

impl Uniform {
    /// Creates a uniform chooser over `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "item count must be positive");
        Self { n }
    }
}

impl KeyChooser for Uniform {
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.n)
    }

    fn item_count(&self) -> u64 {
        self.n
    }
}

/// Zipfian distribution over `[0, n)` with the YCSB constant.
///
/// Key 0 is the most popular key. Uses the rejection-inversion-free
/// closed form from the YCSB `ZipfianGenerator`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
}

impl Zipfian {
    /// Creates a Zipfian chooser with the default YCSB skew (0.99).
    pub fn new(items: u64) -> Self {
        Self::with_theta(items, YCSB_ZIPFIAN_CONSTANT)
    }

    /// Creates a Zipfian chooser with skew parameter `theta` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0` or `theta` is outside `(0, 1)`.
    pub fn with_theta(items: u64, theta: f64) -> Self {
        assert!(items > 0, "item count must be positive");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        Self::with_zetan(items, theta, zeta_memoized(items, theta))
    }

    /// Builds the chooser from a precomputed normalizer `zetan` = ζ(items, θ).
    fn with_zetan(items: u64, theta: f64, zetan: f64) -> Self {
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Self {
            items,
            theta,
            alpha,
            zetan,
            eta,
            zeta2theta,
        }
    }

    /// ζ(n, θ) = Σ_{i=1..n} i^-θ, summed directly in index order.
    fn zeta(n: u64, theta: f64) -> f64 {
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Skew parameter theta.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability that a draw lands in the hottest `k` keys (the
    /// analytic reference the sampling tests check draws against).
    #[cfg(test)]
    fn hot_mass(&self, k: u64) -> f64 {
        Self::zeta(k.min(self.items), self.theta) / self.zetan
    }
}

/// [`Zipfian::zeta`] memoized process-wide by `(n, θ bits)`.
///
/// Every YCSB generator over the same key count shares one O(n)
/// summation instead of re-summing it per run. The memo holds the
/// direct sum itself, so a memoized chooser is bit-identical to one
/// built from a fresh sum. Entries are 24 bytes and the key counts a
/// study uses are few, so the map is never pruned.
fn zeta_memoized(n: u64, theta: f64) -> f64 {
    static MEMO: OnceLock<Mutex<HashMap<(u64, u64), f64>>> = OnceLock::new();
    // Every update is one complete insert, so even a poisoned map is valid.
    let mut memo = MEMO
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    *memo
        .entry((n, theta.to_bits()))
        .or_insert_with(|| Zipfian::zeta(n, theta))
}

impl KeyChooser for Zipfian {
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let k = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.items - 1)
    }

    fn item_count(&self) -> u64 {
        self.items
    }
}

/// Exponential inter-arrival sampler (Poisson process).
///
/// # Examples
///
/// ```
/// use cxl_stats::dist::Exponential;
/// let mut rng = cxl_stats::rng::stream_rng(1, "arrivals");
/// let exp = Exponential::new(100.0); // 100 events/s.
/// let dt = exp.sample(&mut rng);
/// assert!(dt > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates a sampler with the given event rate (events per unit
    /// time); samples are inter-arrival times in the same unit.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "invalid rate {rate}");
        Self { rate }
    }

    /// Draws one inter-arrival time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        -u.ln() / self.rate
    }
}

/// Normal sampler (Box–Muller), truncated at zero when requested.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a sampler.
    ///
    /// # Panics
    ///
    /// Panics if the standard deviation is negative or not finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0 && std.is_finite(), "invalid std {std}");
        Self { mean, std }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + z * self.std
    }

    /// Draws one sample clamped at zero (e.g. memory demands).
    pub fn sample_non_negative<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample(rng).max(0.0)
    }
}

/// FNV-1a style scramble used by YCSB's `ScrambledZipfianGenerator`.
fn fnv_hash64(mut val: u64) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut hash: u64 = 0xcbf29ce484222325;
    for _ in 0..8 {
        let octet = val & 0xff;
        val >>= 8;
        hash ^= octet;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Zipfian with popularity scattered across the key space.
///
/// YCSB scrambles the Zipfian rank so the hot keys are not clustered at
/// low key ids; this matters for page-level locality, because it spreads
/// hot keys over many pages the way a real KeyDB dataset would.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled Zipfian chooser over `items` keys.
    pub fn new(items: u64) -> Self {
        Self {
            inner: Zipfian::new(items),
        }
    }
}

impl KeyChooser for ScrambledZipfian {
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let rank = self.inner.next_key(rng);
        fnv_hash64(rank) % self.inner.items
    }

    fn item_count(&self) -> u64 {
        self.inner.items
    }
}

/// YCSB "latest" distribution: recently inserted keys are most popular.
///
/// Used by workload D (95 % read / 5 % insert, reading the newest data).
#[derive(Debug, Clone)]
pub struct Latest {
    zipf: Zipfian,
    last_key: u64,
}

impl Latest {
    /// Creates a latest-skewed chooser; `initial_keys` must be positive.
    pub fn new(initial_keys: u64) -> Self {
        Self {
            zipf: Zipfian::new(initial_keys),
            last_key: initial_keys - 1,
        }
    }

    /// Registers a newly inserted key, shifting popularity toward it.
    pub fn advance(&mut self) -> u64 {
        self.last_key += 1;
        // Recompute lazily: extending the zeta sum incrementally keeps this
        // O(1) amortized per insert.
        self.zipf.zetan += 1.0 / ((self.last_key + 1) as f64).powf(self.zipf.theta);
        self.zipf.items = self.last_key + 1;
        self.zipf.eta = (1.0 - (2.0 / self.zipf.items as f64).powf(1.0 - self.zipf.theta))
            / (1.0 - self.zipf.zeta2theta / self.zipf.zetan);
        self.last_key
    }
}

impl KeyChooser for Latest {
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let rank = self.zipf.next_key(rng);
        self.last_key - rank.min(self.last_key)
    }

    fn item_count(&self) -> u64 {
        self.last_key + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn uniform_in_range_and_roughly_flat() {
        let mut u = Uniform::new(10);
        let mut r = rng();
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            let k = u.next_key(&mut r);
            assert!(k < 10);
            counts[k as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0, "count {c}");
        }
    }

    #[test]
    fn zipfian_head_is_hot() {
        let mut z = Zipfian::new(1_000_000);
        let mut r = rng();
        let mut head = 0u64;
        const DRAWS: u64 = 200_000;
        for _ in 0..DRAWS {
            if z.next_key(&mut r) < 1000 {
                head += 1;
            }
        }
        let frac = head as f64 / DRAWS as f64;
        let expected = z.hot_mass(1000);
        // YCSB Zipfian(0.99) over 1M keys puts ~half the mass on the top 1k.
        assert!(
            (frac - expected).abs() < 0.03,
            "observed {frac}, analytic {expected}"
        );
        assert!(expected > 0.4 && expected < 0.6, "expected {expected}");
    }

    #[test]
    fn zipfian_keys_in_range() {
        let mut z = Zipfian::new(100);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(z.next_key(&mut r) < 100);
        }
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let mut z = ScrambledZipfian::new(1_000_000);
        let mut r = rng();
        // The hottest draws should not concentrate in low key ids.
        let mut low = 0;
        for _ in 0..10_000 {
            if z.next_key(&mut r) < 1000 {
                low += 1;
            }
        }
        // Under scrambling, low ids receive only their uniform share of the
        // scattered hot mass, far below the ~50 % of unscrambled Zipfian.
        assert!(low < 500, "low-id draws: {low}");
    }

    #[test]
    fn latest_prefers_recent_keys() {
        let mut l = Latest::new(100_000);
        let mut r = rng();
        let mut recent = 0;
        for _ in 0..50_000 {
            if l.next_key(&mut r) >= 99_000 {
                recent += 1;
            }
        }
        assert!(recent > 20_000, "recent draws: {recent}");
    }

    #[test]
    fn latest_advance_tracks_inserts() {
        let mut l = Latest::new(10);
        assert_eq!(l.item_count(), 10);
        let k = l.advance();
        assert_eq!(k, 10);
        assert_eq!(l.item_count(), 11);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(l.next_key(&mut r) <= 10);
        }
    }

    fn assert_bit_identical(a: &Zipfian, b: &Zipfian) {
        assert_eq!(a.items, b.items);
        for (x, y) in [
            (a.theta, b.theta),
            (a.alpha, b.alpha),
            (a.zetan, b.zetan),
            (a.eta, b.eta),
            (a.zeta2theta, b.zeta2theta),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn memoized_zipfian_is_bit_identical_to_the_direct_sum() {
        // Two key counts no other test uses, in alternating order: the
        // first two builds fill the memo, the last two read it back.
        let theta = YCSB_ZIPFIAN_CONSTANT;
        let direct = |n| Zipfian::with_zetan(n, theta, Zipfian::zeta(n, theta));
        let (a, b) = (12_345, 67_890);
        for n in [a, b, a, b] {
            assert_bit_identical(&Zipfian::new(n), &direct(n));
        }
        // Inserts extend the chooser's own normalizer, never the memo:
        // the next chooser over `a` starts from the plain ζ(a) again.
        let mut latest = Latest::new(a);
        for _ in 0..100 {
            latest.advance();
        }
        assert_ne!(latest.zipf.zetan.to_bits(), direct(a).zetan.to_bits());
        assert_bit_identical(&Latest::new(a).zipf, &direct(a));
    }

    #[test]
    fn hot_mass_monotone() {
        let z = Zipfian::new(10_000);
        let mut prev = 0.0;
        for k in [1, 10, 100, 1000, 10_000] {
            let m = z.hot_mass(k);
            assert!(m > prev);
            prev = m;
        }
        assert!((z.hot_mass(10_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let exp = Exponential::new(50.0);
        let mut r = rng();
        let n = 50_000;
        let total: f64 = (0..n).map(|_| exp.sample(&mut r)).sum();
        let mean = total / n as f64;
        assert!((mean - 0.02).abs() < 0.002, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let nrm = Normal::new(100.0, 15.0);
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| nrm.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        assert!((var.sqrt() - 15.0).abs() < 0.5, "std {}", var.sqrt());
        // Truncated variant never goes negative.
        let trunc = Normal::new(0.0, 10.0);
        for _ in 0..1000 {
            assert!(trunc.sample_non_negative(&mut r) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    #[should_panic(expected = "item count must be positive")]
    fn uniform_rejects_zero() {
        Uniform::new(0);
    }

    #[test]
    #[should_panic(expected = "theta must be in (0, 1)")]
    fn zipfian_rejects_bad_theta() {
        Zipfian::with_theta(10, 1.5);
    }
}
