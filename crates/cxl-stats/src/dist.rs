//! YCSB-compatible key-choosing distributions.
//!
//! The KeyDB experiments (§4.1) use the YCSB default Zipfian distribution
//! for workloads A–C and the "latest" distribution for workload D. These
//! implementations follow the original YCSB generators (Gray et al.'s
//! incremental Zipfian) so that hot-key skew — which drives the
//! Hot-Promote results — matches the paper's setup.
//!
//! Over at most [`INVERSE_TABLE_MAX_ITEMS`] keys, [`ScrambledZipfian`]
//! draws from an exact inverse of its own closed form: a table of the
//! draws at which each rank starts, built once per key count from the
//! closed form itself. A draw is then one random word, one guide read
//! and a short scan, with no `powf`, no FNV rounds and no 64-bit `%`,
//! and every key matches the closed form's bit for bit.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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
        let zetan = with_zeta_entry(items, theta, |entry| entry.zetan);
        Self::with_zetan(items, theta, zetan)
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

    /// The closed-form rank of draw `u` in `[0, 1)`: YCSB's
    /// `ZipfianGenerator`, with rank 0 the most popular.
    ///
    /// Every Zipfian draw goes through here, whether live or when
    /// [`InverseTable::build`] tabulates it. Out of line (its callers
    /// are several), it cost `Generator::batch` about 20 ns an op at
    /// 200,000 keys.
    #[inline]
    fn rank_of(&self, u: f64) -> u64 {
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

    /// Where the closed form's rank reaches `k`, from its analytic
    /// inverse. Rounding puts the true threshold a few draws to either
    /// side, so this only brackets the exact search.
    fn rank_start_estimate(&self, k: u64) -> f64 {
        match k {
            1 => 1.0 / self.zetan,
            2 => (1.0 + 0.5f64.powf(self.theta)) / self.zetan,
            _ => {
                ((k as f64 / self.items as f64).powf(1.0 - self.theta) - 1.0 + self.eta) / self.eta
            }
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

/// What the process-wide memo keeps for one `(n, θ)`.
struct ZetaEntry {
    /// ζ(n, θ), the direct sum.
    zetan: f64,
    /// The scrambled chooser's inverse table over n keys, once one
    /// was asked for.
    inverse: Option<Arc<InverseTable>>,
}

/// Runs `f` on the memo entry of `(n, θ bits)`, summing
/// [`Zipfian::zeta`] on first use.
///
/// Every YCSB generator over the same key count shares one O(n)
/// summation, and every scrambled one over at most
/// [`INVERSE_TABLE_MAX_ITEMS`] keys one inverse table, instead of
/// rebuilding them per run. The memo holds the direct sum itself, so a
/// memoized chooser is bit-identical to one built from a fresh sum.
/// The key counts a study uses are few, so the map is never pruned.
fn with_zeta_entry<T>(n: u64, theta: f64, f: impl FnOnce(&mut ZetaEntry) -> T) -> T {
    static MEMO: OnceLock<Mutex<HashMap<(u64, u64), ZetaEntry>>> = OnceLock::new();
    // Every update is one complete insert, so even a poisoned map is valid.
    let mut memo = MEMO
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    f(memo
        .entry((n, theta.to_bits()))
        .or_insert_with(|| ZetaEntry {
            zetan: Zipfian::zeta(n, theta),
            inverse: None,
        }))
}

impl KeyChooser for Zipfian {
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        self.rank_of(rng.gen())
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

/// Largest key space a [`ScrambledZipfian`] draws from an inverse
/// table; every rank below it fits the table's `u16` guide. Larger key
/// spaces draw from the closed form.
pub const INVERSE_TABLE_MAX_ITEMS: u64 = 1 << 16;

/// Bits of a draw: `gen::<f64>()` is `(next_u64() >> 11) · 2^-53`.
const DRAW_BITS: u32 = 53;

/// Distinct draws, 2^53.
const DRAWS: u64 = 1 << DRAW_BITS;

/// The value of one draw step, 2^-53.
const DRAW_UNIT: f64 = 1.0 / DRAWS as f64;

/// The guide's buckets are indexed by a draw's top 16 bits.
const GUIDE_BITS: u32 = 16;

/// Draw steps either side of a rank's estimated start that bracket its
/// exact search.
const BRACKET: u64 = 16;

/// The exact inverse of a [`ScrambledZipfian`] draw over at most
/// [`INVERSE_TABLE_MAX_ITEMS`] keys.
///
/// The closed form's rank is a non-decreasing step function of the
/// 53-bit draw `m`, so it is fixed by where each step starts. Every
/// rounding step of [`Zipfian::rank_of`] is monotone in `m`; the one
/// that might not be, `powf`, sees inputs about `1/(1−θ)` = 100 ULPs
/// apart for adjacent draws, far more than its sub-ULP error.
#[derive(Debug)]
struct InverseTable {
    /// `first[k]`: the smallest draw whose rank is at least `k`.
    /// `first[0]` is 0 and `first[n]` is [`DRAWS`], which no draw reaches.
    first: Box<[u64]>,
    /// Each rank's scrambled key.
    keys: Box<[u32]>,
    /// `guide[b]`: the rank of the smallest draw in bucket `b`.
    guide: Box<[u16; 1 << GUIDE_BITS]>,
}

impl InverseTable {
    /// Tabulates `zipf`'s closed form: each rank's start by bisection,
    /// bracketed by [`Zipfian::rank_start_estimate`], or over every
    /// draw above the previous start when the bracket misses.
    fn build(zipf: &Zipfian) -> Self {
        let n = zipf.items;
        assert!(n <= INVERSE_TABLE_MAX_ITEMS, "{n} keys need no table");
        let rank = |m: u64| zipf.rank_of(m as f64 * DRAW_UNIT);
        // The smallest draw in `(lo, hi]` of rank at least `k`, given
        // rank(lo) < k and that `hi` is `DRAWS` or reaches `k`.
        let bisect = |k: u64, mut lo: u64, mut hi: u64| {
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if rank(mid) >= k {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
        let mut first = Vec::with_capacity(n as usize + 1);
        let mut start = 0;
        first.push(start);
        for k in 1..n {
            let estimate = (zipf.rank_start_estimate(k) * DRAWS as f64) as u64;
            let lo = estimate.saturating_sub(BRACKET).max(start);
            let hi = estimate.saturating_add(BRACKET).min(DRAWS - 1);
            start = if lo < hi && rank(lo) < k && rank(hi) >= k {
                bisect(k, lo, hi)
            } else if rank(start) >= k {
                start
            } else {
                bisect(k, start, DRAWS)
            };
            first.push(start);
        }
        first.push(DRAWS);

        let mut guide = vec![0u16; 1 << GUIDE_BITS];
        let mut k = 0;
        for (bucket, g) in (0u64..).zip(guide.iter_mut()) {
            while first[k + 1] <= bucket << (DRAW_BITS - GUIDE_BITS) {
                k += 1;
            }
            *g = k as u16;
        }
        Self {
            first: first.into(),
            keys: (0..n)
                .map(|rank| ScrambledZipfian::scramble(rank, n) as u32)
                .collect(),
            guide: guide
                .into_boxed_slice()
                .try_into()
                .expect("one entry a bucket"),
        }
    }

    /// The key of draw `m` in `[0, 2^53)`: its rank's start is the last
    /// one at or below `m`, found by scanning up from its bucket's.
    fn key(&self, m: u64) -> u64 {
        let mut k = usize::from(self.guide[(m >> (DRAW_BITS - GUIDE_BITS)) as u16 as usize]);
        while self.first[k + 1] <= m {
            k += 1;
        }
        u64::from(self.keys[k])
    }
}

/// Zipfian with popularity scattered across the key space.
///
/// YCSB scrambles the Zipfian rank so the hot keys are not clustered at
/// low key ids; this matters for page-level locality, because it spreads
/// hot keys over many pages the way a real KeyDB dataset would.
///
/// Over at most [`INVERSE_TABLE_MAX_ITEMS`] keys a draw reads the key
/// from an exact inverse table shared through the ζ memo; it consumes
/// the same one random word and returns the same key as the closed
/// form.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
    inverse: Option<Arc<InverseTable>>,
}

impl ScrambledZipfian {
    /// Creates a scrambled Zipfian chooser over `items` keys.
    pub fn new(items: u64) -> Self {
        let inner = Zipfian::new(items);
        let inverse = (items <= INVERSE_TABLE_MAX_ITEMS).then(|| {
            with_zeta_entry(items, inner.theta, |entry| {
                entry
                    .inverse
                    .get_or_insert_with(|| Arc::new(InverseTable::build(&inner)))
                    .clone()
            })
        });
        Self { inner, inverse }
    }

    /// The key YCSB maps a rank to over `items` keys.
    fn scramble(rank: u64, items: u64) -> u64 {
        fnv_hash64(rank) % items
    }
}

impl KeyChooser for ScrambledZipfian {
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        match &self.inverse {
            Some(table) => table.key(rng.next_u64() >> (64 - DRAW_BITS)),
            None => Self::scramble(self.inner.next_key(rng), self.inner.items),
        }
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
    fn a_draw_word_is_the_f64_draw() {
        // The table reads `next_u64() >> 11` where the closed form reads
        // `gen::<f64>()`: the same word, the same value, one word each.
        let (mut a, mut b) = (rng(), rng());
        for _ in 0..100_000 {
            let m = a.next_u64() >> (64 - DRAW_BITS);
            assert_eq!((m as f64 * DRAW_UNIT).to_bits(), b.gen::<f64>().to_bits());
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// Checks the table over `n` keys against the closed form at every
    /// rank's start and the draws beside it, at both ends of every guide
    /// bucket, and over `draws` seeded draws through `next_key`.
    fn assert_table_is_the_closed_form(n: u64, draws: u64) {
        let mut tabled = ScrambledZipfian::new(n);
        let mut plain = ScrambledZipfian {
            inner: Zipfian::new(n),
            inverse: None,
        };
        let table = tabled
            .inverse
            .clone()
            .expect("a table at most at the limit");
        let closed_key = |m: u64| {
            let rank = plain.inner.rank_of(m as f64 * DRAW_UNIT);
            ScrambledZipfian::scramble(rank, n)
        };
        let check = |m: u64| {
            if m < DRAWS {
                assert_eq!(table.key(m), closed_key(m), "{n} keys, draw {m}");
            }
        };
        assert_eq!(table.first.len() as u64, n + 1);
        assert_eq!((table.first[0], table.first[n as usize]), (0, DRAWS));
        for &start in &table.first[1..n as usize] {
            check(start.wrapping_sub(1));
            check(start);
            check(start + 1);
        }
        let width = 1 << (DRAW_BITS - GUIDE_BITS);
        for bucket in 0..1 << GUIDE_BITS {
            check(bucket * width);
            check(bucket * width + width - 1);
        }
        let (mut a, mut b) = (SmallRng::seed_from_u64(n), SmallRng::seed_from_u64(n));
        for i in 0..draws {
            assert_eq!(
                tabled.next_key(&mut a),
                plain.next_key(&mut b),
                "{n} keys, draw #{i}"
            );
        }
        assert_eq!(a.next_u64(), b.next_u64(), "{n} keys: one word a draw");
    }

    #[test]
    fn inverse_table_is_the_closed_form_on_small_key_spaces() {
        for n in [1, 2, 3, 1_000, 12_345] {
            assert_table_is_the_closed_form(n, 1_000_000);
        }
    }

    #[test]
    fn inverse_table_is_the_closed_form_up_to_the_limit() {
        for n in [40_000, INVERSE_TABLE_MAX_ITEMS] {
            assert_table_is_the_closed_form(n, 1_000_000);
        }
    }

    #[test]
    #[ignore = "10^8 draws a key space; run with --release --ignored"]
    fn inverse_table_is_the_closed_form_over_1e8_draws() {
        for n in [40_000, INVERSE_TABLE_MAX_ITEMS] {
            assert_table_is_the_closed_form(n, 100_000_000);
        }
    }

    #[test]
    fn tables_stop_at_the_limit_and_are_shared() {
        assert!(ScrambledZipfian::new(INVERSE_TABLE_MAX_ITEMS + 1)
            .inverse
            .is_none());
        let (a, b) = (ScrambledZipfian::new(777), ScrambledZipfian::new(777));
        assert!(Arc::ptr_eq(
            a.inverse.as_ref().unwrap(),
            b.inverse.as_ref().unwrap()
        ));
        // Every rank is drawn by some draw at this size: no start is
        // skipped or out of reach.
        let table = a.inverse.unwrap();
        assert!(table.first.windows(2).all(|w| w[0] < w[1]));
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
