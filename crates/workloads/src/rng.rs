//! Deterministic pseudo-random number generation and distributions.
//!
//! Hand-rolled (SplitMix64 seeding a xoshiro256++) instead of the `rand`
//! crate so that every experiment in the repository is bit-reproducible
//! run-to-run and machine-to-machine — the benchmark harnesses print tables
//! meant to be compared against the paper's, which makes determinism worth
//! more than a dependency. See DESIGN.md §2.

/// SplitMix64 — used to expand a single seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    waterwheel_core::mix64(*state)
}

/// xoshiro256++ — fast, high-quality, 2²⁵⁶−1 period.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal variate from Box–Muller.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Creates a generator from a seed; equal seeds ⇒ equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero. Uses Lemire's
    /// multiply-shift rejection method for unbiased results.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal variate (Box–Muller, with caching of the pair).
    pub fn gauss(&mut self) -> f64 {
        if let Some(spare) = self.gauss_spare.take() {
            return spare;
        }
        loop {
            let u = self.next_f64();
            if u <= f64::MIN_POSITIVE {
                continue;
            }
            let v = self.next_f64();
            let r = (-2.0 * u.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * v;
            self.gauss_spare = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gauss()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty());
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Zipf-distributed ranks over `{0, 1, …, n−1}` with exponent `theta`,
/// via inverse-CDF over precomputed cumulative weights.
///
/// Rank 0 is the hottest item. Used by the Network workload's heavy-tailed
/// subnet popularity.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution; `n ≥ 1`, `theta ≥ 0` (0 = uniform).
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1);
        assert!(theta >= 0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Samples a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is over zero ranks (never true: `n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(8);
        assert_ne!(Rng::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_inclusive_hits_bounds() {
        let mut rng = Rng::new(2);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = rng.range_inclusive(5, 8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi);
        // Full domain does not panic.
        let _ = rng.range_inclusive(0, u64::MAX);
    }

    #[test]
    fn gauss_has_right_moments() {
        let mut rng = Rng::new(3);
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.gauss();
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = Rng::new(4);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += rng.normal(50.0, 10.0);
        }
        let mean = sum / n as f64;
        assert!((mean - 50.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn zipf_rank_zero_is_hottest() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(5);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[99]);
        // Every rank is reachable in a big sample.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::new(6);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(7);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle did nothing");
    }
}
