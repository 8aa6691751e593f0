//! Deterministic random numbers and the distributions the SODA workload
//! generators need.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — small, fast,
//! and (critically for reproducing the paper's figures) stable: the byte
//! stream for a given seed is fixed by this crate, not by an external
//! dependency's version.

/// Deterministic PRNG (xoshiro256**) with distribution helpers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Every seed (including 0)
    /// yields a well-mixed state via SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent child generator; used to give each workload
    /// generator its own stream so adding one generator does not perturb
    /// the draws of another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[range.start, range.end)`. Panics on an empty
    /// range. Uses Lemire-style widening multiply without rejection; the
    /// bias is < 2^-64 per draw, far below anything our statistics resolve.
    pub fn range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0..n as u64) as usize
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0,1]`).
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponential variate with the given mean (inter-arrival times of a
    /// Poisson process). A non-positive or non-finite mean yields 0.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean.is_nan() || mean.is_infinite() || mean <= 0.0 {
            return 0.0;
        }
        // Guard against ln(0).
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller (one value per call; simple over
    /// fast, this is not on a hot path).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Poisson variate (Knuth's algorithm; fine for the small means used by
    /// batch-arrival models).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean.is_nan() || mean <= 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
            // Numerical guard for very large means.
            if k > (mean * 20.0 + 100.0) as u64 {
                return k;
            }
        }
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.index(xs.len())])
        }
    }

    /// Capture the raw generator state so a snapshot can restore the
    /// exact point in the stream (checkpoint/restore must continue
    /// bit-identically, so "re-seed and hope" is not an option).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a captured [`SimRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }
}

/// Zipf-distributed ranks in `[1, n]` with skew `s` — used to model
/// popularity of documents in the web-content dataset (hot documents are
/// requested far more often). Pre-computes the CDF once; draws are a
/// binary search.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf sampler over ranks `1..=n` with exponent `s >= 0`.
    /// `s = 0` is the uniform distribution. Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Force exact 1.0 at the tail so a draw of u≈1 cannot fall off.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `[1, n]`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i + 2.min(self.cdf.len() - i), // landed exactly on a CDF point
            Err(i) => i + 1,
        }
        .min(self.cdf.len())
    }

    /// Size of the support.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(1);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SimRng::new(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.range_u64(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::new(0).range_u64(5..5);
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = SimRng::new(4);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn exp_degenerate_means() {
        let mut r = SimRng::new(5);
        assert_eq!(r.exp(0.0), 0.0);
        assert_eq!(r.exp(-1.0), 0.0);
        assert_eq!(r.exp(f64::NAN), 0.0);
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(6);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_mean_converges() {
        let mut r = SimRng::new(7);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.poisson(4.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn bool_probability() {
        let mut r = SimRng::new(8);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.bool(0.3)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.01, "p {p}");
        assert!(!r.bool(0.0));
        assert!(r.bool(1.0));
        assert!(r.bool(2.0)); // clamps
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut r = SimRng::new(10);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let xs = [1, 2, 3];
        assert!(xs.contains(r.choose(&xs).unwrap()));
    }

    #[test]
    fn fork_streams_diverge() {
        let mut parent = SimRng::new(11);
        let mut a = parent.fork();
        let mut b = parent.fork();
        let av: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn zipf_support_and_skew() {
        let mut r = SimRng::new(12);
        let z = Zipf::new(100, 1.0);
        let mut counts = vec![0u32; 101];
        for _ in 0..100_000 {
            let k = z.sample(&mut r);
            assert!((1..=100).contains(&k), "rank {k} out of range");
            counts[k] += 1;
        }
        // Rank 1 must dominate rank 50 heavily at s = 1.
        assert!(
            counts[1] > counts[50] * 10,
            "{} vs {}",
            counts[1],
            counts[50]
        );
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut r = SimRng::new(13);
        let z = Zipf::new(10, 0.0);
        let mut counts = [0u32; 11];
        let n = 100_000;
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for (k, &c) in counts.iter().enumerate().skip(1) {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "rank {k} frac {frac}");
        }
    }

    proptest! {
        #[test]
        fn prop_range_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
            let mut r = SimRng::new(seed);
            let v = r.range_u64(lo..lo + span);
            prop_assert!(v >= lo && v < lo + span);
        }

        #[test]
        fn prop_index_in_bounds(seed in any::<u64>(), n in 1usize..10_000) {
            let mut r = SimRng::new(seed);
            prop_assert!(r.index(n) < n);
        }

        #[test]
        fn prop_zipf_in_support(seed in any::<u64>(), n in 1usize..500, s in 0.0f64..3.0) {
            let mut r = SimRng::new(seed);
            let z = Zipf::new(n, s);
            let k = z.sample(&mut r);
            prop_assert!(k >= 1 && k <= n);
        }
    }
}
