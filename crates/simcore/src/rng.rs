//! Deterministic random number generation for simulations.
//!
//! [`SimRng`] is a self-contained xoshiro256++ generator: identical seeds
//! yield identical streams on every platform, which is what makes whole
//! simulation runs bit-for-bit reproducible. The distribution helpers cover
//! everything the workload models need (exponential inter-arrivals, Poisson
//! counts, Zipfian key popularity à la YCSB, Pareto burst sizes, normal
//! service-time noise).

use crate::time::SimDuration;

/// Deterministic pseudo-random generator (xoshiro256++).
///
/// Not cryptographically secure; designed for statistical quality and
/// reproducibility in discrete-event simulation.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed. The seed is expanded with
    /// SplitMix64 per the xoshiro authors' recommendation.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream; used to give each VM / workload
    /// its own generator so adding one component never perturbs another.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Uses Lemire's multiply-shift rejection
    /// method for unbiased results. `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Widening multiply; reject to remove modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range lo > hi");
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Exponentially distributed value with the given mean (`mean > 0`).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - f64() is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Exponentially distributed duration with the given mean.
    #[inline]
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }

    /// Standard normal via the polar (Marsaglia) method.
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Poisson-distributed count with the given mean.
    ///
    /// Knuth's product method for small means; a clamped normal
    /// approximation for large means (error is negligible above ~30).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        debug_assert!(mean >= 0.0);
        if mean <= 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let limit = (-mean).exp();
            let mut product = self.f64();
            let mut count = 0u64;
            while product > limit {
                count += 1;
                product *= self.f64();
            }
            count
        } else {
            let x = self.normal(mean, mean.sqrt());
            if x < 0.0 {
                0
            } else {
                x.round() as u64
            }
        }
    }

    /// Pareto-distributed value with scale `xm > 0` and shape `alpha > 0`.
    #[inline]
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0);
        xm / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Log-normal: `exp(Normal(mu, sigma))`.
    #[inline]
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }
}

/// Zipfian generator over `[0, n)` using the Gray et al. rejection-inversion
/// approximation popularised by YCSB. Item `0` is the most popular.
///
/// The state is split from the RNG so one distribution can be shared by many
/// call sites while the RNG stays a simple value type.
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    /// Create a Zipfian distribution over `n` items with skew `theta`
    /// (YCSB default 0.99). `theta` must be in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipfian over zero items");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zeta_n = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        Zipfian {
            n,
            theta,
            zeta_n,
            alpha,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for moderate n; these workloads use n <= ~10M where the
        // sum is still fast and exact enough, computed once per distribution.
        let mut sum = 0.0;
        // Sum the first min(n, 10_000) terms exactly, then integrate the tail.
        let exact = n.min(10_000);
        for i in 1..=exact {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > exact {
            // Integral approximation of the remaining tail of the series.
            let a = exact as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Draw the next item rank in `[0, n)`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        let item = (self.n as f64 * spread) as u64;
        item.min(self.n - 1)
    }

    /// Skew parameter theta.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = SimRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_unbiased_bounds() {
        let mut rng = SimRng::new(4);
        let mut seen = [0u32; 7];
        for _ in 0..70_000 {
            seen[rng.below(7) as usize] += 1;
        }
        for &count in &seen {
            // Each bucket should be near 10_000; allow generous slack.
            assert!((8_000..12_000).contains(&count), "count={count}");
        }
    }

    #[test]
    fn range_inclusive() {
        let mut rng = SimRng::new(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let x = rng.range(3, 5);
            assert!((3..=5).contains(&x));
            lo_seen |= x == 3;
            hi_seen |= x == 5;
        }
        assert!(lo_seen && hi_seen);
        assert_eq!(rng.range(9, 9), 9);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::new(6);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_mean_converges() {
        let mut rng = SimRng::new(7);
        for &lambda in &[0.5, 3.0, 20.0, 100.0] {
            let n = 50_000;
            let sum: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_mean() {
        let mut rng = SimRng::new(8);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(9);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn pareto_lower_bound() {
        let mut rng = SimRng::new(10);
        for _ in 0..10_000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn zipfian_skews_to_head() {
        let dist = Zipfian::new(1_000, 0.99);
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let mut head = 0u64;
        for _ in 0..n {
            let item = dist.sample(&mut rng);
            assert!(item < 1_000);
            if item < 10 {
                head += 1;
            }
        }
        // Top-1% of items should attract a large share of accesses.
        let share = head as f64 / n as f64;
        assert!(share > 0.3, "head share={share}");
    }

    #[test]
    fn zipfian_covers_tail() {
        let dist = Zipfian::new(100, 0.5);
        let mut rng = SimRng::new(12);
        let mut seen = [false; 100];
        for _ in 0..200_000 {
            seen[dist.sample(&mut rng) as usize] = true;
        }
        let covered = seen.iter().filter(|&&x| x).count();
        assert!(covered > 90, "covered={covered}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(13);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn exp_duration_positive() {
        let mut rng = SimRng::new(14);
        let mean = SimDuration::from_millis(10);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| rng.exp_duration(mean).as_nanos()).sum();
        let avg = total as f64 / n as f64;
        assert!((avg - 1e7).abs() < 3e5, "avg={avg}");
    }
}
