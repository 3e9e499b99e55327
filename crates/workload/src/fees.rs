//! Transaction-fee distributions.

use rand::Rng;

/// How transaction fees are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FeeDistribution {
    /// Every transaction pays the same fee.
    Constant(u64),
    /// Uniform integer fee in `[lo, hi]`.
    Uniform {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// `Bin(n, ½)` — the Sec. IV-D assumption ("we assume that the
    /// transaction fees obey the binomial distribution", Eq. 4).
    Binomial {
        /// Total fee units `N`.
        n: u64,
    },
    /// Geometric-ish heavy tail: `⌈Exp(1/mean)⌉`, clamped to at least 1.
    Exponential {
        /// Mean fee.
        mean: f64,
    },
    /// Zipf over `{1..=max}` with exponent `s` — a few transactions carry
    /// most of the fee mass (the degenerate case of Fig. 5(b)).
    Zipf {
        /// Support size.
        max: u64,
        /// Exponent (> 0); larger = heavier concentration.
        s: f64,
    },
}

impl FeeDistribution {
    /// Draws one fee.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            FeeDistribution::Constant(v) => v,
            FeeDistribution::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform bounds inverted");
                rng.gen_range(lo..=hi)
            }
            FeeDistribution::Binomial { n } => {
                // Sum of n fair coin flips; n is small (≈200) in all uses.
                (0..n).filter(|_| rng.gen::<bool>()).count() as u64
            }
            FeeDistribution::Exponential { mean } => {
                assert!(mean > 0.0);
                let u: f64 = rng.gen();
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "`u` lies in [0, 1), so the draw is non-negative; past `u64::MAX` it saturates"
                )]
                let fee = (-(1.0 - u).ln() * mean).ceil() as u64;
                fee.max(1)
            }
            FeeDistribution::Zipf { max, s } => {
                assert!(max >= 1 && s > 0.0);
                // Inverse-CDF over the normalised Zipf pmf. max is small
                // (≤ a few thousand) everywhere we use this.
                let norm: f64 = (1..=max).map(|k| (k as f64).powf(-s)).sum();
                let mut u: f64 = rng.gen::<f64>() * norm;
                for k in 1..=max {
                    u -= (k as f64).powf(-s);
                    if u <= 0.0 {
                        return k;
                    }
                }
                max
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    /// Draws `count` fees.
    fn draw(d: FeeDistribution, rng: &mut ChaCha8Rng, count: usize) -> Vec<u64> {
        (0..count).map(|_| d.sample(rng)).collect()
    }

    #[test]
    fn constant_is_constant() {
        let mut r = rng();
        let fees = draw(FeeDistribution::Constant(7), &mut r, 50);
        assert!(fees.iter().all(|&f| f == 7));
    }

    #[test]
    fn uniform_stays_in_bounds_and_covers() {
        let mut r = rng();
        let fees = draw(FeeDistribution::Uniform { lo: 3, hi: 6 }, &mut r, 400);
        assert!(fees.iter().all(|&f| (3..=6).contains(&f)));
        for v in 3..=6 {
            assert!(fees.contains(&v), "value {v} never drawn");
        }
    }

    #[test]
    fn binomial_mean_is_half_n() {
        let mut r = rng();
        let n = 200;
        let fees = draw(FeeDistribution::Binomial { n }, &mut r, 3000);
        let mean = fees.iter().sum::<u64>() as f64 / fees.len() as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
        assert!(fees.iter().all(|&f| f <= n));
    }

    #[test]
    fn exponential_is_positive_with_roughly_right_mean() {
        let mut r = rng();
        let fees = draw(FeeDistribution::Exponential { mean: 50.0 }, &mut r, 5000);
        assert!(fees.iter().all(|&f| f >= 1));
        let mean = fees.iter().sum::<u64>() as f64 / fees.len() as f64;
        assert!((mean - 50.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn zipf_concentrates_on_small_values() {
        let mut r = rng();
        let fees = draw(FeeDistribution::Zipf { max: 100, s: 1.2 }, &mut r, 4000);
        assert!(fees.iter().all(|&f| (1..=100).contains(&f)));
        let ones = fees.iter().filter(|&&f| f == 1).count();
        let hundreds = fees.iter().filter(|&&f| f == 100).count();
        assert!(
            ones > 20 * hundreds.max(1),
            "ones={ones} hundreds={hundreds}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = FeeDistribution::Uniform { lo: 1, hi: 100 };
        let a = draw(d, &mut ChaCha8Rng::seed_from_u64(5), 20);
        let b = draw(d, &mut ChaCha8Rng::seed_from_u64(5), 20);
        assert_eq!(a, b);
    }
}
