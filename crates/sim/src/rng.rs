//! Seeded randomness for simulations.

use cshard_primitives::SimTime;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic random stream for one simulation run.
///
/// Wraps `ChaCha8Rng` (small, fast, reproducible across platforms) and adds
/// the distributions the block-production model needs: exponential
/// inter-block times (PoW is a Poisson process), uniform picks, and
/// Bernoulli trials for the game layer's coin tosses.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Creates a stream from a full 256-bit seed — e.g. a PRF output, so a
    /// shard's stream is a pure function of `(master seed, shard id)` and
    /// independent of any other shard's draws.
    pub fn from_seed_bytes(seed: [u8; 32]) -> Self {
        SimRng {
            inner: ChaCha8Rng::from_seed(seed),
        }
    }

    /// Derives an independent sub-stream, e.g. one per shard, so that
    /// adding events to one shard never perturbs another's draws.
    pub fn fork(&mut self, label: u64) -> SimRng {
        // Mix the label into a fresh seed drawn from this stream.
        let base = self.inner.next_u64();
        SimRng::new(base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn coin(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        self.inner.gen_range(0..n)
    }

    /// A sample from Exp(rate) — mean `1/rate` — via inverse CDF.
    ///
    /// Used for PoW inter-block times: a miner with hash rate `rate`
    /// blocks-per-second finds blocks as a Poisson process.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        // 1 - unit() is in (0, 1], avoiding ln(0).
        -(1.0 - self.unit()).ln() / rate
    }

    /// An exponential inter-event delay as a `SimTime` (mean `mean`).
    /// Every mining tick is one call, across crates, hence `#[inline]`.
    #[inline]
    pub fn exp_delay(&mut self, mean: SimTime) -> SimTime {
        let mean_s = mean.as_secs_f64();
        assert!(mean_s > 0.0, "mean delay must be positive");
        SimTime::from_secs_f64(self.exponential(1.0 / mean_s))
    }

    /// Raw access for `rand` distribution adapters.
    pub fn raw(&mut self) -> &mut ChaCha8Rng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mk = || {
            let mut root = SimRng::new(42);
            let mut f0 = root.fork(0);
            let mut f1 = root.fork(1);
            (f0.unit(), f1.unit())
        };
        let (a0, a1) = mk();
        let (b0, b1) = mk();
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
        assert_ne!(a0, a1);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(3);
        let rate = 1.0 / 60.0; // one block per minute
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!(
            (mean - 60.0).abs() < 2.0,
            "sample mean {mean} too far from 60"
        );
    }

    #[test]
    fn exp_delay_has_positive_times() {
        let mut rng = SimRng::new(4);
        for _ in 0..100 {
            let d = rng.exp_delay(SimTime::from_secs(60));
            assert!(d.as_millis() < 60_000 * 100);
        }
    }

    #[test]
    fn coin_respects_probability() {
        let mut rng = SimRng::new(5);
        let heads = (0..10_000).filter(|_| rng.coin(0.3)).count();
        assert!((2_700..3_300).contains(&heads), "heads={heads}");
        assert!(!rng.coin(0.0));
        assert!(rng.coin(1.0));
    }

    #[test]
    fn below_bounds() {
        let mut rng = SimRng::new(6);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }
}
