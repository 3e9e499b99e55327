//! Monte Carlo validation of the analytic security bounds (test-only).
//!
//! The closed forms in [`crate::shard_safety`](mod@crate::shard_safety) and [`crate::corruption`]
//! rest on modelling assumptions (binomial malicious counts, independent
//! leader rounds). This module *simulates* the underlying processes with a
//! seeded RNG and estimates the same probabilities empirically, so tests
//! can assert the analysis matches the mechanism it claims to describe —
//! the standard sanity check a security evaluation ships with.
//!
//! Kept dependency-free: a small xorshift generator suffices for these
//! estimates and keeps this crate std-only.

use crate::shard_safety::CorruptionThreshold;

/// A tiny deterministic RNG (xorshift64*), good enough for Monte Carlo
/// probability estimates.
#[derive(Clone, Debug)]
pub struct McRng(u64);

impl McRng {
    /// Seeded constructor (seed 0 is remapped — xorshift needs nonzero).
    pub fn new(seed: u64) -> Self {
        McRng(seed.max(1))
    }

    /// Next u64.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial.
    pub fn coin(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Empirical shard safety: sample `trials` shards of `n` miners, each
/// miner malicious with probability `f` (the infinite-pool model of
/// Sec. IV-D), and report the fraction that stay at or below the
/// threshold.
pub fn empirical_shard_safety(
    n: u64,
    f: f64,
    threshold: CorruptionThreshold,
    trials: u32,
    seed: u64,
) -> f64 {
    assert!(n > 0 && trials > 0);
    let mut rng = McRng::new(seed);
    let max_safe = threshold.max_safe(n);
    let mut safe = 0u32;
    for _ in 0..trials {
        let malicious = (0..n).filter(|_| rng.coin(f)).count() as u64;
        if malicious <= max_safe {
            safe += 1;
        }
    }
    safe as f64 / trials as f64
}

/// Empirical per-transaction corruption (Eq. 5): `n` validators, corrupted
/// when strictly more than half are malicious.
pub fn empirical_tx_corruption(n: u64, f: f64, trials: u32, seed: u64) -> f64 {
    assert!(trials > 0);
    if n == 0 {
        return 0.0;
    }
    let mut rng = McRng::new(seed);
    let mut corrupted = 0u32;
    for _ in 0..trials {
        let malicious = (0..n).filter(|_| rng.coin(f)).count() as u64;
        if malicious > n / 2 {
            corrupted += 1;
        }
    }
    corrupted as f64 / trials as f64
}

/// Empirical leader-control factor: expected number of *initial
/// consecutive* leader elections won by an adversary with fraction `f`
/// (plus the free first round) — the `Σ f^k` factor of Eqs. (3)/(6).
pub fn empirical_leader_factor(f: f64, max_rounds: u32, trials: u32, seed: u64) -> f64 {
    assert!(trials > 0);
    let mut rng = McRng::new(seed);
    let mut total = 0u64;
    for _ in 0..trials {
        let mut streak = 1u64; // k = 0 term
        for _ in 0..max_rounds {
            if rng.coin(f) {
                streak += 1;
            } else {
                break;
            }
        }
        total += streak;
    }
    total as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corruption::tx_corruption_probability;
    use crate::math::geometric_sum;
    use crate::shard_safety::shard_safety;

    const TRIALS: u32 = 60_000;

    #[test]
    fn rng_is_deterministic_and_uniformish() {
        let mut a = McRng::new(42);
        let mut b = McRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = McRng::new(7);
        let mean: f64 = (0..20_000).map(|_| r.unit()).sum::<f64>() / 20_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shard_safety_matches_analytics() {
        for &(n, f) in &[(10u64, 0.25), (30, 0.33), (60, 0.25)] {
            let analytic = shard_safety(n, f, CorruptionThreshold::Majority);
            let empirical = empirical_shard_safety(n, f, CorruptionThreshold::Majority, TRIALS, 1);
            assert!(
                (analytic - empirical).abs() < 0.01,
                "n={n} f={f}: analytic {analytic:.4} vs empirical {empirical:.4}"
            );
        }
    }

    #[test]
    fn one_third_threshold_matches_too() {
        let analytic = shard_safety(30, 0.25, CorruptionThreshold::OneThird);
        let empirical = empirical_shard_safety(30, 0.25, CorruptionThreshold::OneThird, TRIALS, 2);
        assert!((analytic - empirical).abs() < 0.01);
    }

    #[test]
    fn tx_corruption_matches_analytics() {
        for &(n, f) in &[(1u64, 0.25), (5, 0.25), (15, 0.33)] {
            let analytic = tx_corruption_probability(n, f);
            let empirical = empirical_tx_corruption(n, f, TRIALS, 3);
            assert!(
                (analytic - empirical).abs() < 0.01,
                "n={n} f={f}: {analytic:.4} vs {empirical:.4}"
            );
        }
        assert_eq!(empirical_tx_corruption(0, 0.25, 100, 4), 0.0);
    }

    #[test]
    fn leader_factor_matches_geometric_sum() {
        for &f in &[0.1, 0.25, 0.33] {
            let analytic = geometric_sum(f, None);
            let empirical = empirical_leader_factor(f, 200, TRIALS, 5);
            assert!(
                (analytic - empirical).abs() < 0.02,
                "f={f}: {analytic:.4} vs {empirical:.4}"
            );
        }
    }

    #[test]
    fn truncated_leader_factor_matches_finite_sum() {
        let f = 0.5;
        let analytic = geometric_sum(f, Some(3));
        let empirical = empirical_leader_factor(f, 3, TRIALS, 6);
        assert!((analytic - empirical).abs() < 0.02);
    }
}
