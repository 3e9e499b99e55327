//! Shard safety under random miner assignment (Sec. III-B, Fig. 1(d)).
//!
//! Miner separation assigns each miner to a shard via verifiable
//! randomness, so with an adversary controlling fraction `f` of the
//! (effectively infinite, Sec. IV-D) pool, the number of malicious miners
//! landing in a shard of `n` is `Bin(n, f)`. The shard is *safe* while the
//! malicious count stays at or below the corruption threshold.

use crate::math::binomial_cdf;

/// How many in-shard adversaries it takes to corrupt a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionThreshold {
    /// Corruption requires a strict majority (> ½) — the PoW setting the
    /// paper evaluates ("Under the PoW consensus algorithm", Sec. III-B):
    /// an in-shard fork needs majority hash power.
    Majority,
    /// Corruption requires more than a third (> ⅓) — the BFT-style bound,
    /// included for comparison with BFT-sharded systems (Omniledger etc.).
    OneThird,
}

impl CorruptionThreshold {
    /// The largest malicious count that is still safe in a shard of `n`.
    pub fn max_safe(&self, n: u64) -> u64 {
        match self {
            CorruptionThreshold::Majority => n / 2,
            CorruptionThreshold::OneThird => n / 3,
        }
    }
}

/// Probability that a shard of `n` miners drawn against adversary fraction
/// `f` is safe: `P(Bin(n, f) ≤ threshold)`.
pub fn shard_safety(n: u64, f: f64, threshold: CorruptionThreshold) -> f64 {
    assert!(n > 0, "a shard needs at least one miner");
    assert!((0.0..=1.0).contains(&f));
    binomial_cdf(n, threshold.max_safe(n), f)
}

/// The Fig. 1(d) curve: safety for every shard size in `sizes`.
pub fn shard_safety_curve(
    sizes: impl IntoIterator<Item = u64>,
    f: f64,
    threshold: CorruptionThreshold,
) -> Vec<(u64, f64)> {
    sizes
        .into_iter()
        .map(|n| (n, shard_safety(n, f, threshold)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds() {
        assert_eq!(CorruptionThreshold::Majority.max_safe(30), 15);
        assert_eq!(CorruptionThreshold::Majority.max_safe(31), 15);
        assert_eq!(CorruptionThreshold::OneThird.max_safe(30), 10);
        assert_eq!(CorruptionThreshold::OneThird.max_safe(31), 10);
    }

    #[test]
    fn fig1d_30_miner_shard_is_almost_never_corrupted() {
        // The paper's caption: "Given a 33% attack in a shard with 30
        // miners, the probability to corrupt the system is almost 0."
        let s = shard_safety(30, 0.33, CorruptionThreshold::Majority);
        assert!(s > 0.97, "safety {s}");
        let s25 = shard_safety(30, 0.25, CorruptionThreshold::Majority);
        assert!(s25 > 0.999, "safety {s25}");
    }

    #[test]
    fn more_adversary_less_safety() {
        for n in [10u64, 30, 60, 100] {
            let s25 = shard_safety(n, 0.25, CorruptionThreshold::Majority);
            let s33 = shard_safety(n, 0.33, CorruptionThreshold::Majority);
            assert!(s25 > s33, "n={n}: {s25} vs {s33}");
        }
    }

    #[test]
    fn safety_approaches_one_with_size_when_f_below_threshold() {
        let small = shard_safety(10, 0.33, CorruptionThreshold::Majority);
        let large = shard_safety(200, 0.33, CorruptionThreshold::Majority);
        assert!(large > small);
        assert!(large > 0.9999);
    }

    #[test]
    fn safety_degrades_with_size_when_f_above_threshold() {
        // A 60% adversary corrupts big shards almost surely.
        let small = shard_safety(5, 0.6, CorruptionThreshold::Majority);
        let large = shard_safety(500, 0.6, CorruptionThreshold::Majority);
        assert!(small > large);
        assert!(large < 1e-3);
    }

    #[test]
    fn one_third_threshold_is_stricter() {
        for n in [12u64, 30, 90] {
            let maj = shard_safety(n, 0.25, CorruptionThreshold::Majority);
            let third = shard_safety(n, 0.25, CorruptionThreshold::OneThird);
            assert!(maj >= third, "n={n}");
        }
    }

    #[test]
    fn degenerate_adversaries() {
        assert_eq!(shard_safety(50, 0.0, CorruptionThreshold::Majority), 1.0);
        let all_bad = shard_safety(50, 1.0, CorruptionThreshold::Majority);
        assert!(all_bad < 1e-12);
    }

    #[test]
    fn curve_has_one_point_per_size() {
        let curve = shard_safety_curve(
            (20..=100).step_by(20).map(|n| n as u64),
            0.25,
            CorruptionThreshold::Majority,
        );
        assert_eq!(curve.len(), 5);
        assert_eq!(curve[0].0, 20);
        assert!(curve.iter().all(|&(_, s)| (0.0..=1.0).contains(&s)));
    }
}
