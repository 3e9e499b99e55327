//! Property tests for miner assignment: any valid fraction vector must
//! tile the group space, assign every key somewhere, verify honestly and
//! reject every forged claim.

use contractshard::core::assignment::MinerAssignment;
use contractshard::prelude::*;
use proptest::prelude::*;

/// Arbitrary fraction vectors: 1..=8 shards with positive percentages
/// summing to exactly 100 (largest-remainder style normalisation).
fn arb_fractions() -> impl Strategy<Value = Vec<(ShardId, u32)>> {
    proptest::collection::vec(1u32..50, 1..8).prop_map(|weights| {
        let total: u32 = weights.iter().sum();
        let mut out: Vec<(ShardId, u32)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (ShardId::new(i as u32), w * 100 / total))
            .collect();
        let assigned: u32 = out.iter().map(|&(_, p)| p).sum();
        out[0].1 += 100 - assigned; // dump the remainder on shard 0
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_key_lands_in_exactly_one_verifiable_shard(
        fractions in arb_fractions(),
        randomness_seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let assignment = MinerAssignment::new(
            sha256(randomness_seed.to_be_bytes()),
            &fractions,
        )
        .expect("arb_fractions sum to 100");
        for key in keys {
            let pk = Vrf::from_seed(key.to_be_bytes()).public_key();
            let shard = assignment.shard_of(pk);
            // The shard is one of the declared shards…
            prop_assert!(assignment.shards().contains(&shard));
            // …with a positive fraction (zero-fraction shards get nobody).
            let pct = fractions.iter().find(|&&(s, _)| s == shard).unwrap().1;
            prop_assert!(pct > 0, "{shard} has 0% but got a miner");
            // The honest claim verifies; every other claim fails.
            prop_assert!(assignment.verify_claim(pk, shard));
            for &other in assignment.shards() {
                if other != shard {
                    prop_assert!(!assignment.verify_claim(pk, other));
                }
            }
        }
    }

    #[test]
    fn assignment_distribution_tracks_fractions(
        fractions in arb_fractions(),
        randomness_seed in any::<u64>(),
    ) {
        let assignment = MinerAssignment::new(
            sha256(randomness_seed.to_be_bytes()),
            &fractions,
        )
        .expect("arb_fractions sum to 100");
        let roster: Vec<(MinerId, _)> = (0..1500u64)
            .map(|i| {
                (
                    MinerId::new(i as u32),
                    Vrf::from_seed((i ^ randomness_seed).to_be_bytes()).public_key(),
                )
            })
            .collect();
        let counts = assignment.shard_miner_counts(&roster);
        let total: usize = counts.values().sum();
        prop_assert_eq!(total, 1500);
        for &(shard, pct) in &fractions {
            let got = *counts.get(&shard).unwrap_or(&0) as f64 / 1500.0;
            let want = pct as f64 / 100.0;
            // Binomial noise bound: generous 6 sigma at n=1500.
            let sigma = (want * (1.0 - want) / 1500.0).sqrt();
            prop_assert!(
                (got - want).abs() <= 6.0 * sigma + 0.01,
                "{shard}: got {got:.3}, want {want:.3}"
            );
        }
    }
}
