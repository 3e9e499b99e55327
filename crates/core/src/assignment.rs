//! Miner-to-shard assignment (Sec. III-B).
//!
//! The verifiable leader broadcasts (a) fresh randomness and (b) the
//! per-shard transaction fractions βᵢ reported by MaxShard miners. Each
//! miner then: sorts the shards, runs the RandHound-style beacon to obtain
//! a group number `r ∈ 1..=100`, and joins shard `s` when `r` falls in the
//! cumulative interval `(Σ_{i<s} βᵢ, Σ_{i≤s} βᵢ]`. Because the beacon is a
//! public function of `(randomness, pk)`, "users can verify whether a miner
//! is in shard s … given that miner's public key, the randomness, as well
//! as the fractions of transactions received from the verifiable leader".

use cshard_crypto::{RandomnessBeacon, VrfPublicKey};
use cshard_primitives::{Error, Hash32, MinerId, ShardId};
use std::collections::BTreeMap;

/// The public assignment rule for one epoch.
#[derive(Clone, Debug)]
pub struct MinerAssignment {
    beacon: RandomnessBeacon,
    /// Shards in canonical (sorted) order with their cumulative percentage
    /// upper bounds: shard `k` owns groups `(bounds[k-1], bounds[k]]`.
    shards: Vec<ShardId>,
    cumulative: Vec<u32>,
}

impl MinerAssignment {
    /// Builds the rule from leader randomness and the broadcast fractions
    /// (percent, summing to 100 — `ShardPlan::fractions_percent` output).
    ///
    /// Shards with a zero fraction receive no miners (an empty interval).
    /// A malformed broadcast — fractions that do not sum to 100 (an empty
    /// list included) or that name a shard twice — is
    /// `Error::Config { field: "fractions" }`.
    pub fn new(randomness: Hash32, fractions_percent: &[(ShardId, u32)]) -> Result<Self, Error> {
        let bad = |reason: String| Error::Config {
            field: "fractions",
            reason,
        };
        let total: u64 = fractions_percent.iter().map(|&(_, p)| u64::from(p)).sum();
        if total != 100 {
            return Err(bad(format!("fractions must sum to 100, got {total}")));
        }
        // Canonical order: sort by shard id ("she first sorts all the
        // shards"), deterministic at every replica.
        let sorted: BTreeMap<ShardId, u32> = fractions_percent.iter().copied().collect();
        if sorted.len() != fractions_percent.len() {
            return Err(bad("duplicate shard in fractions".into()));
        }
        let mut shards = Vec::with_capacity(sorted.len());
        let mut cumulative = Vec::with_capacity(sorted.len());
        let mut acc = 0;
        for (shard, pct) in sorted {
            acc += pct;
            shards.push(shard);
            cumulative.push(acc);
        }
        Ok(MinerAssignment {
            beacon: RandomnessBeacon::new(randomness),
            shards,
            cumulative,
        })
    }

    /// The group number `r ∈ 1..=100` of a miner.
    pub fn group_of(&self, pk: VrfPublicKey) -> u64 {
        self.beacon.group_of(pk)
    }

    /// The shard a miner belongs to this epoch.
    pub fn shard_of(&self, pk: VrfPublicKey) -> ShardId {
        let r = self.group_of(pk);
        // First shard whose cumulative bound covers r.
        let idx = self
            .cumulative
            .partition_point(|&bound| u64::from(bound) < r);
        self.shards[idx.min(self.shards.len() - 1)]
    }

    /// Sec. III-C block check #1: "X verifies whether Y really corresponds
    /// to the ShardID in the block header."
    pub fn verify_claim(&self, pk: VrfPublicKey, claimed: ShardId) -> bool {
        self.shard_of(pk) == claimed
    }

    /// Assigns a whole roster, returning each miner's shard.
    pub fn assign_all(&self, roster: &[(MinerId, VrfPublicKey)]) -> Vec<(MinerId, ShardId)> {
        roster
            .iter()
            .map(|&(m, pk)| (m, self.shard_of(pk)))
            .collect()
    }

    /// Miner counts per shard for a roster — used to check the "fraction of
    /// miners keeps up with the fraction of transactions" property.
    pub fn shard_miner_counts(
        &self,
        roster: &[(MinerId, VrfPublicKey)],
    ) -> BTreeMap<ShardId, usize> {
        let mut counts = BTreeMap::new();
        for &(_, pk) in roster {
            *counts.entry(self.shard_of(pk)).or_insert(0) += 1;
        }
        counts
    }

    /// The shards of this epoch, canonical order.
    pub fn shards(&self) -> &[ShardId] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_crypto::{sha256, Vrf};

    fn roster(n: u64) -> Vec<(MinerId, VrfPublicKey)> {
        (0..n)
            .map(|i| {
                (
                    MinerId::new(i as u32),
                    Vrf::from_seed(i.to_be_bytes()).public_key(),
                )
            })
            .collect()
    }

    fn even_fractions(shards: u32) -> Vec<(ShardId, u32)> {
        let base = 100 / shards;
        let extra = 100 % shards;
        (0..shards)
            .map(|i| (ShardId::new(i), base + u32::from(i < extra)))
            .collect()
    }

    #[test]
    fn assignment_is_deterministic_and_verifiable() {
        let a = MinerAssignment::new(sha256(b"epoch"), &even_fractions(5)).unwrap();
        for (_, pk) in roster(50) {
            let s = a.shard_of(pk);
            assert!(a.verify_claim(pk, s));
            // Any other claim fails.
            for other in a.shards() {
                if *other != s {
                    assert!(!a.verify_claim(pk, *other));
                }
            }
        }
    }

    #[test]
    fn miners_distribute_proportionally_to_fractions() {
        // 80/20 split over two shards → miner counts near 80/20.
        let fr = vec![(ShardId::new(0), 80), (ShardId::new(1), 20)];
        let a = MinerAssignment::new(sha256(b"r"), &fr).unwrap();
        let counts = a.shard_miner_counts(&roster(2000));
        let big = counts[&ShardId::new(0)] as f64;
        let small = counts[&ShardId::new(1)] as f64;
        assert!((big / 2000.0 - 0.8).abs() < 0.05, "big {big}");
        assert!((small / 2000.0 - 0.2).abs() < 0.05, "small {small}");
    }

    #[test]
    fn zero_fraction_shard_gets_no_miners() {
        let fr = vec![(ShardId::new(0), 0), (ShardId::new(1), 100)];
        let a = MinerAssignment::new(sha256(b"r"), &fr).unwrap();
        let counts = a.shard_miner_counts(&roster(500));
        assert_eq!(counts.get(&ShardId::new(0)), None);
        assert_eq!(counts[&ShardId::new(1)], 500);
    }

    #[test]
    fn maxshard_participates_in_assignment() {
        let fr = vec![(ShardId::new(0), 40), (ShardId::MAX_SHARD, 60)];
        let a = MinerAssignment::new(sha256(b"r"), &fr).unwrap();
        let counts = a.shard_miner_counts(&roster(1000));
        assert!(counts[&ShardId::MAX_SHARD] > counts[&ShardId::new(0)]);
    }

    #[test]
    fn new_randomness_reshuffles() {
        let fr = even_fractions(4);
        let a = MinerAssignment::new(sha256(b"epoch-1"), &fr).unwrap();
        let b = MinerAssignment::new(sha256(b"epoch-2"), &fr).unwrap();
        let moved = roster(300)
            .into_iter()
            .filter(|&(_, pk)| a.shard_of(pk) != b.shard_of(pk))
            .count();
        assert!(moved > 150, "only {moved}/300 moved");
    }

    #[test]
    fn every_group_maps_to_some_shard() {
        // Interval tiling: groups 1..=100 all land somewhere, boundaries
        // included.
        let fr = vec![
            (ShardId::new(0), 33),
            (ShardId::new(1), 33),
            (ShardId::new(2), 34),
        ];
        let a = MinerAssignment::new(sha256(b"r"), &fr).unwrap();
        let counts = a.shard_miner_counts(&roster(5000));
        let total: usize = counts.values().sum();
        assert_eq!(total, 5000);
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn malformed_fractions_are_typed_errors() {
        let s = ShardId::new;
        let rows: [(&str, Vec<(ShardId, u32)>); 5] = [
            ("empty", vec![]),
            ("short of 100", vec![(s(0), 50)]),
            ("over 100", vec![(s(0), 60), (s(1), 60)]),
            ("u32 wrap to 100", vec![(s(0), u32::MAX), (s(1), 101)]),
            ("duplicate shard", vec![(s(0), 50), (s(0), 50)]),
        ];
        for (label, fractions) in rows {
            let err = MinerAssignment::new(sha256(b"r"), &fractions).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Config {
                        field: "fractions",
                        ..
                    }
                ),
                "{label}: {err:?}"
            );
        }
    }
}
