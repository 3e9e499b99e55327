//! The leader schedule: who leads each epoch, and the assignment rule the
//! leader's randomness fixes.
//!
//! Sharded systems must reconfigure shards and reshuffle validators
//! periodically, or an adaptive adversary slowly concentrates on one shard
//! (the Sybil-attack argument the paper cites in Sec. VII). Each epoch a
//! VRF lottery over the enrolment elects a leader (Sec. IV-C); if the top
//! ranks are down, every miner walks the same public ranking to the first
//! live one. The leader's VRF output on the epoch tag is the randomness
//! that, with the epoch's transaction fractions (Sec. III-B), places every
//! miner in a shard.
//!
//! [`EpochManager`] owns only that schedule. Classification is the
//! pipeline's [`ClassifyStage`](crate::pipeline::ClassifyStage), whose
//! call graph persists across epochs; [`EpochManager::assignment`] takes
//! its plan.

use crate::assignment::MinerAssignment;
use crate::formation::ShardPlan;
use cshard_crypto::{rank_leaders, Vrf};
use cshard_primitives::{Error, MinerId};
use std::collections::BTreeSet;

/// The leader schedule over a fixed enrolment.
#[derive(Debug)]
pub struct EpochManager {
    /// The enrolled miners' VRF key pairs (the simulation holds both
    /// halves, playing every role); a miner's id is its index here.
    vrfs: Vec<Vrf>,
    epoch: u64,
}

impl EpochManager {
    /// `n` miners with seed-derived keys.
    ///
    /// # Panics
    ///
    /// When `n` is zero: an empty enrolment can elect nobody. Both library
    /// callers check first: [`LongRun::new`](crate::LongRun::new) keeps
    /// no schedule for an empty enrolment, and
    /// [`measure_corruption`](crate::corruption::measure_corruption)
    /// rejects zero miners with a typed error.
    pub fn with_miner_count(n: u32) -> Self {
        assert!(n > 0, "need at least one miner");
        EpochManager {
            vrfs: (0..n)
                .map(|i| Vrf::from_seed(u64::from(i).to_be_bytes()))
                .collect(),
            epoch: 0,
        }
    }

    /// Number of epochs elected so far: the next epoch's number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The enrolled miners and their VRF keys, in enrolment order.
    pub fn miners(&self) -> impl Iterator<Item = (MinerId, &Vrf)> {
        (0..).map(MinerId::new).zip(&self.vrfs)
    }

    /// Elects the next epoch's leader (the lottery winner, rank 0) and
    /// uses up the epoch number: [`EpochManager::elect_skipping`] with
    /// nobody down.
    pub fn elect(&mut self) -> (u64, MinerId) {
        // With nobody down the walk stops at rank 0, which exists because
        // the enrolment is never empty; the fallback only keeps PH001.
        let (epoch, leader, _) =
            self.elect_skipping(&BTreeSet::new())
                .unwrap_or((self.epoch, MinerId::new(0), 0));
        (epoch, leader)
    }

    /// Elects the next epoch's leader with a set of miners known to be
    /// down (crashed, or caught equivocating): the failover ranking is
    /// walked in order and the first live entry leads. Returns `(epoch,
    /// leader, failover_depth)`, where the depth counts the ranks skipped.
    /// Every honest miner replays this walk, so the fallback is agreed
    /// without extra rounds.
    ///
    /// Fails with [`Error::NoLiveLeader`] — without using up the epoch
    /// number — when every candidate is down.
    pub fn elect_skipping(
        &mut self,
        down: &BTreeSet<MinerId>,
    ) -> Result<(u64, MinerId, usize), Error> {
        let epoch = self.epoch;
        let (depth, leader) = self
            .leader_ranking(epoch)
            .into_iter()
            .enumerate()
            .find(|(_, id)| !down.contains(id))
            .ok_or(Error::NoLiveLeader { epoch })?;
        self.epoch += 1;
        Ok((epoch, leader, depth))
    }

    /// The epoch's full VRF failover schedule: rank 0 is the lottery
    /// winner, rank 1 takes over if rank 0 misses the broadcast timeout,
    /// and so on.
    pub fn leader_ranking(&self, epoch: u64) -> Vec<MinerId> {
        // Indices come from a `u32` enrolment count, so each converts.
        rank_leaders(&self.vrfs, epoch)
            .into_iter()
            .filter_map(|i| u32::try_from(i).ok().map(MinerId::new))
            .collect()
    }

    /// The epoch's public assignment rule: `leader`'s VRF output on the
    /// epoch tag as randomness, over `plan`'s transaction fractions.
    ///
    /// Fails with `Error::Config { field: "leader" }` for a miner outside
    /// the enrolment, and with `field: "batch"` for an empty plan.
    pub fn assignment(
        &self,
        epoch: u64,
        leader: MinerId,
        plan: &ShardPlan,
    ) -> Result<MinerAssignment, Error> {
        let (_, vrf) = self
            .miners()
            .find(|&(id, _)| id == leader)
            .ok_or(Error::Config {
                field: "leader",
                reason: format!("{leader} is not enrolled"),
            })?;
        let (randomness, _proof) = vrf.evaluate(epoch.to_be_bytes());
        MinerAssignment::new(randomness, &plan.fractions_percent()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ClassifyStage;
    use cshard_crypto::sha256;
    use cshard_ledger::Transaction;
    use cshard_primitives::ShardId;
    use cshard_workload::{FeeDistribution, Workload};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 50 };

    fn batch(seed: u64) -> Vec<Transaction> {
        Workload::uniform_contracts(120, 5, FEES, seed).transactions
    }

    /// Every miner's shard under the epoch's assignment.
    fn shard_of(mgr: &EpochManager, assignment: &MinerAssignment) -> BTreeMap<MinerId, ShardId> {
        mgr.miners()
            .map(|(id, vrf)| (id, assignment.shard_of(vrf.public_key())))
            .collect()
    }

    /// Output pin taken from the classify-and-assign epoch body this API
    /// replaced: 40 miners, three epochs of `uniform_contracts(100, 3, …)`
    /// with the top two ranks of epoch 1 down. Each row is `(epoch,
    /// leader, failover_depth)` and a sha256 over every miner's
    /// `(id, shard)` as big-endian `u32` pairs in id order.
    #[test]
    fn schedule_classify_and_assign_reproduce_the_pinned_epochs() {
        let pins: [((u64, u32, usize), &str); 3] = [
            (
                (0, 17, 0),
                "0x9301da7f17aae2b3aacbd7ec475b24a353fff936fd09e2303e5def0862b671d9",
            ),
            (
                (1, 21, 2),
                "0xdf0a44152490836b684b7e648e623eca5c7c48c67f4c93147980082f5f9bc2ab",
            ),
            (
                (2, 34, 0),
                "0xc242f1adff40a77ddd63ffe465d664f83e011c42c9ca16ac626d56cecbf06b9f",
            ),
        ];
        let mut mgr = EpochManager::with_miner_count(40);
        let mut stage = ClassifyStage::new();
        for (step, &(row, digest)) in pins.iter().enumerate() {
            let seed = 0xE90C + step as u64;
            let batch = Workload::uniform_contracts(100, 3, FEES, seed).transactions;
            let (epoch, leader, depth) = if step == 1 {
                let down = mgr.leader_ranking(1).into_iter().take(2).collect();
                mgr.elect_skipping(&down).expect("a live rank remains")
            } else {
                let (epoch, leader) = mgr.elect();
                (epoch, leader, 0)
            };
            assert_eq!((epoch, leader.0, depth), row, "epoch {step}");
            let (plan, _) = stage.run(&batch);
            let assignment = mgr.assignment(epoch, leader, &plan).expect("non-empty");
            let bytes: Vec<u8> = shard_of(&mgr, &assignment)
                .iter()
                .flat_map(|(m, s)| m.0.to_be_bytes().into_iter().chain(s.0.to_be_bytes()))
                .collect();
            assert_eq!(sha256(&bytes).to_string(), digest, "epoch {step}");
        }
    }

    #[test]
    fn epochs_advance_and_rotate_leadership() {
        let mut mgr = EpochManager::with_miner_count(20);
        let mut leaders = std::collections::BTreeSet::new();
        for e in 0..10 {
            let (epoch, leader) = mgr.elect();
            assert_eq!(epoch, e);
            leaders.insert(leader);
        }
        assert_eq!(mgr.epoch(), 10);
        // VRF lottery rotates leadership.
        assert!(leaders.len() >= 3, "leaders too concentrated: {leaders:?}");
    }

    #[test]
    fn reassignment_shuffles_between_epochs() {
        let mut mgr = EpochManager::with_miner_count(200);
        let mut stage = ClassifyStage::new();
        let mut epoch_shards = |seed| {
            let (epoch, leader) = mgr.elect();
            let (plan, _) = stage.run(&batch(seed));
            shard_of(&mgr, &mgr.assignment(epoch, leader, &plan).unwrap())
        };
        let (a, b) = (epoch_shards(1), epoch_shards(2));
        let moved = a.iter().filter(|(id, shard)| b[id] != **shard).count();
        assert!(moved > 50, "only {moved}/200 miners moved");
    }

    #[test]
    #[should_panic(expected = "at least one miner")]
    fn empty_enrolment_rejected() {
        EpochManager::with_miner_count(0);
    }

    #[test]
    fn failover_skips_down_leaders_in_rank_order() {
        let mut mgr = EpochManager::with_miner_count(12);
        let ranking = mgr.leader_ranking(0);
        // Knock out the first two ranked leaders: rank 2 must take over.
        let down: BTreeSet<MinerId> = ranking.iter().take(2).copied().collect();
        let (epoch, leader, depth) = mgr.elect_skipping(&down).unwrap();
        assert_eq!((epoch, leader, depth), (0, ranking[2], 2));
        // The fallback changes the epoch randomness (different leader
        // VRF), so assignments differ from the no-fault epoch.
        let (plan, _) = ClassifyStage::new().run(&batch(0));
        let base = mgr.assignment(0, ranking[0], &plan).unwrap();
        let fallback = mgr.assignment(0, leader, &plan).unwrap();
        assert_ne!(shard_of(&mgr, &base), shard_of(&mgr, &fallback));
    }

    #[test]
    fn all_down_is_a_typed_error_and_preserves_state() {
        let mut mgr = EpochManager::with_miner_count(3);
        let down: BTreeSet<MinerId> = (0..3).map(MinerId::new).collect();
        let err = mgr.elect_skipping(&down).unwrap_err();
        assert_eq!(err, Error::NoLiveLeader { epoch: 0 });
        // The failed attempt consumed nothing: the next epoch is still 0.
        assert_eq!(mgr.epoch(), 0);
        assert_eq!(mgr.elect().0, 0);
    }

    #[test]
    fn bad_assignment_inputs_are_typed_errors() {
        let mgr = EpochManager::with_miner_count(5);
        let (plan, _) = ClassifyStage::new().run(&batch(0));
        let err = mgr.assignment(0, MinerId::new(5), &plan).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "leader",
                    ..
                }
            ),
            "{err:?}"
        );
        let (empty, _) = ClassifyStage::new().run(&[]);
        let err = mgr.assignment(0, MinerId::new(0), &empty).unwrap_err();
        assert!(
            matches!(err, Error::Config { field: "batch", .. }),
            "{err:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The walk stops at the first live rank and uses up the epoch
        /// exactly when it succeeds; with nobody down it is `elect()`.
        #[test]
        fn walk_takes_the_first_live_rank(
            miners in 1u32..24,
            epoch in 0u64..6,
            down_ids in proptest::collection::vec(0u32..24, 0..24),
        ) {
            let down: BTreeSet<MinerId> = down_ids.into_iter().map(MinerId::new).collect();
            let at = |epoch: u64| {
                let mut mgr = EpochManager::with_miner_count(miners);
                for _ in 0..epoch {
                    mgr.elect();
                }
                mgr
            };
            let mut mgr = at(epoch);
            let ranking = mgr.leader_ranking(epoch);
            let first_live = ranking.iter().position(|id| !down.contains(id));
            match (mgr.elect_skipping(&down), first_live) {
                (Ok((e, leader, depth)), Some(rank)) => {
                    prop_assert_eq!((e, leader, depth), (epoch, ranking[rank], rank));
                    prop_assert_eq!(mgr.epoch(), epoch + 1);
                }
                (Err(err), None) => {
                    prop_assert_eq!(err, Error::NoLiveLeader { epoch });
                    prop_assert_eq!(mgr.epoch(), epoch);
                }
                (got, want) => prop_assert!(false, "walk {:?} vs first live {:?}", got, want),
            }
            let (e, leader) = at(epoch).elect();
            prop_assert_eq!(at(epoch).elect_skipping(&BTreeSet::new()), Ok((e, leader, 0)));
        }
    }
}
