//! Multi-epoch operation: periodic re-randomization of miner assignment.
//!
//! Sharded systems must reconfigure shards and reshuffle validators
//! periodically, or an adaptive adversary slowly concentrates on one shard
//! (the Sybil-attack argument the paper cites in Sec. VII). This module
//! runs the Sec. III-B assignment across epochs: each epoch elects a
//! leader by VRF lottery, derives fresh randomness, recomputes transaction
//! fractions from the epoch's workload, and reassigns every miner. The
//! call graph persists across epochs — sender history accumulates, so a
//! user who diversifies eventually migrates to the MaxShard.

use crate::assignment::MinerAssignment;
use crate::formation::ShardPlan;
use cshard_crypto::{elect_leader, rank_leaders, Vrf, VrfPublicKey};
use cshard_ledger::{CallGraph, Transaction};
use cshard_primitives::{Error, MinerId, ShardId};
use std::collections::{BTreeMap, BTreeSet};

/// A registered miner: id plus VRF key pair.
#[derive(Clone, Debug)]
pub struct EnrolledMiner {
    /// The miner's id.
    pub id: MinerId,
    /// Its VRF key pair (the secret stays with the miner; the simulation
    /// holds both, playing all roles).
    pub vrf: Vrf,
}

/// The outcome of one epoch's reconfiguration.
#[derive(Clone, Debug)]
pub struct EpochOutcome {
    /// Epoch number.
    pub epoch: u64,
    /// The VRF-elected leader (after any failover).
    pub leader: MinerId,
    /// How many ranked leaders were skipped before a live one took over:
    /// `0` means the primary lottery winner led; `k > 0` means the first
    /// `k` entries of the VRF failover ranking were down and rank `k`
    /// produced the epoch's parameters instead.
    pub failover_depth: usize,
    /// The shard plan of the epoch's transaction batch.
    pub plan: ShardPlan,
    /// The public assignment rule (randomness + fractions).
    pub assignment: MinerAssignment,
    /// Every miner's shard this epoch.
    pub shard_of: BTreeMap<MinerId, ShardId>,
}

/// Drives epochs over a fixed miner enrolment.
#[derive(Debug)]
pub struct EpochManager {
    miners: Vec<EnrolledMiner>,
    history: CallGraph,
    epoch: u64,
}

impl EpochManager {
    /// Creates a manager over an enrolment. Miner keys are derived
    /// deterministically when built via [`EpochManager::with_miner_count`].
    pub fn new(miners: Vec<EnrolledMiner>) -> Self {
        assert!(!miners.is_empty(), "need at least one miner");
        EpochManager {
            miners,
            history: CallGraph::new(),
            epoch: 0,
        }
    }

    /// Convenience: `n` miners with seed-derived keys.
    pub fn with_miner_count(n: u32) -> Self {
        Self::new(
            (0..n)
                .map(|i| EnrolledMiner {
                    id: MinerId::new(i),
                    vrf: Vrf::from_seed((i as u64).to_be_bytes()),
                })
                .collect(),
        )
    }

    /// Number of epochs run so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The accumulated cross-epoch call graph.
    pub fn history(&self) -> &CallGraph {
        &self.history
    }

    /// Runs one epoch over a transaction batch: elect leader → derive
    /// randomness → absorb the batch into the history → form shards
    /// (using all accumulated history) → assign miners.
    ///
    /// Fails with `Error::Config { field: "batch" }` — without consuming
    /// the epoch number — on an empty batch.
    pub fn run_epoch(&mut self, batch: &[Transaction]) -> Result<EpochOutcome, Error> {
        // Leader election: lowest VRF output on the epoch tag wins. The
        // enrolment is never empty (the constructor asserts at least one
        // miner), so `None` is unreachable and 0 a safe fallback (PH001).
        let winner = elect_leader(&self.vrfs(), self.epoch).unwrap_or(0);
        self.complete_epoch(winner, 0, batch)
    }

    /// Elects the next epoch's leader and consumes the epoch number,
    /// without forming shards or absorbing a batch. This is the election
    /// half of [`EpochManager::run_epoch`] — the long run uses it when the
    /// classification half is handled by the pipeline's persistent
    /// classify stage (which accumulates the same cross-epoch call graph).
    /// The leader sequence is bit-identical to `run_epoch`'s.
    pub fn elect(&mut self) -> (u64, MinerId) {
        let epoch = self.epoch;
        self.epoch += 1;
        // Same unreachable-`None` reasoning as in `run_epoch` (PH001).
        let winner = elect_leader(&self.vrfs(), epoch).unwrap_or(0);
        (epoch, self.miners[winner].id)
    }

    /// Runs one epoch like [`EpochManager::run_epoch`], but with a set of
    /// miners known to be down (crashed, or caught equivocating by the
    /// fault detector). The VRF failover ranking is walked in order and
    /// the first live entry leads; the skipped count is recorded as the
    /// outcome's `failover_depth`. Every honest miner replays this same
    /// walk locally, so the fallback is agreed without extra rounds.
    ///
    /// Fails with [`Error::NoLiveLeader`] — without consuming the epoch
    /// number or absorbing the batch — when every candidate is down, and
    /// like [`EpochManager::run_epoch`] on an empty batch.
    pub fn run_epoch_with_downs(
        &mut self,
        batch: &[Transaction],
        down: &BTreeSet<MinerId>,
    ) -> Result<EpochOutcome, Error> {
        let epoch = self.epoch;
        let ranking = rank_leaders(&self.vrfs(), epoch);
        let live = ranking
            .iter()
            .enumerate()
            .find(|(_, &i)| !down.contains(&self.miners[i].id));
        let Some((depth, &winner)) = live else {
            return Err(Error::NoLiveLeader { epoch });
        };
        self.complete_epoch(winner, depth, batch)
    }

    /// The epoch's full VRF failover schedule: rank 0 is the lottery
    /// winner ([`elect_leader`] over the same enrolment), rank 1 takes
    /// over if rank 0 misses the broadcast timeout, and so on.
    pub fn leader_ranking(&self, epoch: u64) -> Vec<MinerId> {
        rank_leaders(&self.vrfs(), epoch)
            .into_iter()
            .map(|i| self.miners[i].id)
            .collect()
    }

    /// Verifies a failover claim: given the miners known to be down this
    /// epoch, is `claimed` exactly the first live entry of the ranking?
    /// Any miner can replay this check from public data, which is what
    /// makes the takeover deterministic rather than negotiated.
    pub fn verify_failover(&self, epoch: u64, down: &BTreeSet<MinerId>, claimed: MinerId) -> bool {
        self.leader_ranking(epoch)
            .into_iter()
            .find(|id| !down.contains(id))
            == Some(claimed)
    }

    /// The enrolled miners, in registration order (the fault subsystem
    /// uses this to reconstruct leader broadcasts for equivocation
    /// checks).
    pub fn enrolled(&self) -> &[EnrolledMiner] {
        &self.miners
    }

    /// The miners' VRF keys, in registration order.
    fn vrfs(&self) -> Vec<Vrf> {
        self.miners.iter().map(|m| m.vrf.clone()).collect()
    }

    /// Shared epoch body: the elected (or failed-over) `winner` derives
    /// the randomness, the batch is absorbed into the history, shards are
    /// formed against it, and every miner is reassigned. The epoch number
    /// is consumed only on success (the one failure, an empty batch,
    /// absorbs nothing).
    fn complete_epoch(
        &mut self,
        winner: usize,
        failover_depth: usize,
        batch: &[Transaction],
    ) -> Result<EpochOutcome, Error> {
        let epoch = self.epoch;
        let leader = self.miners[winner].id;
        let (randomness, _proof) = self.miners[winner].vrf.evaluate(epoch.to_be_bytes());

        self.history.observe_all(batch.iter());
        let plan = ShardPlan::classify(batch, &self.history);
        let assignment = MinerAssignment::new(randomness, &plan.fractions_percent()?);
        let shard_of: BTreeMap<MinerId, ShardId> = self
            .miners
            .iter()
            .map(|m| (m.id, assignment.shard_of(m.vrf.public_key())))
            .collect();

        self.epoch += 1;
        Ok(EpochOutcome {
            epoch,
            leader,
            failover_depth,
            plan,
            assignment,
            shard_of,
        })
    }

    /// Public key of a miner (for verification paths in tests/examples).
    pub fn public_key(&self, id: MinerId) -> Option<VrfPublicKey> {
        self.miners
            .iter()
            .find(|m| m.id == id)
            .map(|m| m.vrf.public_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_workload::{FeeDistribution, Workload};

    const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 50 };

    fn batch(seed: u64) -> Vec<Transaction> {
        Workload::uniform_contracts(120, 5, FEES, seed).transactions
    }

    #[test]
    fn epochs_advance_and_elect_leaders() {
        let mut mgr = EpochManager::with_miner_count(20);
        let mut leaders = std::collections::HashSet::new();
        for e in 0..10 {
            let out = mgr.run_epoch(&batch(e)).unwrap();
            assert_eq!(out.epoch, e);
            leaders.insert(out.leader);
        }
        assert_eq!(mgr.epoch(), 10);
        // VRF lottery rotates leadership.
        assert!(leaders.len() >= 3, "leaders too concentrated: {leaders:?}");
    }

    #[test]
    fn reassignment_shuffles_between_epochs() {
        let mut mgr = EpochManager::with_miner_count(200);
        let a = mgr.run_epoch(&batch(1)).unwrap();
        let b = mgr.run_epoch(&batch(2)).unwrap();
        let moved = a
            .shard_of
            .iter()
            .filter(|(id, shard)| b.shard_of[id] != **shard)
            .count();
        assert!(moved > 50, "only {moved}/200 miners moved");
    }

    #[test]
    fn every_assignment_is_verifiable() {
        let mut mgr = EpochManager::with_miner_count(30);
        let out = mgr.run_epoch(&batch(3)).unwrap();
        for (id, shard) in &out.shard_of {
            let pk = mgr.public_key(*id).unwrap();
            assert!(out.assignment.verify_claim(pk, *shard));
        }
    }

    #[test]
    fn history_accumulates_and_reclassifies_senders() {
        use cshard_primitives::{Address, Amount, ContractId};
        let mut mgr = EpochManager::with_miner_count(10);
        // Epoch 0: user calls contract 0 — isolable.
        let tx0 = Transaction::call(
            Address::user(1),
            0,
            ContractId::new(0),
            Amount(10),
            Amount(1),
        );
        let out0 = mgr.run_epoch(std::slice::from_ref(&tx0)).unwrap();
        assert_eq!(out0.plan.maxshard.len(), 0);
        // Epoch 1: same user calls contract 1 — multi-contract now, so the
        // new call goes to the MaxShard.
        let tx1 = Transaction::call(
            Address::user(1),
            1,
            ContractId::new(1),
            Amount(10),
            Amount(1),
        );
        let out1 = mgr.run_epoch(std::slice::from_ref(&tx1)).unwrap();
        assert_eq!(out1.plan.maxshard.len(), 1, "history must persist");
    }

    #[test]
    fn deterministic_across_replays() {
        let run = || {
            let mut mgr = EpochManager::with_miner_count(25);
            let a = mgr.run_epoch(&batch(7)).unwrap();
            let b = mgr.run_epoch(&batch(8)).unwrap();
            (a.leader, a.shard_of, b.leader, b.shard_of)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one miner")]
    fn empty_enrolment_rejected() {
        EpochManager::new(vec![]);
    }

    #[test]
    fn empty_down_set_matches_plain_run_epoch() {
        let mut plain = EpochManager::with_miner_count(15);
        let mut faulty = EpochManager::with_miner_count(15);
        for e in 0..4 {
            let a = plain.run_epoch(&batch(e)).unwrap();
            let b = faulty
                .run_epoch_with_downs(&batch(e), &BTreeSet::new())
                .expect("a live leader always exists with no downs");
            assert_eq!(a.leader, b.leader);
            assert_eq!(a.failover_depth, 0);
            assert_eq!(b.failover_depth, 0);
            assert_eq!(a.shard_of, b.shard_of);
        }
    }

    #[test]
    fn failover_skips_down_leaders_in_rank_order() {
        let mut mgr = EpochManager::with_miner_count(12);
        let ranking = mgr.leader_ranking(0);
        // Knock out the first two ranked leaders: rank 2 must take over.
        let down: BTreeSet<MinerId> = ranking.iter().take(2).copied().collect();
        let out = mgr.run_epoch_with_downs(&batch(0), &down).unwrap();
        assert_eq!(out.leader, ranking[2]);
        assert_eq!(out.failover_depth, 2);
        // The fallback changes the epoch randomness (different leader VRF),
        // so assignments differ from the no-fault run.
        let mut plain = EpochManager::with_miner_count(12);
        let base = plain.run_epoch(&batch(0)).unwrap();
        assert_ne!(base.leader, out.leader);
    }

    #[test]
    fn verify_failover_replays_the_ranking() {
        let mgr = EpochManager::with_miner_count(10);
        let ranking = mgr.leader_ranking(5);
        let down: BTreeSet<MinerId> = ranking.iter().take(1).copied().collect();
        assert!(mgr.verify_failover(5, &down, ranking[1]));
        assert!(!mgr.verify_failover(5, &down, ranking[0]), "down leader");
        assert!(
            !mgr.verify_failover(5, &down, ranking[2]),
            "skipped a live rank"
        );
    }

    #[test]
    fn all_down_is_a_typed_error_and_preserves_state() {
        let mut mgr = EpochManager::with_miner_count(3);
        let down: BTreeSet<MinerId> = (0..3).map(MinerId::new).collect();
        let err = mgr.run_epoch_with_downs(&batch(0), &down).unwrap_err();
        assert_eq!(err, cshard_primitives::Error::NoLiveLeader { epoch: 0 });
        // The failed attempt consumed nothing: the next epoch is still 0.
        assert_eq!(mgr.epoch(), 0);
        let out = mgr.run_epoch(&batch(0)).unwrap();
        assert_eq!(out.epoch, 0);
    }

    #[test]
    fn empty_batch_is_a_typed_error_and_preserves_state() {
        type Entry = fn(&mut EpochManager, &[Transaction]) -> Result<EpochOutcome, Error>;
        let entries: [(&str, Entry); 2] = [
            ("run_epoch", |m, b| m.run_epoch(b)),
            ("run_epoch_with_downs", |m, b| {
                m.run_epoch_with_downs(b, &BTreeSet::new())
            }),
        ];
        for (label, entry) in entries {
            let mut mgr = EpochManager::with_miner_count(5);
            let err = entry(&mut mgr, &[]).unwrap_err();
            assert!(
                matches!(err, Error::Config { field: "batch", .. }),
                "{label}: {err:?}"
            );
            assert_eq!(mgr.epoch(), 0, "{label}: epoch consumed");
            let out = entry(&mut mgr, &batch(0)).expect("non-empty batch");
            assert_eq!(out.epoch, 0, "{label}");
        }
    }

    #[test]
    fn elect_matches_run_epoch_leader_sequence() {
        let mut electing = EpochManager::with_miner_count(20);
        let mut running = EpochManager::with_miner_count(20);
        for e in 0..8 {
            let (epoch, leader) = electing.elect();
            let out = running.run_epoch(&batch(e)).unwrap();
            assert_eq!(epoch, out.epoch);
            assert_eq!(leader, out.leader, "epoch {e}");
        }
    }

    #[test]
    fn ranking_head_is_the_lottery_winner() {
        let mut mgr = EpochManager::with_miner_count(16);
        for e in 0..6 {
            let head = mgr.leader_ranking(mgr.epoch())[0];
            let out = mgr.run_epoch(&batch(e)).unwrap();
            assert_eq!(out.leader, head);
        }
    }
}
