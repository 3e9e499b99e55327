//! Stage 1 — Classify: call-graph classification (Sec. III-A).
//!
//! Each transaction costs one hash probe. The first pass absorbs the batch
//! into the call graph and hands back every sender's dense slot
//! ([`CallGraph::observe_all_slots`]); the second pass reads each record,
//! and each placement pin, by that slot. Two passes stay because a
//! transaction is classified against the graph *after* the whole batch.
//! The plan's groups are then built once per epoch from the finished
//! `shard_of`, not one map entry per transaction.
//!
//! The slot buffer is one exactly sized allocation per epoch, dropped when
//! the epoch is classified: a buffer kept in the stage across epochs
//! measured 0.3–0.6 MB more peak memory on the stream workloads.

use super::StageOutput;
use crate::formation::ShardPlan;
use cshard_ledger::{CallGraph, Transaction, TxKind};
use cshard_place::Migration;
use cshard_primitives::ShardId;

/// Classifies each epoch's batch against the call graph it **owns** and
/// keeps across epochs (Sec. III-C: "miners can check the call graph
/// instead of remotely referring to the whole history").
///
/// A fresh stage starts with an empty graph (single-workload runs); a
/// long-running pipeline accumulates sender history here, so users who
/// diversify migrate to the MaxShard.
///
/// When placement is enabled, migrations feed back into the stage between
/// epochs ([`ClassifyStage::apply_migrations`]): a pin records the moved
/// sender's new home so its home-contract calls route there from the next
/// epoch on. A pin is an override on top of the predicate — a sender's
/// class does not depend on where the sender lives. Its calls to other
/// contracts, its direct transfers and its multi-input spends still follow
/// the call graph: those touch cross-contract state and belong on the
/// MaxShard.
#[derive(Debug, Default)]
pub struct ClassifyStage {
    graph: CallGraph,
    /// Placement pins by graph slot: the shard a migrated sender moved
    /// to. It grows only to the highest pinned slot, and
    /// `ShardId::MAX_SHARD` marks a slot with no pin — a pin only ever
    /// routes a call to its contract's home shard, which is never the
    /// MaxShard.
    pins: Vec<ShardId>,
}

impl ClassifyStage {
    /// A classifier with no history.
    pub fn new() -> Self {
        ClassifyStage::default()
    }

    /// Applies the epoch's migrations: a pin records each moved sender's
    /// new home shard, replacing an earlier pin. One hash probe per
    /// migration finds the sender's slot, entering a sender the graph has
    /// never observed with no history.
    pub fn apply_migrations(&mut self, moves: &[Migration]) {
        for m in moves {
            let slot = self.graph.account_slot(m.account);
            if slot >= self.pins.len() {
                self.pins.resize(slot + 1, ShardId::MAX_SHARD);
            }
            self.pins[slot] = m.to;
        }
    }

    /// Absorbs `batch` into the call graph and classifies it.
    pub fn run(&mut self, batch: &[Transaction]) -> (ShardPlan, StageOutput) {
        let mut slots = Vec::with_capacity(batch.len());
        let churn = self.graph.observe_all_slots(batch, &mut slots);
        let (graph, pins) = (&self.graph, &self.pins);
        let plan = ShardPlan::partition(batch, |i, tx| {
            let slot = slots[i];
            match &tx.kind {
                TxKind::ContractCall { contract, .. }
                    if pins.get(slot) == Some(&ShardPlan::shard_for_contract(*contract)) =>
                {
                    Some(*contract)
                }
                _ => graph.isolable_contract_at(slot, tx),
            }
        });
        let out = StageOutput {
            items: plan.active_shard_count() as u64,
            reclassified: churn.reclassified,
            carried: churn.carried,
            ..StageOutput::default()
        };
        (plan, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_primitives::{Address, Amount, ContractId};

    fn call(user: u64, contract: u32, nonce: u64) -> Transaction {
        Transaction::call(
            Address::user(user),
            nonce,
            ContractId::new(contract),
            Amount(10),
            Amount(1),
        )
    }

    #[test]
    fn stage_plan_matches_a_from_scratch_graph() {
        // Run the same epoch sequence through the stage and a from-scratch
        // graph; plans must be bit-identical each epoch.
        let epochs: Vec<Vec<Transaction>> = vec![
            (0..10).map(|u| call(u, (u % 3) as u32, 0)).collect(),
            // Repeat senders (clean) + one diversifier (dirty).
            (0..10)
                .map(|u| {
                    if u == 4 {
                        call(u, 9, 1)
                    } else {
                        call(u, (u % 3) as u32, 1)
                    }
                })
                .collect(),
            // Fresh senders only.
            (100..110).map(|u| call(u, 0, 0)).collect(),
        ];
        let mut stage = ClassifyStage::new();
        let mut full_graph = CallGraph::new();
        for batch in &epochs {
            let (plan, _) = stage.run(batch);
            full_graph.observe_all(batch.iter());
            let full = ShardPlan::classify(batch, &full_graph);
            assert_eq!(plan.shard_of, full.shard_of);
            assert_eq!(plan.contract_shards, full.contract_shards);
            assert_eq!(plan.maxshard, full.maxshard);
        }
    }

    #[test]
    fn repeat_senders_are_carried_not_reclassified() {
        let batch: Vec<Transaction> = (0..8).map(|u| call(u, 0, 0)).collect();
        let mut stage = ClassifyStage::new();
        let (_, first) = stage.run(&batch);
        assert_eq!(first.reclassified, 8, "first sight dirties everyone");
        assert_eq!(first.carried, 0);
        let repeat: Vec<Transaction> = (0..8).map(|u| call(u, 0, 1)).collect();
        let (_, second) = stage.run(&repeat);
        assert_eq!(second.reclassified, 0, "no participation change");
        assert_eq!(second.carried, 8);
    }

    #[test]
    fn history_from_an_earlier_epoch_moves_a_sender_to_maxshard() {
        let direct =
            Transaction::direct(Address::user(1), 0, Address::user(9), Amount(5), Amount(1));
        for (label, first) in [("other contract", call(1, 0, 0)), ("direct", direct)] {
            let mut stage = ClassifyStage::new();
            stage.run(&[first]);
            let (plan, out) = stage.run(&[call(1, 1, 1)]);
            assert_eq!(out.reclassified, 1, "{label}: a new contract is a change");
            assert_eq!(out.carried, 0, "{label}");
            assert_eq!(plan.maxshard, vec![0], "{label}: history forces MaxShard");
            // A pure repeat afterwards is carried and classifies the same.
            let (plan, out) = stage.run(&[call(1, 1, 2)]);
            assert_eq!((out.reclassified, out.carried), (0, 1), "{label}");
            assert_eq!(plan.maxshard, vec![0], "{label}");
        }
    }

    #[test]
    fn migrated_sender_is_routed_to_its_pin() {
        let mut stage = ClassifyStage::new();
        // Sender 1 calls two contracts: MultiContract, lands on MaxShard.
        let (plan0, _) = stage.run(&[call(1, 0, 0), call(1, 1, 1)]);
        assert_eq!(plan0.maxshard, vec![0, 1]);
        // Placement moves sender 1 home to contract 0's shard; a later
        // move replaces an earlier pin.
        let move_to = |to| Migration {
            account: Address::user(1),
            from: ShardId::MAX_SHARD,
            to,
            txs: 2,
        };
        stage.apply_migrations(&[move_to(ShardId::new(7)), move_to(ShardId::new(0))]);
        // Next epoch repeats the same participation: a move alone
        // reclassifies nobody, and the home-contract call routes to the
        // pinned shard.
        let (plan, out) = stage.run(&[call(1, 0, 2), call(1, 1, 3)]);
        assert_eq!((out.reclassified, out.carried), (0, 1));
        assert_eq!(
            plan.shard_of[0],
            ShardId::new(0),
            "home call follows the pin"
        );
        assert_eq!(plan.shard_of[1], ShardId::MAX_SHARD, "foreign call stays");
        // A direct transfer makes the sender Direct: its home call still
        // follows the pin, the transfer stays on the MaxShard.
        let transfer =
            Transaction::direct(Address::user(1), 5, Address::user(9), Amount(5), Amount(1));
        let (plan, _) = stage.run(&[call(1, 0, 4), transfer]);
        assert_eq!(plan.shard_of, [ShardId::new(0), ShardId::MAX_SHARD]);
        assert_eq!(plan.contract_shards[&ShardId::new(0)], [0]);
        assert_eq!(plan.maxshard, [1]);
    }
}
