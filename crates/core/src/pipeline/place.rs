//! Stage 6 — Place: cross-epoch placement decisions.
//!
//! Runs last, over the classified plan (who routed to the MaxShard). It
//! feeds the persistent [`PlacementEngine`] and returns the epoch's
//! [`Migration`] list; the pipeline applies those to the classify stage
//! *after* the epoch completes, so a move decided in epoch `e` reroutes
//! traffic from epoch `e + 1` on — matching the runtime side, where the
//! migrating driver executes the move at the start of the next epoch's
//! run.

use super::{counted, StageOutput};
use crate::formation::ShardPlan;
use cshard_ledger::{Transaction, TxKind};
use cshard_place::{Migration, PlacementConfig, PlacementEngine};
use cshard_primitives::ShardId;

/// The placement stage: disabled it is a no-op with a default output —
/// bit-invisible, like a disabled merge stage — and enabled it observes
/// MaxShard traffic and proposes hot-account migrations.
#[derive(Debug)]
pub struct PlacementStage {
    engine: PlacementEngine,
}

impl PlacementStage {
    /// Builds the stage; the engine persists across epochs.
    pub fn new(config: PlacementConfig) -> Self {
        PlacementStage {
            engine: PlacementEngine::new(config),
        }
    }

    /// Feeds `batch`'s MaxShard-routed contract calls to the engine and
    /// returns the migrations it proposes for the next epoch.
    pub fn run(
        &mut self,
        batch: &[Transaction],
        plan: &ShardPlan,
    ) -> (Vec<Migration>, StageOutput) {
        if !self.engine.config().enabled {
            return (Vec::new(), StageOutput::default());
        }
        for &i in &plan.maxshard {
            if let Some(tx) = batch.get(i) {
                if let TxKind::ContractCall { contract, .. } = &tx.kind {
                    self.engine.observe(tx.sender, *contract);
                }
            }
        }
        let migrations = self
            .engine
            .propose()
            .into_iter()
            .map(|hot| Migration {
                account: hot.account,
                from: ShardId::MAX_SHARD,
                to: ShardPlan::shard_for_contract(hot.contract),
                txs: hot.txs,
            })
            .collect();
        counted(migrations)
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

    fn run_stage(
        stage: &mut PlacementStage,
        txs: &[Transaction],
        maxshard: Vec<usize>,
    ) -> (Vec<Migration>, StageOutput) {
        let shard_of = txs
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if maxshard.contains(&i) {
                    ShardId::MAX_SHARD
                } else {
                    ShardId::new(0)
                }
            })
            .collect();
        let plan = ShardPlan {
            contract_shards: Default::default(),
            maxshard,
            shard_of,
        };
        stage.run(txs, &plan)
    }

    #[test]
    fn disabled_stage_is_inert() {
        let mut stage = PlacementStage::new(PlacementConfig::disabled());
        let txs: Vec<Transaction> = (0..6).map(|n| call(1, 0, n)).collect();
        let (migrations, out) = run_stage(&mut stage, &txs, vec![0, 1, 2, 3, 4, 5]);
        assert!(migrations.is_empty());
        assert_eq!(out, StageOutput::default());
        assert_eq!(stage.engine.tracked_senders(), 0);
    }

    #[test]
    fn dominant_maxshard_sender_is_proposed_for_its_home_shard() {
        let mut stage = PlacementStage::new(PlacementConfig::engaged());
        // Sender 1's calls all sit on the MaxShard and target contract 3;
        // sender 2's call is already on a contract shard and is ignored.
        let mut txs: Vec<Transaction> = (0..5).map(|n| call(1, 3, n)).collect();
        txs.push(call(2, 0, 0));
        let (migrations, out) = run_stage(&mut stage, &txs, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.items, 1);
        assert_eq!(
            migrations,
            vec![Migration {
                account: Address::user(1),
                from: ShardId::MAX_SHARD,
                to: ShardId::new(3),
                txs: 5,
            }]
        );
        assert_eq!(
            stage.engine.tracked_senders(),
            1,
            "contract-shard traffic untracked"
        );
        // The same epoch again proposes nothing: the account moved.
        let (again, _) = run_stage(&mut stage, &txs, vec![0, 1, 2, 3, 4]);
        assert!(again.is_empty());
    }
}
