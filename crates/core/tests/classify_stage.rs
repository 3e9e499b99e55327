//! The classify-stage pins: across a 200-seed fuzz grid of churn patterns
//! (repeat-heavy pools, diversifiers, spam floods, direct traffic), a
//! stage that accumulates history across epochs must plan — and count its
//! churn — **bit-identically** to the ordered-map reference model of the
//! call graph (`crates/ledger/tests/reference`) fed the same batches, and
//! field for field like the by-address `ShardPlan::classify`; placement
//! pins must override exactly the pinned senders' home-contract calls and
//! nothing else.

#[path = "../../ledger/tests/reference/mod.rs"]
mod reference;

use cshard_core::pipeline::ClassifyStage;
use cshard_core::ShardPlan;
use cshard_ledger::{CallGraph, Transaction, TxKind};
use cshard_place::Migration;
use cshard_primitives::{Address, Amount, ContractId, ShardId, SimTime};
use cshard_sim::SimRng;
use cshard_workload::{SpamFlood, StreamConfig, TxStream};
use reference::ReferenceGraph;
use std::collections::{BTreeMap, BTreeSet};

/// Runs just the classify stage over one batch and returns its plan plus
/// (reclassified, carried).
fn run_stage(stage: &mut ClassifyStage, batch: &[Transaction]) -> (ShardPlan, u64, u64) {
    let (plan, out) = stage.run(batch);
    (plan, out.reclassified, out.carried)
}

/// The fuzz grid: seed-indexed churn patterns. Small account pools make
/// repeats (clean senders) dominate; high diversify makes churn dominate;
/// spam floods stream never-repeating senders.
fn grid_config(seed: u64) -> StreamConfig {
    let accounts = [8, 40, 200, 5_000][(seed % 4) as usize];
    let contracts = [2, 5, 9][(seed % 3) as usize];
    let diversify = [0.0, 0.1, 0.5][((seed / 4) % 3) as usize];
    let direct_fraction = [0.0, 0.2][((seed / 12) % 2) as usize];
    let spam = if seed % 5 == 0 {
        Some(SpamFlood {
            start: SimTime::ZERO,
            end: SimTime::MAX,
            fraction: 0.3,
        })
    } else {
        None
    };
    StreamConfig {
        accounts,
        contracts,
        diversify,
        direct_fraction,
        spam,
        seed,
        ..StreamConfig::default()
    }
}

/// The shard the reference model routes each transaction of `batch` to.
fn reference_routing(reference: &ReferenceGraph, batch: &[Transaction]) -> Vec<ShardId> {
    batch
        .iter()
        .map(|tx| {
            reference
                .isolable_contract(tx)
                .map_or(ShardId::MAX_SHARD, ShardPlan::shard_for_contract)
        })
        .collect()
}

#[test]
fn accumulating_stage_matches_the_reference_model_over_200_seeds() {
    for seed in 0..200u64 {
        let config = grid_config(seed);
        let txs: Vec<Transaction> = TxStream::new(config).take(180).map(|(_, tx)| tx).collect();
        let mut stage = ClassifyStage::new();
        let mut reference = ReferenceGraph::default();
        let mut graph = CallGraph::new();
        for (e, batch) in txs.chunks(60).enumerate() {
            let label = format!("seed {seed} epoch {e}");
            let (staged, reclassified, carried) = run_stage(&mut stage, batch);
            let dirty = reference.observe_all(batch);
            assert_eq!(
                staged.shard_of,
                reference_routing(&reference, batch),
                "{label}: shard_of diverged"
            );
            assert_plan_consistent(&staged, batch.len(), &label);
            // The slot path and the by-address path agree field for field.
            graph.observe_all(batch);
            let by_address = ShardPlan::classify(batch, &graph);
            assert_eq!(
                staged.contract_shards, by_address.contract_shards,
                "{label}: contract_shards"
            );
            assert_eq!(staged.maxshard, by_address.maxshard, "{label}: maxshard");
            assert_eq!(staged.shard_of, by_address.shard_of, "{label}: shard_of");
            let senders: BTreeSet<Address> = batch.iter().map(|tx| tx.sender).collect();
            assert_eq!(reclassified, dirty.len() as u64, "{label}: reclassified");
            assert_eq!(
                carried,
                senders.difference(&dirty).count() as u64,
                "{label}: carried"
            );
        }
    }
}

/// Every index in exactly one group, `shard_of` naming that group, and
/// every group's indices ascending: the Form stage builds each shard's fee
/// queue in that order.
fn assert_plan_consistent(plan: &ShardPlan, len: usize, label: &str) {
    assert_eq!(plan.shard_of.len(), len, "{label}: shard_of length");
    let mut seen = vec![false; len];
    let groups = plan
        .contract_shards
        .iter()
        .map(|(&shard, idxs)| (shard, idxs))
        .chain([(ShardId::MAX_SHARD, &plan.maxshard)]);
    for (shard, idxs) in groups {
        assert!(
            idxs.windows(2).all(|w| w[0] < w[1]),
            "{label}: {shard}'s indices are not ascending"
        );
        for &i in idxs {
            assert_eq!(plan.shard_of[i], shard, "{label}: tx {i} group vs shard_of");
            assert!(
                !std::mem::replace(&mut seen[i], true),
                "{label}: tx {i} twice"
            );
        }
    }
    assert!(seen.iter().all(|&s| s), "{label}: a tx is in no group");
    assert!(
        !plan.contract_shards.contains_key(&ShardId::MAX_SHARD),
        "{label}: MaxShard listed as a contract shard"
    );
}

#[test]
fn pins_override_exactly_the_home_contract_calls() {
    // The benchmark cannot check routing while pins are in force, so this
    // does: random pin sets drawn between epochs over the same churn grid.
    let mut rerouted = 0u32;
    for seed in 0..200u64 {
        let config = grid_config(seed);
        let contracts = config.contracts as u64;
        let txs: Vec<Transaction> = TxStream::new(config).take(180).map(|(_, tx)| tx).collect();
        let mut rng = SimRng::new(seed);
        let mut stage = ClassifyStage::new();
        let mut reference = ReferenceGraph::default();
        let mut pins: BTreeMap<Address, ShardId> = BTreeMap::new();
        for (e, batch) in txs.chunks(60).enumerate() {
            let label = format!("seed {seed} epoch {e}");
            let (placed, _, _) = run_stage(&mut stage, batch);
            reference.observe_all(batch);
            let unpinned = reference_routing(&reference, batch);
            assert_plan_consistent(&placed, batch.len(), &label);
            for (i, tx) in batch.iter().enumerate() {
                let home = match &tx.kind {
                    TxKind::ContractCall { contract, .. } => pins
                        .get(&tx.sender)
                        .copied()
                        .filter(|&pin| pin == ShardPlan::shard_for_contract(*contract)),
                    _ => None,
                };
                assert_eq!(
                    placed.shard_of[i],
                    home.unwrap_or(unpinned[i]),
                    "{label}: tx {i} (pinned home call: {})",
                    home.is_some()
                );
                rerouted += u32::from(home.is_some_and(|pin| pin != unpinned[i]));
            }
            // Pin (or re-pin) a few of this batch's senders to random
            // contracts' shards; the moves take effect next epoch.
            let moves: Vec<Migration> = (0..rng.below(6))
                .map(|_| Migration {
                    account: batch[rng.below(batch.len() as u64) as usize].sender,
                    from: ShardId::MAX_SHARD,
                    to: ShardId::new(rng.below(contracts) as u32),
                    txs: 1,
                })
                .collect();
            stage.apply_migrations(&moves);
            pins.extend(moves.iter().map(|m| (m.account, m.to)));
        }
    }
    assert!(rerouted > 100, "the grid barely exercises pins: {rerouted}");
}

#[test]
fn a_pin_on_a_never_observed_account_routes_its_later_home_calls() {
    let call = |user: u64, contract: u32, nonce: u64| {
        Transaction::call(
            Address::user(user),
            nonce,
            ContractId::new(contract),
            Amount(10),
            Amount(1),
        )
    };
    let mut stage = ClassifyStage::new();
    run_stage(&mut stage, &[call(1, 0, 0), call(2, 1, 0)]);
    // Account 9 has never sent or been observed when it is pinned to
    // contract 1's shard.
    stage.apply_migrations(&[Migration {
        account: Address::user(9),
        from: ShardId::MAX_SHARD,
        to: ShardId::new(1),
        txs: 1,
    }]);
    // Its first batch makes it multi-contract: unpinned, both calls would
    // go to the MaxShard. The home call follows the pin; the other call
    // stays. First sight still counts as a reclassification.
    let batch = [call(9, 0, 0), call(1, 0, 1), call(9, 1, 1)];
    let (plan, reclassified, carried) = run_stage(&mut stage, &batch);
    assert_eq!((reclassified, carried), (1, 1));
    assert_eq!(
        plan.shard_of,
        [ShardId::MAX_SHARD, ShardId::new(0), ShardId::new(1)]
    );
    assert_eq!(plan.maxshard, [0]);
    assert_plan_consistent(&plan, batch.len(), "never-observed pin");
    // And it keeps routing there in later epochs.
    let (plan, _, _) = run_stage(&mut stage, &[call(9, 1, 2)]);
    assert_eq!(plan.shard_of, [ShardId::new(1)]);
}

#[test]
fn repeat_heavy_epochs_carry_most_senders() {
    // A tiny pool with no churn knobs: after the first epoch every sender
    // repeats, so reclassification must be the exception, not the rule.
    let txs: Vec<Transaction> = TxStream::new(StreamConfig {
        accounts: 16,
        contracts: 4,
        diversify: 0.0,
        direct_fraction: 0.0,
        seed: 7,
        ..StreamConfig::default()
    })
    .take(240)
    .map(|(_, tx)| tx)
    .collect();
    let mut stage = ClassifyStage::new();
    let mut later_reclassified = 0u64;
    let mut later_carried = 0u64;
    for (e, batch) in txs.chunks(80).enumerate() {
        let (_, reclassified, carried) = run_stage(&mut stage, batch);
        if e > 0 {
            later_reclassified += reclassified;
            later_carried += carried;
        }
    }
    // First sight can trickle into later epochs (a cold community member
    // appearing for the first time), but with 16 accounts that is bounded
    // by the pool size; everything else must be carried.
    assert!(
        later_reclassified <= 16,
        "a churn-free pool reclassifies at most one first sight per account: {later_reclassified}"
    );
    assert!(
        later_carried > 4 * later_reclassified.max(1),
        "repeat traffic must dominate: carried={later_carried} reclassified={later_reclassified}"
    );
}

#[test]
fn spam_floods_reclassify_every_fresh_sender() {
    // Pure spam: every arrival is a brand-new throwaway sender, so nobody
    // is carried — the opposite corner of the grid.
    let txs: Vec<Transaction> = TxStream::new(StreamConfig {
        spam: Some(SpamFlood {
            start: SimTime::ZERO,
            end: SimTime::MAX,
            fraction: 1.0,
        }),
        seed: 11,
        ..StreamConfig::default()
    })
    .take(120)
    .map(|(_, tx)| tx)
    .collect();
    let mut stage = ClassifyStage::new();
    for batch in txs.chunks(40) {
        let (_, reclassified, carried) = run_stage(&mut stage, batch);
        assert_eq!(reclassified, 40, "every spam sender is fresh");
        assert_eq!(carried, 0);
    }
}
