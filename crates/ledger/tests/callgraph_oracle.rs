//! Differential oracle: the slot-indexed [`CallGraph`] against the
//! ordered-map reference model, over seeded batch sequences that mix
//! contract calls, direct transfers and multi-input transfers.
//!
//! After every batch: every address classifies the same, every transaction
//! is isolable to the same contract, the graphs track the same number of
//! addresses, and the batch's churn counters are the sizes of the
//! reference's sets — `reclassified == |dirty|`, `carried == |senders \
//! dirty|`.

mod reference;

use cshard_ledger::{CallGraph, SenderClass, Transaction};
use cshard_primitives::{Address, Amount, ContractId};
use cshard_sim::SimRng;
use reference::ReferenceGraph;
use std::collections::BTreeSet;

/// One transaction over `users` accounts and `contracts` contracts. A
/// small account space makes repeats, diversifiers and inputs that are
/// also senders common.
fn draw_tx(rng: &mut SimRng, users: u64, contracts: u32, multi_percent: u64) -> Transaction {
    let user = rng.below(users);
    let sender = Address::user(user);
    let (value, fee) = (Amount::from_raw(5), Amount::from_raw(1));
    let kind = rng.below(100);
    if kind < multi_percent {
        // 1–3 inputs, which may or may not include the sender or repeat.
        let inputs = (0..1 + rng.below(3))
            .map(|_| Address::user(rng.below(users)))
            .collect();
        Transaction::multi_input(
            sender,
            0,
            inputs,
            Address::user(rng.below(users)),
            value,
            fee,
        )
    } else if kind < multi_percent + 15 {
        Transaction::direct(sender, 0, Address::user(rng.below(users)), value, fee)
    } else {
        // Mostly the sender's home contract, one call in ten any contract.
        let contract = if rng.below(10) == 0 {
            rng.below(u64::from(contracts))
        } else {
            user % u64::from(contracts)
        };
        Transaction::call(sender, 0, ContractId::new(contract as u32), value, fee)
    }
}

#[test]
fn call_graph_matches_the_reference_model_over_240_seeded_sequences() {
    let mut classes_seen = [false; 4];
    for seed in 0..240u64 {
        let mut rng = SimRng::new(seed);
        let users = [6, 30, 400][(seed % 3) as usize];
        let contracts = [1, 3, 12][((seed / 3) % 3) as usize];
        let multi_percent = [0, 5, 30][((seed / 9) % 3) as usize];
        let mut graph = CallGraph::new();
        let mut reference = ReferenceGraph::default();
        for batch_no in 0..6 {
            let label = format!("seed {seed} batch {batch_no}");
            let batch: Vec<Transaction> = (0..rng.below(60))
                .map(|_| draw_tx(&mut rng, users, contracts, multi_percent))
                .collect();
            let churn = graph.observe_all(&batch);
            let dirty = reference.observe_all(&batch);
            let senders: BTreeSet<Address> = batch.iter().map(|tx| tx.sender).collect();
            assert_eq!(
                churn.reclassified,
                dirty.len() as u64,
                "{label}: reclassified"
            );
            assert_eq!(
                churn.carried,
                senders.difference(&dirty).count() as u64,
                "{label}: carried"
            );
            assert_eq!(graph.sender_count(), reference.sender_count(), "{label}");
            // One index past the account space: an address never seen.
            for user in 0..=users {
                let address = Address::user(user);
                let class = graph.classify(address);
                assert_eq!(class, reference.classify(address), "{label}: {address:?}");
                classes_seen[match class {
                    SenderClass::Unknown => 0,
                    SenderClass::SingleContract(_) => 1,
                    SenderClass::MultiContract => 2,
                    SenderClass::Direct => 3,
                }] = true;
            }
            for (i, tx) in batch.iter().enumerate() {
                assert_eq!(
                    graph.isolable_contract(tx),
                    reference.isolable_contract(tx),
                    "{label}: tx {i}"
                );
            }
        }
    }
    assert_eq!(classes_seen, [true; 4], "the grid reaches every class");
}
