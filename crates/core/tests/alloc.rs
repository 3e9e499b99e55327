//! Heap accounting of the classify stage: once the stage has seen its
//! senders, classifying a batch allocates a fixed number of blocks — the
//! slot buffer, the sort's scratch, the plan's exactly sized vectors and
//! one map node — however many transactions the batch holds. A
//! per-transaction allocation, or a group `Vec` that doubles as it is
//! pushed, would make the count grow with the batch.
//!
//! The counting allocator shared with the runtime's heap rows
//! (`crates/runtime/tests/counting`) tallies the allocations each thread
//! makes; the stage runs on the calling thread.

#![allow(
    unsafe_code,
    reason = "the counting global allocator implements `GlobalAlloc`, an unsafe trait"
)]

#[path = "../../runtime/tests/counting/mod.rs"]
mod counting;

use cshard_core::pipeline::ClassifyStage;
use cshard_ledger::Transaction;
use cshard_primitives::{Address, Amount, ContractId};

/// `txs` contract calls from 100 repeat senders, each loyal to one of 8
/// contracts.
fn batch(txs: u64) -> Vec<Transaction> {
    (0..txs)
        .map(|i| {
            let sender = i % 100;
            Transaction::call(
                Address::user(sender),
                i / 100,
                ContractId::new((sender % 8) as u32),
                Amount(10),
                Amount(1),
            )
        })
        .collect()
}

/// Allocations made on this thread by one `ClassifyStage::run` of a
/// `txs`-transaction batch, after a warm-up epoch of the same batch.
fn allocs_for(txs: u64) -> u64 {
    let batch = batch(txs);
    let mut stage = ClassifyStage::new();
    stage.run(&batch);
    let ((plan, _), allocs, _) = counting::counted(|| stage.run(&batch));
    assert_eq!(plan.contract_shards.len(), 8);
    assert!(plan.maxshard.is_empty());
    allocs
}

#[test]
fn classifying_allocates_the_same_at_any_batch_size() {
    let small = allocs_for(1_000);
    let large = allocs_for(10_000);
    assert_eq!(
        small, large,
        "1 000 txs made {small} allocations, 10 000 txs {large}"
    );
}
