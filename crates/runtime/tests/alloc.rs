//! Heap accounting of a fee-greedy run: a greedy shard is a count, so
//! what `simulate` allocates does not grow with the shard's transactions.
//!
//! The counting allocator (`counting/mod.rs`) tallies the bytes each
//! thread asks for; the runs here use `threads: 1`, so every allocation of
//! a run lands on the calling thread.

#![allow(
    unsafe_code,
    reason = "the counting global allocator implements `GlobalAlloc`, an unsafe trait"
)]

mod counting;

use cshard_primitives::ShardId;
use cshard_runtime::{simulate, RuntimeConfig, SchedulerConfig, ShardSpec};

/// Bytes allocated on this thread by one `simulate` of a solo greedy
/// shard holding `txs` transactions (the fees are built beforehand).
fn bytes_for(txs: usize) -> u64 {
    let fees: Vec<u64> = (0..txs as u64).map(|i| 1 + (i * 17) % 97).collect();
    let specs = [ShardSpec::solo_greedy(ShardId::new(0), fees)];
    let config = RuntimeConfig {
        scheduler: SchedulerConfig::new(1),
        ..RuntimeConfig::default()
    };
    let (report, _, bytes) = counting::counted(|| simulate(&specs, &config));
    let report = report.expect("valid config");
    assert_eq!(report.shards[0].confirmed, txs);
    bytes
}

#[test]
fn greedy_shard_memory_does_not_grow_with_its_transactions() {
    // Once-per-thread state (if any) is paid here, outside the rows.
    bytes_for(100);
    let small = bytes_for(100);
    let large = bytes_for(10_000);
    assert_eq!(
        small, large,
        "100 txs allocated {small} B, 10 000 txs {large} B"
    );
}
