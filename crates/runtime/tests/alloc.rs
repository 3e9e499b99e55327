//! Heap accounting of a run: a greedy shard is a count, so what
//! `simulate` allocates does not grow with the shard's transactions; an
//! equilibrium shard sizes its buffers once, so how often it allocates
//! does not grow with them either.
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
use cshard_runtime::{simulate, RuntimeConfig, SchedulerConfig, SelectionStrategy, ShardSpec};

/// `(allocations, bytes)` made on this thread by one `simulate` of `spec`
/// with its fees replaced by `txs` transactions' (built beforehand).
fn counted_run(spec: ShardSpec, txs: usize) -> (u64, u64) {
    let fees: Vec<u64> = (0..txs as u64).map(|i| 1 + (i * 17) % 97).collect();
    let specs = [ShardSpec { fees, ..spec }];
    let config = RuntimeConfig {
        scheduler: SchedulerConfig::new(1),
        ..RuntimeConfig::default()
    };
    let (report, allocs, bytes) = counting::counted(|| simulate(&specs, &config));
    let report = report.expect("valid config");
    assert_eq!(report.shards[0].confirmed, txs);
    (allocs, bytes)
}

/// Bytes allocated by one run of a solo greedy shard of `txs`.
fn bytes_for(txs: usize) -> u64 {
    counted_run(ShardSpec::solo_greedy(ShardId::new(0), Vec::new()), txs).1
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

/// A 3-miner equilibrium shard restarts Algorithm 2 every ≈ 30
/// confirmations: 4 epochs at 100 transactions, ≈ 330 at 10 000. Equal
/// allocation counts mean a restart after the first allocates nothing and
/// the first epoch sizes each buffer once, whatever the shard's size.
#[test]
fn equilibrium_shard_allocation_count_does_not_grow_with_its_transactions() {
    let allocs_for = |txs| {
        let spec = ShardSpec {
            miners: 3,
            strategy: SelectionStrategy::Equilibrium { max_rounds: 500 },
            ..ShardSpec::solo_greedy(ShardId::new(0), Vec::new())
        };
        counted_run(spec, txs).0
    };
    allocs_for(100);
    let small = allocs_for(100);
    let large = allocs_for(10_000);
    assert_eq!(
        small, large,
        "100 txs made {small} allocations, 10 000 txs {large}"
    );
}
