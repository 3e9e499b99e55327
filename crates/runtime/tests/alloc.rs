//! Heap accounting of a fee-greedy run: a greedy shard is a count, so
//! what `simulate` allocates does not grow with the shard's transactions.
//!
//! A counting global allocator (std only) tallies the bytes each thread
//! asks for. The count is per thread because the test harness runs tests
//! concurrently; the runs here use `threads: 1`, so every allocation of a
//! run lands on the calling thread.

use cshard_primitives::ShardId;
use cshard_runtime::{simulate, RuntimeConfig, SchedulerConfig, ShardSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown goes uncounted
    // instead of panicking.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

struct Counting;

// SAFETY: both calls forward to `System` unchanged; the counter only
// reads the requested size. The trait's default `alloc_zeroed` and
// `realloc` go through `alloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated on this thread by one `simulate` of a solo greedy
/// shard holding `txs` transactions (the fees are built beforehand).
fn bytes_for(txs: usize) -> u64 {
    let fees: Vec<u64> = (0..txs as u64).map(|i| 1 + (i * 17) % 97).collect();
    let specs = [ShardSpec::solo_greedy(ShardId::new(0), fees)];
    let config = RuntimeConfig {
        scheduler: SchedulerConfig::new(1),
        ..RuntimeConfig::default()
    };
    let before = BYTES.with(Cell::get);
    let report = simulate(&specs, &config).expect("valid config");
    let bytes = BYTES.with(Cell::get) - before;
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
