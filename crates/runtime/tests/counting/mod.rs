//! A counting global allocator (std only) for the heap-accounting rows.
//! Every test binary that includes this module allocates through it; it
//! tallies, per thread, the allocations made and the bytes they ask for.
//! The tally is per thread because the test harness runs tests
//! concurrently: code a row runs on the calling thread is counted there
//! and nowhere else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown goes uncounted
    // instead of panicking.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
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

/// Runs `f` and returns its result with what it allocated on this thread:
/// `(result, allocations, bytes asked for)`.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let tally = || (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let (allocs, bytes) = tally();
    let result = f();
    let (allocs_after, bytes_after) = tally();
    (result, allocs_after - allocs, bytes_after - bytes)
}
