//! The crosslink channel: a settlement batcher wired to the event loop.
//!
//! [`SettlementBatcher`] is a pure state machine — it answers every
//! submission and every fired deadline with a [`Submit`] / [`FlushOutcome`]
//! value and leaves the scheduling and the message booking to its caller.
//! [`CrosslinkChannel`] is that caller, written once: it arms
//! [`Event::SettlementFlush`] events on the shard's own queue, books one
//! [`CommKind::Crosslink`] per flushed batch and keeps the flush log.
//! Every settlement-aware driver (the settling shard driver here, the
//! batched ChainSpace driver in `cshard-baselines`) holds one instead of
//! re-implementing the protocol.

use crate::driver::Ctx;
use crate::event::Event;
use cshard_network::{Blackouts, CommKind};
use cshard_primitives::{ShardId, SimTime};
use cshard_settle::{Batch, FlushOutcome, SettleConfig, SettlementBatcher, Submit};

/// One shard's outbound crosslink channel. See the module docs.
#[derive(Debug)]
pub struct CrosslinkChannel {
    batcher: SettlementBatcher,
    /// Every batch shipped, in flush order (slot-deterministic; the
    /// exactly-once tests read this back out of the run outcome).
    settled: Vec<Batch>,
}

impl CrosslinkChannel {
    /// A channel for `source` under `config` (a disabled config ships one
    /// crosslink per transfer — the unbatched ledger).
    pub fn new(source: ShardId, config: &SettleConfig) -> CrosslinkChannel {
        CrosslinkChannel {
            batcher: SettlementBatcher::new(source, config),
            settled: Vec::new(),
        }
    }

    /// Installs the blackout table for the pair toward `dest`; anything
    /// bound for the pair that falls inside a window defers to the heal.
    /// The fault harness derives it from its plan's partitions of either
    /// endpoint.
    pub fn set_blackouts(&mut self, dest: ShardId, blackouts: Blackouts) {
        self.batcher.set_blackouts(dest, blackouts);
    }

    /// Submits one transfer toward `dest`, arming the flush deadline or
    /// shipping the filled batch as the batcher directs.
    pub fn submit(&mut self, now: SimTime, dest: ShardId, transfer: u64, ctx: &mut Ctx) {
        match self.batcher.submit(now, dest, transfer) {
            Submit::Queued => {}
            Submit::Arm(at) => ctx.schedule(at, Event::SettlementFlush { dest }),
            Submit::Flushed(batch) => self.ship(batch, ctx),
        }
    }

    /// Adjudicates a fired [`Event::SettlementFlush`] for `dest`: ignore
    /// it as stale, re-arm it past a blackout, or ship the batch.
    pub fn on_flush(&mut self, now: SimTime, dest: ShardId, ctx: &mut Ctx) {
        match self.batcher.on_flush(now, dest) {
            FlushOutcome::Stale => {}
            FlushOutcome::Deferred(at) => ctx.schedule(at, Event::SettlementFlush { dest }),
            FlushOutcome::Flushed(batch) => self.ship(batch, ctx),
        }
    }

    /// Force-flushes the open batch toward `dest` right now and ships it
    /// (nothing when no transfer pends). The batcher clears the pair's
    /// deadline, so any armed flush event goes stale rather than
    /// double-settling.
    pub fn drain(&mut self, now: SimTime, dest: ShardId, ctx: &mut Ctx) {
        if let Some(batch) = self.batcher.drain(now, dest) {
            self.ship(batch, ctx);
        }
    }

    /// Read access to the batcher: its `is_empty()` is the `done()`
    /// conjunct that keeps phase 1 alive until the final flush (pending
    /// transfers always hold an armed deadline event, so waiting on it
    /// never stalls the harness), its `stats()` the flush accounting, and
    /// its `heal_time()` the blackout table other pair-bound work defers
    /// against.
    pub fn batcher(&self) -> &SettlementBatcher {
        &self.batcher
    }

    /// Every batch shipped so far, in flush order.
    pub fn settled_batches(&self) -> &[Batch] {
        &self.settled
    }

    /// Books one crosslink for a flushed batch and logs it.
    fn ship(&mut self, batch: Batch, ctx: &mut Ctx) {
        ctx.comm()
            .record(self.batcher.source(), CommKind::Crosslink);
        self.settled.push(batch);
    }
}
