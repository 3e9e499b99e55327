//! The `ProtocolDriver` trait and the context handed to its hooks.
//!
//! A driver reacts to one event at a time through
//! [`ProtocolDriver::on_event`]. The one exception is the harness's
//! phase-2 idle drain, which hands a driver one whole turn through
//! [`ProtocolDriver::idle_turn`]: its default replays the pending events
//! one by one through `on_event` — the only copy of that loop — and a
//! driver whose idle events are a pure function of their timestamps may
//! replay them in a tighter loop, as `ContractShardDriver` does for the
//! empty blocks a finished shard mines.

use crate::event::Event;
use crate::report::ShardReport;
use cshard_network::CommStats;
use cshard_primitives::{Error, SimTime};
use cshard_settle::SettleStats;
use cshard_sim::EventQueue;
use std::time::Duration;

/// What a driver may do while handling an event: schedule further events
/// on its own shard's queue and account cross-shard messaging.
///
/// The context deliberately exposes no clock control and no access to
/// other shards — those constraints are what let the harness run one
/// driver per thread with bit-identical results at any thread count.
pub struct Ctx<'a> {
    queue: &'a mut EventQueue<Event>,
    comm: &'a mut CommStats,
}

impl<'a> Ctx<'a> {
    /// Wraps a shard's queue and the driver's own communication counter.
    pub fn new(queue: &'a mut EventQueue<Event>, comm: &'a mut CommStats) -> Self {
        Ctx { queue, comm }
    }

    /// The current simulated time (timestamp of the event being handled).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics when `at` is in the past — a simulation must never rewind.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        self.queue.schedule(at, event);
    }

    /// Schedules `event` after `delay`, saturating at the end of
    /// representable time rather than overflowing.
    pub fn schedule_in(&mut self, delay: SimTime, event: Event) {
        self.queue.schedule_in(delay, event);
    }

    /// The driver's cross-shard communication counter. Drivers record
    /// each messaging round here *as it happens*, so Fig. 4's accounting
    /// is emitted from inside the event loop rather than reconstructed
    /// post-hoc; the harness sums every driver's counter after the run.
    pub fn comm(&mut self) -> &mut CommStats {
        self.comm
    }

    /// Pops the next pending event if it fires strictly before `end`,
    /// advancing the queue's clock to it. Crate-private: only the phase-2
    /// turn loops (the [`ProtocolDriver::idle_turn`] default and
    /// `ContractShardDriver`'s override) read the queue.
    pub(crate) fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, Event)> {
        if self.queue.next_time()? < end {
            self.queue.pop()
        } else {
            None
        }
    }
}

/// One shard's protocol logic, driven by the shared event loop.
///
/// A driver is a deterministic state machine: its entire trajectory is a
/// function of its construction parameters and the event stream. It must
/// not read host wall-clock time, global state, or unseeded randomness —
/// the harness owns all of those (and measures wall time around the
/// hooks, behind the report layer).
///
/// # Writing a new driver
///
/// 1. Seed initial events in [`ProtocolDriver::on_start`] (first mining
///    ticks, injection batches, an epoch kick-off).
/// 2. React in [`ProtocolDriver::on_event`]; reschedule recurring events
///    (a miner's next `BlockFound`) from inside the handler. Handlers
///    return `Err` (typed [`cshard_primitives::Error`]) for a malformed
///    event stream — e.g. an event this driver never schedules — instead
///    of panicking; the harness aborts the run and surfaces the error.
/// 3. Report local progress through [`ProtocolDriver::done`] and
///    [`ProtocolDriver::completion`]; the harness runs phase 1 until
///    every driver is done, then replays idle events up to the global
///    completion time so cross-shard accounting is exact. That replay
///    goes through [`ProtocolDriver::idle_turn`], whose default feeds
///    each event to `on_event` — a new driver need not override it.
pub trait ProtocolDriver: Send {
    /// Schedules the driver's initial events. Called once, at t = 0,
    /// before any event fires.
    fn on_start(&mut self, ctx: &mut Ctx);

    /// Handles one event at simulated time `t`. Returns `Err` on a
    /// malformed stream (an event this driver never scheduled); the
    /// harness stops the run and propagates the error — `on_event` paths
    /// must not panic.
    fn on_event(&mut self, t: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error>;

    /// True when the shard's own workload is complete (phase-1 exit).
    /// After this returns true the harness only replays the driver for
    /// idle accounting, up to the run's global completion time.
    fn done(&self) -> bool;

    /// When the shard confirmed its last transaction (`None` if it had
    /// none). The maximum over drivers is the run's completion time.
    fn completion(&self) -> Option<SimTime>;

    /// The shard's final report. `events` and `wall` are supplied by the
    /// harness: events popped for this driver and host time spent in its
    /// hooks (diagnostic only, excluded from fingerprints).
    fn report(&self, events: usize, wall: Duration) -> ShardReport;

    /// Settlement accounting, for drivers that batch cross-shard
    /// transfers through a `cshard_settle::SettlementBatcher`. The run
    /// outcome aggregates these across drivers; the default (`None`) is
    /// for the overwhelming majority of drivers that do not settle.
    fn settle_stats(&self) -> Option<SettleStats> {
        None
    }

    /// Replays the driver's phase-2 (idle-drain) turn: every pending
    /// event strictly before the run's `completion`. Returns how many
    /// events it replayed.
    ///
    /// The default is the event loop itself: each event goes through
    /// [`ProtocolDriver::on_event`]. An override must be indistinguishable
    /// from it — the same driver state, report and count — because the
    /// count feeds `events_processed`.
    fn idle_turn(&mut self, ctx: &mut Ctx, completion: SimTime) -> Result<usize, Error> {
        let mut replayed = 0;
        while let Some((now, ev)) = ctx.pop_before(completion) {
            replayed += 1;
            self.on_event(now, ev, ctx)?;
        }
        Ok(replayed)
    }
}
