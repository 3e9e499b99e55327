//! Sealing a lazy `(SimTime, payload)` arrival stream into per-epoch
//! batches.
//!
//! Epoch boundaries are derived from arrival timestamps, not from control
//! events: an arrival at time `t` belongs to epoch `t / interval`, and an
//! arrival in a later epoch seals the open batch. Batch contents are
//! therefore a pure function of the stream — independent of scheduler
//! interleaving, thread count and tie-breaking order. That rule lives once,
//! in the private `EpochSealer`, behind two shells:
//!
//! * [`EpochBatches`] — a plain iterator adaptor. It pulls at most one
//!   arrival past the batch it yields, so a consumer that runs each batch
//!   before pulling the next holds O(epoch) transactions, never O(stream).
//!   `cshard-core`'s `LongRun::run_stream` runs each sealed epoch this way.
//! * [`StreamDriver`] — the same rule as a [`ProtocolDriver`]: one
//!   [`Event::TxInjected`] per arrival, one arrival staged at a time, and
//!   every sealed batch kept until the run ends. Only the benchmark's
//!   decomposed replay still uses it.
//!
//! Both shells are payload-generic: the runtime crate does not know what a
//! ledger transaction is, and tests drive them with plain integers.

use crate::driver::{Ctx, ProtocolDriver};
use crate::event::Event;
use crate::report::ShardReport;
use cshard_primitives::{Error, ShardId, SimTime};
use std::time::Duration;

/// A boxed lazy arrival source: simulated arrival time plus payload.
/// Arrival times must be non-decreasing; both shells reject a rewinding
/// stream with a typed error.
pub type ArrivalSource<T> = Box<dyn Iterator<Item = (SimTime, T)> + Send>;

/// The sealing rule: epoch = `at / interval`; an arrival in a later epoch
/// seals the open batch; quiet intervals seal nothing.
#[derive(Debug)]
struct EpochSealer<T> {
    interval: SimTime,
    open: Vec<T>,
    open_epoch: u64,
    last_arrival: Option<SimTime>,
}

impl<T> EpochSealer<T> {
    fn new(interval: SimTime) -> Self {
        EpochSealer {
            interval,
            open: Vec::new(),
            open_epoch: 0,
            last_arrival: None,
        }
    }

    /// Rejects an arrival that would rewind the stream.
    fn admit(&self, at: SimTime) -> Result<(), Error> {
        match self.last_arrival {
            Some(last) if at < last => Err(Error::Config {
                field: "stream",
                reason: format!("non-monotone arrival stream: {at} after {last}"),
            }),
            _ => Ok(()),
        }
    }

    /// Adds one arrival, returning the batch it sealed, if any.
    fn push(&mut self, at: SimTime, item: T) -> Result<Option<(u64, Vec<T>)>, Error> {
        if self.interval == SimTime::ZERO {
            return Err(Error::Config {
                field: "epoch_interval",
                reason: "epochs need a positive sealing interval".into(),
            });
        }
        self.admit(at)?;
        let epoch = at.as_millis() / self.interval.as_millis();
        let sealed = if epoch > self.open_epoch {
            let sealed = self.seal();
            self.open_epoch = epoch;
            sealed
        } else {
            None
        };
        self.open.push(item);
        self.last_arrival = Some(at);
        Ok(sealed)
    }

    /// Seals the open batch (at the end of the stream, or on a boundary).
    fn seal(&mut self) -> Option<(u64, Vec<T>)> {
        (!self.open.is_empty()).then(|| (self.open_epoch, std::mem::take(&mut self.open)))
    }
}

/// Seals a lazy arrival source into `(epoch index, batch)` pairs, in epoch
/// order, pulling arrivals only as far as the batch it yields needs: after
/// yielding batch *k* the source has been pulled once past it (the arrival
/// that sealed it), or not at all once it is exhausted. Epochs with no
/// arrivals yield no batch.
///
/// A rewinding timestamp yields `Error::Config { field: "stream" }` and a
/// zero interval `Error::Config { field: "epoch_interval" }` at the first
/// arrival (an empty source yields nothing); either error ends the
/// iteration.
#[derive(Debug)]
pub struct EpochBatches<I, T> {
    source: I,
    sealer: EpochSealer<T>,
    done: bool,
}

impl<I: Iterator<Item = (SimTime, T)>, T> EpochBatches<I, T> {
    /// Batches of `source`, sealed every `interval` of simulated time.
    pub fn new(source: impl IntoIterator<IntoIter = I>, interval: SimTime) -> Self {
        EpochBatches {
            source: source.into_iter(),
            sealer: EpochSealer::new(interval),
            done: false,
        }
    }
}

impl<I: Iterator<Item = (SimTime, T)>, T> Iterator for EpochBatches<I, T> {
    type Item = Result<(u64, Vec<T>), Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        for (at, item) in self.source.by_ref() {
            match self.sealer.push(at, item) {
                Ok(None) => {}
                Ok(Some(sealed)) => return Some(Ok(sealed)),
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        self.done = true;
        self.sealer.seal().map(Ok)
    }
}

/// Injects a lazy arrival stream as [`Event::TxInjected`] events and
/// seals arrivals into per-epoch batches by the same rule as
/// [`EpochBatches`], keeping every sealed batch until the run ends.
pub struct StreamDriver<T> {
    source: ArrivalSource<T>,
    sealer: EpochSealer<T>,
    /// The staged arrival behind the one in-flight `TxInjected` event.
    pending: Option<(SimTime, T)>,
    batches: Vec<(u64, Vec<T>)>,
    injected: usize,
    exhausted: bool,
}

impl<T: Send> StreamDriver<T> {
    /// A driver over `source`, sealing batches every `interval` of
    /// simulated time. A zero interval fails the run at the first
    /// injection with `Error::Config { field: "epoch_interval" }`.
    pub fn new(
        source: impl Iterator<Item = (SimTime, T)> + Send + 'static,
        interval: SimTime,
    ) -> Self {
        StreamDriver {
            source: Box::new(source),
            sealer: EpochSealer::new(interval),
            pending: None,
            batches: Vec::new(),
            injected: 0,
            exhausted: false,
        }
    }

    /// Consumes the finished driver, handing the sealed `(epoch index,
    /// batch)` pairs out, in epoch order. Empty epochs (no arrivals in the
    /// interval) produce no entry.
    pub fn into_batches(self) -> Vec<(u64, Vec<T>)> {
        self.batches
    }

    /// Pulls the next arrival, stages it, and schedules its injection.
    /// Marks the stream exhausted (sealing the final batch) when the
    /// source runs dry. A rewinding arrival is rejected here, before it
    /// can reach the event queue.
    fn stage_next(&mut self, ctx: &mut Ctx) -> Result<(), Error> {
        match self.source.next() {
            Some((at, item)) => {
                self.sealer.admit(at)?;
                self.pending = Some((at, item));
                ctx.schedule(at, Event::TxInjected { tx: self.injected });
            }
            None => {
                self.exhausted = true;
                self.batches.extend(self.sealer.seal());
            }
        }
        Ok(())
    }
}

impl<T: Send> ProtocolDriver for StreamDriver<T> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // The first pull cannot rewind (nothing precedes it) and an
        // empty source just leaves the driver born-done, so the staged
        // error path is unreachable here.
        let _ = self.stage_next(ctx);
    }

    fn on_event(&mut self, t: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
        let Event::TxInjected { tx } = ev else {
            return Err(Error::UnexpectedEvent {
                driver: "StreamDriver",
                event: format!("{ev:?}"),
            });
        };
        let Some((at, item)) = self.pending.take() else {
            return Err(Error::UnexpectedEvent {
                driver: "StreamDriver",
                event: format!("TxInjected {{ tx: {tx} }} with no staged arrival"),
            });
        };
        if tx != self.injected || at != t {
            return Err(Error::UnexpectedEvent {
                driver: "StreamDriver",
                event: format!(
                    "TxInjected {{ tx: {tx} }} at {t}; staged index {} at {at}",
                    self.injected
                ),
            });
        }
        self.batches.extend(self.sealer.push(at, item)?);
        self.injected += 1;
        self.stage_next(ctx)
    }

    fn done(&self) -> bool {
        self.exhausted && self.pending.is_none()
    }

    fn completion(&self) -> Option<SimTime> {
        self.sealer.last_arrival
    }

    /// A synthetic report: injection is not block production, so every
    /// block counter is zero and `txs == confirmed == injected`. The
    /// shard id is a placeholder — callers embedding the driver in a
    /// multi-driver run should position it by driver order, not id.
    fn report(&self, events: usize, wall: Duration) -> ShardReport {
        ShardReport {
            shard: ShardId::new(0),
            txs: self.injected,
            confirmed: self.injected,
            completion: self.sealer.last_arrival,
            blocks: 0,
            empty_blocks: 0,
            stale_blocks: 0,
            events_processed: events,
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Runtime;
    use cshard_network::CommStats;
    use cshard_sim::{EventQueue, SchedulerConfig};
    use std::cell::Cell;

    fn arrivals(ms: &[u64]) -> Vec<(SimTime, usize)> {
        ms.iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_millis(t), i))
            .collect()
    }

    /// Runs the driver shell, checking the iterator shell seals the same
    /// batches.
    fn run(ms: &[u64], interval_ms: u64) -> StreamDriver<usize> {
        let interval = SimTime::from_millis(interval_ms);
        let driver = StreamDriver::new(arrivals(ms).into_iter(), interval);
        let outcome = Runtime::builder().run(vec![driver]).expect("well-formed");
        let driver = outcome.drivers.into_iter().next().expect("one driver");
        let lazy: Result<Vec<_>, _> = EpochBatches::new(arrivals(ms), interval).collect();
        assert_eq!(lazy.expect("well-formed"), driver.batches);
        driver
    }

    fn assert_config_error(err: Option<Error>, want: &str) {
        assert!(
            matches!(err, Some(Error::Config { field, .. }) if field == want),
            "expected a config error on `{want}`, got {err:?}"
        );
    }

    #[test]
    fn batches_partition_by_epoch_interval() {
        // Epochs of 100 ms: [0,100) [100,200) [200,300) …
        let d = run(&[10, 20, 150, 260, 270, 280], 100);
        assert_eq!(d.injected, 6);
        assert_eq!(
            d.batches,
            &[(0, vec![0, 1]), (1, vec![2]), (2, vec![3, 4, 5]),]
        );
    }

    #[test]
    fn boundary_arrival_belongs_to_the_new_epoch() {
        let d = run(&[99, 100], 100);
        assert_eq!(d.batches, &[(0, vec![0]), (1, vec![1])]);
    }

    #[test]
    fn empty_epochs_produce_no_batch() {
        // Nothing arrives in epochs 1..=8.
        let d = run(&[50, 950], 100);
        assert_eq!(d.batches, &[(0, vec![0]), (9, vec![1])]);
    }

    #[test]
    fn empty_source_is_born_done() {
        let d = run(&[], 100);
        assert_eq!(d.injected, 0);
        assert!(d.batches.is_empty());
        assert_eq!(d.completion(), None);
    }

    #[test]
    fn completion_is_the_last_arrival() {
        let d = run(&[5, 7, 7, 42], 10);
        assert_eq!(d.completion(), Some(SimTime::from_millis(42)));
        let r = d.report(4, Duration::ZERO);
        assert_eq!((r.txs, r.confirmed, r.blocks), (4, 4, 0));
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let batches = |threads| {
            let driver = StreamDriver::new(
                arrivals(&[1, 2, 150, 151, 400]).into_iter(),
                SimTime::from_millis(100),
            );
            Runtime::builder()
                .scheduler(SchedulerConfig::new(threads))
                .run(vec![driver])
                .expect("well-formed")
                .drivers
                .remove(0)
                .into_batches()
        };
        assert_eq!(batches(1), batches(4));
        assert_eq!(batches(1), batches(0));
    }

    #[test]
    fn non_monotone_stream_is_a_typed_error_in_both_shells() {
        let source = || {
            vec![
                (SimTime::from_millis(100), 0usize),
                (SimTime::from_millis(50), 1),
            ]
        };
        let interval = SimTime::from_millis(100);
        let driver = StreamDriver::new(source().into_iter(), interval);
        assert_config_error(Runtime::builder().run(vec![driver]).err(), "stream");
        let mut lazy = EpochBatches::new(source(), interval);
        assert_config_error(lazy.next().and_then(Result::err), "stream");
        assert!(lazy.next().is_none(), "an error ends the iteration");
    }

    #[test]
    fn foreign_event_is_rejected_not_panicked() {
        let mut driver = StreamDriver::new(arrivals(&[10]).into_iter(), SimTime::from_millis(100));
        let mut queue = EventQueue::new();
        let mut comm = CommStats::new();
        let err = driver
            .on_event(
                SimTime::ZERO,
                Event::BlockFound { miner: 0 },
                &mut Ctx::new(&mut queue, &mut comm),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Error::UnexpectedEvent {
                driver: "StreamDriver",
                ..
            }
        ));
    }

    #[test]
    fn zero_interval_is_a_typed_error_in_both_shells() {
        let driver = StreamDriver::new(arrivals(&[10]).into_iter(), SimTime::ZERO);
        assert_config_error(Runtime::builder().run(vec![driver]).err(), "epoch_interval");
        let mut lazy = EpochBatches::new(arrivals(&[10]), SimTime::ZERO);
        assert_config_error(lazy.next().and_then(Result::err), "epoch_interval");
        assert!(lazy.next().is_none(), "an error ends the iteration");
    }

    #[test]
    fn empty_source_with_zero_interval_is_not_an_error() {
        let d = run(&[], 0);
        assert!(d.batches.is_empty());
        assert!(EpochBatches::new(arrivals(&[]), SimTime::ZERO)
            .next()
            .is_none());
    }

    #[test]
    fn epoch_batches_pull_one_arrival_past_each_batch() {
        let ms = [1, 2, 3, 150, 151, 420, 430, 431, 432, 999];
        let pulled = Cell::new(0usize);
        let source = arrivals(&ms)
            .into_iter()
            .inspect(|_| pulled.set(pulled.get() + 1));
        let mut lazy = EpochBatches::new(source, SimTime::from_millis(100));
        let mut sealed = 0;
        for batch in lazy.by_ref() {
            let (_, batch) = batch.expect("well-formed");
            sealed += batch.len();
            let ahead = usize::from(sealed < ms.len());
            assert_eq!(pulled.get(), sealed + ahead, "after {sealed} sealed");
        }
        assert_eq!((sealed, pulled.get()), (ms.len(), ms.len()));
        assert!(lazy.next().is_none(), "nothing after exhaustion");
        assert_eq!(pulled.get(), ms.len(), "no pull after exhaustion");
    }
}
