//! The two-phase run harness: one driver per shard on the shard-lifecycle
//! scheduler, launched through [`Runtime::builder`].
//!
//! Phase 1 pops a driver's events here and feeds them to
//! [`ProtocolDriver::on_event`]; a driver's phase-2 turn is one
//! [`ProtocolDriver::idle_turn`] call, so the idle-drain loop lives once,
//! as that method's default, and a driver may replay its idle events
//! faster (the harness only counts what it reports and times the call).

use crate::driver::{Ctx, ProtocolDriver};
use crate::event::Event;
use crate::report::RunReport;
use cshard_network::CommStats;
use cshard_primitives::{Error, SimTime};
use cshard_settle::SettleStats;
use cshard_sim::{DrainStats, EventQueue, SchedulerConfig, Turn, WorkScheduler};
// Wall-clock reads are confined to this harness by design (audit rule
// ND001 allowlists exactly this file): `wall` feeds only the diagnostic
// fields of the report, never the simulation.
use std::time::{Duration, Instant};

/// One driver mid-run: its queue, its communication counter, its state,
/// and the harness-side accounting the driver itself is not allowed to
/// touch.
struct DriverTask<D> {
    driver: D,
    queue: EventQueue<Event>,
    comm: CommStats,
    events: usize,
    wall: Duration,
    last_event: Option<Event>,
}

/// The run's two scheduler passes, as the [`RunObserver`] sees them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunPhase {
    /// Phase 1: every driver with work runs to [`ProtocolDriver::done`].
    Active,
    /// Phase 2: early finishers replay pending events strictly before the
    /// global completion time (idle-mining accounting).
    IdleDrain,
}

/// Caller-side run hooks, mirroring the pipeline's `StageObserver`: the
/// harness itself reads wall clocks only for the report's diagnostic
/// fields, so a bench that wants per-phase timing brackets these hooks
/// with its own `Instant` reads.
pub trait RunObserver {
    /// Called immediately before a phase's scheduler drain starts.
    fn phase_started(&mut self, phase: RunPhase) {
        let _ = phase;
    }
    /// Called after the phase drained, with its scheduling statistics.
    fn phase_finished(&mut self, phase: RunPhase, stats: &DrainStats) {
        let _ = (phase, stats);
    }
}

/// Scheduling statistics of one completed run: what each of the two
/// phases admitted, skipped and executed. Sim-clock-free counters
/// (ND001-clean); deliberately outside the fingerprinted report surface.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSchedStats {
    /// Phase 1 (active) drain statistics.
    pub active: DrainStats,
    /// Phase 2 (idle drain) statistics.
    pub idle_drain: DrainStats,
}

impl RunSchedStats {
    /// Task slots admitted across both phases.
    pub fn scheduled(&self) -> u64 {
        self.active.scheduled + self.idle_drain.scheduled
    }

    /// Task slots skipped (no queued work) across both phases — the
    /// idle-shard saving, as a number.
    pub fn skipped(&self) -> u64 {
        self.active.skipped + self.idle_drain.skipped
    }
}

/// Everything a run produced: the fingerprinted [`RunReport`], the
/// finished drivers (in input order), the sum of the drivers'
/// communication counters, and the scheduler's statistics.
pub struct RunOutcome<D> {
    /// The standard run report (the fingerprinted surface).
    pub report: RunReport,
    /// The finished drivers, in input order. Wrappers that accumulate
    /// extra per-shard state during the run — the fault-injection layer's
    /// `FaultyDriver` is the canonical case — read it back out of these.
    pub drivers: Vec<D>,
    /// Every driver's communication counter, summed in driver order onto
    /// the one given to [`RunBuilder::comm_stats`] (Fig. 4(b)).
    pub comm: CommStats,
    /// Per-phase scheduling statistics (admitted/skipped).
    pub sched: RunSchedStats,
    /// Settlement accounting, folded over every driver's
    /// [`ProtocolDriver::settle_stats`]. All-zero (and
    /// [`SettleStats::is_empty`]) for runs without settling drivers.
    pub settle: SettleStats,
}

// Manual impl: drivers are often not Debug (trait objects, fault
// wrappers); summarize them by count instead of bounding `D`.
impl<D> std::fmt::Debug for RunOutcome<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOutcome")
            .field("report", &self.report)
            .field("drivers", &self.drivers.len())
            .field("sched", &self.sched)
            .field("settle", &self.settle)
            .finish_non_exhaustive()
    }
}

/// The fluent launch surface for a protocol run.
///
/// ```
/// use cshard_runtime::{Runtime, ContractShardDriver, RuntimeConfig, ShardSpec};
/// use cshard_primitives::ShardId;
/// use cshard_sim::SchedulerConfig;
///
/// let config = RuntimeConfig::default();
/// let drivers = vec![ContractShardDriver::new(
///     &ShardSpec::solo_greedy(ShardId::new(0), vec![5, 3, 8]),
///     &config,
/// )
/// .expect("one miner")];
/// let outcome = Runtime::builder()
///     .scheduler(SchedulerConfig::per_core())
///     .run(drivers)
///     .expect("well-formed");
/// assert_eq!(outcome.report.total_txs(), 3);
/// ```
pub struct RunBuilder<'obs> {
    config: SchedulerConfig,
    comm: CommStats,
    observer: Option<&'obs mut dyn RunObserver>,
}

impl<'obs> RunBuilder<'obs> {
    /// The scheduler configuration (worker count) for both phases.
    /// Defaults to sequential.
    pub fn scheduler(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// The counter the run's communication is added to and handed back as
    /// [`RunOutcome::comm`]. Defaults to a fresh one.
    pub fn comm_stats(mut self, comm: CommStats) -> Self {
        self.comm = comm;
        self
    }

    /// Installs per-phase hooks for the run (bench-side wall timing).
    pub fn observer(mut self, observer: &'obs mut dyn RunObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs every driver to completion (two phases) and hands back the
    /// full [`RunOutcome`]. The shard order of the report matches the
    /// driver order given here.
    ///
    /// Errors when a driver's event stream is malformed: the driver
    /// reports unfinished work with an empty queue
    /// ([`Error::StalledDriver`], whose payload carries the stall's
    /// simulated time and the last event handled) or an `on_event` hook
    /// rejects an event ([`Error::UnexpectedEvent`]). The event loop
    /// itself never panics.
    pub fn run<D: ProtocolDriver + 'static>(self, drivers: Vec<D>) -> Result<RunOutcome<D>, Error> {
        let RunBuilder {
            config,
            mut comm,
            observer,
        } = self;
        let (report, drivers, sched) = execute(config, &mut comm, observer, drivers)?;
        let mut settle = SettleStats::new();
        for stats in drivers.iter().filter_map(|d| d.settle_stats()) {
            settle.merge(&stats);
        }
        Ok(RunOutcome {
            report,
            drivers,
            comm,
            sched,
            settle,
        })
    }
}

/// Runs a set of [`ProtocolDriver`]s to completion and reports.
///
/// Drivers are independent simulation tasks: each owns its event queue
/// and (by the driver contract) derives randomness from its own seeded
/// streams, so the scheduler may run them on any number of threads with
/// bit-identical results. The run has two phases, exactly as the
/// pre-refactor simulator had:
///
/// 1. **Active** — each driver runs until [`ProtocolDriver::done`]; the
///    driver finishing last sets the run's global completion time.
/// 2. **Idle drain** — drivers that finished early replay their pending
///    events strictly before the global completion time, so idle-mining
///    (empty/stale block) accounting matches a fully serialized run. A
///    driver's replay is one [`ProtocolDriver::idle_turn`] call: the
///    default feeds the events to `on_event` one by one, and
///    `ContractShardDriver` replays a finished shard's idle mining one
///    miner at a time.
///
/// Each phase is one scheduler drain: only drivers with queued work are
/// admitted (idle shards are skipped and counted, never scheduled), and
/// each admitted driver runs its whole phase in one turn — shards never
/// interact mid-phase. All host wall-clock reads happen here, around the
/// driver hooks — drivers themselves are replayable pure functions of
/// their event streams, and `wall` feeds only the diagnostic fields of
/// the report.
///
/// All runs launch through [`Runtime::builder`].
pub struct Runtime;

impl Runtime {
    /// The fluent launch surface: configure scheduler, communication
    /// counter and observer, then [`RunBuilder::run`].
    pub fn builder<'obs>() -> RunBuilder<'obs> {
        RunBuilder {
            config: SchedulerConfig::default(),
            comm: CommStats::new(),
            observer: None,
        }
    }
}

/// The shared two-phase engine behind [`RunBuilder::run`].
fn execute<D: ProtocolDriver + 'static>(
    config: SchedulerConfig,
    comm: &mut CommStats,
    mut observer: Option<&mut dyn RunObserver>,
    drivers: Vec<D>,
) -> Result<(RunReport, Vec<D>, RunSchedStats), Error> {
    let run_start = Instant::now();
    let scheduler = WorkScheduler::new(config);

    // Seed every driver's queue. `on_start` is part of every shard's
    // trajectory — an "idle" shard still schedules its miners' first
    // ticks, which is what the idle-drain phase replays for empty-block
    // accounting — so it runs unconditionally, before admission decides
    // which shards have phase-1 work left.
    let mut tasks: Vec<DriverTask<D>> = Vec::with_capacity(drivers.len());
    for mut driver in drivers {
        let start = Instant::now();
        let (mut queue, mut task_comm) = (EventQueue::new(), CommStats::new());
        driver.on_start(&mut Ctx::new(&mut queue, &mut task_comm));
        tasks.push(DriverTask {
            driver,
            queue,
            comm: task_comm,
            events: 0,
            wall: start.elapsed(),
            last_event: None,
        });
    }

    // Phase 1: admit drivers with unfinished work; each runs to `done()`
    // in one turn.
    if let Some(obs) = observer.as_deref_mut() {
        obs.phase_started(RunPhase::Active);
    }
    let (tasks, active) = scheduler.drain(
        tasks,
        |t| !t.driver.done(),
        move |index, t| {
            let start = Instant::now();
            let outcome = loop {
                if t.driver.done() {
                    break Ok(Turn::Done);
                }
                let Some((now, ev)) = t.queue.pop() else {
                    // The queue drained with work outstanding: surface
                    // where the stream died — the drain time and the
                    // event at the head of the queue when the stall
                    // began (the last one handled).
                    break Err(Error::StalledDriver {
                        index,
                        at: t.queue.now(),
                        last_event: t.last_event.map(|ev| format!("{ev:?}")),
                    });
                };
                t.events += 1;
                t.last_event = Some(ev);
                if let Err(e) = t
                    .driver
                    .on_event(now, ev, &mut Ctx::new(&mut t.queue, &mut t.comm))
                {
                    break Err(e);
                }
            };
            t.wall += start.elapsed();
            outcome
        },
    )?;
    if let Some(obs) = observer.as_deref_mut() {
        obs.phase_finished(RunPhase::Active, &active);
    }

    // Global completion = the last confirmation anywhere.
    let completion = tasks
        .iter()
        .filter_map(|t| t.driver.completion())
        .max()
        .unwrap_or(SimTime::ZERO);

    // Phase 2: idle-drain early finishers up to the global completion.
    // Admission is the same predicate `idle_turn` re-checks: an event
    // strictly before the completion time is pending replay.
    if let Some(obs) = observer.as_deref_mut() {
        obs.phase_started(RunPhase::IdleDrain);
    }
    let pending = |t: &DriverTask<D>| t.queue.next_time().is_some_and(|at| at < completion);
    let (tasks, idle_drain) = scheduler.drain(tasks, pending, move |_, t| {
        let start = Instant::now();
        let replayed = t
            .driver
            .idle_turn(&mut Ctx::new(&mut t.queue, &mut t.comm), completion);
        t.wall += start.elapsed();
        t.events += replayed?;
        Ok(Turn::Done)
    })?;
    if let Some(obs) = observer {
        obs.phase_finished(RunPhase::IdleDrain, &idle_drain);
    }

    let mut drivers = Vec::with_capacity(tasks.len());
    let mut shards = Vec::with_capacity(tasks.len());
    for t in tasks {
        comm.merge(&t.comm);
        shards.push(t.driver.report(t.events, t.wall));
        drivers.push(t.driver);
    }
    Ok((
        RunReport {
            completion,
            shards,
            wall: run_start.elapsed(),
            threads_used: scheduler.workers(),
        },
        drivers,
        RunSchedStats { active, idle_drain },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ShardReport;
    use cshard_primitives::ShardId;

    /// A driver that confirms one "transaction" per tick, `n` ticks.
    struct Ticker {
        shard: ShardId,
        remaining: usize,
        total: usize,
        last: Option<SimTime>,
    }

    impl ProtocolDriver for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if self.remaining > 0 {
                ctx.schedule(SimTime::from_millis(10), Event::BlockFound { miner: 0 });
            }
        }
        fn on_event(&mut self, t: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
            assert_eq!(ev, Event::BlockFound { miner: 0 });
            self.remaining -= 1;
            self.last = Some(t);
            if self.remaining > 0 {
                ctx.schedule_in(SimTime::from_millis(10), ev);
            }
            Ok(())
        }
        fn done(&self) -> bool {
            self.remaining == 0
        }
        fn completion(&self) -> Option<SimTime> {
            self.last
        }
        fn report(&self, events: usize, wall: Duration) -> ShardReport {
            ShardReport {
                shard: self.shard,
                txs: self.total,
                confirmed: self.total - self.remaining,
                completion: self.last,
                blocks: events,
                empty_blocks: 0,
                stale_blocks: 0,
                events_processed: events,
                wall,
            }
        }
    }

    fn ticker(shard: u32, n: usize) -> Ticker {
        Ticker {
            shard: ShardId::new(shard),
            remaining: n,
            total: n,
            last: None,
        }
    }

    #[test]
    fn runs_all_drivers_and_takes_max_completion() {
        let outcome = Runtime::builder()
            .run(vec![ticker(0, 3), ticker(1, 7)])
            .expect("well-formed");
        let r = &outcome.report;
        assert_eq!(r.completion, SimTime::from_millis(70));
        assert_eq!(r.shards[0].confirmed, 3);
        assert_eq!(r.shards[1].confirmed, 7);
        assert_eq!(r.total_txs(), 10);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mk = || vec![ticker(0, 5), ticker(1, 2), ticker(2, 9)];
        let seq = Runtime::builder().run(mk()).expect("well-formed");
        let par = Runtime::builder()
            .scheduler(SchedulerConfig::new(4))
            .run(mk())
            .expect("well-formed");
        assert_eq!(seq.report.fingerprint(), par.report.fingerprint());
        assert_eq!(seq.sched, par.sched);
    }

    #[test]
    fn idle_drivers_are_skipped_not_scheduled() {
        // Shard 0 has no work at all: done() is true from the start and
        // nothing is queued below the completion time, so both phases
        // skip it — that is the scheduler's measured saving.
        let outcome = Runtime::builder()
            .run(vec![ticker(0, 0), ticker(1, 4)])
            .expect("well-formed");
        assert_eq!(outcome.sched.active.skipped, 1);
        assert_eq!(outcome.sched.active.scheduled, 1);
        assert!(outcome.sched.idle_drain.skipped >= 1);
        assert_eq!(outcome.report.shards[0].events_processed, 0);
    }

    #[test]
    fn observer_sees_both_phases_in_order() {
        #[derive(Default)]
        struct Recorder {
            started: Vec<RunPhase>,
            finished: Vec<(RunPhase, u64)>,
        }
        impl RunObserver for Recorder {
            fn phase_started(&mut self, phase: RunPhase) {
                self.started.push(phase);
            }
            fn phase_finished(&mut self, phase: RunPhase, stats: &DrainStats) {
                self.finished.push((phase, stats.scheduled));
            }
        }
        let mut rec = Recorder::default();
        Runtime::builder()
            .observer(&mut rec)
            .run(vec![ticker(0, 3), ticker(1, 7)])
            .expect("well-formed");
        assert_eq!(rec.started, vec![RunPhase::Active, RunPhase::IdleDrain]);
        assert_eq!(rec.finished.len(), 2);
        assert_eq!(rec.finished[0], (RunPhase::Active, 2));
    }

    #[test]
    fn driver_with_no_work_reports_empty() {
        let r = Runtime::builder()
            .run(vec![ticker(0, 0)])
            .expect("well-formed")
            .report;
        assert_eq!(r.completion, SimTime::ZERO);
        assert_eq!(r.shards[0].completion, None);
        assert_eq!(r.shards[0].events_processed, 0);
    }

    /// Regression: a malformed event stream (driver claims unfinished
    /// work but schedules nothing) is a typed `Err`, not a panic.
    #[test]
    fn stalled_driver_returns_err() {
        struct Stalled;
        impl ProtocolDriver for Stalled {
            fn on_start(&mut self, _: &mut Ctx) {}
            fn on_event(&mut self, _: SimTime, _: Event, _: &mut Ctx) -> Result<(), Error> {
                Ok(())
            }
            fn done(&self) -> bool {
                false
            }
            fn completion(&self) -> Option<SimTime> {
                None
            }
            fn report(&self, _: usize, _: Duration) -> ShardReport {
                unreachable!("a stalled driver never reports")
            }
        }
        let err = Runtime::builder().run(vec![Stalled]).unwrap_err();
        assert_eq!(
            err,
            Error::StalledDriver {
                index: 0,
                at: SimTime::ZERO,
                last_event: None,
            }
        );
        assert!(err.to_string().contains("no further events"));
        assert!(err.to_string().contains("no event was ever handled"));
    }

    /// Regression: a stall after some progress reports the simulated time
    /// at which the queue drained and the event at the head of the queue
    /// when the stall began (the last one handled) — the payload is no
    /// longer an opaque index.
    #[test]
    fn stall_error_carries_sim_time_and_head_event() {
        struct DiesAfterOne {
            handled: usize,
        }
        impl ProtocolDriver for DiesAfterOne {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.schedule(SimTime::from_millis(250), Event::BlockFound { miner: 4 });
            }
            fn on_event(&mut self, _: SimTime, _: Event, _: &mut Ctx) -> Result<(), Error> {
                self.handled += 1; // handles the tick but never reschedules
                Ok(())
            }
            fn done(&self) -> bool {
                false // claims unfinished work forever
            }
            fn completion(&self) -> Option<SimTime> {
                None
            }
            fn report(&self, _: usize, _: Duration) -> ShardReport {
                unreachable!("a stalled driver never reports")
            }
        }
        let err = Runtime::builder()
            .run(vec![DiesAfterOne { handled: 0 }])
            .unwrap_err();
        let Error::StalledDriver {
            index,
            at,
            last_event,
        } = &err
        else {
            panic!("expected StalledDriver, got {err:?}");
        };
        assert_eq!(*index, 0);
        assert_eq!(*at, SimTime::from_millis(250));
        assert_eq!(last_event.as_deref(), Some("BlockFound { miner: 4 }"));
        // And the Display form surfaces both for humans.
        assert!(err.to_string().contains("t=0.250s"), "{err}");
        assert!(err.to_string().contains("BlockFound"), "{err}");
    }

    /// The outcome returns the finished drivers in input order, with the
    /// same report the plain run would produce.
    #[test]
    fn outcome_returns_drivers_in_order() {
        let outcome = Runtime::builder()
            .run(vec![ticker(0, 3), ticker(1, 7)])
            .expect("well-formed");
        assert_eq!(outcome.drivers.len(), 2);
        assert_eq!(outcome.drivers[0].shard, ShardId::new(0));
        assert_eq!(outcome.drivers[1].shard, ShardId::new(1));
        assert!(outcome.drivers.iter().all(|d| d.remaining == 0));
        assert_eq!(outcome.report.completion, SimTime::from_millis(70));
    }

    /// Regression: a driver rejecting an event it never schedules aborts
    /// the run with `Error::UnexpectedEvent` instead of panicking.
    #[test]
    fn rejected_event_propagates_as_err() {
        struct Rejects {
            fired: bool,
        }
        impl ProtocolDriver for Rejects {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.schedule(SimTime::from_millis(1), Event::EpochAdvance { epoch: 7 });
            }
            fn on_event(&mut self, _: SimTime, ev: Event, _: &mut Ctx) -> Result<(), Error> {
                self.fired = true;
                Err(Error::UnexpectedEvent {
                    driver: "Rejects",
                    event: format!("{ev:?}"),
                })
            }
            fn done(&self) -> bool {
                self.fired
            }
            fn completion(&self) -> Option<SimTime> {
                None
            }
            fn report(&self, _: usize, _: Duration) -> ShardReport {
                unreachable!("an erroring driver never reports")
            }
        }
        let err = Runtime::builder()
            .run(vec![Rejects { fired: false }])
            .unwrap_err();
        assert!(matches!(
            err,
            Error::UnexpectedEvent {
                driver: "Rejects",
                ..
            }
        ));
    }
}
