//! `ContractShardDriver`'s closed-loop idle drain against the reference:
//! the trait's event-by-event `idle_turn` default, reached through a
//! wrapper that forwards every other method.

use cshard_network::{Blackouts, CommStats, LatencyModel};
use cshard_primitives::{Error, ShardId, SimTime};
use cshard_runtime::{
    ContractShardDriver, Ctx, Event, PropagationModel, ProtocolDriver, RunOutcome, Runtime,
    RuntimeConfig, SchedulerConfig, SelectionStrategy, SettleStats, ShardReport, ShardSpec,
};
use cshard_sim::EventQueue;
use std::time::Duration;

/// The reference: `ContractShardDriver` with `idle_turn` left at the
/// trait's default.
struct EventByEvent(ContractShardDriver);

impl ProtocolDriver for EventByEvent {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.0.on_start(ctx)
    }
    fn on_event(&mut self, t: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
        self.0.on_event(t, ev, ctx)
    }
    fn done(&self) -> bool {
        self.0.done()
    }
    fn completion(&self) -> Option<SimTime> {
        self.0.completion()
    }
    fn report(&self, events: usize, wall: Duration) -> ShardReport {
        self.0.report(events, wall)
    }
    fn settle_stats(&self) -> Option<SettleStats> {
        self.0.settle_stats()
    }
}

fn fees(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 1 + (i * 37) % 101).collect()
}

/// Both strategies at one and several miners, plus two zero-transaction
/// shards that idle from the first tick.
fn specs() -> Vec<ShardSpec> {
    let eq = SelectionStrategy::Equilibrium { max_rounds: 50 };
    let greedy = SelectionStrategy::IdenticalGreedy;
    [
        (24, 1, greedy.clone()),
        (9, 4, greedy.clone()),
        (5, 1, eq.clone()),
        (14, 3, eq.clone()),
        (0, 4, greedy),
        (0, 3, eq),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (txs, miners, strategy))| ShardSpec {
        shard: ShardId::new(i as u32),
        fees: fees(txs),
        miners,
        strategy,
    })
    .collect()
}

/// Window(0), a one-interval window (60 s at the paper's calibration), a
/// latency model (wide-area at 60 s, two to three intervals otherwise) and
/// a partition that defers deliveries past a blackout.
fn propagations(interval: SimTime) -> Vec<PropagationModel> {
    let iv = interval.as_millis();
    let latency = if iv == 60_000 {
        LatencyModel::wide_area()
    } else {
        LatencyModel {
            base: SimTime::from_millis(2 * iv),
            jitter: SimTime::from_millis(iv),
        }
    };
    let blackout = Blackouts::new([(SimTime::from_millis(2 * iv), SimTime::from_millis(6 * iv))])
        .expect("a well-formed blackout");
    vec![
        PropagationModel::Window(SimTime::ZERO),
        PropagationModel::Window(interval),
        PropagationModel::Network {
            latency,
            blackouts: Blackouts::default(),
        },
        PropagationModel::Network {
            latency: LatencyModel::constant(interval),
            blackouts: blackout,
        },
    ]
}

fn run<D: ProtocolDriver + 'static>(
    config: &RuntimeConfig,
    wrap: impl Fn(ContractShardDriver) -> D,
) -> RunOutcome<D> {
    let drivers = specs()
        .iter()
        .map(|spec| wrap(ContractShardDriver::new(spec, config).expect("valid test spec")))
        .collect();
    Runtime::builder()
        .scheduler(config.scheduler)
        .run(drivers)
        .expect("valid test config")
}

/// Every deterministic field of a shard report (all but `wall`).
fn fields(
    r: &ShardReport,
) -> (
    ShardId,
    usize,
    usize,
    Option<SimTime>,
    usize,
    usize,
    usize,
    usize,
) {
    (
        r.shard,
        r.txs,
        r.confirmed,
        r.completion,
        r.blocks,
        r.empty_blocks,
        r.stale_blocks,
        r.events_processed,
    )
}

/// The closed loop replays the same ticks as the event path: identical
/// fingerprints, shard reports and scheduler statistics across
/// strategies, miner counts, propagation models, empty-block windows and
/// thread counts — including 1–3 ms intervals, where millisecond rounding
/// puts ticks exactly on the completion time.
#[test]
fn closed_loop_idle_drain_equals_the_event_path() {
    let (mut runs, mut idle_empty, mut idle_stale) = (0, 0, 0);
    for interval_ms in [1, 2, 3, 60_000] {
        let interval = SimTime::from_millis(interval_ms);
        for (p, propagation) in propagations(interval).into_iter().enumerate() {
            for empty_block_window in [None, Some(SimTime::from_millis(4 * interval_ms))] {
                for threads in [1, 2, 4] {
                    let config = RuntimeConfig {
                        mean_block_interval: interval,
                        propagation: propagation.clone(),
                        empty_block_window,
                        seed: interval_ms ^ ((p as u64) << 20) ^ threads as u64,
                        scheduler: SchedulerConfig::new(threads),
                        ..RuntimeConfig::default()
                    };
                    let reference = run(&config, EventByEvent);
                    let closed = run(&config, |d| d);
                    let case = format!("{config:?}");
                    assert_eq!(
                        closed.report.fingerprint(),
                        reference.report.fingerprint(),
                        "{case}"
                    );
                    assert_eq!(closed.report.completion, reference.report.completion);
                    for (c, r) in closed.report.shards.iter().zip(&reference.report.shards) {
                        assert_eq!(fields(c), fields(r), "{case}");
                    }
                    assert_eq!(closed.sched, reference.sched, "{case}");
                    runs += 1;
                    if closed.sched.idle_drain.scheduled > 0 {
                        idle_empty += closed.report.total_empty_blocks();
                        idle_stale += closed.report.total_stale_blocks();
                    }
                }
            }
        }
    }
    assert_eq!(runs, 4 * 4 * 2 * 3);
    // The grid reaches both idle classifications.
    assert!(
        idle_empty > 0 && idle_stale > 0,
        "{idle_empty} / {idle_stale}"
    );
}

/// What [`drain_by_hand`] observed: the replayed count, the report, and
/// the events left queued.
type Drained = (usize, ShardReport, Vec<(SimTime, String)>);

/// One driver's phase 2 outside the harness. The leftover queue is
/// sorted, since insertion order — and with it the tie order — differs
/// between the two loops.
fn drain_by_hand(driver: &mut dyn ProtocolDriver, completion: SimTime) -> Drained {
    let (mut queue, mut comm) = (EventQueue::new(), CommStats::new());
    driver.on_start(&mut Ctx::new(&mut queue, &mut comm));
    let events = driver
        .idle_turn(&mut Ctx::new(&mut queue, &mut comm), completion)
        .expect("well-formed stream");
    let mut left: Vec<(SimTime, String)> = std::iter::from_fn(|| queue.pop())
        .map(|(t, ev)| (t, format!("{ev:?}")))
        .collect();
    left.sort();
    (events, driver.report(events, Duration::ZERO), left)
}

/// Phase 2 admits only events strictly before the completion time, so a
/// tick landing exactly on it must stay queued. At a 1 ms interval ticks
/// fall on every millisecond; sweep the completion time across them.
#[test]
fn ticks_on_the_completion_time_stay_queued() {
    let mut on_the_boundary = 0;
    for (miners, strategy) in [
        (1, SelectionStrategy::IdenticalGreedy),
        (3, SelectionStrategy::IdenticalGreedy),
        (3, SelectionStrategy::Equilibrium { max_rounds: 10 }),
    ] {
        let spec = ShardSpec {
            shard: ShardId::new(7),
            fees: Vec::new(),
            miners,
            strategy,
        };
        let config = RuntimeConfig {
            mean_block_interval: SimTime::from_millis(1),
            empty_block_window: Some(SimTime::from_millis(20)),
            seed: 3,
            ..RuntimeConfig::default()
        };
        for end in 0..40 {
            let completion = SimTime::from_millis(end);
            let driver = || ContractShardDriver::new(&spec, &config).expect("valid test spec");
            let mut reference = EventByEvent(driver());
            let mut closed = driver();
            let want = drain_by_hand(&mut reference, completion);
            let got = drain_by_hand(&mut closed, completion);
            assert_eq!(got.0, want.0, "events, end {end}");
            assert_eq!(fields(&got.1), fields(&want.1), "end {end}");
            assert_eq!(got.2, want.2, "queue, end {end}");
            on_the_boundary += usize::from(got.2.first().is_some_and(|(t, _)| *t == completion));
        }
    }
    assert!(on_the_boundary > 0, "no tick landed on a completion time");
}
