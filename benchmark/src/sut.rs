//! The system under test: every call into the repository's crates is in
//! this file, and only `pub` items are used. README.md lists them, so a
//! change that collapses or renames part of that surface knows what the
//! benchmark depends on.
//!
//! Each workload is driven two ways over identical inputs:
//!
//! * [`Plan::set_up`] + [`Ready::run`] — the path a user takes
//!   (`LongRun::run_stream`, `ShardingSystem::run`, `Runtime::builder`),
//!   timed from outside for the end-to-end metrics;
//! * [`Plan::replay`] — the same work decomposed into the public calls
//!   those entry points make, with a span around each layer. It sees what
//!   the user path hides (plans, confirmations, per-shard reports), so the
//!   output checks run on it, after its digest has matched the user path's.

pub use cshard_json as json;

use crate::layers::{Counts, Probes};
use crate::metrics::{self, span};
use crate::stats::{median, Digest};
use crate::trace::{Tracer, ROOT};
use cshard_baselines::ChainspacePlacement;
use cshard_core::longrun::game_randomness;
use cshard_core::{
    simulate_ethereum, throughput_improvement, EpochInput, EpochManager, EpochPipeline, EpochRun,
    LongRun, LongRunConfig, MinerAllocation, PipelineConfig, PlacementConfig, PlacementEngine,
    PropagationModel, RunObserver, RunPhase, RunReport, Runtime, RuntimeConfig, SchedulerConfig,
    SettleConfig, ShardPlan, ShardingSystem, StageKind, StageObserver, StageOutput, StreamDriver,
};
use cshard_crypto::sha256;
use cshard_games::{GameInputs, MergingConfig, SelectionConfig, UnifiedParameters};
use cshard_ledger::{CallGraph, Transaction, TxKind};
use cshard_network::{CommStats, LatencyModel};
use cshard_primitives::{Address, ContractId, Hash32, MinerId, ShardId, SimTime};
use cshard_settle::SettlementBatcher;
use cshard_sim::{DrainStats, EventQueue, Turn, WorkScheduler};
use cshard_workload::{FeeDistribution, SpamFlood, StreamConfig, TxStream, Workload};
use std::hint::black_box;
use std::time::Instant;

const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 100 };
/// Simulated time per sealed epoch; at a 6 ms mean gap ≈ 10⁴ txs each.
const EPOCH_INTERVAL: SimTime = SimTime::from_secs(60);
const MEAN_GAP: SimTime = SimTime::from_millis(6);
const STREAM_CONTRACTS: u32 = 64;
/// `LongRunConfig::default().miners`, which the replay must match.
const ENROLLED_MINERS: u32 = 32;

/// The paper workloads' rotation length and per-shard game settings.
const ROTATION: usize = 24;
const MINERS_PER_SHARD: usize = 3;
const SELECTION_ROUNDS: usize = 500;
const PAPER_MERGE_BOUND: u64 = 24;

const SETTLE_SHARDS: usize = 9;
const SETTLE_INPUTS: usize = 3;
const SETTLE_CAPACITY: usize = 10;
/// Sec. VI-B2 unifies confirmation at 76 tx/s.
const SETTLE_TX_PER_S: f64 = 76.0;

/// How many epochs / runs / game calls the probes and the classification
/// check sample from one replay.
const SAMPLES: usize = 12;
const MAX_CAPTURED_CALLS: usize = 200_000;

type Fallible<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One workload at one seed and size: what to build and what to run.
#[derive(Clone, Debug)]
pub struct Plan {
    kind: Kind,
    seed: u64,
}

#[derive(Clone, Debug)]
enum Kind {
    Stream(StreamPlan),
    Paper { runs: usize, threads: usize },
    Settle { txs: usize },
}

#[derive(Clone, Debug)]
struct StreamPlan {
    stream: StreamConfig,
    merge_bound: u64,
    placement: PlacementConfig,
    warm: usize,
    timed: usize,
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(1)
}

impl Plan {
    /// The named workload at `seed`. `scale` multiplies every size; 1.0 is
    /// the benchmark's own size (a quarter of the load shape in README.md,
    /// so that a run with its set-up fits the driver's time cap).
    pub fn new(workload: &str, seed: u64, scale: f64) -> Option<Plan> {
        let stream = |accounts, zipf_s, direct_fraction, diversify, spam| StreamConfig {
            accounts,
            contracts: STREAM_CONTRACTS,
            zipf_s,
            mean_interarrival: MEAN_GAP,
            direct_fraction,
            diversify,
            fees: FEES,
            bursts: Vec::new(),
            spam,
            seed,
        };
        let kind = match workload {
            metrics::STREAM_STEADY => Kind::Stream(StreamPlan {
                stream: stream(100_000, 1.1, 0.01, 0.002, None),
                merge_bound: 500,
                placement: PlacementConfig::disabled(),
                warm: scaled(50_000, scale),
                timed: scaled(300_000, scale),
            }),
            metrics::STREAM_CHURN => Kind::Stream(StreamPlan {
                stream: stream(
                    1_000_000,
                    1.1,
                    0.1,
                    0.1,
                    Some(SpamFlood {
                        start: SimTime::ZERO,
                        end: SimTime::MAX,
                        fraction: 0.6,
                    }),
                ),
                merge_bound: 500,
                placement: PlacementConfig::disabled(),
                warm: scaled(25_000, scale),
                timed: scaled(200_000, scale),
            }),
            metrics::STREAM_PLACED => Kind::Stream(StreamPlan {
                stream: stream(20_000, 1.3, 0.0, 0.1, None),
                merge_bound: 2_000,
                placement: PlacementConfig::engaged(),
                warm: scaled(25_000, scale),
                timed: scaled(150_000, scale),
            }),
            metrics::PAPER_EPOCHS => Kind::Paper {
                runs: scaled(1_000, scale),
                threads: 1,
            },
            metrics::PAPER_EPOCHS_MT => Kind::Paper {
                runs: scaled(1_000, scale),
                threads: 2,
            },
            metrics::XSHARD_SETTLE => Kind::Settle {
                txs: scaled(250_000, scale),
            },
            _ => return None,
        };
        Some(Plan { kind, seed })
    }

    /// Scheduler threads the system runs with on this workload.
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::Paper { threads, .. } => threads,
            _ => 1,
        }
    }

    /// The same inputs on the sequential scheduler, where this plan is not
    /// already that: its outputs must equal this plan's bit for bit.
    pub fn sequential_twin(&self) -> Option<Plan> {
        match self.kind {
            Kind::Paper { runs, threads } if threads != 1 => Some(Plan {
                kind: Kind::Paper { runs, threads: 1 },
                seed: self.seed,
            }),
            _ => None,
        }
    }

    fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            seed: self.seed,
            scheduler: SchedulerConfig::new(self.threads()),
            ..RuntimeConfig::default()
        }
    }

    /// Builds the workload's inputs and warms its state; the caller times
    /// this as `setup_s`.
    pub fn set_up(&self) -> Fallible<Ready> {
        Ok(Ready(match &self.kind {
            Kind::Stream(p) => {
                let mut longrun = LongRun::new(LongRunConfig {
                    runtime: self.runtime(),
                    merging: Some(merging(p.merge_bound)),
                    miners: ENROLLED_MINERS,
                    warm_start: false,
                    placement: p.placement,
                });
                let mut stream = TxStream::new(p.stream.clone());
                let prefix: Vec<_> = stream.by_ref().take(p.warm).collect();
                longrun
                    .run_stream(prefix.into_iter(), EPOCH_INTERVAL)
                    .map_err(err)?;
                ReadyKind::Stream(Box::new((longrun, stream)), p.timed)
            }
            Kind::Paper { runs, threads } => ReadyKind::Paper {
                workloads: paper_rotation(self.seed),
                runs: *runs,
                threads: *threads,
                seed: self.seed,
            },
            Kind::Settle { txs } => ReadyKind::Settle(SettleInputs::build(*txs, self.seed)),
        }))
    }
}

fn merging(lower_bound: u64) -> MergingConfig {
    MergingConfig {
        lower_bound,
        ..MergingConfig::default()
    }
}

/// The fixed rotation of Sec. VI shapes: 200 txs over 1..=8 contracts,
/// 400 txs over 8 shards of which 3 are small, 800 txs over 8 contracts.
fn paper_rotation(seed: u64) -> Vec<Workload> {
    (0..ROTATION)
        .map(|i| {
            let wseed = seed.wrapping_mul(1_000).wrapping_add(i as u64);
            match i % 3 {
                0 => Workload::uniform_contracts(200, 1 + (i / 3) % 8, FEES, wseed),
                1 => Workload::with_small_shards(400, 8, 3, &[4, 5, 6], FEES, wseed),
                _ => Workload::uniform_contracts(800, 8, FEES, wseed),
            }
        })
        .collect()
}

fn paper_system(seed: u64, run: usize, threads: usize) -> Fallible<ShardingSystem> {
    ShardingSystem::builder()
        .miners_per_shard(MINERS_PER_SHARD)
        .selection(SELECTION_ROUNDS)
        .merging(PAPER_MERGE_BOUND)
        .seed((seed << 20).wrapping_add(run as u64))
        .threads(threads)
        .build()
        .map_err(err)
}

struct SettleInputs {
    txs: usize,
    fees: Vec<u64>,
    placement: ChainspacePlacement,
    seed: u64,
}

impl SettleInputs {
    fn build(txs: usize, seed: u64) -> SettleInputs {
        let workload = Workload::three_input(txs, SETTLE_INPUTS, FEES, seed);
        let placement = ChainspacePlacement::place(&workload.transactions, SETTLE_SHARDS, seed);
        SettleInputs {
            txs,
            fees: workload.fees(),
            placement,
            seed,
        }
    }

    /// The two arms: per-transaction 2PC, then crosslinks batched at 100
    /// with a 10 s flush timeout.
    fn arms(&self) -> [RuntimeConfig; 2] {
        let interval = SimTime::from_secs_f64(SETTLE_CAPACITY as f64 / SETTLE_TX_PER_S);
        let unbatched = RuntimeConfig {
            block_capacity: SETTLE_CAPACITY,
            mean_block_interval: interval,
            propagation: PropagationModel::Window(interval),
            empty_block_window: None,
            seed: self.seed,
            ..RuntimeConfig::default()
        };
        let batched = RuntimeConfig {
            settle: SettleConfig {
                timeout: SimTime::from_secs(10),
                ..SettleConfig::batched(100)
            },
            ..unbatched.clone()
        };
        [unbatched, batched]
    }
}

fn fold_hash(digest: &mut Digest, hash: Hash32) {
    digest.bytes(hash.as_bytes());
}

/// A stream epoch's outputs, as `LongRun` reports them.
fn fold_epoch(
    digest: &mut Digest,
    (epoch, leader): (u64, MinerId),
    shards: usize,
    maxshard_fraction: f64,
    improvement: f64,
    empty_blocks: usize,
    comm_rounds: u64,
) {
    digest.word(epoch);
    digest.word(u64::from(leader.0));
    digest.word(shards as u64);
    digest.float(maxshard_fraction);
    digest.float(improvement);
    digest.word(empty_blocks as u64);
    digest.word(comm_rounds);
}

/// An independent run's outputs, as `ShardingSystem::run` reports them.
fn fold_system_run(digest: &mut Digest, run: &RunReport, sizes: &[(ShardId, u64)], comm: u64) {
    fold_hash(digest, run.fingerprint());
    for &(shard, size) in sizes {
        digest.word(u64::from(shard.0));
        digest.word(size);
    }
    digest.word(comm);
}

fn fold_settle_arm(digest: &mut Digest, run: &RunReport, comm: u64, batches: u64, settled: u64) {
    fold_hash(digest, run.fingerprint());
    digest.word(comm);
    digest.word(batches);
    digest.word(settled);
}

/// A set-up workload, ready for its timed region.
pub struct Ready(ReadyKind);

enum ReadyKind {
    /// A warmed long run and its stream, positioned after the warm-up
    /// prefix (boxed: both are far larger than the other variants).
    Stream(Box<(LongRun, TxStream)>, usize),
    Paper {
        workloads: Vec<Workload>,
        runs: usize,
        threads: usize,
        seed: u64,
    },
    Settle(SettleInputs),
}

/// What the user path hands back: the transactions it was given and a
/// digest of everything it reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outputs {
    pub txs: u64,
    pub digest: Digest,
}

impl Ready {
    /// The timed region, through the entry points a user calls.
    pub fn run(self) -> Fallible<Outputs> {
        let mut digest = Digest::default();
        let txs = match self.0 {
            ReadyKind::Stream(warmed, timed) => {
                let (mut longrun, stream) = *warmed;
                let reports = longrun
                    .run_stream(stream.take(timed), EPOCH_INTERVAL)
                    .map_err(err)?;
                for r in &reports {
                    fold_epoch(
                        &mut digest,
                        (r.epoch, r.leader),
                        r.shards,
                        r.maxshard_fraction,
                        r.improvement,
                        r.empty_blocks,
                        r.comm_rounds,
                    );
                }
                timed
            }
            ReadyKind::Paper {
                workloads,
                runs,
                threads,
                seed,
            } => {
                let mut txs = 0;
                for run in 0..runs {
                    let workload = &workloads[run % workloads.len()];
                    let report = paper_system(seed, run, threads)?
                        .run(workload)
                        .map_err(err)?;
                    fold_system_run(
                        &mut digest,
                        &report.run,
                        &report.shard_sizes,
                        report.comm.total(),
                    );
                    txs += workload.transactions.len();
                }
                txs
            }
            ReadyKind::Settle(inputs) => {
                for config in inputs.arms() {
                    let outcome = Runtime::builder()
                        .scheduler(config.scheduler)
                        .comm_stats(CommStats::new())
                        .run(inputs.placement.drivers(
                            &inputs.fees,
                            &config,
                            LatencyModel::wide_area(),
                        ))
                        .map_err(err)?;
                    fold_settle_arm(
                        &mut digest,
                        &outcome.report,
                        outcome.comm.total(),
                        outcome.settle.batches,
                        outcome.settle.txs_settled,
                    );
                }
                2 * inputs.txs
            }
        };
        Ok(Outputs {
            txs: txs as u64,
            digest,
        })
    }
}

/// One merging-game call as the merge stage makes it.
#[derive(Clone, Debug)]
struct MergeCall {
    randomness: Hash32,
    groups: usize,
    sizes: Vec<(ShardId, u64)>,
    config: MergingConfig,
}

/// Inputs the replay saw at layer boundaries, kept for the probes and the
/// classification check.
#[derive(Debug, Default)]
pub struct Captured {
    /// Batches classified before the timed region, in order.
    history: Vec<Vec<Transaction>>,
    /// Timed-region batches, in order. Each is classified against
    /// everything before it, or — `cold` — against itself alone.
    batches: Vec<Vec<Transaction>>,
    cold: bool,
    /// `(batch index, shard of each transaction)` as the pipeline's
    /// incremental classifier routed it, for sampled batches. Empty when
    /// placement pins make routing differ from classification by design.
    routed: Vec<(usize, Vec<ShardId>)>,
    merges: Vec<MergeCall>,
    /// Fee queues of contract shards that play the selection game.
    selects: Vec<Vec<u64>>,
    /// MaxShard-routed contract calls, as the placement engine sees them.
    maxshard_calls: Vec<(Address, ContractId)>,
    median_shards: usize,
    threads: usize,
}

/// A finished replay.
#[derive(Debug)]
pub struct Replay {
    pub digest: Digest,
    pub counts: Counts,
    /// Every epoch's plan partitioned its batch (settle: the placement
    /// partitioned the transactions).
    pub partitions: bool,
    pub captured: Captured,
}

fn stage_span(stage: StageKind) -> &'static str {
    match stage {
        StageKind::Classify => span::CLASSIFY,
        StageKind::Form => span::FORM,
        StageKind::Merge => span::MERGE,
        StageKind::Select => span::SELECT,
        StageKind::Unify => span::UNIFY,
        StageKind::Place => span::PLACE,
    }
}

/// Opens a span per pipeline stage and takes the stage's counts.
struct StageSpans<'a> {
    tracer: &'a mut Tracer,
    counts: &'a mut Counts,
    unit: u64,
}

impl StageObserver for StageSpans<'_> {
    fn stage_started(&mut self, stage: StageKind) {
        self.tracer.enter(stage_span(stage), Some(self.unit));
    }

    fn stage_finished(&mut self, stage: StageKind, out: &StageOutput) {
        self.tracer.exit();
        let c = &mut *self.counts;
        match stage {
            StageKind::Classify => {
                c.reclassified += out.reclassified;
                c.carried += out.carried;
            }
            StageKind::Merge => {
                c.merge_iterations += out.iterations;
                c.merge_warm_hits += out.warm_hits;
            }
            StageKind::Unify => {
                c.unify_iterations += out.iterations;
                c.tasks_scheduled += out.tasks_scheduled;
                c.tasks_skipped += out.tasks_skipped;
            }
            StageKind::Place => c.moves += out.items,
            StageKind::Form | StageKind::Select => {}
        }
    }
}

/// Opens a span per scheduler phase of a run the benchmark launches.
struct PhaseSpans<'a> {
    tracer: &'a mut Tracer,
    turns: u64,
}

impl RunObserver for PhaseSpans<'_> {
    fn phase_started(&mut self, phase: RunPhase) {
        self.tracer.enter(
            match phase {
                RunPhase::Active => span::RUN_ACTIVE,
                RunPhase::IdleDrain => span::RUN_IDLE_DRAIN,
            },
            None,
        );
    }

    fn phase_finished(&mut self, _: RunPhase, stats: &DrainStats) {
        self.tracer.exit();
        self.turns += stats.turns;
    }
}

/// `plan` assigns every index of a `len`-transaction batch to exactly one
/// shard, consistently between its three views.
fn partitions(plan: &ShardPlan, len: usize) -> bool {
    let mut seen = vec![false; len];
    let mut mark = |shard: ShardId, indices: &[usize]| {
        indices.iter().all(|&i| {
            i < len
                && !std::mem::replace(&mut seen[i], true)
                && plan.shard_of.get(i) == Some(&shard)
        })
    };
    let consistent = plan
        .contract_shards
        .iter()
        .all(|(&shard, indices)| !shard.is_max_shard() && mark(shard, indices))
        && mark(ShardId::MAX_SHARD, &plan.maxshard);
    consistent && plan.shard_of.len() == len && seen.iter().all(|&s| s)
}

/// Takes the counts of one block-production run of `txs` transactions.
fn count_report(counts: &mut Counts, report: &RunReport, txs: usize) {
    let shards = &report.shards;
    counts.txs += txs as u64;
    counts.units += 1;
    counts.injected += report.total_txs() as u64;
    counts.confirmed += shards.iter().map(|s| s.confirmed as u64).sum::<u64>();
    counts.runtime_events += report.total_events_processed() as u64;
    counts.driver_wall_ns += shards.iter().map(|s| s.wall.as_nanos() as u64).sum::<u64>();
    counts.blocks += report.total_blocks() as u64;
    counts.empty_blocks += report.total_empty_blocks() as u64;
    counts.stale_blocks += report.total_stale_blocks() as u64;
}

/// Takes the counts of one pipeline epoch.
fn count_epoch(counts: &mut Counts, out: &EpochRun, batch: usize) {
    count_report(counts, &out.run, batch);
    counts.messages += out.comm.total();
    counts.message_base += batch as u64;
    counts.shard_counts.push(out.shard_sizes.len() as u64);
    counts.maxshard_txs += out.plan.maxshard.len() as u64;
}

impl Captured {
    /// Whether batch `index` is one of the sampled ones.
    fn samples(&self, index: usize, stride: usize) -> bool {
        index.is_multiple_of(stride) && self.merges.len() < SAMPLES
    }

    /// Keeps what one sampled epoch showed at its layer boundaries.
    /// `routed` is the batch's index when its routing is to be checked
    /// against the reference classifier.
    fn sample(
        &mut self,
        routed: Option<usize>,
        batch: &[Transaction],
        out: &EpochRun,
        randomness: Hash32,
        merge: MergingConfig,
        selection: bool,
    ) {
        if let Some(index) = routed {
            self.routed.push((index, out.plan.shard_of.clone()));
        }
        self.merges.push(MergeCall {
            randomness,
            groups: out.plan.active_shard_count(),
            sizes: out.plan.small_shards(merge.lower_bound),
            config: merge,
        });
        if selection {
            self.selects.extend(
                out.plan
                    .contract_shards
                    .values()
                    .map(|indices| indices.iter().map(|&i| batch[i].fee.raw()).collect()),
            );
        }
    }

    fn observe_maxshard(&mut self, batch: &[Transaction], plan: &ShardPlan) {
        for &i in &plan.maxshard {
            if self.maxshard_calls.len() >= MAX_CAPTURED_CALLS {
                return;
            }
            if let TxKind::ContractCall { contract, .. } = &batch[i].kind {
                self.maxshard_calls.push((batch[i].sender, *contract));
            }
        }
    }
}

/// `LongRun`, taken apart: the same election, seeds, pipeline and
/// one-chain baseline, with a span around each.
struct Decomposed {
    epochs: EpochManager,
    pipeline: EpochPipeline,
    runtime: RuntimeConfig,
}

impl Decomposed {
    fn new(runtime: RuntimeConfig, p: &StreamPlan) -> Decomposed {
        Decomposed {
            epochs: EpochManager::with_miner_count(ENROLLED_MINERS),
            pipeline: EpochPipeline::new(PipelineConfig {
                merging: Some(merging(p.merge_bound)),
                selection: None,
                allocation: MinerAllocation::OnePerShard,
                warm_start: false,
                placement: p.placement,
            }),
            runtime,
        }
    }

    /// Seals `arrivals` into per-epoch batches on the runtime, as
    /// `run_stream` does. Returns the batches, the events the injection
    /// run processed and its scheduler turns.
    fn seal(
        &self,
        arrivals: Vec<(SimTime, Transaction)>,
        tracer: &mut Tracer,
    ) -> Fallible<(Vec<Vec<Transaction>>, u64, u64)> {
        let mut phases = PhaseSpans { tracer, turns: 0 };
        let outcome = Runtime::builder()
            .scheduler(self.runtime.scheduler)
            .observer(&mut phases)
            .run(vec![StreamDriver::new(
                arrivals.into_iter(),
                EPOCH_INTERVAL,
            )])
            .map_err(err)?;
        let events = outcome.report.total_events_processed() as u64;
        let driver = outcome
            .drivers
            .into_iter()
            .next()
            .ok_or("injection run returned no driver")?;
        let batches = driver.into_batches().into_iter().map(|(_, b)| b).collect();
        Ok((batches, events, phases.turns))
    }

    /// One epoch, as `LongRun::run_epoch` runs it.
    fn epoch(
        &mut self,
        batch: &[Transaction],
        tracer: &mut Tracer,
        counts: &mut Counts,
        digest: &mut Digest,
    ) -> Fallible<(EpochRun, Hash32)> {
        tracer.enter(span::EPOCH, Some(self.epochs.epoch()));
        let fees: Vec<u64> = batch.iter().map(|t| t.fee.raw()).collect();
        tracer.enter(span::ELECT, None);
        let (epoch, leader) = self.epochs.elect();
        tracer.exit();
        let runtime = RuntimeConfig {
            seed: self.runtime.seed ^ epoch.wrapping_mul(0x9E37_79B9),
            ..self.runtime.clone()
        };
        let randomness = game_randomness(epoch);
        let out = self
            .pipeline
            .run_epoch_observed(
                EpochInput {
                    transactions: batch,
                    fees: &fees,
                    randomness,
                    runtime: runtime.clone(),
                },
                &mut StageSpans {
                    tracer: &mut *tracer,
                    counts: &mut *counts,
                    unit: epoch,
                },
            )
            .map_err(err)?;
        tracer.enter(span::ETHEREUM, Some(epoch));
        let ethereum = simulate_ethereum(fees, 1, &runtime).map_err(err)?;
        tracer.exit();
        let improvement = throughput_improvement(&ethereum, &out.run);
        fold_epoch(
            digest,
            (epoch, leader),
            out.shard_sizes.len(),
            out.plan.maxshard.len() as f64 / batch.len() as f64,
            improvement,
            out.run.total_empty_blocks(),
            out.comm.total(),
        );
        counts.gain_sum += improvement;
        counts.gain_n += 1;
        tracer.exit();
        Ok((out, randomness))
    }
}

impl Plan {
    /// The workload again, decomposed into the public calls the user path
    /// makes, recording a span at each layer boundary. Set-up runs under a
    /// `setup` span; the timed region under `rep`.
    pub fn replay(&self, tracer: &mut Tracer) -> Fallible<Replay> {
        let result = match &self.kind {
            Kind::Stream(p) => self.replay_stream(p, tracer),
            Kind::Paper { runs, threads } => self.replay_paper(*runs, *threads, tracer),
            Kind::Settle { txs } => self.replay_settle(*txs, tracer),
        };
        tracer.exit_all();
        result
    }

    fn replay_stream(&self, p: &StreamPlan, tracer: &mut Tracer) -> Fallible<Replay> {
        let merge = merging(p.merge_bound);
        let mut captured = Captured {
            threads: self.threads(),
            ..Captured::default()
        };

        tracer.enter(span::SETUP, None);
        let mut sut = Decomposed::new(self.runtime(), p);
        let mut stream = TxStream::new(p.stream.clone());
        let prefix: Vec<_> = stream.by_ref().take(p.warm).collect();
        // The warm-up epochs are not part of the timed region: their spans
        // and counts are thrown away.
        let mut unrecorded = Tracer::default();
        let (history, _, _) = sut.seal(prefix, &mut unrecorded)?;
        for batch in &history {
            sut.epoch(
                batch,
                &mut unrecorded,
                &mut Counts::default(),
                &mut Digest::default(),
            )?;
        }
        captured.history = history;
        tracer.exit();

        let mut counts = Counts::default();
        let mut digest = Digest::default();
        let mut partitioned = true;
        tracer.enter(ROOT, None);
        tracer.enter(span::GEN, None);
        let arrivals: Vec<_> = stream.take(p.timed).collect();
        tracer.exit();
        tracer.enter(span::SEAL, None);
        let (batches, events, turns) = sut.seal(arrivals, tracer)?;
        tracer.exit();
        counts.stream_events = events;
        counts.stream_batches = batches.len() as u64;
        counts.turns = turns;
        let stride = batches.len().div_ceil(SAMPLES).max(1);
        for (i, batch) in batches.iter().enumerate() {
            let (out, randomness) = sut.epoch(batch, tracer, &mut counts, &mut digest)?;
            count_epoch(&mut counts, &out, batch.len());
            partitioned &= partitions(&out.plan, batch.len());
            if p.placement.enabled {
                captured.observe_maxshard(batch, &out.plan);
            }
            if captured.samples(i, stride) {
                let routed = (!p.placement.enabled).then_some(i);
                captured.sample(routed, batch, &out, randomness, merge, false);
            }
        }
        tracer.exit();

        let sealed: u64 = batches.iter().map(|b| b.len() as u64).sum();
        partitioned &= sealed == p.timed as u64;
        captured.batches = batches;
        finish(digest, counts, partitioned, captured)
    }

    fn replay_paper(&self, runs: usize, threads: usize, tracer: &mut Tracer) -> Fallible<Replay> {
        let merge = merging(PAPER_MERGE_BOUND);
        let mut captured = Captured {
            threads,
            cold: true,
            ..Captured::default()
        };

        tracer.enter(span::SETUP, None);
        tracer.enter(span::EAGER_BUILD, None);
        let workloads = paper_rotation(self.seed);
        tracer.exit();
        tracer.exit();

        let mut counts = Counts::default();
        let mut digest = Digest::default();
        let mut partitioned = true;
        let mut scheme: Vec<RunReport> = Vec::with_capacity(runs);
        tracer.enter(ROOT, None);
        for run in 0..runs {
            let workload = &workloads[run % workloads.len()];
            tracer.enter(span::SYSTEM_RUN, Some(run as u64));
            tracer.enter(span::SYSTEM_BUILD, None);
            let system = paper_system(self.seed, run, threads)?;
            tracer.exit();
            let mut pipeline = EpochPipeline::new(system.pipeline_config());
            let fees = workload.fees();
            let randomness = sha256(system.config().epoch.to_be_bytes());
            let out = pipeline
                .run_epoch_observed(
                    EpochInput {
                        transactions: &workload.transactions,
                        fees: &fees,
                        randomness,
                        runtime: system.config().runtime.clone(),
                    },
                    &mut StageSpans {
                        tracer: &mut *tracer,
                        counts: &mut counts,
                        unit: run as u64,
                    },
                )
                .map_err(err)?;
            fold_system_run(&mut digest, &out.run, &out.shard_sizes, out.comm.total());
            tracer.exit();

            let batch = &workload.transactions;
            count_epoch(&mut counts, &out, batch.len());
            partitioned &= partitions(&out.plan, batch.len());
            if run < workloads.len() && captured.samples(run, 2) {
                captured.sample(Some(run), batch, &out, randomness, merge, true);
            }
            scheme.push(out.run);
        }
        tracer.exit();

        // The one-chain baseline of every run is not on the user path of
        // this workload; it runs here, outside the timed region, only to
        // state the simulated gain.
        for (run, report) in scheme.iter().enumerate() {
            let workload = &workloads[run % workloads.len()];
            let system = paper_system(self.seed, run, threads)?;
            tracer.enter(span::ETHEREUM, Some(run as u64));
            let ethereum =
                simulate_ethereum(workload.fees(), 1, &system.config().runtime).map_err(err)?;
            tracer.exit();
            counts.gain_sum += throughput_improvement(&ethereum, report);
            counts.gain_n += 1;
        }
        captured.batches = workloads.into_iter().map(|w| w.transactions).collect();
        finish(digest, counts, partitioned, captured)
    }

    fn replay_settle(&self, txs: usize, tracer: &mut Tracer) -> Fallible<Replay> {
        tracer.enter(span::SETUP, None);
        tracer.enter(span::EAGER_BUILD, None);
        let inputs = SettleInputs::build(txs, self.seed);
        tracer.exit();
        tracer.exit();

        let mut counts = Counts::default();
        let mut digest = Digest::default();
        tracer.enter(ROOT, None);
        for (arm, config) in inputs.arms().into_iter().enumerate() {
            tracer.enter(span::CHAINSPACE_DRIVERS, Some(arm as u64));
            let drivers =
                inputs
                    .placement
                    .drivers(&inputs.fees, &config, LatencyModel::wide_area());
            tracer.exit();
            tracer.enter(span::RUN, Some(arm as u64));
            let mut phases = PhaseSpans {
                tracer: &mut *tracer,
                turns: 0,
            };
            let outcome = Runtime::builder()
                .scheduler(config.scheduler)
                .comm_stats(CommStats::new())
                .observer(&mut phases)
                .run(drivers)
                .map_err(err)?;
            counts.turns += phases.turns;
            tracer.exit();

            let report = &outcome.report;
            fold_settle_arm(
                &mut digest,
                report,
                outcome.comm.total(),
                outcome.settle.batches,
                outcome.settle.txs_settled,
            );
            count_report(&mut counts, report, txs);
            counts.tasks_scheduled += outcome.sched.scheduled();
            counts.tasks_skipped += outcome.sched.skipped();
            counts.settle_batches += outcome.settle.batches;
            counts.settle_txs += outcome.settle.txs_settled;
            counts.messages += outcome.comm.total();
            counts.message_base += inputs.placement.cross_shard_count() as u64;
            counts.shard_counts.push(report.shards.len() as u64);
        }
        tracer.exit();

        let mut homed = vec![false; txs];
        let partitioned = inputs
            .placement
            .shard_tx_indices()
            .iter()
            .flatten()
            .all(|&i| i < txs && !std::mem::replace(&mut homed[i], true))
            && homed.iter().all(|&h| h);
        let captured = Captured {
            threads: 1,
            ..Captured::default()
        };
        finish(digest, counts, partitioned, captured)
    }
}

fn finish(
    digest: Digest,
    counts: Counts,
    partitions: bool,
    mut captured: Captured,
) -> Fallible<Replay> {
    let shard_counts: Vec<f64> = counts.shard_counts.iter().map(|&s| s as f64).collect();
    captured.median_shards = median(&shard_counts) as usize;
    Ok(Replay {
        digest,
        counts,
        partitions,
        captured,
    })
}

fn elapsed_ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

impl Captured {
    /// Replays the captured batches through a from-scratch `CallGraph` and
    /// the reference `ShardPlan::classify`, timing both, and compares the
    /// reference routing with what the incremental classifier produced on
    /// the sampled batches. `None` when nothing was sampled (no pipeline,
    /// or placement pins in force).
    pub fn check_classification(&self, probes: &mut Probes) -> Option<bool> {
        let mut graph = CallGraph::new();
        for batch in &self.history {
            graph.observe_all(batch.iter());
        }
        let (mut observe_ns, mut observed) = (0.0, 0u64);
        let (mut classify_ns, mut classified) = (0.0, 0u64);
        let mut senders = 0;
        let mut agree = true;
        for (i, batch) in self.batches.iter().enumerate() {
            if self.cold {
                senders += graph.sender_count();
                graph = CallGraph::new();
            }
            let start = Instant::now();
            black_box(graph.observe_all(batch.iter()));
            observe_ns += elapsed_ns(start);
            observed += batch.len() as u64;
            let Some((_, routed)) = self.routed.iter().find(|(at, _)| *at == i) else {
                continue;
            };
            let start = Instant::now();
            let full = ShardPlan::classify(batch, &graph);
            classify_ns += elapsed_ns(start);
            classified += batch.len() as u64;
            agree &= &full.shard_of == routed;
        }
        senders += graph.sender_count();
        probes.observe_ns_per_tx = observe_ns / observed.max(1) as f64;
        probes.full_classify_ns_per_tx = classify_ns / classified.max(1) as f64;
        probes.callgraph_senders = senders as u64;
        (!self.routed.is_empty()).then_some(agree)
    }

    /// Times direct calls into single layers on the captured inputs.
    pub fn probe(&self, probes: &mut Probes) {
        // games: Algorithm 1 / Algorithm 2 as the stages invoke them.
        let merge_pass = || {
            for call in &self.merges {
                let miners = (0..call.groups as u32).map(MinerId::new).collect();
                let params = UnifiedParameters::from_randomness(
                    call.randomness,
                    miners,
                    GameInputs::Merge {
                        shard_sizes: call.sizes.clone(),
                        config: call.config,
                    },
                );
                black_box(params.merge_outcome().is_ok());
            }
        };
        probes.merge_ns_per_call = per_item(3, self.merges.len(), merge_pass);

        let mut rounds = 0usize;
        let select_pass = || {
            rounds = 0;
            for (i, fees) in self.selects.iter().enumerate() {
                let params = UnifiedParameters::from_randomness(
                    sha256((i as u64).to_be_bytes()),
                    (0..MINERS_PER_SHARD as u32).map(MinerId::new).collect(),
                    GameInputs::Select {
                        shard: ShardId::new(i as u32),
                        fees: fees.clone(),
                        config: SelectionConfig {
                            capacity: RuntimeConfig::default().block_capacity,
                            max_rounds: SELECTION_ROUNDS,
                        },
                    },
                );
                rounds += params.selection_outcome().map_or(0, |o| o.rounds);
            }
        };
        probes.select_ns_per_call = per_item(3, self.selects.len(), select_pass);
        probes.select_rounds_per_call = rounds as f64 / self.selects.len().max(1) as f64;

        // sim.scheduler: one drain of no-op slots, at the workload's
        // typical shard count and thread setting.
        let scheduler = WorkScheduler::new(SchedulerConfig::new(self.threads));
        let slots = self.median_shards.max(1);
        let drain = || {
            let drained = scheduler.drain(
                vec![0u64; slots],
                |_| true,
                |_, slot| {
                    *slot += 1;
                    Ok::<Turn, ()>(Turn::Done)
                },
            );
            black_box(drained.is_ok());
        };
        probes.drain_us = per_item(101, 1, drain) / 1e3;

        // sim.queue: the hold model — pop the earliest, schedule one later.
        const DEPTH: u64 = 16;
        const HOLDS: usize = 200_000;
        let hold = || {
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut lcg = 0x2545_F491_4F6C_DD1Du64;
            for i in 0..DEPTH {
                queue.schedule(SimTime::from_millis(i), i);
            }
            for _ in 0..HOLDS {
                let Some((_, event)) = queue.pop() else { break };
                lcg = lcg
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                queue.schedule_in(SimTime::from_millis(1 + (lcg >> 54)), event);
            }
            black_box(queue.len());
        };
        probes.queue_ns_per_event = per_item(3, HOLDS, hold);

        // place.engine: traffic counting on the captured MaxShard calls.
        let observe = || {
            let mut engine = PlacementEngine::new(PlacementConfig::engaged());
            for &(sender, contract) in &self.maxshard_calls {
                engine.observe(sender, contract);
            }
            black_box(engine.tracked_senders());
        };
        probes.engine_observe_ns_per_tx = per_item(3, self.maxshard_calls.len(), observe);
    }
}

/// `settle`'s batcher on a synthetic transfer stream over eight
/// destinations — the submit path the batched arm takes per transfer.
pub fn probe_batcher(probes: &mut Probes) {
    const SUBMITS: usize = 200_000;
    let config = SettleConfig {
        timeout: SimTime::from_secs(10),
        ..SettleConfig::batched(100)
    };
    let submit = || {
        let mut batcher = SettlementBatcher::new(ShardId::new(0), &config);
        for i in 0..SUBMITS as u64 {
            black_box(batcher.submit(SimTime::from_millis(i), ShardId::new(1 + (i % 8) as u32), i));
        }
        black_box(batcher.stats());
    };
    probes.batcher_ns_per_submit = per_item(3, SUBMITS, submit);
}

/// Median over `reps` timings of `pass` (after one unrecorded pass), in
/// nanoseconds per item; zero when there is nothing to time.
fn per_item(reps: usize, items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    pass();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            pass();
            elapsed_ns(start) / items as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(seed: u64, n: usize) -> Vec<(SimTime, Transaction)> {
        let Some(Plan {
            kind: Kind::Stream(p),
            ..
        }) = Plan::new(metrics::STREAM_CHURN, seed, 1.0)
        else {
            panic!("stream_churn is a stream workload");
        };
        TxStream::new(p.stream).take(n).collect()
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(arrivals(7, 500), arrivals(7, 500));
        assert_ne!(arrivals(7, 500), arrivals(8, 500));
        let txs = |seed| -> Vec<Vec<Transaction>> {
            paper_rotation(seed)
                .into_iter()
                .map(|w| w.transactions)
                .collect()
        };
        assert_eq!(txs(7), txs(7));
        assert_ne!(txs(7), txs(8));
        assert_eq!(
            SettleInputs::build(300, 7).fees,
            SettleInputs::build(300, 7).fees
        );
        assert_ne!(
            SettleInputs::build(300, 7).fees,
            SettleInputs::build(300, 8).fees
        );
    }

    #[test]
    fn unknown_workload_has_no_plan() {
        assert!(Plan::new("stream_nope", 1, 1.0).is_none());
        for w in &metrics::WORKLOADS {
            assert!(Plan::new(w.name, 1, 1.0).is_some(), "{}", w.name);
        }
    }

    #[test]
    fn partition_check_rejects_overlap_gaps_and_mislabels() {
        let txs = Workload::uniform_contracts(60, 3, FEES, 5).transactions;
        let mut graph = CallGraph::new();
        graph.observe_all(txs.iter());
        let plan = ShardPlan::classify(&txs, &graph);
        assert!(partitions(&plan, txs.len()));
        assert!(!partitions(&plan, txs.len() + 1), "uncovered index");

        let mut dropped = plan.clone();
        dropped.maxshard.pop();
        assert!(!partitions(&dropped, txs.len()), "gap");

        let mut doubled = plan.clone();
        doubled.maxshard.push(0);
        assert!(!partitions(&doubled, txs.len()), "overlap");

        let mut mislabelled = plan;
        mislabelled.shard_of[0] = ShardId::MAX_SHARD;
        assert!(!partitions(&mislabelled, txs.len()), "view mismatch");
    }
}
