//! The epoch pipeline: one implementation of the paper's per-epoch
//! protocol.
//!
//! Every consumer of the protocol — [`crate::system::ShardingSystem`] on a
//! single workload, [`crate::longrun::LongRun`] across epochs, the fault
//! harness replaying the same drivers — enters through
//! [`EpochPipeline::run_epoch_observed`], which is six calls in a fixed
//! order, each one's product the next one's argument:
//!
//! ```text
//! Classify → Form → Merge → Select → Unify → Place
//! ```
//!
//! * [`ClassifyStage::run`] (Sec. III-A) — absorb the batch into the owned
//!   call graph and classify every transaction into contract shards +
//!   MaxShard: `batch -> ShardPlan`.
//! * [`form`] — materialize per-shard local fee queues: `(&plan, fees) ->
//!   groups`.
//! * [`MergeStage::run`] (Sec. IV-A) — run Algorithm 1 over the small
//!   shards under unified parameters and fuse the merged queues in place.
//!   With placement enabled it carries merge groups across epochs,
//!   re-validating each carried group and re-running the dynamics only
//!   where sizes moved.
//! * [`SelectStage::run`] (Sec. III-B / IV-B) — allocate miners to shards
//!   and attach each shard's selection strategy: `groups -> specs`.
//! * [`unify()`] (Sec. IV-C) — every miner replays the agreed
//!   parameters; the block-production runtime drives all shards to
//!   completion: `(&specs, &runtime) -> RunReport`.
//! * [`PlacementStage::run`] — observe the epoch's MaxShard traffic and,
//!   when placement is enabled, propose hot-account migrations that take
//!   effect next epoch (off by default; bit-invisible when off).
//!
//! The stage structs exist for their **persistent cross-epoch state** (the
//! classifier's accumulated call graph and pins, the merge stage's carried
//! groups, the placement engine's traffic counters); `form` and `unify`
//! keep none and are functions.
//!
//! Instrumentation has one channel, [`StageObserver`]: each stage hands
//! its sim-clock-free counts ([`StageOutput`]) to the caller's observer,
//! which sums or times them as it likes (the bench harness times stages
//! with host clocks — rule ND001 keeps such reads out of protocol crates).

pub mod classify;
pub mod merge;
pub mod place;
pub mod select;
pub mod unify;

pub use classify::ClassifyStage;
pub use merge::{fuse, MergeStage, MergeSummary};
pub use place::PlacementStage;
pub use select::SelectStage;
pub use unify::unify;

use crate::formation::ShardPlan;
use crate::system::MinerAllocation;
use cshard_games::MergingConfig;
use cshard_ledger::Transaction;
use cshard_network::CommStats;
use cshard_place::{Migration, PlacementConfig};
use cshard_primitives::{Error, Hash32, ShardId};
use cshard_runtime::{RunReport, RuntimeConfig};

/// The six stages, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Call-graph classification into shards.
    Classify,
    /// Per-shard fee-queue formation.
    Form,
    /// Inter-shard merging (Algorithm 1).
    Merge,
    /// Miner allocation + selection strategy.
    Select,
    /// Unified replay: the block-production run.
    Unify,
    /// Cross-epoch placement: migration proposals for the next epoch.
    Place,
}

impl StageKind {
    /// Every stage, in pipeline order.
    pub const ALL: [StageKind; 6] = [
        StageKind::Classify,
        StageKind::Form,
        StageKind::Merge,
        StageKind::Select,
        StageKind::Unify,
        StageKind::Place,
    ];
}

/// What one stage reports for one epoch: counts only, no clocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageOutput {
    /// Stage-specific unit count (shards classified, groups formed, new
    /// shards merged, specs built, shards run).
    pub items: u64,
    /// Game-dynamics iterations the stage executed this epoch (replicator
    /// slots for merge; best-reply sweeps for the selection games, counted
    /// in the unify stage where they run).
    pub iterations: u64,
    /// Retired: always 0. Every epoch runs one cold path, so there is no
    /// warm-start cache to hit. Kept only because the benchmark harness
    /// names it; deleted once ROADMAP item 1(c) stops it doing so.
    pub warm_hits: u64,
    /// Scheduler task slots admitted (they had queued work) while the
    /// stage ran. Only the unify stage — the one that launches the
    /// block-production run — reports these; see
    /// `cshard_runtime::RunSchedStats`.
    pub tasks_scheduled: u64,
    /// Scheduler task slots skipped (no queued work, never stepped) — the
    /// idle-shard saving, as a number.
    pub tasks_skipped: u64,
    /// Classify stage: addresses whose call-graph participation changed
    /// this epoch (first sight, a new contract, a first direct transfer).
    pub reclassified: u64,
    /// Classify stage: the remaining distinct batch senders, whose class
    /// is what it was last epoch. The merge stage reports carried merge
    /// *groups* here.
    pub carried: u64,
}

impl std::ops::AddAssign for StageOutput {
    fn add_assign(&mut self, rhs: Self) {
        self.items += rhs.items;
        self.iterations += rhs.iterations;
        self.warm_hits += rhs.warm_hits;
        self.tasks_scheduled += rhs.tasks_scheduled;
        self.tasks_skipped += rhs.tasks_skipped;
        self.reclassified += rhs.reclassified;
        self.carried += rhs.carried;
    }
}

/// Caller-side stage hooks — the one place stage counts surface. The
/// pipeline itself never reads a clock (ND001) nor keeps a running sum; a
/// harness that wants per-stage wall time or cumulative counts implements
/// this and brackets each stage with its own clock reads.
pub trait StageObserver {
    /// Called immediately before a stage runs.
    fn stage_started(&mut self, _stage: StageKind) {}
    /// Called after the stage completed, with its counters.
    fn stage_finished(&mut self, _stage: StageKind, _output: &StageOutput) {}
}

/// The do-nothing observer [`EpochPipeline::run_epoch`] uses.
pub(crate) struct SilentObserver;
impl StageObserver for SilentObserver {}

/// Static pipeline configuration: which optional stages engage.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Inter-shard merging game settings; `None` makes [`MergeStage`] a
    /// no-op.
    pub merging: Option<MergingConfig>,
    /// Best-reply round cap for multi-miner shards; `None` keeps every
    /// shard fee-greedy.
    pub selection: Option<usize>,
    /// How miners spread over shards.
    pub allocation: MinerAllocation,
    /// Retired: `false` is its one legal value, and
    /// [`EpochPipeline::run_epoch`] rejects `true` as a config error. Kept
    /// only because the benchmark harness names it; deleted once ROADMAP
    /// item 1(c) stops it doing so.
    pub warm_start: bool,
    /// The cross-epoch placement engine: merge-group carry-over and
    /// hot-account migration. Off by default; bit-invisible when off.
    pub placement: PlacementConfig,
}

impl PipelineConfig {
    /// Checks every field before a run reads it: the merging and placement
    /// settings, the retired `warm_start: true`, a selection cap of zero
    /// best-reply rounds and a zero per-shard miner count. Only a
    /// proportional miner pool depends on the epoch (its shard count), so
    /// [`SelectStage::run`] checks that one.
    pub fn validate(&self) -> Result<(), Error> {
        if let Some(merging) = &self.merging {
            merging.validate()?;
        }
        self.placement.validate()?;
        if self.warm_start {
            return Err(Error::Config {
                field: "warm_start",
                reason: "retired: every epoch runs cold".into(),
            });
        }
        if self.selection == Some(0) {
            return Err(Error::Config {
                field: "selection",
                reason: "needs at least one best-reply round".into(),
            });
        }
        if let MinerAllocation::PerShard(0) = self.allocation {
            return Err(Error::Config {
                field: "allocation",
                reason: "shards need at least one miner".into(),
            });
        }
        Ok(())
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            merging: None,
            selection: None,
            allocation: MinerAllocation::OnePerShard,
            warm_start: false,
            placement: PlacementConfig::disabled(),
        }
    }
}

/// One epoch's inputs.
#[derive(Clone, Debug)]
pub struct EpochInput<'a> {
    /// The epoch's transaction batch.
    pub transactions: &'a [Transaction],
    /// Fee of each transaction, by batch index (`fees.len() ==
    /// transactions.len()`).
    pub fees: &'a [u64],
    /// The epoch's leader randomness — seeds the unified game parameters.
    pub randomness: Hash32,
    /// Block-production parameters for the epoch's run.
    pub runtime: RuntimeConfig,
}

/// One completed epoch, as the pipeline hands it back.
#[derive(Clone, Debug)]
pub struct EpochRun {
    /// The batch's shard plan (pre-merge classification).
    pub plan: ShardPlan,
    /// Shards that actually ran (post-merge), with their sizes.
    pub shard_sizes: Vec<(ShardId, u64)>,
    /// Merge-stage summary, when merging was enabled.
    pub merge: Option<MergeSummary>,
    /// Cross-shard communication incurred.
    pub comm: CommStats,
    /// The block-production report.
    pub run: RunReport,
    /// Migrations the placement stage proposed this epoch. Already applied
    /// to the classify stage's pins — routing changes next epoch —
    /// and handed out so a runtime harness can execute the moves (drain,
    /// re-key, switch) through `Event::Migration`.
    pub migrations: Vec<Migration>,
}

/// Per-shard local fee queues from the classify stage's plan — contract
/// shards in id order, the MaxShard last (its id sorts highest, so the
/// order survives the merge stage's re-sort).
pub fn form(plan: &ShardPlan, fees: &[u64]) -> Vec<(ShardId, Vec<u64>)> {
    let queue = |idxs: &[usize]| idxs.iter().map(|&i| fees[i]).collect();
    let mut groups: Vec<(ShardId, Vec<u64>)> = plan
        .contract_shards
        .iter()
        .map(|(&shard, idxs)| (shard, queue(idxs)))
        .collect();
    if !plan.maxshard.is_empty() {
        groups.push((ShardId::MAX_SHARD, queue(&plan.maxshard)));
    }
    groups
}

/// Pairs a stage's product with an output counting its length.
fn counted<T>(product: Vec<T>) -> (Vec<T>, StageOutput) {
    let out = StageOutput {
        items: product.len() as u64,
        ..StageOutput::default()
    };
    (product, out)
}

/// The epoch driver: owns the stages' cross-epoch state and runs the six
/// calls in order once per [`EpochPipeline::run_epoch`].
#[derive(Debug)]
pub struct EpochPipeline {
    config: PipelineConfig,
    classify: ClassifyStage,
    merge: MergeStage,
    select: SelectStage,
    place: PlacementStage,
}

impl EpochPipeline {
    /// Builds a pipeline; each stage takes its slice of the configuration.
    pub fn new(config: PipelineConfig) -> Self {
        EpochPipeline {
            config,
            classify: ClassifyStage::new(),
            merge: MergeStage::new(config.merging, config.placement.enabled),
            select: SelectStage::new(config.allocation, config.selection),
            place: PlacementStage::new(config.placement),
        }
    }

    /// Runs one epoch through all six stages.
    pub fn run_epoch(&mut self, input: EpochInput<'_>) -> Result<EpochRun, Error> {
        self.run_epoch_observed(input, &mut SilentObserver)
    }

    /// Like [`EpochPipeline::run_epoch`], bracketing every stage with the
    /// observer's hooks (how the bench harness times stages without this
    /// crate touching a clock).
    ///
    /// Errors — before any stage runs — on a malformed runtime or pipeline
    /// configuration ([`PipelineConfig::validate`]) and on `fees` not
    /// matching `transactions` in length; a pipeline is constructible from
    /// raw config structs, so this is where they are checked.
    pub fn run_epoch_observed(
        &mut self,
        input: EpochInput<'_>,
        observer: &mut dyn StageObserver,
    ) -> Result<EpochRun, Error> {
        let EpochInput {
            transactions,
            fees,
            randomness,
            runtime,
        } = input;
        runtime.validate()?;
        self.config.validate()?;
        if fees.len() != transactions.len() {
            return Err(Error::Config {
                field: "fees",
                reason: format!(
                    "{} fees for {} transactions",
                    fees.len(),
                    transactions.len()
                ),
            });
        }

        let mut comm = CommStats::new();
        let plan = observed(StageKind::Classify, observer, || {
            Ok(self.classify.run(transactions))
        })?;
        let mut groups = observed(StageKind::Form, observer, || Ok(counted(form(&plan, fees))))?;
        let merge = observed(StageKind::Merge, observer, || {
            self.merge.run(&mut groups, randomness, &mut comm)
        })?;
        let shard_sizes = groups.iter().map(|(s, q)| (*s, q.len() as u64)).collect();
        let specs = observed(StageKind::Select, observer, || {
            self.select.run(groups).map(counted)
        })?;
        let run = observed(StageKind::Unify, observer, || unify(&specs, &runtime))?;
        let migrations = observed(StageKind::Place, observer, || {
            Ok(self.place.run(transactions, &plan))
        })?;
        // Feed the epoch's migrations back into the classifier so the
        // moves take effect from the next epoch on.
        self.classify.apply_migrations(&migrations);
        Ok(EpochRun {
            plan,
            shard_sizes,
            merge,
            comm,
            run,
            migrations,
        })
    }
}

/// Brackets one stage call with the observer's hooks.
fn observed<T>(
    kind: StageKind,
    observer: &mut dyn StageObserver,
    stage: impl FnOnce() -> Result<(T, StageOutput), Error>,
) -> Result<T, Error> {
    observer.stage_started(kind);
    let (product, out) = stage()?;
    observer.stage_finished(kind, &out);
    Ok(product)
}

/// Test observer: per stage, the runs started and the field-wise sum of
/// the outputs handed over.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct StageSums {
    pub(crate) started: [u64; 6],
    pub(crate) totals: [StageOutput; 6],
}

#[cfg(test)]
impl StageObserver for StageSums {
    fn stage_started(&mut self, stage: StageKind) {
        self.started[stage as usize] += 1;
    }
    fn stage_finished(&mut self, stage: StageKind, output: &StageOutput) {
        self.totals[stage as usize] += *output;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_crypto::sha256;
    use cshard_workload::{FeeDistribution, Workload};

    const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 99 };

    fn input_for<'a>(w: &'a Workload, fees: &'a [u64], seed: u64) -> EpochInput<'a> {
        EpochInput {
            transactions: &w.transactions,
            fees,
            randomness: sha256(0u64.to_be_bytes()),
            runtime: RuntimeConfig {
                seed,
                ..RuntimeConfig::default()
            },
        }
    }

    #[test]
    fn pipeline_matches_system_run_exactly() {
        use crate::system::{ShardingSystem, SystemConfig};
        let w = Workload::uniform_contracts(200, 8, FEES, 1);
        let fees = w.fees();
        let report = ShardingSystem::new(SystemConfig {
            runtime: RuntimeConfig {
                seed: 3,
                ..RuntimeConfig::default()
            },
            ..SystemConfig::default()
        })
        .run(&w)
        .expect("valid config");
        let mut pipeline = EpochPipeline::new(PipelineConfig::default());
        let out = pipeline
            .run_epoch(input_for(&w, &fees, 3))
            .expect("valid config");
        assert_eq!(out.run.fingerprint(), report.run.fingerprint());
        assert_eq!(out.shard_sizes, report.shard_sizes);
    }

    #[test]
    fn metrics_accumulate_across_epochs() {
        let w = Workload::uniform_contracts(120, 4, FEES, 7);
        let fees = w.fees();
        let mut pipeline = EpochPipeline::new(PipelineConfig::default());
        let mut sums = StageSums::default();
        for _ in 0..3 {
            pipeline
                .run_epoch_observed(input_for(&w, &fees, 7), &mut sums)
                .expect("valid config");
        }
        assert_eq!(sums.started, [3; 6]);
        // 4 contract shards + MaxShard, every epoch.
        assert_eq!(sums.totals[StageKind::Form as usize].items, 15);
        // No games configured: zero dynamics iterations.
        assert!(sums.totals.iter().all(|t| t.iterations == 0));
    }

    #[test]
    fn observer_sees_every_stage_in_order() {
        #[derive(Default)]
        struct Recorder {
            started: Vec<StageKind>,
            finished: Vec<StageKind>,
        }
        impl StageObserver for Recorder {
            fn stage_started(&mut self, stage: StageKind) {
                self.started.push(stage);
            }
            fn stage_finished(&mut self, stage: StageKind, _output: &StageOutput) {
                self.finished.push(stage);
            }
        }
        let w = Workload::uniform_contracts(60, 2, FEES, 2);
        let fees = w.fees();
        let mut pipeline = EpochPipeline::new(PipelineConfig::default());
        let mut rec = Recorder::default();
        pipeline
            .run_epoch_observed(input_for(&w, &fees, 2), &mut rec)
            .expect("valid config");
        assert_eq!(rec.started, StageKind::ALL.to_vec());
        assert_eq!(rec.finished, StageKind::ALL.to_vec());
    }

    #[test]
    fn zero_capacity_is_rejected_before_any_stage() {
        let w = Workload::uniform_contracts(30, 2, FEES, 4);
        let fees = w.fees();
        let mut pipeline = EpochPipeline::new(PipelineConfig::default());
        let mut input = input_for(&w, &fees, 4);
        input.runtime.block_capacity = 0;
        let mut sums = StageSums::default();
        let err = pipeline.run_epoch_observed(input, &mut sums).unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "block_capacity",
                ..
            }
        ));
        assert_eq!(sums.started, [0; 6], "no stage may start");
    }

    #[test]
    fn short_fees_are_rejected_before_any_stage() {
        let w = Workload::uniform_contracts(30, 2, FEES, 4);
        let fees = w.fees();
        let mut pipeline = EpochPipeline::new(PipelineConfig::default());
        let mut sums = StageSums::default();
        let err = pipeline
            .run_epoch_observed(input_for(&w, &fees[..10], 4), &mut sums)
            .unwrap_err();
        assert!(
            matches!(err, Error::Config { field: "fees", .. }),
            "{err:?}"
        );
        assert_eq!(sums.started, [0; 6], "no stage may start");
    }

    /// Runs one epoch of `config`, which must fail before any stage starts,
    /// and returns the config field it names.
    fn rejected_field(config: PipelineConfig) -> &'static str {
        let w = Workload::uniform_contracts(30, 2, FEES, 4);
        let fees = w.fees();
        let mut sums = StageSums::default();
        let err = EpochPipeline::new(config)
            .run_epoch_observed(input_for(&w, &fees, 4), &mut sums)
            .unwrap_err();
        assert_eq!(sums.started, [0; 6], "no stage may start");
        match err {
            Error::Config { field, .. } => field,
            other => panic!("not a config error: {other:?}"),
        }
    }

    #[test]
    fn zero_miners_per_shard_is_rejected_before_any_stage() {
        let config = PipelineConfig {
            allocation: MinerAllocation::PerShard(0),
            ..PipelineConfig::default()
        };
        assert_eq!(rejected_field(config), "allocation");
    }

    #[test]
    fn zero_selection_rounds_are_rejected_before_any_stage() {
        let config = PipelineConfig {
            selection: Some(0),
            ..PipelineConfig::default()
        };
        assert_eq!(rejected_field(config), "selection");
    }

    #[test]
    fn retired_warm_start_is_rejected_before_any_stage() {
        let config = PipelineConfig {
            warm_start: true,
            ..PipelineConfig::default()
        };
        assert_eq!(rejected_field(config), "warm_start");
    }
}
