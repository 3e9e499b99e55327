//! The end-to-end sharding system.
//!
//! [`ShardingSystem::run`] is the whole pipeline of the paper on one
//! workload, driven through the staged [`EpochPipeline`]
//! (`Classify → Form → Merge → Select → Unify → Place`, see
//! [`crate::pipeline`]):
//!
//! 1. **Formation** (Sec. III-A) — classify transactions into contract
//!    shards + MaxShard via the call graph.
//! 2. **Miner assignment** (Sec. III-B) — allocate miners to shards, either
//!    one-per-shard (the paper's testbed) or proportionally via the
//!    verifiable-randomness rule.
//! 3. **Inter-shard merging** (Sec. IV-A) — optionally run Algorithm 1 over
//!    the small shards under unified parameters, fusing their queues.
//! 4. **Intra-shard selection** (Sec. IV-B) — optionally give multi-miner
//!    shards the congestion-game equilibrium strategy.
//! 5. **Run** — drive the block-production runtime to completion and
//!    report waiting time, empty blocks and communication counts.
//!
//! Every stage is independently switchable so experiments can ablate each
//! mechanism (Fig. 3 runs every combination). This module is only the
//! workload-level facade: configuration types plus the thin `run` driver;
//! the stages themselves live in [`crate::pipeline`].

use crate::pipeline::{EpochInput, EpochPipeline, EpochRun, PipelineConfig};
use cshard_crypto::sha256;
use cshard_games::MergingConfig;
use cshard_primitives::Error;
use cshard_runtime::RuntimeConfig;
use cshard_workload::Workload;

/// How miners are spread over shards.
#[derive(Clone, Copy, Debug)]
pub enum MinerAllocation {
    /// One miner per shard — the paper's nine-server testbed (Sec. VI-A:
    /// "we just set the number of miners in each shard as 1").
    OnePerShard,
    /// A fixed miner count per shard (used by the Fig. 3(h) single-shard
    /// selection experiment).
    PerShard(usize),
    /// `total` miners split proportionally to shard transaction counts —
    /// the Sec. III-B requirement that "the fraction of miners in a shard
    /// shall keep up with the fraction of transactions in that shard".
    /// Every shard receives at least one miner (largest-remainder split).
    Proportional {
        /// Total miners across the system.
        total: usize,
    },
}

/// System-level configuration: the runtime and pipeline settings of one
/// cold epoch, plus its label.
#[derive(Clone, Debug, Default)]
pub struct SystemConfig {
    /// Runtime (block production) parameters.
    pub runtime: RuntimeConfig,
    /// Which optional stages engage: merging, selection, miner spread and
    /// placement.
    pub pipeline: PipelineConfig,
    /// Epoch label — seeds leader randomness, so two systems with the same
    /// config and workload are bit-identical.
    pub epoch: u64,
}

/// The contract-centric sharding system.
#[derive(Clone, Debug)]
pub struct ShardingSystem {
    config: SystemConfig,
}

impl ShardingSystem {
    /// Builds a system.
    pub fn new(config: SystemConfig) -> Self {
        ShardingSystem { config }
    }

    /// Starts a validated, fluent configuration:
    ///
    /// ```
    /// use cshard_core::ShardingSystem;
    ///
    /// let system = ShardingSystem::builder()
    ///     .merging(16)
    ///     .seed(42)
    ///     .threads(0) // one worker per core; bit-identical to threads(1)
    ///     .build()
    ///     .expect("valid configuration");
    /// # let _ = system;
    /// ```
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Convenience: the paper's testbed shape (one greedy miner per shard,
    /// no merging, no selection game).
    pub fn testbed(runtime: RuntimeConfig) -> Self {
        ShardingSystem::new(SystemConfig {
            runtime,
            ..SystemConfig::default()
        })
    }

    /// The configuration this system runs with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The pipeline configuration this system drives its single epoch
    /// with.
    pub fn pipeline_config(&self) -> PipelineConfig {
        self.config.pipeline
    }

    /// Runs the pipeline on a workload as one cold epoch and returns that
    /// epoch's [`EpochRun`].
    ///
    /// Errors when the configuration cannot produce a valid run: whatever
    /// [`RuntimeConfig::validate`] and [`PipelineConfig::validate`] reject
    /// (a zero block capacity, a zero per-shard miner count, …), or a
    /// proportional miner pool smaller than the epoch's shard count.
    pub fn run(&self, workload: &Workload) -> Result<EpochRun, Error> {
        let fees = workload.fees();
        EpochPipeline::new(self.config.pipeline).run_epoch(EpochInput {
            transactions: &workload.transactions,
            fees: &fees,
            randomness: sha256(self.config.epoch.to_be_bytes()),
            runtime: self.config.runtime.clone(),
        })
    }
}

/// Builds a validated [`ShardingSystem`] for the paper's game settings.
///
/// Every other value keeps its [`SystemConfig::default`]; a run that
/// needs one writes a [`SystemConfig`] literal for [`ShardingSystem::new`]
/// instead. [`SystemBuilder::build`] rejects what can never run, not what
/// is merely unusual: a merge threshold above the block capacity is legal,
/// because the threshold counts transactions per *shard* and capacity per
/// *block*, and merging small shards past one block's worth is how merging
/// removes empty blocks (Fig. 3(c)).
#[derive(Clone, Debug, Default)]
pub struct SystemBuilder {
    config: SystemConfig,
}

impl SystemBuilder {
    /// The master RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.runtime.seed = seed;
        self
    }

    /// Scheduler worker threads for the block-production runs: `1` =
    /// sequential (default), `0` = one per core. Results are bit-identical
    /// across settings.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.runtime.scheduler.threads = threads;
        self
    }

    /// A fixed miner count on every shard (default: one per shard).
    pub fn miners_per_shard(mut self, miners: usize) -> Self {
        self.config.pipeline.allocation = MinerAllocation::PerShard(miners);
        self
    }

    /// Enables inter-shard merging with the given small-shard threshold
    /// (shards below `lower_bound` transactions enter Algorithm 1).
    pub fn merging(mut self, lower_bound: u64) -> Self {
        self.config.pipeline.merging = Some(MergingConfig {
            lower_bound,
            ..MergingConfig::default()
        });
        self
    }

    /// Enables equilibrium transaction selection in multi-miner shards
    /// (best-reply round cap, Algorithm 2).
    pub fn selection(mut self, max_rounds: usize) -> Self {
        self.config.pipeline.selection = Some(max_rounds);
        self
    }

    /// Validates the runtime and pipeline settings
    /// ([`RuntimeConfig::validate`], [`PipelineConfig::validate`]) and
    /// builds the system.
    pub fn build(self) -> Result<ShardingSystem, Error> {
        self.config.runtime.validate()?;
        self.config.pipeline.validate()?;
        Ok(ShardingSystem::new(self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_place::PlacementConfig;
    use cshard_primitives::SimTime;
    use cshard_runtime::SettleConfig;
    use cshard_workload::FeeDistribution;

    /// Every invalid configuration a system rejects, as one table: each row
    /// is (label, the call that checks it, the `Error::Config` field it must
    /// name). The builder's setters are checked by `build`; every other
    /// value is a `SystemConfig` field, checked when the system runs.
    /// Valid-but-odd combinations (see [`SystemBuilder`]) deliberately do
    /// NOT appear here.
    #[test]
    fn builder_rejects_every_invalid_combination() {
        let w = Workload::uniform_contracts(30, 2, FeeDistribution::Uniform { lo: 1, hi: 99 }, 4);
        let built = |builder: SystemBuilder| builder.build().map(drop);
        let ran = |patch: &dyn Fn(&mut SystemConfig)| {
            let mut config = SystemConfig::default();
            patch(&mut config);
            ShardingSystem::new(config).run(&w).map(drop)
        };
        let bad_merge = |patch: fn(&mut MergingConfig)| {
            ran(&|c: &mut SystemConfig| {
                let mut m = MergingConfig::default();
                patch(&mut m);
                c.pipeline.merging = Some(m);
            })
        };
        let bad_placement = |patch: fn(&mut PlacementConfig)| {
            ran(&|c: &mut SystemConfig| {
                let mut p = PlacementConfig::engaged();
                patch(&mut p);
                c.pipeline.placement = p;
            })
        };
        let cases: Vec<(&str, Result<(), Error>, &str)> = vec![
            (
                "zero miners per shard",
                built(SystemBuilder::default().miners_per_shard(0)),
                "allocation",
            ),
            (
                "zero selection rounds",
                built(SystemBuilder::default().selection(0)),
                "selection",
            ),
            (
                "zero merge threshold",
                built(SystemBuilder::default().merging(0)),
                "merging.lower_bound",
            ),
            (
                "zero block capacity",
                ran(&|c| c.runtime.block_capacity = 0),
                "block_capacity",
            ),
            (
                "zero block interval",
                ran(&|c| c.runtime.mean_block_interval = SimTime::ZERO),
                "mean_block_interval",
            ),
            (
                "merge reward below cost",
                bad_merge(|m| m.reward = m.cost),
                "merging.reward",
            ),
            (
                "merge eta at zero",
                bad_merge(|m| m.eta = 0.0),
                "merging.eta",
            ),
            (
                "merge eta at one",
                bad_merge(|m| m.eta = 1.0),
                "merging.eta",
            ),
            (
                "merge eta NaN",
                bad_merge(|m| m.eta = f64::NAN),
                "merging.eta",
            ),
            (
                "zero merge subslots",
                bad_merge(|m| m.subslots = 0),
                "merging.subslots",
            ),
            (
                "non-positive merge tolerance",
                bad_merge(|m| m.tolerance = 0.0),
                "merging.tolerance",
            ),
            (
                "NaN merge tolerance",
                bad_merge(|m| m.tolerance = f64::NAN),
                "merging.tolerance",
            ),
            (
                "zero merge slot cap",
                bad_merge(|m| m.max_slots = 0),
                "merging.max_slots",
            ),
            (
                "zero settlement batch cap",
                ran(&|c| {
                    c.runtime.settle = SettleConfig {
                        batch_cap: 0,
                        ..SettleConfig::batched(1)
                    }
                }),
                "settle.batch_cap",
            ),
            (
                "zero settlement timeout",
                ran(&|c| {
                    c.runtime.settle = SettleConfig {
                        timeout: SimTime::ZERO,
                        ..SettleConfig::batched(100)
                    }
                }),
                "settle.timeout",
            ),
            (
                "zero placement dominance",
                bad_placement(|p| p.min_dominance_percent = 0),
                "placement.min_dominance_percent",
            ),
            (
                "placement dominance above 100",
                bad_placement(|p| p.min_dominance_percent = 101),
                "placement.min_dominance_percent",
            ),
            (
                "zero placement activity floor",
                bad_placement(|p| p.min_account_txs = 0),
                "placement.min_account_txs",
            ),
        ];
        for (label, result, field) in cases {
            match result {
                Err(Error::Config { field: got, .. }) => {
                    assert_eq!(got, field, "{label}: wrong field");
                }
                other => panic!("{label}: unexpected result {other:?}"),
            }
        }
    }

    /// The one legal-but-surprising combination the table excludes: a merge
    /// threshold above the block capacity is how merging removes empty
    /// blocks, so the builder must accept it.
    #[test]
    fn merge_threshold_above_capacity_is_legal() {
        assert_eq!(RuntimeConfig::default().block_capacity, 10);
        assert!(SystemBuilder::default().merging(16).build().is_ok());
    }
}
