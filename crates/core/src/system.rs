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
//! the stages themselves live in [`crate::pipeline`], and the fluent
//! builder in [`crate::builder`].

use crate::pipeline::{EpochInput, EpochPipeline, PipelineConfig};
use cshard_crypto::sha256;
use cshard_games::MergingConfig;
use cshard_network::CommStats;
use cshard_place::PlacementConfig;
use cshard_primitives::{Error, ShardId};
use cshard_runtime::{RunReport, RuntimeConfig};
use cshard_workload::Workload;

pub use crate::builder::SystemBuilder;
pub use crate::pipeline::MergeSummary;

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

/// System-level configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Runtime (block production) parameters.
    pub runtime: RuntimeConfig,
    /// Enable inter-shard merging with this game configuration
    /// (`lower_bound` doubles as the small-shard threshold).
    pub merging: Option<MergingConfig>,
    /// Enable equilibrium transaction selection in shards with more than
    /// one miner (best-reply round cap).
    pub selection: Option<usize>,
    /// Miner spread.
    pub allocation: MinerAllocation,
    /// The cross-epoch placement engine (merge-group carry-over +
    /// hot-account migration). Off by default and bit-invisible when off.
    pub placement: PlacementConfig,
    /// Epoch label — seeds leader randomness, so two systems with the same
    /// config and workload are bit-identical.
    pub epoch: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            runtime: RuntimeConfig::default(),
            merging: None,
            selection: None,
            allocation: MinerAllocation::OnePerShard,
            placement: PlacementConfig::disabled(),
            epoch: 0,
        }
    }
}

/// The full result of a system run.
#[derive(Clone, Debug)]
pub struct SystemReport {
    /// Block-production results.
    pub run: RunReport,
    /// Shards that actually ran (after any merging), with their sizes.
    pub shard_sizes: Vec<(ShardId, u64)>,
    /// Merge-stage summary, when merging was enabled.
    pub merge: Option<MergeSummary>,
    /// Cross-shard communication incurred (validation is always zero for
    /// the contract-centric design; merging contributes 2 per small shard).
    pub comm: CommStats,
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
    ///     .shards(9)
    ///     .block_capacity(10)
    ///     .seed(42)
    ///     .threads(0) // one worker per core; bit-identical to threads(1)
    ///     .build()
    ///     .expect("valid configuration");
    /// # let _ = system;
    /// ```
    pub fn builder() -> SystemBuilder {
        SystemBuilder::new()
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
        PipelineConfig {
            merging: self.config.merging,
            selection: self.config.selection,
            allocation: self.config.allocation,
            warm_start: false,
            placement: self.config.placement,
        }
    }

    /// Runs the pipeline on a workload.
    ///
    /// Errors when the configuration cannot produce a valid run — a zero
    /// block capacity, a zero per-shard miner count, or a proportional
    /// miner pool smaller than the shard count. (Systems built through
    /// [`ShardingSystem::builder`] have already been validated.)
    pub fn run(&self, workload: &Workload) -> Result<SystemReport, Error> {
        let mut pipeline = EpochPipeline::new(self.pipeline_config());
        let fees = workload.fees();
        let out = pipeline.run_epoch(EpochInput {
            transactions: &workload.transactions,
            fees: &fees,
            randomness: sha256(self.config.epoch.to_be_bytes()),
            runtime: self.config.runtime.clone(),
        })?;
        Ok(SystemReport {
            run: out.run,
            shard_sizes: out.shard_sizes,
            merge: out.merge,
            comm: out.comm,
        })
    }
}

impl From<SystemConfig> for ShardingSystem {
    fn from(config: SystemConfig) -> Self {
        ShardingSystem::new(config)
    }
}

impl From<RuntimeConfig> for SystemConfig {
    fn from(runtime: RuntimeConfig) -> Self {
        SystemConfig {
            runtime,
            ..SystemConfig::default()
        }
    }
}

impl From<RuntimeConfig> for ShardingSystem {
    fn from(runtime: RuntimeConfig) -> Self {
        ShardingSystem::testbed(runtime)
    }
}
