//! Fluent, validated configuration for [`ShardingSystem`].
//!
//! The paper's experiments touch half a dozen knobs (capacity, interval,
//! miner spread, merging threshold, selection cap…); [`SystemBuilder`]
//! gathers them behind one entry point with validated defaults. Every
//! setter has the default of the underlying config struct; `build`
//! validates the combination and returns a typed [`Error`] instead of
//! panicking deep inside a run.
//!
//! Validation is deliberately *local*: the builder rejects combinations
//! that can never run (zero capacity, a starved proportional pool), but
//! not merely unusual ones. In particular `merging(bound)` with
//! `bound > block_capacity` is legal — the merge threshold counts
//! transactions per *shard* while capacity counts transactions per
//! *block*, and merging small shards past one block's worth is exactly
//! how merging removes empty blocks (Fig. 3(c)).

use crate::system::{MinerAllocation, ShardingSystem, SystemConfig};
use cshard_games::MergingConfig;
use cshard_place::PlacementConfig;
use cshard_primitives::{Error, SimTime};
use cshard_runtime::{PropagationModel, SettleConfig};

/// Builds a validated [`ShardingSystem`].
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    shards: Option<usize>,
    config: SystemConfig,
    set_per_shard: bool,
    set_total: bool,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::new()
    }
}

impl SystemBuilder {
    /// A builder holding every default.
    pub fn new() -> Self {
        SystemBuilder {
            shards: None,
            config: SystemConfig::default(),
            set_per_shard: false,
            set_total: false,
        }
    }

    /// The shard count this system is intended for. Shard formation itself
    /// follows the workload's contracts; the builder uses this to validate
    /// miner allocation (a proportional pool must staff every shard).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Transactions per block (default 10, the paper's gas limit).
    pub fn block_capacity(mut self, capacity: usize) -> Self {
        self.config.runtime.block_capacity = capacity;
        self
    }

    /// Mean block interval per miner (default 60 s).
    pub fn mean_block_interval(mut self, interval: SimTime) -> Self {
        self.config.runtime.mean_block_interval = interval;
        self
    }

    /// The block-propagation model (default: the legacy fixed conflict
    /// window of one block interval, [`PropagationModel::Window`]; or
    /// [`PropagationModel::Network`], whose delivery time each confirming
    /// block draws from a latency model and its blackout windows).
    pub fn propagation(mut self, propagation: PropagationModel) -> Self {
        self.config.runtime.propagation = propagation;
        self
    }

    /// Count empty blocks only up to this time (default: whole run).
    pub fn empty_block_window(mut self, window: SimTime) -> Self {
        self.config.runtime.empty_block_window = Some(window);
        self
    }

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
    /// Mutually exclusive with [`SystemBuilder::total_miners`].
    pub fn miners_per_shard(mut self, miners: usize) -> Self {
        self.config.allocation = MinerAllocation::PerShard(miners);
        self.set_per_shard = true;
        self
    }

    /// A total miner pool split proportionally to shard sizes.
    /// Mutually exclusive with [`SystemBuilder::miners_per_shard`].
    pub fn total_miners(mut self, total: usize) -> Self {
        self.config.allocation = MinerAllocation::Proportional { total };
        self.set_total = true;
        self
    }

    /// Enables inter-shard merging with the given small-shard threshold
    /// (shards below `lower_bound` transactions enter Algorithm 1).
    pub fn merging(mut self, lower_bound: u64) -> Self {
        self.config.merging = Some(MergingConfig {
            lower_bound,
            ..MergingConfig::default()
        });
        self
    }

    /// Enables inter-shard merging with a fully specified game config.
    pub fn merging_config(mut self, config: MergingConfig) -> Self {
        self.config.merging = Some(config);
        self
    }

    /// Enables equilibrium transaction selection in multi-miner shards
    /// (best-reply round cap, Algorithm 2).
    pub fn selection(mut self, max_rounds: usize) -> Self {
        self.config.selection = Some(max_rounds);
        self
    }

    /// The epoch label seeding leader randomness (default 0).
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.config.epoch = epoch;
        self
    }

    /// Cross-shard settlement batching (default disabled). Only
    /// settlement-aware drivers (the settling wrapper, ChainSpace's
    /// batched mode) read this; the plain sharded runs ignore it.
    pub fn settlement(mut self, settle: SettleConfig) -> Self {
        self.config.runtime.settle = settle;
        self
    }

    /// The cross-epoch placement engine: merge-group carry-over plus
    /// hot-account migration (default disabled). Off, the pipeline is
    /// bit-identical to a build without the engine.
    pub fn placement(mut self, placement: PlacementConfig) -> Self {
        self.config.placement = placement;
        self
    }

    /// Validates the combination and builds the system.
    pub fn build(self) -> Result<ShardingSystem, Error> {
        self.config.runtime.validate()?;
        if self.shards == Some(0) {
            return Err(Error::Config {
                field: "shards",
                reason: "must be positive".into(),
            });
        }
        if self.set_per_shard && self.set_total {
            return Err(Error::Config {
                field: "allocation",
                reason: "miners_per_shard and total_miners are mutually exclusive".into(),
            });
        }
        if let (MinerAllocation::Proportional { total }, Some(shards)) =
            (self.config.allocation, self.shards)
        {
            if total < shards {
                return Err(Error::InsufficientMiners {
                    shards,
                    miners: total,
                });
            }
        }
        let system = ShardingSystem::new(self.config);
        system.pipeline_config().validate()?;
        Ok(system)
    }
}

impl From<SystemBuilder> for SystemConfig {
    /// The unvalidated escape hatch: the raw config the builder holds.
    fn from(builder: SystemBuilder) -> Self {
        builder.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a table row expects `build` to return.
    enum Want {
        /// `Error::Config` naming this field.
        Config(&'static str),
        /// `Error::InsufficientMiners`.
        Insufficient,
    }

    /// Every invalid field combination the builder rejects, as one table:
    /// each row is (label, builder, expected typed error). Valid-but-odd
    /// combinations (e.g. a merge threshold above block capacity — see the
    /// module docs) deliberately do NOT appear here.
    #[test]
    fn builder_rejects_every_invalid_combination() {
        let bad_merge = |patch: fn(&mut MergingConfig)| {
            let mut m = MergingConfig::default();
            patch(&mut m);
            SystemBuilder::new().merging_config(m)
        };
        let cases: Vec<(&str, SystemBuilder, Want)> = vec![
            (
                "zero block capacity",
                SystemBuilder::new().block_capacity(0),
                Want::Config("block_capacity"),
            ),
            (
                "zero block interval",
                SystemBuilder::new().mean_block_interval(SimTime::ZERO),
                Want::Config("mean_block_interval"),
            ),
            (
                "zero shards",
                SystemBuilder::new().shards(0),
                Want::Config("shards"),
            ),
            (
                "zero miners per shard",
                SystemBuilder::new().miners_per_shard(0),
                Want::Config("allocation"),
            ),
            (
                "conflicting miner spreads",
                SystemBuilder::new().miners_per_shard(3).total_miners(9),
                Want::Config("allocation"),
            ),
            (
                "conflicting spreads, either order",
                SystemBuilder::new().total_miners(9).miners_per_shard(3),
                Want::Config("allocation"),
            ),
            (
                "starved proportional pool",
                SystemBuilder::new().shards(9).total_miners(4),
                Want::Insufficient,
            ),
            (
                "zero selection rounds",
                SystemBuilder::new().selection(0),
                Want::Config("selection"),
            ),
            (
                "zero merge threshold",
                SystemBuilder::new().merging(0),
                Want::Config("merging.lower_bound"),
            ),
            (
                "merge reward below cost",
                bad_merge(|m| m.reward = m.cost),
                Want::Config("merging.reward"),
            ),
            (
                "merge eta at zero",
                bad_merge(|m| m.eta = 0.0),
                Want::Config("merging.eta"),
            ),
            (
                "merge eta at one",
                bad_merge(|m| m.eta = 1.0),
                Want::Config("merging.eta"),
            ),
            (
                "merge eta NaN",
                bad_merge(|m| m.eta = f64::NAN),
                Want::Config("merging.eta"),
            ),
            (
                "zero merge subslots",
                bad_merge(|m| m.subslots = 0),
                Want::Config("merging.subslots"),
            ),
            (
                "non-positive merge tolerance",
                bad_merge(|m| m.tolerance = 0.0),
                Want::Config("merging.tolerance"),
            ),
            (
                "NaN merge tolerance",
                bad_merge(|m| m.tolerance = f64::NAN),
                Want::Config("merging.tolerance"),
            ),
            (
                "zero merge slot cap",
                bad_merge(|m| m.max_slots = 0),
                Want::Config("merging.max_slots"),
            ),
            (
                "zero settlement batch cap",
                SystemBuilder::new().settlement(SettleConfig {
                    batch_cap: 0,
                    ..SettleConfig::batched(1)
                }),
                Want::Config("settle.batch_cap"),
            ),
            (
                "zero settlement timeout",
                SystemBuilder::new().settlement(SettleConfig {
                    timeout: SimTime::ZERO,
                    ..SettleConfig::batched(100)
                }),
                Want::Config("settle.timeout"),
            ),
            (
                "zero placement dominance",
                SystemBuilder::new().placement(PlacementConfig {
                    min_dominance_percent: 0,
                    ..PlacementConfig::engaged()
                }),
                Want::Config("placement.min_dominance_percent"),
            ),
            (
                "placement dominance above 100",
                SystemBuilder::new().placement(PlacementConfig {
                    min_dominance_percent: 101,
                    ..PlacementConfig::engaged()
                }),
                Want::Config("placement.min_dominance_percent"),
            ),
            (
                "zero placement activity floor",
                SystemBuilder::new().placement(PlacementConfig {
                    min_account_txs: 0,
                    ..PlacementConfig::engaged()
                }),
                Want::Config("placement.min_account_txs"),
            ),
        ];
        for (label, builder, want) in cases {
            let err = builder.build().err();
            match (want, err) {
                (Want::Config(field), Some(Error::Config { field: got, .. })) => {
                    assert_eq!(got, field, "{label}: wrong field");
                }
                (Want::Insufficient, Some(Error::InsufficientMiners { .. })) => {}
                (_, other) => panic!("{label}: unexpected result {other:?}"),
            }
        }
    }

    /// The one legal-but-surprising combination the table excludes: a merge
    /// threshold above block capacity is how merging removes empty blocks,
    /// so the builder must accept it.
    #[test]
    fn merge_threshold_above_capacity_is_legal() {
        assert!(SystemBuilder::new()
            .block_capacity(10)
            .merging(16)
            .build()
            .is_ok());
    }
}
