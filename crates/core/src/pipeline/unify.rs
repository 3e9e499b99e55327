//! Stage 5 — Unify: the unified-replay block-production run (Sec. IV-C).
//!
//! Every miner holds the same broadcast parameters by this point; the
//! stage builds one [`ContractShardDriver`] per shard and drives them all
//! to completion on the shared event-loop runtime. This is the *only*
//! place the workspace turns shard specs into an epoch run — the
//! `ShardingSystem`, the long run, and (through the same driver type) the
//! fault harness all end here.

use super::StageOutput;
use cshard_games::SelectionWarmCache;
use cshard_primitives::{Error, ShardId};
use cshard_runtime::{ContractShardDriver, RunReport, Runtime, RuntimeConfig, ShardSpec};
use std::collections::BTreeMap;

/// Runs the epoch. With warm starts enabled, each shard's
/// [`SelectionWarmCache`] is threaded from epoch to epoch: a shard whose
/// selection game repeats an earlier epoch's exact inputs seeds the
/// best-reply dynamics at the cached equilibrium and certifies it in one
/// sweep. The run is bit-identical either way (the cache key covers every
/// game input, and a Nash equilibrium certifies to itself); only the
/// sweep counters shrink.
#[derive(Debug)]
pub struct UnifyStage {
    warm: bool,
    caches: BTreeMap<ShardId, SelectionWarmCache>,
}

impl UnifyStage {
    /// A unify stage; `warm` enables the cross-epoch selection caches.
    pub fn new(warm: bool) -> Self {
        UnifyStage {
            warm,
            caches: BTreeMap::new(),
        }
    }

    fn cache_counts(&self) -> (u64, u64) {
        self.caches
            .values()
            .fold((0, 0), |(h, m), c| (h + c.hits(), m + c.misses()))
    }

    /// Drives every shard of `specs` to completion under `runtime`.
    pub fn run(
        &mut self,
        specs: &[ShardSpec],
        runtime: &RuntimeConfig,
    ) -> Result<(RunReport, StageOutput), Error> {
        // The same validation `cshard_runtime::simulate` performs, ahead
        // of driver construction (whose constructor asserts).
        ShardSpec::validate_all(specs)?;
        let (hits_before, misses_before) = self.cache_counts();
        let drivers: Vec<ContractShardDriver> = specs
            .iter()
            .map(|spec| {
                if self.warm {
                    let cache = self.caches.remove(&spec.shard).unwrap_or_default();
                    ContractShardDriver::with_warm_cache(spec, runtime, cache)
                } else {
                    ContractShardDriver::new(spec, runtime)
                }
            })
            .collect();
        let outcome = Runtime::builder()
            .scheduler(runtime.scheduler)
            .run(drivers)?;
        let (run, finished, sched) = (outcome.report, outcome.drivers, outcome.sched);

        let mut epoch_rounds = 0;
        for (spec, driver) in specs.iter().zip(finished) {
            epoch_rounds += driver.selection_stats().rounds;
            if self.warm {
                if let Some(cache) = driver.into_warm_cache() {
                    self.caches.insert(spec.shard, cache);
                }
            }
        }
        let (hits_after, misses_after) = self.cache_counts();

        let out = StageOutput {
            items: specs.len() as u64,
            iterations: epoch_rounds,
            warm_hits: hits_after - hits_before,
            warm_misses: misses_after - misses_before,
            tasks_scheduled: sched.scheduled(),
            tasks_skipped: sched.skipped(),
            ..StageOutput::default()
        };
        Ok((run, out))
    }
}
