//! Stage 5 — Unify: the unified-replay block-production run (Sec. IV-C).
//!
//! Every miner holds the same broadcast parameters by this point; the
//! stage builds one [`ContractShardDriver`] per shard and drives them all
//! to completion on the shared event-loop runtime. This is the *only*
//! place the workspace turns shard specs into an epoch run — the
//! `ShardingSystem`, the long run, and (through the same driver type) the
//! fault harness all end here. The stage keeps no state across epochs,
//! so it is a function rather than a stage struct.

use super::StageOutput;
use cshard_primitives::Error;
use cshard_runtime::{ContractShardDriver, RunReport, Runtime, RuntimeConfig, ShardSpec};

/// Drives every shard of `specs` to completion under `runtime`.
pub fn unify(
    specs: &[ShardSpec],
    runtime: &RuntimeConfig,
) -> Result<(RunReport, StageOutput), Error> {
    let drivers = specs
        .iter()
        .map(|spec| ContractShardDriver::new(spec, runtime))
        .collect::<Result<Vec<_>, _>>()?;
    let outcome = Runtime::builder()
        .scheduler(runtime.scheduler)
        .run(drivers)?;
    let out = StageOutput {
        items: specs.len() as u64,
        iterations: outcome
            .drivers
            .iter()
            .map(|driver| driver.selection_stats().rounds)
            .sum(),
        tasks_scheduled: outcome.sched.scheduled(),
        tasks_skipped: outcome.sched.skipped(),
        ..StageOutput::default()
    };
    Ok((outcome.report, out))
}
