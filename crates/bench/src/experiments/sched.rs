//! Scheduler lifecycle grid (`results/golden/sched.json`): the
//! shard-lifecycle work scheduler on a sparse workload, 10 → 2000 shards.
//!
//! Each grid point builds a shard set where only every tenth shard holds
//! transactions; the rest are born done. The lifecycle scheduler never
//! enqueues those idle shards in the active phase — they surface as the
//! `tasks skipped` counter — so the per-epoch launch cost scales with the
//! *busy* shard count, not the nominal one. Reported per point: tasks
//! scheduled / tasks skipped in one full two-phase run, straight from
//! [`cshard_core::RunSchedStats`]. Both are exact counts, identical at
//! every `--threads` value; what a drain costs in host time is
//! `sim.scheduler.drain_us` in `benchmark/`.
//!
//! The skipped counter must be positive on the sparse grid — an idle
//! shard that still got scheduled would be a lifecycle regression.

use crate::experiments::grid_config;
use crate::report::{ExperimentResult, Series};
use cshard_core::{ContractShardDriver, Runtime, RuntimeConfig, ShardSpec};
use cshard_primitives::ShardId;

/// Every tenth shard is busy; the rest hold no transactions.
const BUSY_STRIDE: usize = 10;

struct Point {
    shards: usize,
    scheduled: u64,
    skipped: u64,
}

fn sparse_specs(shards: usize) -> Vec<ShardSpec> {
    (0..shards)
        .map(|i| {
            let fees = if i % BUSY_STRIDE == 0 {
                (1..=30u64).collect()
            } else {
                Vec::new()
            };
            ShardSpec::solo_greedy(ShardId::new(i as u32), fees)
        })
        .collect()
}

fn measure(shards: usize) -> Point {
    let cfg = RuntimeConfig {
        seed: shards as u64,
        scheduler: grid_config(),
        ..RuntimeConfig::default()
    };
    let drivers = sparse_specs(shards)
        .iter()
        .map(|s| ContractShardDriver::new(s, &cfg))
        .collect::<Result<Vec<_>, _>>()
        .expect("one miner per sparse shard");
    let outcome = Runtime::builder()
        .scheduler(cfg.scheduler)
        .run(drivers)
        .expect("valid sparse grid");
    Point {
        shards,
        scheduled: outcome.sched.scheduled(),
        skipped: outcome.sched.skipped(),
    }
}

/// The `sched` experiment: scheduled/skipped task counts vs. shard count
/// on a 10%-busy workload.
pub fn run(quick: bool) -> ExperimentResult {
    let counts: &[usize] = if quick {
        &[10, 100, 2000]
    } else {
        &[10, 50, 200, 500, 1000, 2000]
    };
    let points: Vec<Point> = counts.iter().map(|&n| measure(n)).collect();
    let sparse = points.last().expect("non-empty grid");
    assert!(
        sparse.skipped > 0,
        "idle shards were scheduled on the sparse {}-shard point",
        sparse.shards
    );
    let x = |p: &Point| p.shards as f64;
    ExperimentResult {
        id: "sched".into(),
        title: "Shard-lifecycle scheduler on a sparse grid".into(),
        x_label: "shards".into(),
        y_label: "tasks/epoch".into(),
        series: vec![
            Series::new(
                "tasks scheduled/epoch",
                points.iter().map(|p| (x(p), p.scheduled as f64)).collect(),
            ),
            Series::new(
                "tasks skipped/epoch",
                points.iter().map(|p| (x(p), p.skipped as f64)).collect(),
            ),
        ],
        notes: vec![
            format!(
                "1-in-{BUSY_STRIDE} shards busy (30 txs each), one epoch per point, \
                 scheduler workers from --threads"
            ),
            "skipped counts idle shards the lifecycle scheduler never enqueued; \
             scheduling cost tracks busy shards, not nominal shard count"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_grid_skips_idle_shards() {
        let r = run(true);
        let skipped = &r.series[1].points;
        // The 2000-shard point: ~90% of shards idle, every one of them
        // skipped in the active phase rather than scheduled.
        let last = *skipped.last().expect("points");
        assert_eq!(last.0, 2000.0);
        assert!(last.1 > 0.0, "no skips at 2000 shards: {last:?}");
        // Scheduled stays near the busy count (plus the idle-drain
        // re-admissions for empty-block accounting).
        let scheduled = r.series[0].points.last().expect("points").1;
        assert!(scheduled > 0.0);
    }

    #[test]
    fn sparse_runs_are_thread_count_independent() {
        let specs = sparse_specs(40);
        let run_at = |threads: usize| {
            let cfg = RuntimeConfig {
                seed: 7,
                scheduler: cshard_core::SchedulerConfig::new(threads),
                ..RuntimeConfig::default()
            };
            let drivers = specs
                .iter()
                .map(|s| ContractShardDriver::new(s, &cfg))
                .collect::<Result<Vec<_>, _>>()
                .expect("one miner per sparse shard");
            let outcome = Runtime::builder()
                .scheduler(cfg.scheduler)
                .run(drivers)
                .expect("valid sparse grid");
            (
                outcome.report.fingerprint(),
                outcome.sched.scheduled(),
                outcome.sched.skipped(),
            )
        };
        assert_eq!(run_at(1), run_at(4));
        assert_eq!(run_at(1), run_at(0));
    }
}
