//! What the injected faults did to a run.
//!
//! The ordinary [`crate::RunReport`] stays exactly the
//! fingerprinted surface it always was; everything fault-specific is
//! derived here after the run, from the drivers (swallowed ticks, whether
//! the deadline cut them short) and from the plan (crash windows).

use cshard_primitives::{ShardId, SimTime};

/// Per-shard fault accounting, derived by [`super::run_with_faults`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardFaultStats {
    /// The shard these stats belong to.
    pub shard: ShardId,
    /// Block-found ticks suppressed because their miner was crashed.
    pub suppressed_blocks: usize,
    /// Crash windows (a miner's overlapping crashes are one) that opened
    /// before the shard's end: the run's completion, or the deadline for a
    /// shard it cut short.
    pub crashes: usize,
    /// Crash windows that healed before the shard's end.
    pub recoveries: usize,
    /// Per recovery, in heal order, the miner's downtime: recovery instant
    /// minus crash instant (a miner whose tick was swallowed ticks again at
    /// the recovery instant, so this bounds the gap in its production).
    pub recovery_latencies: Vec<SimTime>,
    /// The plan deadline fired before the shard finished its workload.
    pub timed_out: bool,
}

/// The run-wide fault report: one entry per shard, in shard-driver order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultReport {
    /// Per-shard stats, aligned with the run report's shard order.
    pub shards: Vec<ShardFaultStats>,
}

impl FaultReport {
    /// Total suppressed block ticks across shards.
    pub fn total_suppressed(&self) -> usize {
        self.shards.iter().map(|s| s.suppressed_blocks).sum()
    }

    /// Total crashes across shards.
    pub fn total_crashes(&self) -> usize {
        self.shards.iter().map(|s| s.crashes).sum()
    }

    /// Total recoveries across shards.
    pub fn total_recoveries(&self) -> usize {
        self.shards.iter().map(|s| s.recoveries).sum()
    }

    /// The worst miner downtime observed anywhere (`None` when no
    /// recovery fired).
    pub fn max_recovery_latency(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .flat_map(|s| s.recovery_latencies.iter().copied())
            .max()
    }

    /// Shards whose deadline fired before completion.
    pub fn timed_out_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.timed_out).count()
    }

    /// True when no fault machinery fired anywhere — the signature of a
    /// zero-fault (transparent) plan.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(|s| {
            s.suppressed_blocks == 0 && s.crashes == 0 && s.recoveries == 0 && !s.timed_out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All-zero stats for shard `i`.
    fn clean(i: u32) -> ShardFaultStats {
        ShardFaultStats {
            shard: ShardId::new(i),
            suppressed_blocks: 0,
            crashes: 0,
            recoveries: 0,
            recovery_latencies: Vec::new(),
            timed_out: false,
        }
    }

    #[test]
    fn aggregates_sum_over_shards() {
        let a = ShardFaultStats {
            suppressed_blocks: 3,
            crashes: 1,
            recoveries: 1,
            recovery_latencies: vec![SimTime::from_millis(500)],
            ..clean(0)
        };
        let b = ShardFaultStats {
            timed_out: true,
            recovery_latencies: vec![SimTime::from_millis(900)],
            ..clean(1)
        };
        let report = FaultReport { shards: vec![a, b] };
        assert_eq!(report.total_suppressed(), 3);
        assert_eq!(report.total_crashes(), 1);
        assert_eq!(report.total_recoveries(), 1);
        assert_eq!(
            report.max_recovery_latency(),
            Some(SimTime::from_millis(900))
        );
        assert_eq!(report.timed_out_shards(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_report_detects_no_faults() {
        let report = FaultReport {
            shards: vec![clean(0), clean(1)],
        };
        assert!(report.is_clean());
        assert_eq!(report.max_recovery_latency(), None);
    }
}
