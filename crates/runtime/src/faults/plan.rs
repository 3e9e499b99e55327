//! Declarative fault schedules.
//!
//! A [`FaultPlan`] is data, not behaviour: an optional run deadline and a
//! list of [`FaultAction`]s pinned to simulated times — miner crashes and
//! shard partitions. Both become `cshard_network::Blackouts` tables: a
//! shard's partitions ([`FaultPlan::blackouts`]) and a miner's crashes
//! ([`FaultPlan::downtime`]). A plan draws no randomness, so two runs of
//! the same `(plan, shard specs, runtime config)` triple are
//! bit-identical.

use cshard_network::Blackouts;
use cshard_primitives::{Error, ShardId, SimTime};

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Crash a miner for `[at, recover_at)`: a block-found tick inside the
    /// window is swallowed and the miner's next tick fires at the recovery
    /// instant, after which its own Poisson process resumes. A window that
    /// holds no tick changes nothing, and overlapping crashes of one miner
    /// act as their union. Without `recover_at` the miner is down until
    /// the plan deadline.
    CrashMiner {
        /// Shard whose miner crashes.
        shard: ShardId,
        /// Local miner index within the shard.
        miner: usize,
        /// Crash instant.
        at: SimTime,
        /// Restart instant (`None` = permanent crash).
        recover_at: Option<SimTime>,
    },
    /// Partition a shard's network for `[from, until)`: block deliveries
    /// cannot complete while the partition is up and land after the heal
    /// instead, and crosslinks to or from the shard defer to the heal
    /// (see `cshard_network::Blackouts`). Applied by unioning the window
    /// onto the blackouts of the shard's own propagation model, which keeps
    /// its link delay (a `Window(w)` shard keeps its conflict window), and
    /// of its settlement pairs before the run. Overlapping partitions of
    /// one shard act as their union.
    PartitionShard {
        /// The partitioned shard.
        shard: ShardId,
        /// Partition start (inclusive).
        from: SimTime,
        /// Heal time (exclusive).
        until: SimTime,
    },
}

/// A full fault schedule for one run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Hard stop, the run's horizon: a faulted run that cannot finish
    /// (e.g. its only miner crashed permanently) ends here instead of
    /// stalling, and the fault report marks it timed out. `None` is only
    /// valid for plans whose faults cannot prevent completion —
    /// [`FaultPlan::validate`] insists on a deadline whenever a permanent
    /// crash is scheduled.
    pub deadline: Option<SimTime>,
    /// The scheduled faults.
    pub actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// The empty plan: no faults, no deadline. A run under this plan is
    /// bit-identical to [`crate::simulate`].
    pub fn none() -> Self {
        FaultPlan {
            deadline: None,
            actions: Vec::new(),
        }
    }

    /// A plan with a deadline and no faults yet; chain the `with_*`
    /// builders to populate it.
    pub fn with_deadline(deadline: SimTime) -> Self {
        FaultPlan {
            deadline: Some(deadline),
            actions: Vec::new(),
        }
    }

    /// Adds a crash (optionally with recovery).
    pub fn with_crash(
        mut self,
        shard: ShardId,
        miner: usize,
        at: SimTime,
        recover_at: Option<SimTime>,
    ) -> Self {
        self.actions.push(FaultAction::CrashMiner {
            shard,
            miner,
            at,
            recover_at,
        });
        self
    }

    /// Adds a partition window.
    pub fn with_partition(mut self, shard: ShardId, from: SimTime, until: SimTime) -> Self {
        self.actions
            .push(FaultAction::PartitionShard { shard, from, until });
        self
    }

    /// Checks the plan is well-formed: recoveries after their crashes,
    /// partition windows non-empty, and a deadline present whenever a
    /// permanent crash could stall the run forever.
    pub fn validate(&self) -> Result<(), Error> {
        let bad = |reason: String| Error::Config {
            field: "fault_plan",
            reason,
        };
        for (i, action) in self.actions.iter().enumerate() {
            match action {
                FaultAction::CrashMiner { at, recover_at, .. } => {
                    if let Some(r) = recover_at {
                        if *r <= *at {
                            return Err(bad(format!(
                                "action {i}: recovery at {r} not after crash at {at}"
                            )));
                        }
                    } else if self.deadline.is_none() {
                        return Err(bad(format!(
                            "action {i}: a permanent crash needs a plan deadline \
                             (the crashed miner may be the shard's only one)"
                        )));
                    }
                }
                FaultAction::PartitionShard { from, until, .. } => {
                    Blackouts::new([(*from, *until)])?;
                }
            }
        }
        Ok(())
    }

    /// The blackout table this plan's partitions impose on `shard`.
    pub fn blackouts(&self, shard: ShardId) -> Result<Blackouts, Error> {
        Blackouts::new(self.actions.iter().filter_map(|a| match *a {
            FaultAction::PartitionShard {
                shard: s,
                from,
                until,
            } if s == shard => Some((from, until)),
            _ => None,
        }))
    }

    /// The downtime table this plan's crashes impose on `shard`'s `miner`:
    /// one window per crash, overlaps merged. A permanent crash is down
    /// until the deadline, and a crash at or after the deadline never
    /// happens.
    pub fn downtime(&self, shard: ShardId, miner: usize) -> Result<Blackouts, Error> {
        let end = self.deadline.unwrap_or(SimTime::MAX);
        Blackouts::new(self.actions.iter().filter_map(|a| match *a {
            FaultAction::CrashMiner {
                shard: s,
                miner: m,
                at,
                recover_at,
            } if s == shard && m == miner && at < end => Some((at, recover_at.unwrap_or(end))),
            _ => None,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn empty_plan_validates_and_blacks_out_nothing() {
        let plan = FaultPlan::none();
        assert_eq!(plan.validate(), Ok(()));
        assert!(plan.blackouts(ShardId::new(0)).expect("valid").is_empty());
        assert!(plan.downtime(ShardId::new(0), 0).expect("valid").is_empty());
    }

    #[test]
    fn builders_accumulate_and_validate() {
        let plan = FaultPlan::with_deadline(ms(100_000))
            .with_crash(ShardId::new(0), 0, ms(1000), Some(ms(5000)))
            .with_partition(ShardId::new(2), ms(100), ms(200));
        assert_eq!(plan.actions.len(), 2);
        assert_eq!(plan.validate(), Ok(()));
        assert!(plan.blackouts(ShardId::new(0)).expect("valid").is_empty());
        assert_eq!(
            plan.blackouts(ShardId::new(2)),
            Blackouts::new([(ms(100), ms(200))])
        );
    }

    #[test]
    fn downtime_merges_crashes_and_ends_permanent_ones_at_the_deadline() {
        let s0 = ShardId::new(0);
        let plan = FaultPlan::with_deadline(ms(10_000))
            .with_crash(s0, 0, ms(100), Some(ms(5000)))
            .with_crash(s0, 0, ms(200), Some(ms(300)))
            .with_crash(s0, 1, ms(7000), None)
            .with_crash(s0, 1, ms(10_000), Some(ms(12_000)));
        assert_eq!(plan.validate(), Ok(()));
        // A nested crash is the outer window alone.
        assert_eq!(plan.downtime(s0, 0), Blackouts::new([(ms(100), ms(5000))]));
        // Permanent: down until the deadline; at the deadline: never.
        assert_eq!(
            plan.downtime(s0, 1),
            Blackouts::new([(ms(7000), ms(10_000))])
        );
        assert!(plan.downtime(s0, 2).expect("valid").is_empty());
        assert!(plan.downtime(ShardId::new(1), 0).expect("valid").is_empty());
    }

    #[test]
    fn permanent_crash_without_deadline_rejected() {
        let plan = FaultPlan::none().with_crash(ShardId::new(0), 0, ms(10), None);
        assert!(plan.validate().is_err());
        // With a deadline the same crash is fine.
        let ok = FaultPlan::with_deadline(ms(1000)).with_crash(ShardId::new(0), 0, ms(10), None);
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn bad_windows_and_recoveries_rejected() {
        let c = FaultPlan::none().with_crash(ShardId::new(0), 0, ms(10), Some(ms(10)));
        assert!(c.validate().is_err());
        let p = FaultPlan::none().with_partition(ShardId::new(0), ms(7), ms(7));
        assert!(p.validate().is_err());
    }
}
