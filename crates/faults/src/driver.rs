//! The fault-injecting driver wrapper.
//!
//! [`FaultyDriver`] sits between the harness and any
//! [`ProtocolDriver`], executing a [`FaultPlan`] by intercepting the
//! event stream:
//!
//! * plan control points (crashes, recoveries, the deadline) are
//!   scheduled in `on_start` as [`Event::Fault`] events and consumed by
//!   the wrapper — the inner driver never sees them;
//! * [`Event::BlockFound`] ticks of a crashed miner are suppressed, which
//!   also kills the miner's self-rescheduling chain; on recovery the
//!   wrapper re-injects the tick and the chain resumes.
//!
//! With an empty plan the wrapper schedules nothing, intercepts nothing,
//! and forwards everything — a run under `FaultPlan::none()` is
//! bit-identical to the unwrapped driver, which the chaos suite asserts
//! against all twelve golden experiment JSONs.

use crate::plan::{FaultAction, FaultPlan};
use crate::report::ShardFaultStats;
use cshard_primitives::{Error, ShardId, SimTime};
use cshard_runtime::{Ctx, Event, ProtocolDriver, SettleStats, ShardReport};
use std::collections::BTreeMap;
use std::time::Duration;

/// A wrapper-scoped control point, scheduled as [`Event::Fault`].
#[derive(Clone, Copy, Debug)]
enum Control {
    Crash { miner: usize },
    Recover { miner: usize },
    Deadline,
}

/// A [`ProtocolDriver`] executing a [`FaultPlan`] around an inner driver.
pub struct FaultyDriver<D> {
    inner: D,
    /// `(time, control)` pairs scheduled in `on_start`; the `Fault`
    /// event's `action` field indexes this list.
    controls: Vec<(SimTime, Control)>,
    /// Crash state per miner index (sparse — only ever-crashed miners).
    crashed: BTreeMap<usize, SimTime>,
    stats: ShardFaultStats,
    timed_out: bool,
}

impl<D: ProtocolDriver> FaultyDriver<D> {
    /// Wraps `inner` (driving `shard`) under `plan`. Only the plan's
    /// crashes of `shard`'s miners apply; partitions are the harness's job
    /// (they rewrite the propagation model before the driver is even
    /// built). The plan deadline, when set, is scheduled in every wrapper
    /// so a stall anywhere ends the run.
    pub fn new(inner: D, shard: ShardId, plan: &FaultPlan) -> Self {
        let mut controls = Vec::new();
        for action in &plan.actions {
            match *action {
                FaultAction::CrashMiner {
                    shard: s,
                    miner,
                    at,
                    recover_at,
                } if s == shard => {
                    controls.push((at, Control::Crash { miner }));
                    if let Some(r) = recover_at {
                        controls.push((r, Control::Recover { miner }));
                    }
                }
                _ => {}
            }
        }
        if let Some(deadline) = plan.deadline {
            controls.push((deadline, Control::Deadline));
        }
        FaultyDriver {
            inner,
            controls,
            crashed: BTreeMap::new(),
            stats: ShardFaultStats::new(shard),
            timed_out: false,
        }
    }

    /// The fault accounting this wrapper accumulated.
    pub fn stats(&self) -> &ShardFaultStats {
        &self.stats
    }

    /// Consumes the wrapper, returning the stats and the inner driver.
    pub fn into_parts(self) -> (ShardFaultStats, D) {
        (self.stats, self.inner)
    }

    fn apply_control(&mut self, now: SimTime, control: Control, ctx: &mut Ctx) {
        match control {
            Control::Crash { miner } => {
                self.stats.crashes += 1;
                self.crashed.insert(miner, now);
            }
            Control::Recover { miner } => {
                if let Some(crashed_at) = self.crashed.remove(&miner) {
                    self.stats.recoveries += 1;
                    self.stats
                        .recovery_latencies
                        .push(now.saturating_since(crashed_at));
                    // The suppressed tick killed the miner's chain;
                    // restart it at the recovery instant.
                    ctx.schedule_in(SimTime::ZERO, Event::BlockFound { miner });
                }
            }
            Control::Deadline => {
                if !self.inner.done() {
                    self.timed_out = true;
                    self.stats.timed_out = true;
                }
            }
        }
    }
}

impl<D: ProtocolDriver> ProtocolDriver for FaultyDriver<D> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
        for (i, &(at, _)) in self.controls.iter().enumerate() {
            ctx.schedule(at, Event::Fault { action: i });
        }
    }

    fn on_event(&mut self, now: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
        match ev {
            Event::Fault { action } => {
                let Some(&(_, control)) = self.controls.get(action) else {
                    return Err(Error::UnexpectedEvent {
                        driver: "FaultyDriver",
                        event: format!("Fault {{ action: {action} }} outside the control table"),
                    });
                };
                self.apply_control(now, control, ctx);
                Ok(())
            }
            Event::BlockFound { miner } if self.crashed.contains_key(&miner) => {
                // The miner is down: swallow the tick. Not forwarding it
                // also means the inner driver never reschedules the next
                // one — the chain stays dead until a Recover control.
                self.stats.suppressed_blocks += 1;
                Ok(())
            }
            other => self.inner.on_event(now, other, ctx),
        }
    }

    fn done(&self) -> bool {
        self.inner.done() || self.timed_out
    }

    fn completion(&self) -> Option<SimTime> {
        self.inner.completion()
    }

    fn report(&self, events: usize, wall: Duration) -> ShardReport {
        // The inner driver reports; under a non-empty plan `events`
        // includes the wrapper's control events (diagnostic only).
        self.inner.report(events, wall)
    }

    fn settle_stats(&self) -> Option<SettleStats> {
        // Settlement accounting lives in the inner driver (the wrapper
        // forwards `SettlementFlush` events like any foreign event).
        self.inner.settle_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_runtime::{simulate, ContractShardDriver, Runtime, RuntimeConfig, ShardSpec};

    fn spec(shard: u32, txs: usize, miners: usize) -> ShardSpec {
        ShardSpec {
            shard: ShardId::new(shard),
            fees: (1..=txs as u64).collect(),
            miners,
            strategy: cshard_runtime::SelectionStrategy::IdenticalGreedy,
        }
    }

    fn config(seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn empty_plan_is_bit_transparent() {
        let specs = vec![spec(0, 60, 1), spec(1, 40, 1)];
        let cfg = config(11);
        let plain = simulate(&specs, &cfg).expect("valid");
        let wrapped: Vec<FaultyDriver<ContractShardDriver>> = specs
            .iter()
            .map(|s| {
                FaultyDriver::new(
                    ContractShardDriver::new(s, &cfg).expect("valid test spec"),
                    s.shard,
                    &FaultPlan::none(),
                )
            })
            .collect();
        let outcome = Runtime::builder().run(wrapped).expect("valid");
        let (report, drivers) = (outcome.report, outcome.drivers);
        assert_eq!(report.fingerprint(), plain.fingerprint());
        assert!(drivers.iter().all(|d| !d.stats().any_faults()));
    }

    #[test]
    fn permanent_crash_of_the_only_miner_times_out() {
        let specs = [spec(0, 500, 1)];
        let cfg = config(3);
        let plan = FaultPlan::with_deadline(SimTime::from_secs(600)).with_crash(
            ShardId::new(0),
            0,
            SimTime::from_secs(120),
            None,
        );
        plan.validate().expect("valid plan");
        let wrapped = vec![FaultyDriver::new(
            ContractShardDriver::new(&specs[0], &cfg).expect("valid test spec"),
            specs[0].shard,
            &plan,
        )];
        let outcome = Runtime::builder().run(wrapped).expect("no stall");
        let (report, drivers) = (outcome.report, outcome.drivers);
        let stats = drivers[0].stats().clone();
        assert_eq!(stats.crashes, 1);
        assert!(stats.timed_out, "run must end at the deadline");
        assert!(stats.suppressed_blocks >= 1, "the first dead tick");
        // Not everything confirmed: the only miner died mid-run.
        assert!(report.shards[0].confirmed < report.shards[0].txs);
    }

    #[test]
    fn crash_and_recovery_resumes_and_finishes() {
        let specs = vec![spec(0, 200, 1)];
        let cfg = config(5);
        let crash_at = SimTime::from_secs(300);
        let recover_at = SimTime::from_secs(1500);
        let plan = FaultPlan::none().with_crash(ShardId::new(0), 0, crash_at, Some(recover_at));
        plan.validate().expect("valid plan");
        let wrapped = vec![FaultyDriver::new(
            ContractShardDriver::new(&specs[0], &cfg).expect("valid test spec"),
            specs[0].shard,
            &plan,
        )];
        let outcome = Runtime::builder().run(wrapped).expect("no stall");
        let (report, drivers) = (outcome.report, outcome.drivers);
        let stats = drivers[0].stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(
            stats.recovery_latencies,
            vec![recover_at.saturating_since(crash_at)]
        );
        assert!(!stats.timed_out);
        // The shard still finishes — later than the fault-free run.
        assert_eq!(report.shards[0].confirmed, report.shards[0].txs);
        let plain = simulate(&specs, &cfg).expect("valid");
        assert!(report.completion > plain.completion);
    }

    #[test]
    fn foreign_fault_event_is_rejected() {
        let s = spec(0, 10, 1);
        let cfg = config(1);
        let mut wrapped = FaultyDriver::new(
            ContractShardDriver::new(&s, &cfg).expect("valid test spec"),
            s.shard,
            &FaultPlan::none(),
        );
        let mut queue = cshard_sim_queue();
        let mut comm = cshard_network::CommStats::new();
        let mut ctx = Ctx::new(&mut queue, &mut comm);
        let err = wrapped
            .on_event(SimTime::ZERO, Event::Fault { action: 5 }, &mut ctx)
            .unwrap_err();
        assert!(matches!(
            err,
            Error::UnexpectedEvent {
                driver: "FaultyDriver",
                ..
            }
        ));
    }

    fn cshard_sim_queue() -> cshard_sim::EventQueue<Event> {
        cshard_sim::EventQueue::new()
    }
}
