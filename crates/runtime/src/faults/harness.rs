//! Running the contract-centric simulator under a fault plan.
//!
//! This harness sits *below* the epoch pipeline: it takes the same
//! [`ShardSpec`]s the pipeline's select stage produces and runs the same
//! `ContractShardDriver`s its unify stage builds (inside the one
//! cross-shard layer, [`SettlingShardDriver`]) — there is no second epoch
//! implementation here. Classification, formation, merging and
//! selection all happen upstream in `cshard_core::pipeline::EpochPipeline`
//! (leader faults go through the leader schedule,
//! `EpochManager::elect_skipping`, in `cshard_core::failover`); this
//! module only faults the block-production run.

use super::plan::{FaultAction, FaultPlan};
use super::report::{FaultReport, ShardFaultStats};
use crate::{
    Batch, MigrationStats, MigrationTicket, ProtocolDriver, RunReport, Runtime, RuntimeConfig,
    SettleStats, SettlingShardDriver, ShardSpec,
};
use cshard_primitives::{Error, ShardId, SimTime};
use std::collections::BTreeSet;

/// The cross-shard traffic riding on a faulted run: per-shard outbound
/// transfer tables and migration schedules, in spec order. Each list is
/// either empty (no shard has any — `Traffic::default()` is the plain
/// fault run) or holds exactly one entry per shard.
#[derive(Clone, Debug, Default)]
pub struct Traffic {
    /// `transfers[i]` lists shard `i`'s outbound transfers as
    /// `(local tx index, destination shard)`: each becomes eligible when
    /// its transaction confirms and ships inside a crosslink batch.
    pub transfers: Vec<Vec<(usize, ShardId)>>,
    /// `schedules[i]` lists shard `i`'s [`MigrationTicket`]s. Each apply
    /// drains the moving account's open settlement pairs, re-keys its
    /// unsubmitted transfers to the new home shard and books the move as
    /// one crosslink.
    pub schedules: Vec<Vec<MigrationTicket>>,
}

/// A faulted run: the ordinary run report plus what the faults, the
/// settlement layer and the migration schedule did.
#[derive(Clone, Debug)]
pub struct FaultRun {
    /// The standard run report — same fingerprinted surface as
    /// [`crate::simulate`].
    pub run: RunReport,
    /// What the injected faults did.
    pub faults: FaultReport,
    /// Settlement accounting folded over all shards.
    pub settle: SettleStats,
    /// Per shard (spec order): the batches it flushed, in flush order.
    pub batches: Vec<Vec<Batch>>,
    /// Migration accounting folded over all shards.
    pub migrations: MigrationStats,
    /// Per shard (spec order), per ticket (schedule order): when the
    /// ticket applied — the exactly-once surface the fault tests assert.
    pub applied: Vec<Vec<Option<SimTime>>>,
}

impl FaultRun {
    /// Fraction of transactions left unconfirmed (nonzero only when the
    /// plan deadline cut the run short).
    pub fn unconfirmed_fraction(&self) -> f64 {
        let txs: usize = self.run.shards.iter().map(|s| s.txs).sum();
        if txs == 0 {
            return 0.0;
        }
        let confirmed: usize = self.run.shards.iter().map(|s| s.confirmed).sum();
        (txs - confirmed) as f64 / txs as f64
    }
}

/// A per-shard traffic list as one slice per shard: an empty list means
/// no shard has any, anything else must hold exactly one entry per shard.
fn per_shard<'a, T>(
    field: &'static str,
    lists: &'a [Vec<T>],
    shards: usize,
) -> Result<Vec<&'a [T]>, Error> {
    if lists.is_empty() {
        return Ok(vec![&[]; shards]);
    }
    if lists.len() != shards {
        return Err(Error::Config {
            field,
            reason: format!(
                "one list per shard: got {} lists for {shards} shards",
                lists.len()
            ),
        });
    }
    Ok(lists.iter().map(Vec::as_slice).collect())
}

/// [`crate::simulate`] under a [`FaultPlan`], with `traffic`'s
/// cross-shard transfers and migrations riding on it.
///
/// Builds one [`SettlingShardDriver`] per spec (a shard's partitions
/// unioned onto its own propagation blackouts, crashed miners given their
/// [`FaultPlan::downtime`]), runs the standard two-phase harness with the
/// plan deadline as its horizon, and reads the fault, settlement and
/// migration accounting back out of the drivers and the plan.
///
/// Partition windows from the plan black out a `(source, dest)` pair while
/// *either* endpoint is partitioned — the source cannot send, the
/// destination cannot receive. Overlapping partitions act as their union,
/// in propagation and settlement alike. A settlement flush or a migration
/// apply falling inside a blackout defers to the heal and completes
/// exactly once there, which [`FaultRun::batches`] and
/// [`FaultRun::applied`] let callers assert transfer-for-transfer and
/// ticket-for-ticket.
///
/// Errors on an invalid plan or config, on a crash of a shard the run does
/// not have or of a miner its shard's spec does not have (`Error::Config`
/// naming `"plan"`), on a minerless spec (`Error::NoMiners`), on a
/// traffic list that is neither empty nor one-per-shard, and on a
/// transfer or ticket pointing outside its shard's tables or transfers on
/// an equilibrium shard (`Error::Config` naming `"transfers"` /
/// `"schedules"`).
///
/// Determinism: the result is a pure function of `(shards, traffic,
/// config, plan)` — bit-identical at any `config.scheduler`, with all
/// randomness keyed by `config.seed` (a plan draws none). Under
/// `FaultPlan::none()` and no traffic the report fingerprint equals the
/// unwrapped `simulate`'s exactly.
pub fn run_with_faults(
    shards: &[ShardSpec],
    traffic: &Traffic,
    config: &RuntimeConfig,
    plan: &FaultPlan,
) -> Result<FaultRun, Error> {
    plan.validate()?;
    config.validate()?;
    let transfers = per_shard("transfers", &traffic.transfers, shards.len())?;
    let schedules = per_shard("schedules", &traffic.schedules, shards.len())?;
    for action in &plan.actions {
        let FaultAction::CrashMiner { shard, miner, .. } = *action else {
            continue;
        };
        if !shards.iter().any(|s| s.shard == shard && miner < s.miners) {
            return Err(Error::Config {
                field: "plan",
                reason: format!("crash of miner {miner} on {shard}, which the run does not have"),
            });
        }
    }
    let mut drivers = Vec::with_capacity(shards.len());
    let mut downtimes = Vec::with_capacity(shards.len());
    for (i, spec) in shards.iter().enumerate() {
        let (outbound, schedule) = (transfers[i], schedules[i]);
        let own = plan.blackouts(spec.shard)?;
        let shard_config = RuntimeConfig {
            propagation: config.propagation.with_blackouts(&own),
            ..config.clone()
        };
        let mut driver = SettlingShardDriver::new(spec, &shard_config, outbound.to_vec())?
            .with_migrations(schedule.to_vec())?;
        let dests: BTreeSet<ShardId> = outbound
            .iter()
            .map(|&(_, d)| d)
            .chain(schedule.iter().map(|t| t.to))
            .collect();
        for dest in dests {
            driver.set_blackouts(dest, own.union(&plan.blackouts(dest)?));
        }
        let mut down = Vec::new();
        for miner in 0..spec.miners {
            let table = plan.downtime(spec.shard, miner)?;
            if !table.is_empty() {
                down.extend_from_slice(table.windows());
                driver.set_downtime(miner, table)?;
            }
        }
        drivers.push(driver);
        downtimes.push(down);
    }
    let outcome = Runtime::builder()
        .scheduler(config.scheduler)
        .horizon(plan.deadline)
        .run(drivers)?;
    let completion = outcome.report.completion;
    let mut run = FaultRun {
        run: outcome.report,
        faults: FaultReport { shards: Vec::new() },
        settle: outcome.settle,
        batches: Vec::new(),
        migrations: MigrationStats::default(),
        applied: Vec::new(),
    };
    for ((driver, spec), mut down) in outcome.drivers.into_iter().zip(shards).zip(downtimes) {
        // A shard's end: the run's completion, or the deadline that cut it
        // short. Only the part of a crash window before it happened.
        let timed_out = !driver.done();
        let end = match plan.deadline {
            Some(deadline) if timed_out => deadline,
            _ => completion,
        };
        down.sort_by_key(|&(_, until)| until);
        let healed: Vec<SimTime> = down
            .iter()
            .filter(|&&(_, until)| until < end)
            .map(|&(from, until)| until.saturating_since(from))
            .collect();
        run.faults.shards.push(ShardFaultStats {
            shard: spec.shard,
            suppressed_blocks: driver.suppressed_ticks(),
            crashes: down.iter().filter(|&&(from, _)| from < end).count(),
            recoveries: healed.len(),
            recovery_latencies: healed,
            timed_out,
        });
        run.batches.push(driver.settled_batches().to_vec());
        run.migrations = run.migrations.merge(&driver.migration_stats());
        run.applied.push(driver.applied_at().to_vec());
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, PropagationModel, SchedulerConfig, SelectionStrategy, SettleConfig};
    use cshard_network::{Blackouts, LatencyModel};

    fn specs() -> Vec<ShardSpec> {
        (0..4u32)
            .map(|i| ShardSpec {
                shard: ShardId::new(i),
                fees: (1..=50u64 + i as u64).collect(),
                miners: 1,
                strategy: SelectionStrategy::IdenticalGreedy,
            })
            .collect()
    }

    fn config(seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        }
    }

    fn settled_config(seed: u64, cap: usize, threads: usize) -> RuntimeConfig {
        RuntimeConfig {
            settle: SettleConfig::batched(cap),
            scheduler: SchedulerConfig::new(threads),
            ..config(seed)
        }
    }

    /// Two shards; shard 0 sends one transfer per tx to shard 1.
    fn settled_fixture() -> (Vec<ShardSpec>, Traffic) {
        let shards = vec![
            ShardSpec::solo_greedy(ShardId::new(0), (1..=50u64).collect()),
            ShardSpec::solo_greedy(ShardId::new(1), (1..=40u64).collect()),
        ];
        let traffic = Traffic {
            transfers: vec![
                (0..50).map(|tx| (tx, ShardId::new(1))).collect(),
                Vec::new(),
            ],
            schedules: Vec::new(),
        };
        (shards, traffic)
    }

    /// The settled fixture plus one ticket on shard 0: the account owning
    /// transfer slots 0..10 moves to shard 1 at t = 60 s.
    fn migrated_fixture() -> (Vec<ShardSpec>, Traffic) {
        let (shards, mut traffic) = settled_fixture();
        traffic.schedules = vec![
            vec![MigrationTicket {
                account: 7,
                from: ShardId::new(0),
                to: ShardId::new(1),
                at: SimTime::from_secs(60),
                transfers: (0..10).collect(),
            }],
            Vec::new(),
        ];
        (shards, traffic)
    }

    /// Partition shard 1 over `[30 s, 400 s)` and crash `shard`'s only
    /// miner over `[60 s, 300 s)`, which holds a tick of shard 1's miner at
    /// seed 23.
    fn partition_and_crash(shard: u32) -> FaultPlan {
        FaultPlan::none()
            .with_partition(
                ShardId::new(1),
                SimTime::from_secs(30),
                SimTime::from_secs(400),
            )
            .with_crash(
                ShardId::new(shard),
                0,
                SimTime::from_secs(60),
                Some(SimTime::from_secs(300)),
            )
    }

    /// Every observable of two runs agrees.
    fn assert_same_run(a: &FaultRun, b: &FaultRun, label: &str) {
        assert_eq!(a.run.fingerprint(), b.run.fingerprint(), "{label}");
        assert_eq!(a.faults, b.faults, "{label}");
        assert_eq!(a.settle, b.settle, "{label}");
        assert_eq!(a.batches, b.batches, "{label}");
        assert_eq!(a.migrations, b.migrations, "{label}");
        assert_eq!(a.applied, b.applied, "{label}");
    }

    /// Shard 0's settled transfer slots, sorted.
    fn settled_slots(run: &FaultRun) -> Vec<u64> {
        let mut slots: Vec<u64> = run.batches[0]
            .iter()
            .flat_map(|b| b.transfers.iter().copied())
            .collect();
        slots.sort_unstable();
        slots
    }

    #[test]
    fn degenerate_axes_are_transparent() {
        // No traffic, no faults: the plain simulator.
        let cfg = config(42);
        let plain = simulate(&specs(), &cfg).expect("valid");
        let faulted = run_with_faults(&specs(), &Traffic::default(), &cfg, &FaultPlan::none())
            .expect("valid");
        assert_eq!(faulted.run.fingerprint(), plain.fingerprint());
        assert!(faulted.faults.is_clean());
        assert_eq!(faulted.unconfirmed_fraction(), 0.0);
        assert!(faulted.settle.is_empty());

        // Transfers, no faults: the bare settling driver on the plain
        // harness.
        let (shards, traffic) = settled_fixture();
        let cfg = settled_config(23, 10, 1);
        let faulted = run_with_faults(&shards, &traffic, &cfg, &FaultPlan::none()).expect("valid");
        assert!(faulted.faults.is_clean());
        assert_eq!(faulted.settle.txs_settled, 50);
        let bare: Vec<SettlingShardDriver> = shards
            .iter()
            .zip(&traffic.transfers)
            .map(|(spec, t)| SettlingShardDriver::new(spec, &cfg, t.clone()).expect("valid"))
            .collect();
        let bare = Runtime::builder().run(bare).expect("valid");
        assert_eq!(faulted.run.fingerprint(), bare.report.fingerprint());
        assert_eq!(faulted.settle, bare.settle);

        // Explicitly empty schedules, under a partition: the same run as
        // no schedules at all.
        let plan = FaultPlan::none().with_partition(
            ShardId::new(1),
            SimTime::from_secs(30),
            SimTime::from_secs(400),
        );
        let settled = run_with_faults(&shards, &traffic, &cfg, &plan).expect("valid");
        let unscheduled = Traffic {
            schedules: vec![Vec::new(), Vec::new()],
            ..traffic
        };
        let migrated = run_with_faults(&shards, &unscheduled, &cfg, &plan).expect("valid");
        assert_same_run(&migrated, &settled, "empty schedules");
        assert_eq!(migrated.migrations, MigrationStats::default());
    }

    #[test]
    fn invalid_plans_and_configs_are_rejected() {
        let none = Traffic::default();
        let zero_cap = RuntimeConfig {
            block_capacity: 0,
            ..config(1)
        };
        assert!(run_with_faults(&specs(), &none, &zero_cap, &FaultPlan::none()).is_err());
    }

    /// A crash naming a miner its shard does not have is a plan error
    /// before any driver runs (its recovery tick used to index past the
    /// shard's miner streams), and so is a crash of a shard the run does
    /// not have (it used to be ignored, reporting no crash at all).
    #[test]
    fn crash_of_a_ghost_miner_is_rejected() {
        let crash = |shard: u32, miner: usize| {
            FaultPlan::with_deadline(SimTime::from_secs(100_000)).with_crash(
                ShardId::new(shard),
                miner,
                SimTime::from_secs(10),
                Some(SimTime::from_secs(20)),
            )
        };
        for (label, plan) in [
            ("shard 0 has one miner", crash(0, 5)),
            ("the run has no shard 7", crash(7, 0)),
        ] {
            let err =
                run_with_faults(&specs(), &Traffic::default(), &config(1), &plan).expect_err(label);
            assert!(
                matches!(err, Error::Config { field: "plan", .. }),
                "{label}: got {err:?}"
            );
        }
    }

    #[test]
    fn malformed_traffic_is_a_typed_error() {
        let (shards, good) = migrated_fixture();
        let ticket = |slot: usize| MigrationTicket {
            transfers: vec![slot],
            ..good.schedules[0][0].clone()
        };
        let cases: [(&str, &str, Traffic); 4] = [
            (
                "one transfer list for two shards",
                "transfers",
                Traffic {
                    transfers: vec![Vec::new()],
                    ..Traffic::default()
                },
            ),
            (
                "one schedule for two shards",
                "schedules",
                Traffic {
                    schedules: vec![Vec::new()],
                    ..good.clone()
                },
            ),
            // The next two panicked inside the driver constructors before
            // the harness validated caller-supplied tables.
            (
                "transfer of a tx the shard does not have",
                "transfers",
                Traffic {
                    transfers: vec![vec![(50, ShardId::new(1))], Vec::new()],
                    ..Traffic::default()
                },
            ),
            (
                "ticket owning a slot outside the transfer table",
                "schedules",
                Traffic {
                    schedules: vec![vec![ticket(50)], Vec::new()],
                    ..good.clone()
                },
            ),
        ];
        for (label, want, traffic) in &cases {
            let err = run_with_faults(
                &shards,
                traffic,
                &settled_config(1, 10, 1),
                &FaultPlan::none(),
            )
            .expect_err(label);
            assert!(
                matches!(err, Error::Config { field, .. } if field == *want),
                "{label}: got {err:?}"
            );
        }
    }

    #[test]
    fn partition_stretches_completion_of_the_partitioned_shard() {
        // A multi-miner shard under latency propagation: partitioning it
        // for a long span defers deliveries and delays completion.
        let spec = vec![ShardSpec {
            shard: ShardId::new(0),
            fees: (1..=120u64).collect(),
            miners: 3,
            strategy: SelectionStrategy::IdenticalGreedy,
        }];
        let cfg = RuntimeConfig {
            propagation: PropagationModel::Network {
                latency: LatencyModel::wide_area(),
                blackouts: Blackouts::default(),
            },
            ..config(9)
        };
        let none = Traffic::default();
        let healthy = run_with_faults(&spec, &none, &cfg, &FaultPlan::none()).expect("valid");
        let plan = FaultPlan::none().with_partition(
            ShardId::new(0),
            SimTime::from_secs(60),
            SimTime::from_secs(4000),
        );
        let parted = run_with_faults(&spec, &none, &cfg, &plan).expect("valid");
        assert!(
            parted.run.completion > healthy.run.completion,
            "partition did not slow the shard: {} vs {}",
            parted.run.completion,
            healthy.run.completion
        );
        // Both still confirm everything (the partition heals).
        assert_eq!(parted.unconfirmed_fraction(), 0.0);
    }

    /// Overlapping partitions of one shard are one blackout, their union,
    /// in propagation and settlement alike (propagation used to reject
    /// them as overlapping windows).
    #[test]
    fn overlapping_partitions_run_as_their_union() {
        let (shards, traffic) = settled_fixture();
        let shards: Vec<ShardSpec> = shards
            .into_iter()
            .map(|s| ShardSpec { miners: 3, ..s })
            .collect();
        let cfg = settled_config(23, 10, 1);
        let s = SimTime::from_secs;
        let split = FaultPlan::none()
            .with_partition(ShardId::new(0), s(62), s(80))
            .with_partition(ShardId::new(0), s(70), s(100));
        let union = FaultPlan::none().with_partition(ShardId::new(0), s(62), s(100));
        let a = run_with_faults(&shards, &traffic, &cfg, &split).expect("overlaps are legal");
        let b = run_with_faults(&shards, &traffic, &cfg, &union).expect("valid");
        assert_eq!(a.run.fingerprint(), b.run.fingerprint());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.batches, b.batches);
        // The blackout acted: a batch held through it ships at the heal.
        assert!(a.batches[0].iter().any(|batch| batch.at == s(100)));
    }

    #[test]
    fn mid_partition_work_defers_and_completes_exactly_once_on_heal() {
        // Black out the destination across the whole mining span: every
        // flush deadline and the migration apply fire inside the
        // partition and must defer to the heal.
        let heal = SimTime::from_secs(20_000);
        let plan = FaultPlan::none().with_partition(ShardId::new(1), SimTime::ZERO, heal);
        for (label, (shards, traffic)) in [
            ("settlement", settled_fixture()),
            ("settlement + migration", migrated_fixture()),
        ] {
            let cfg = settled_config(23, 100, 1);
            let out = run_with_faults(&shards, &traffic, &cfg, &plan).expect("valid");
            assert!(
                out.settle.deferred_flushes >= 1,
                "{label}: every deadline fired mid-partition: {:?}",
                out.settle
            );
            // Exactly once: each transfer slot appears in exactly one
            // batch, and never inside the blackout.
            assert_eq!(
                settled_slots(&out),
                (0..50).collect::<Vec<u64>>(),
                "{label}"
            );
            for b in &out.batches[0] {
                assert!(
                    b.at >= heal,
                    "{label}: batch flushed mid-partition at {}",
                    b.at
                );
            }
            assert!(out.batches[1].is_empty(), "{label}");
            assert_eq!(out.settle.txs_settled, 50, "{label}");
            // Every ticket applies exactly once, at the heal.
            let tickets = traffic.schedules.first().map_or(0, Vec::len);
            assert_eq!(out.migrations.scheduled, tickets as u64, "{label}");
            assert_eq!(
                out.migrations.applied, tickets as u64,
                "{label}: exactly once"
            );
            assert!(
                out.migrations.deferred >= tickets as u64,
                "{label}: {:?}",
                out.migrations
            );
            assert_eq!(out.applied[0], vec![Some(heal); tickets], "{label}");
        }
    }

    #[test]
    fn faulted_runs_are_thread_count_invariant() {
        for (label, (shards, traffic), cap) in [
            ("settlement", settled_fixture(), 10),
            ("settlement + migration", migrated_fixture(), 10),
        ] {
            let plan = partition_and_crash(1);
            let run_at = |threads| {
                run_with_faults(&shards, &traffic, &settled_config(23, cap, threads), &plan)
                    .expect("valid")
            };
            let base = run_at(1);
            assert!(base.faults.total_suppressed() > 0, "{label}");
            for threads in [4, 0] {
                assert_same_run(&base, &run_at(threads), label);
            }
        }
    }

    #[test]
    fn crash_partition_settlement_and_migration_compose() {
        // Everything at once: the source shard's only miner crashes and
        // recovers, the destination is partitioned across the ticket's
        // apply time, transfers batch at cap 10.
        let (shards, traffic) = migrated_fixture();
        let plan = partition_and_crash(0);
        let run_at = |threads| {
            run_with_faults(&shards, &traffic, &settled_config(23, 10, threads), &plan)
                .expect("valid")
        };
        let base = run_at(1);
        assert_eq!(base.faults.total_crashes(), 1);
        assert_eq!(base.faults.total_recoveries(), 1);
        assert_eq!(base.unconfirmed_fraction(), 0.0);
        assert_eq!(settled_slots(&base), (0..50).collect::<Vec<u64>>());
        assert_eq!(base.migrations.applied, 1, "exactly once");
        assert_eq!(
            base.applied,
            vec![vec![Some(SimTime::from_secs(400))], Vec::new()],
            "the ticket applies at the heal"
        );
        for threads in [4, 0] {
            assert_same_run(&base, &run_at(threads), "composition");
        }
    }

    /// The migrated fixture with `miners` miners per shard under `plan`.
    fn staffed_run(miners: usize, plan: &FaultPlan) -> FaultRun {
        let (shards, traffic) = migrated_fixture();
        let shards: Vec<ShardSpec> = shards
            .into_iter()
            .map(|s| ShardSpec { miners, ..s })
            .collect();
        run_with_faults(&shards, &traffic, &settled_config(23, 10, 1), plan).expect("valid")
    }

    /// One solo greedy shard under `plan`, beside its fault-free run.
    fn solo_run(txs: u64, seed: u64, plan: &FaultPlan) -> (FaultRun, RunReport) {
        plan.validate().expect("valid plan");
        let specs = [ShardSpec::solo_greedy(ShardId::new(0), (1..=txs).collect())];
        let cfg = config(seed);
        let run = run_with_faults(&specs, &Traffic::default(), &cfg, plan).expect("no stall");
        (run, simulate(&specs, &cfg).expect("valid"))
    }

    #[test]
    fn permanent_crash_of_the_only_miner_times_out() {
        let s = SimTime::from_secs;
        let plan = FaultPlan::with_deadline(s(600)).with_crash(ShardId::new(0), 0, s(120), None);
        let (out, _) = solo_run(500, 3, &plan);
        let stats = &out.faults.shards[0];
        assert_eq!(stats.crashes, 1);
        assert!(stats.timed_out, "run must end at the deadline");
        assert!(stats.suppressed_blocks >= 1, "the first dead tick");
        // Not everything confirmed: the only miner died mid-run.
        assert!(out.run.shards[0].confirmed < out.run.shards[0].txs);
    }

    #[test]
    fn crash_and_recovery_resumes_and_finishes() {
        let (crash_at, recover_at) = (SimTime::from_secs(300), SimTime::from_secs(1500));
        let plan = FaultPlan::none().with_crash(ShardId::new(0), 0, crash_at, Some(recover_at));
        let (out, plain) = solo_run(200, 5, &plan);
        let stats = &out.faults.shards[0];
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(
            stats.recovery_latencies,
            vec![recover_at.saturating_since(crash_at)]
        );
        assert!(!stats.timed_out);
        // The shard still finishes — later than the fault-free run.
        assert_eq!(out.run.shards[0].confirmed, out.run.shards[0].txs);
        assert!(out.run.completion > plain.completion);
    }

    /// A crash window that holds no tick of its miner changes nothing: the
    /// miner's one Poisson process runs on. (The event-intercepting
    /// wrapper re-injected a tick at every recovery, so the miner ran two
    /// processes, at twice its rate.)
    #[test]
    fn a_crash_window_holding_no_tick_changes_nothing() {
        let ms = SimTime::from_millis;
        let plan = FaultPlan::none().with_crash(ShardId::new(0), 0, ms(1000), Some(ms(1001)));
        let (clean, crashed) = (staffed_run(1, &FaultPlan::none()), staffed_run(1, &plan));
        assert_eq!(crashed.faults.total_suppressed(), 0);
        assert_eq!(crashed.run.fingerprint(), clean.run.fingerprint());
        assert_eq!(crashed.batches, clean.batches);
        assert_eq!(crashed.applied, clean.applied);
        // The window still opened and healed inside the run.
        assert_eq!(crashed.faults.total_crashes(), 1);
        assert_eq!(crashed.faults.total_recoveries(), 1);
    }

    /// A crash window nested inside another is the outer window alone: a
    /// miner's crashes act as their union. (The wrapper kept one crash per
    /// miner, so the inner recovery brought the miner back early.)
    #[test]
    fn a_nested_crash_window_equals_the_outer_one() {
        let s = SimTime::from_secs;
        let outer = FaultPlan::none().with_crash(ShardId::new(0), 0, s(100), Some(s(5000)));
        let nested = outer
            .clone()
            .with_crash(ShardId::new(0), 0, s(200), Some(s(300)));
        let run = staffed_run(2, &outer);
        assert_same_run(&staffed_run(2, &nested), &run, "nested crash");
        assert!(run.faults.total_suppressed() > 0, "the outer window acted");
    }

    /// A crash and recovery placed after the run's completion never
    /// happen: the run is the fault-free one and the report is clean.
    #[test]
    fn a_crash_after_completion_changes_nothing() {
        let clean = staffed_run(2, &FaultPlan::none());
        let end = clean.run.completion;
        let after = |secs| end.saturating_add(SimTime::from_secs(secs));
        let plan = FaultPlan::none().with_crash(ShardId::new(0), 1, after(1), Some(after(2)));
        let late = staffed_run(2, &plan);
        assert!(late.faults.is_clean());
        assert_same_run(&late, &clean, "crash after completion");
    }

    /// A partition placed after the run's completion never happens either:
    /// each shard keeps its own conflict window. (The harness used to move
    /// a partitioned `Window` shard onto instant links for the whole run.)
    #[test]
    fn a_partition_after_completion_changes_nothing() {
        let (mut shards, traffic) = settled_fixture();
        shards[0].miners = 3;
        shards[1].miners = 4;
        shards[1].strategy = SelectionStrategy::Equilibrium { max_rounds: 64 };
        let run = |plan: &FaultPlan| {
            run_with_faults(&shards, &traffic, &settled_config(23, 10, 1), plan).expect("valid")
        };
        let clean = run(&FaultPlan::none());
        let end = clean.run.completion;
        let after = |secs| end.saturating_add(SimTime::from_secs(secs));
        let plan = FaultPlan::none()
            .with_partition(ShardId::new(0), after(1), after(2))
            .with_partition(ShardId::new(1), after(1), after(2));
        let late = run(&plan);
        assert_eq!(late.run.fingerprint(), clean.run.fingerprint());
        assert_eq!(late.faults, clean.faults);
        assert_eq!(late.batches, clean.batches);
    }

    /// A plan is a set: the order of its actions changes nothing, with
    /// overlapping and touching crashes, partitions and a deadline present.
    #[test]
    fn permuting_a_plans_actions_changes_nothing() {
        let s = SimTime::from_secs;
        let (s0, s1) = (ShardId::new(0), ShardId::new(1));
        let plan = FaultPlan::with_deadline(s(100_000))
            .with_partition(s1, s(30), s(400))
            .with_crash(s0, 0, s(60), Some(s(120)))
            .with_crash(s0, 1, s(100), Some(s(200)))
            .with_crash(s0, 1, s(150), Some(s(300)))
            .with_crash(s1, 0, s(10), Some(s(50)))
            .with_crash(s1, 0, s(50), Some(s(80)))
            .with_partition(s0, s(20), s(40));
        let base = staffed_run(2, &plan);
        assert!(base.faults.total_suppressed() > 0, "the crashes acted");
        let (mut reversed, mut rotated) = (plan.clone(), plan);
        reversed.actions.reverse();
        rotated.actions.rotate_left(3);
        assert_same_run(&staffed_run(2, &reversed), &base, "reversed");
        assert_same_run(&staffed_run(2, &rotated), &base, "rotated");
    }

    #[test]
    fn faulted_runs_are_reproducible_functions_of_plan_and_seed() {
        let cfg = config(17);
        let plan = FaultPlan::with_deadline(SimTime::from_secs(100_000))
            .with_crash(
                ShardId::new(1),
                0,
                SimTime::from_secs(120),
                Some(SimTime::from_secs(600)),
            )
            .with_partition(
                ShardId::new(2),
                SimTime::from_secs(60),
                SimTime::from_secs(300),
            );
        let none = Traffic::default();
        let a = run_with_faults(&specs(), &none, &cfg, &plan).expect("valid");
        let b = run_with_faults(&specs(), &none, &cfg, &plan).expect("valid");
        assert_eq!(a.run.fingerprint(), b.run.fingerprint());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.faults.total_crashes(), 1);
        assert_eq!(a.faults.total_recoveries(), 1);
    }
}
