//! The settling shard driver: batched cross-shard settlement and
//! scheduled hot-account migration layered on the contract-centric shard.
//!
//! [`SettlingShardDriver`] wraps a [`ContractShardDriver`] and attaches a
//! set of outbound cross-shard transfers to its local transactions. When
//! a transaction confirms, its transfers become eligible and are handed
//! to the shard's [`CrosslinkChannel`]; instead of one message per
//! transfer, the shard books one [`cshard_network::CommKind::Crosslink`]
//! per flushed batch. Flush deadlines are ordinary simulation events
//! ([`Event::SettlementFlush`]) on the shard's own queue — no wall clock,
//! no background thread — so batched runs remain bit-identical across
//! thread counts (ND001).
//!
//! Exactly-once settlement is the batcher's stale-deadline rule: a flush
//! event settles a batch only when its timestamp matches the recorded
//! deadline, so cap-flushes and blackout deferrals supersede older events
//! rather than double-settling. The driver's own contribution is the
//! eligibility scan, the one reader of Sec. II-B's fee order: a greedy
//! shard's first `k` confirmations are the first `k` of the stable (fee
//! desc, index asc) order, so a transfer is eligible once the confirmed
//! count passes its transaction's rank in it. An equilibrium shard
//! confirms no such prefix, so a transfer table over one is rejected.
//!
//! # Migration
//!
//! An account move is one more message on the same channel. A schedule of
//! [`MigrationTicket`]s ([`SettlingShardDriver::with_migrations`]) — the
//! placement engine's proposals, turned into simulated moves — names for
//! each account its old and new home shards and the outbound transfer
//! slots it owns; at the ticket's apply time an [`Event::Migration`]
//! fires and the driver runs the in-flight story in one atomic step:
//!
//! 1. **drain** — every open settlement pair holding one of the account's
//!    transfers is force-flushed, so nothing settles later under the
//!    account's stale routing;
//! 2. **re-key** — the account's not-yet-submitted transfers are re-keyed
//!    to the new home shard;
//! 3. **book** — the move itself ships one crosslink (state handoff), and
//!    the ticket is marked applied.
//!
//! A ticket obeys the deadline discipline flushes do, against the same
//! blackout table: a migration event applies its ticket only when its
//! timestamp matches the recorded deadline (anything else is stale), and
//! an apply landing inside a blackout of the pair toward the new home
//! re-arms at the batcher's `heal_time`.

use crate::contract::{ContractShardDriver, RuntimeConfig, SelectionStrategy, ShardSpec};
use crate::crosslink::CrosslinkChannel;
use crate::driver::{Ctx, ProtocolDriver};
use crate::event::Event;
use crate::report::ShardReport;
use cshard_network::{Blackouts, CommKind};
use cshard_primitives::{Error, ShardId, SimTime};
use cshard_settle::{Batch, SettleStats};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::time::Duration;

/// One scheduled hot-account move, as the runtime executes it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationTicket {
    /// Caller-scoped account tag (the bench maps addresses onto these);
    /// the runtime treats it as opaque.
    pub account: u64,
    /// The shard the account is leaving.
    pub from: ShardId,
    /// The account's new home shard.
    pub to: ShardId,
    /// Scheduled apply time (simulated).
    pub at: SimTime,
    /// Outbound transfer slots of the driver owned by this account — the
    /// ones to drain and re-key before the switch.
    pub transfers: Vec<usize>,
}

/// Migration accounting for one shard's run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Tickets scheduled at start.
    pub scheduled: u64,
    /// Tickets applied (each exactly once).
    pub applied: u64,
    /// Apply attempts deferred past a partition blackout.
    pub deferred: u64,
    /// Transfers force-flushed out of open pairs by applies.
    pub drained_transfers: u64,
    /// Unsubmitted transfers re-keyed to new home shards by applies.
    pub rekeyed_transfers: u64,
}

impl MigrationStats {
    /// Field-wise sum, for aggregating per-shard stats into a run total.
    pub fn merge(&self, other: &MigrationStats) -> MigrationStats {
        MigrationStats {
            scheduled: self.scheduled + other.scheduled,
            applied: self.applied + other.applied,
            deferred: self.deferred + other.deferred,
            drained_transfers: self.drained_transfers + other.drained_transfers,
            rekeyed_transfers: self.rekeyed_transfers + other.rekeyed_transfers,
        }
    }
}

/// One shard of the contract-centric scheme with batched cross-shard
/// settlement and scheduled hot-account migration. See the module docs
/// for the lifecycle.
pub struct SettlingShardDriver {
    inner: ContractShardDriver,
    channel: CrosslinkChannel,
    /// Outbound transfers: `(local tx index, destination shard)`. The
    /// slot index is the transfer id the batcher carries in its batches.
    transfers: Vec<(usize, ShardId)>,
    /// Each slot's transaction's place in the fee order.
    ranks: Vec<usize>,
    /// The confirmed count at the last scan; slots ranked below it are
    /// submitted.
    synced: usize,
    /// The migration schedule; `Event::Migration` slots index it.
    schedule: Vec<MigrationTicket>,
    /// The one live apply deadline per ticket (the ticket's own time until
    /// a deferral moves it, `None` once applied); an event applies its
    /// ticket only if its timestamp matches.
    deadlines: Vec<Option<SimTime>>,
    /// When each ticket applied (the fault tests read this).
    applied_at: Vec<Option<SimTime>>,
    migrations: MigrationStats,
}

impl SettlingShardDriver {
    /// Wraps one shard spec with outbound `transfers` under `config`
    /// (whose [`RuntimeConfig::settle`] governs batching; a disabled
    /// settle config degrades to one crosslink per transfer — the
    /// unbatched ledger the experiments use as baseline).
    ///
    /// Errors with [`Error::NoMiners`] when the spec assigns no miners,
    /// and (`field: "transfers"`) when a transfer references a
    /// transaction the shard does not have or the shard packs by
    /// equilibrium (see the module docs).
    pub fn new(
        spec: &ShardSpec,
        config: &RuntimeConfig,
        transfers: Vec<(usize, ShardId)>,
    ) -> Result<SettlingShardDriver, Error> {
        let inner = ContractShardDriver::new(spec, config)?;
        let (shard, txs) = (spec.shard, spec.fees.len());
        let bad = match (transfers.iter().find(|&&(tx, _)| tx >= txs), &spec.strategy) {
            (Some((tx, _)), _) => Some(format!(
                "transfer references tx {tx} outside shard {shard} ({txs} txs)"
            )),
            (None, SelectionStrategy::Equilibrium { .. }) if !transfers.is_empty() => Some(
                format!("shard {shard} packs by equilibrium, which follows no fee order"),
            ),
            _ => None,
        };
        if let Some(reason) = bad {
            return Err(Error::Config {
                field: "transfers",
                reason,
            });
        }
        let mut rank_of = Vec::new();
        if !transfers.is_empty() {
            // The stable sort breaks fee ties by index.
            let mut order: Vec<usize> = (0..txs).collect();
            order.sort_by_key(|&tx| Reverse(spec.fees[tx]));
            rank_of = vec![0; txs];
            for (rank, &tx) in order.iter().enumerate() {
                rank_of[tx] = rank;
            }
        }
        Ok(SettlingShardDriver {
            inner,
            channel: CrosslinkChannel::new(spec.shard, &config.settle),
            ranks: transfers.iter().map(|&(tx, _)| rank_of[tx]).collect(),
            synced: 0,
            transfers,
            schedule: Vec::new(),
            deadlines: Vec::new(),
            applied_at: Vec::new(),
            migrations: MigrationStats::default(),
        })
    }

    /// Attaches a migration `schedule` (replacing any earlier one).
    ///
    /// Errors (`field: "schedules"`) when a ticket references a transfer
    /// slot outside this driver's table.
    pub fn with_migrations(
        mut self,
        schedule: Vec<MigrationTicket>,
    ) -> Result<SettlingShardDriver, Error> {
        let slots = self.transfers.len();
        for (i, ticket) in schedule.iter().enumerate() {
            if let Some(slot) = ticket.transfers.iter().find(|&&s| s >= slots) {
                return Err(Error::Config {
                    field: "schedules",
                    reason: format!(
                        "migration ticket {i} references transfer slot {slot} outside the \
                         shard's table ({slots} slots)"
                    ),
                });
            }
        }
        self.deadlines = schedule.iter().map(|t| Some(t.at)).collect();
        self.applied_at = vec![None; schedule.len()];
        self.schedule = schedule;
        Ok(self)
    }

    /// Installs the blackout table for the pair toward `dest`; settlement
    /// flushes *and* migration applies falling inside a window defer to
    /// the heal.
    pub fn set_blackouts(&mut self, dest: ShardId, blackouts: Blackouts) {
        self.channel.set_blackouts(dest, blackouts);
    }

    /// Every batch settled so far, in flush order.
    pub fn settled_batches(&self) -> &[Batch] {
        self.channel.settled_batches()
    }

    /// The outbound transfer table, slot-indexed as the batch ids are.
    pub fn transfers(&self) -> &[(usize, ShardId)] {
        &self.transfers
    }

    /// The migration accounting so far.
    pub fn migration_stats(&self) -> MigrationStats {
        self.migrations
    }

    /// When each ticket applied (schedule order; `None` while pending).
    pub fn applied_at(&self) -> &[Option<SimTime>] {
        &self.applied_at
    }

    /// Submits every transfer whose transaction has confirmed since the
    /// last scan. Slot order makes submission order — and therefore batch
    /// contents — a pure function of the confirmation trajectory.
    fn sync(&mut self, now: SimTime, ctx: &mut Ctx) {
        let newly = self.synced..self.inner.confirmed_count();
        self.synced = newly.end;
        for (slot, rank) in self.ranks.iter().enumerate() {
            if newly.contains(rank) {
                self.channel
                    .submit(now, self.transfers[slot].1, slot as u64, ctx);
            }
        }
    }

    /// Executes ticket `slot` at `t`: drain, re-key, book, mark applied.
    fn apply(&mut self, slot: usize, t: SimTime, ctx: &mut Ctx) {
        let ticket = &self.schedule[slot];
        // Drain every open pair the account's transfers currently key to
        // (deterministic order; a pair may also carry other accounts'
        // transfers — an early flush, never a wrong one).
        let dests: BTreeSet<ShardId> = ticket
            .transfers
            .iter()
            .map(|&s| self.transfers[s].1)
            .collect();
        for dest in dests {
            self.migrations.drained_transfers += self.channel.drain(t, dest, ctx) as u64;
        }
        // Submitted transfers (ranked below the synced count) are already
        // in (or past) a batch and keep their key; the rest follow the
        // account.
        for &s in &ticket.transfers {
            if self.ranks[s] >= self.synced && self.transfers[s].1 != ticket.to {
                self.transfers[s].1 = ticket.to;
                self.migrations.rekeyed_transfers += 1;
            }
        }
        // The move itself: one cross-shard state handoff.
        ctx.comm().record(ticket.from, CommKind::Crosslink);
        self.applied_at[slot] = Some(t);
        self.deadlines[slot] = None;
        self.migrations.applied += 1;
    }
}

impl ProtocolDriver for SettlingShardDriver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
        for (slot, ticket) in self.schedule.iter().enumerate() {
            ctx.schedule(ticket.at, Event::Migration { slot });
            self.migrations.scheduled += 1;
        }
    }

    fn on_event(&mut self, t: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
        match ev {
            Event::SettlementFlush { dest } => self.channel.on_flush(t, dest, ctx),
            Event::Migration { slot } => {
                let Some(ticket) = self.schedule.get(slot) else {
                    return Err(Error::UnexpectedEvent {
                        driver: "SettlingShardDriver",
                        event: format!("Migration {{ slot: {slot} }} outside the schedule"),
                    });
                };
                if self.deadlines[slot] != Some(t) {
                    // Stale: already applied, or a deferral moved the
                    // deadline and superseded this event.
                } else if let Some(heal) = self.channel.batcher().heal_time(ticket.to, t) {
                    // Mid-partition: defer the whole apply to the heal,
                    // exactly like a settlement flush.
                    self.deadlines[slot] = Some(heal);
                    ctx.schedule(heal, Event::Migration { slot });
                    self.migrations.deferred += 1;
                } else {
                    self.apply(slot, t, ctx);
                }
            }
            other => {
                self.inner.on_event(t, other, ctx)?;
                self.sync(t, ctx);
            }
        }
        Ok(())
    }

    fn done(&self) -> bool {
        // Phase 1 must outlive the last flush and the last apply. Both
        // always hold an armed event (the deadline invariant), so waiting
        // on them never stalls the harness.
        self.inner.done()
            && self.channel.batcher().is_empty()
            && self.applied_at.iter().all(Option::is_some)
    }

    fn completion(&self) -> Option<SimTime> {
        self.inner.completion()
    }

    fn report(&self, events: usize, wall: Duration) -> ShardReport {
        self.inner.report(events, wall)
    }

    fn settle_stats(&self) -> Option<SettleStats> {
        Some(self.channel.batcher().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{RunOutcome, Runtime};
    use cshard_settle::SettleConfig;
    use cshard_sim::SchedulerConfig;

    fn spec(shard: u32, txs: usize) -> ShardSpec {
        ShardSpec::solo_greedy(ShardId::new(shard), (1..=txs as u64).collect())
    }

    fn config(seed: u64, settle: SettleConfig) -> RuntimeConfig {
        RuntimeConfig {
            seed,
            settle,
            ..RuntimeConfig::default()
        }
    }

    /// All transfers of shard 0 toward `dest`, one per tx.
    fn fan(txs: usize, dest: u32) -> Vec<(usize, ShardId)> {
        (0..txs).map(|tx| (tx, ShardId::new(dest))).collect()
    }

    fn ticket(at: SimTime, transfers: Vec<usize>) -> MigrationTicket {
        MigrationTicket {
            account: 7,
            from: ShardId::new(0),
            to: ShardId::new(9),
            at,
            transfers,
        }
    }

    /// A 30-tx shard 0 under `cfg` with `transfers` and `schedule`.
    fn driver(
        cfg: &RuntimeConfig,
        transfers: Vec<(usize, ShardId)>,
        schedule: Vec<MigrationTicket>,
    ) -> SettlingShardDriver {
        SettlingShardDriver::new(&spec(0, 30), cfg, transfers)
            .and_then(|d| d.with_migrations(schedule))
            .expect("well-formed tables")
    }

    /// Settlement only (seed 11, as the settlement cases were pinned).
    fn run(
        settle: SettleConfig,
        transfers: Vec<(usize, ShardId)>,
        threads: usize,
    ) -> RunOutcome<SettlingShardDriver> {
        let drivers = vec![driver(&config(11, settle), transfers, Vec::new())];
        Runtime::builder()
            .scheduler(SchedulerConfig::new(threads))
            .run(drivers)
            .expect("well-formed")
    }

    /// Cap-100 settlement of `fan(30, 1)` plus a migration `schedule`
    /// (seed 23, as the migration cases were pinned).
    fn run_migrating(
        schedule: Vec<MigrationTicket>,
        threads: usize,
    ) -> RunOutcome<SettlingShardDriver> {
        let cfg = config(23, SettleConfig::batched(100));
        Runtime::builder()
            .scheduler(SchedulerConfig::new(threads))
            .run(vec![driver(&cfg, fan(30, 1), schedule)])
            .expect("well-formed")
    }

    /// Every transfer slot settled, sorted.
    fn settled_slots(driver: &SettlingShardDriver) -> Vec<u64> {
        let mut seen: Vec<u64> = driver
            .settled_batches()
            .iter()
            .flat_map(|b| b.transfers.iter().copied())
            .collect();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn every_transfer_settles_exactly_once() {
        let outcome = run(SettleConfig::batched(8), fan(30, 1), 1);
        assert_eq!(
            settled_slots(&outcome.drivers[0]),
            (0..30).collect::<Vec<u64>>()
        );
        assert_eq!(outcome.settle.txs_settled, 30);
        assert!(!outcome.settle.is_empty());
    }

    #[test]
    fn batching_books_one_crosslink_per_flush_not_per_transfer() {
        let batched = run(SettleConfig::batched(10), fan(30, 1), 1);
        let unbatched = run(SettleConfig::disabled(), fan(30, 1), 1);
        let b_links = batched.comm.for_kind(CommKind::Crosslink);
        let u_links = unbatched.comm.for_kind(CommKind::Crosslink);
        assert_eq!(u_links, 30, "cap 1 is the per-transfer ledger");
        assert_eq!(b_links, batched.settle.batches);
        assert!(
            b_links * 5 <= u_links,
            "cap 10 must cut messages at least 5x (got {b_links} vs {u_links})"
        );
        // The underlying confirmation trajectory is untouched by batching
        // (events_processed differs — flush events — so compare the
        // mining-visible fields, not the whole fingerprint).
        assert_eq!(batched.report.completion, unbatched.report.completion);
        let (b, u) = (&batched.report.shards[0], &unbatched.report.shards[0]);
        assert_eq!(
            (b.confirmed, b.blocks, b.completion),
            (u.confirmed, u.blocks, u.completion)
        );
    }

    #[test]
    fn disabled_config_matches_cap_one_tx_for_tx() {
        let disabled = run(SettleConfig::disabled(), fan(30, 2), 1);
        let cap_one = run(SettleConfig::batched(1), fan(30, 2), 1);
        assert_eq!(
            disabled.drivers[0].settled_batches(),
            cap_one.drivers[0].settled_batches()
        );
        assert_eq!(disabled.settle, cap_one.settle);
    }

    #[test]
    fn thread_count_changes_neither_settlement_nor_migration() {
        let two_tickets = vec![
            ticket(SimTime::from_secs(1), (0..8).collect()),
            MigrationTicket {
                account: 11,
                from: ShardId::new(0),
                to: ShardId::new(4),
                at: SimTime::from_secs(2),
                transfers: (8..16).collect(),
            },
        ];
        let invariant = |label: &str, case: &dyn Fn(usize) -> RunOutcome<SettlingShardDriver>| {
            let base = case(1);
            for threads in [4, 0] {
                let other = case(threads);
                assert_eq!(
                    base.report.fingerprint(),
                    other.report.fingerprint(),
                    "{label}"
                );
                assert_eq!(base.settle, other.settle, "{label}");
                assert_eq!(
                    base.drivers[0].migration_stats(),
                    other.drivers[0].migration_stats(),
                    "{label}"
                );
                assert_eq!(
                    base.drivers[0].settled_batches(),
                    other.drivers[0].settled_batches(),
                    "{label}"
                );
            }
        };
        invariant("settlement", &|threads| {
            run(SettleConfig::batched(7), fan(30, 1), threads)
        });
        invariant("migration", &|threads| {
            run_migrating(two_tickets.clone(), threads)
        });
    }

    #[test]
    fn multiple_destinations_batch_independently() {
        let transfers: Vec<(usize, ShardId)> = (0..30)
            .map(|tx| (tx, ShardId::new(1 + (tx as u32 % 3))))
            .collect();
        let outcome = run(SettleConfig::batched(100), transfers, 1);
        let driver = &outcome.drivers[0];
        for dest in 1..=3u32 {
            let toward: Vec<&Batch> = driver
                .settled_batches()
                .iter()
                .filter(|b| b.dest == ShardId::new(dest))
                .collect();
            assert!(!toward.is_empty());
            let n: usize = toward.iter().map(|b| b.transfers.len()).sum();
            assert_eq!(n, 10);
        }
        // Cap 100 over 10 transfers per pair: only timeout flushes.
        assert_eq!(outcome.settle.cap_flushes, 0);
        assert!(outcome.settle.timeout_flushes >= 3);
    }

    #[test]
    fn blackout_defers_and_settles_exactly_once_at_the_heal() {
        let cfg = config(11, SettleConfig::batched(100));
        let mut driver = driver(&cfg, fan(30, 1), Vec::new());
        // Black out the pair well past every timeout deadline.
        driver.set_blackouts(
            ShardId::new(1),
            Blackouts::new([(SimTime::ZERO, SimTime::from_secs(600))]).expect("valid window"),
        );
        let outcome = Runtime::builder().run(vec![driver]).expect("well-formed");
        let driver = &outcome.drivers[0];
        assert!(outcome.settle.deferred_flushes >= 1);
        assert_eq!(settled_slots(driver), (0..30).collect::<Vec<u64>>());
        for b in driver.settled_batches() {
            assert!(
                b.at >= SimTime::from_secs(600),
                "no batch may flush inside the blackout (flushed at {})",
                b.at
            );
        }
        assert_eq!(
            outcome.comm.for_kind(CommKind::Crosslink),
            outcome.settle.batches
        );
    }

    #[test]
    fn transfer_free_shard_settles_nothing() {
        let outcome = run(SettleConfig::batched(10), Vec::new(), 1);
        assert!(outcome.settle.is_empty());
        assert_eq!(outcome.comm.for_kind(CommKind::Crosslink), 0);
        assert_eq!(outcome.report.shards[0].confirmed, 30);
    }

    #[test]
    fn empty_schedule_is_bit_invisible() {
        let cfg = config(23, SettleConfig::batched(100));
        let plain = SettlingShardDriver::new(&spec(0, 30), &cfg, fan(30, 1)).expect("valid");
        let plain = Runtime::builder().run(vec![plain]).expect("well-formed");
        let scheduled = run_migrating(Vec::new(), 1);
        assert_eq!(plain.report.fingerprint(), scheduled.report.fingerprint());
        assert_eq!(plain.settle, scheduled.settle);
        assert_eq!(
            plain.drivers[0].settled_batches(),
            scheduled.drivers[0].settled_batches()
        );
        assert_eq!(
            scheduled.drivers[0].migration_stats(),
            MigrationStats::default()
        );
    }

    #[test]
    fn apply_drains_rekeys_and_books_the_move_exactly_once() {
        // Move the account owning slots 0..10 at t=1s; cap 100 with a
        // long-lived run means its pair is still open when the move hits.
        let schedule = vec![ticket(SimTime::from_secs(1), (0..10).collect())];
        let outcome = run_migrating(schedule, 1);
        let driver = &outcome.drivers[0];
        let s = driver.migration_stats();
        assert_eq!((s.scheduled, s.applied, s.deferred), (1, 1, 0));
        assert_eq!(driver.applied_at(), [Some(SimTime::from_secs(1))]);
        // Unsubmitted owned slots were re-keyed to the new home.
        let rekeyed = driver
            .transfers()
            .iter()
            .take(10)
            .filter(|&&(_, d)| d == ShardId::new(9))
            .count();
        assert_eq!(rekeyed, s.rekeyed_transfers as usize);
        assert!(s.drained_transfers as usize + rekeyed == 10);
        // Every transfer still settles exactly once, across both keys.
        assert_eq!(settled_slots(driver), (0..30).collect::<Vec<u64>>());
    }

    #[test]
    fn mid_blackout_apply_defers_to_the_heal_and_applies_once() {
        let cfg = config(23, SettleConfig::batched(100));
        let mut driver = driver(
            &cfg,
            fan(30, 1),
            vec![ticket(SimTime::from_secs(1), vec![0, 1, 2])],
        );
        // Black out the pair toward the *new* home across the apply time.
        driver.set_blackouts(
            ShardId::new(9),
            Blackouts::new([(SimTime::ZERO, SimTime::from_secs(300))]).expect("valid window"),
        );
        let outcome = Runtime::builder().run(vec![driver]).expect("well-formed");
        let d = &outcome.drivers[0];
        let s = d.migration_stats();
        assert_eq!((s.applied, s.deferred), (1, 1));
        assert_eq!(d.applied_at(), [Some(SimTime::from_secs(300))]);
    }

    #[test]
    fn minerless_spec_is_a_typed_error_not_a_panic() {
        let cfg = config(29, SettleConfig::batched(4));
        let minerless = ShardSpec {
            miners: 0,
            ..spec(3, 4)
        };
        let err = SettlingShardDriver::new(&minerless, &cfg, fan(4, 1))
            .err()
            .expect("a shard without miners must be rejected");
        assert_eq!(
            err,
            Error::NoMiners {
                shard: ShardId::new(3)
            }
        );
    }

    /// Fee priority is read here and nowhere else: with one transaction
    /// per block, the high-fee tx 1 confirms first, so its transfer
    /// settles strictly before tx 0's.
    #[test]
    fn higher_fee_transfer_settles_first() {
        let cfg = RuntimeConfig {
            block_capacity: 1,
            ..config(31, SettleConfig::batched(1))
        };
        let spec = ShardSpec::solo_greedy(ShardId::new(0), vec![1, 100]);
        let driver = SettlingShardDriver::new(&spec, &cfg, fan(2, 1)).expect("valid");
        let outcome = Runtime::builder().run(vec![driver]).expect("well-formed");
        let settled_at = |slot: u64| {
            outcome.drivers[0]
                .settled_batches()
                .iter()
                .find(|b| b.transfers.contains(&slot))
                .map(|b| b.at)
                .expect("every transfer settles")
        };
        assert!(
            settled_at(1) < settled_at(0),
            "the fee-100 transfer must settle first"
        );
    }

    #[test]
    fn equilibrium_transfer_table_is_a_typed_error() {
        let cfg = config(29, SettleConfig::batched(4));
        let equilibrium = ShardSpec {
            strategy: SelectionStrategy::Equilibrium { max_rounds: 10 },
            ..spec(2, 4)
        };
        let err = SettlingShardDriver::new(&equilibrium, &cfg, fan(4, 1))
            .err()
            .expect("an equilibrium transfer table must be rejected");
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "transfers",
                    ..
                }
            ),
            "{err:?}"
        );
        // Without transfers the equilibrium shard still runs.
        let plain = SettlingShardDriver::new(&equilibrium, &cfg, Vec::new()).expect("valid");
        let outcome = Runtime::builder().run(vec![plain]).expect("well-formed");
        assert_eq!(outcome.report.shards[0].confirmed, 4);
    }

    #[test]
    fn out_of_schedule_event_is_rejected_not_panicked() {
        let cfg = config(23, SettleConfig::batched(4));
        let mut driver = SettlingShardDriver::new(&spec(0, 4), &cfg, Vec::new()).expect("valid");
        let mut comm = cshard_network::CommStats::new();
        let mut queue = cshard_sim::EventQueue::new();
        let mut ctx = Ctx::new(&mut queue, &mut comm);
        let err = driver
            .on_event(SimTime::ZERO, Event::Migration { slot: 3 }, &mut ctx)
            .expect_err("foreign slot must be rejected");
        assert!(matches!(
            err,
            Error::UnexpectedEvent {
                driver: "SettlingShardDriver",
                ..
            }
        ));
    }

    #[test]
    fn stats_merge_is_fieldwise() {
        let a = MigrationStats {
            scheduled: 1,
            applied: 1,
            deferred: 0,
            drained_transfers: 3,
            rekeyed_transfers: 2,
        };
        let b = MigrationStats {
            scheduled: 2,
            applied: 1,
            deferred: 1,
            drained_transfers: 0,
            rekeyed_transfers: 5,
        };
        let m = a.merge(&b);
        assert_eq!(
            (
                m.scheduled,
                m.applied,
                m.deferred,
                m.drained_transfers,
                m.rekeyed_transfers
            ),
            (3, 2, 1, 3, 7)
        );
    }
}
