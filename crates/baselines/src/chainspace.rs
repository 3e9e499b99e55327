//! The ChainSpace comparison model (Sec. VI-B2, Fig. 4(a)/(b)).
//!
//! ChainSpace "separates miners and transactions into shards randomly,
//! incurring new cross-shard consensus protocols and heavy cross-shard
//! communications". Fig. 4(b) measures only how the *communication count*
//! grows with the number of k-input transactions, so the model here
//! implements exactly the stated complexity:
//!
//! * transactions are placed into shards uniformly at random ("in
//!   ChainSpace, a 3-input transaction will be randomly separated into a
//!   shard");
//! * validating a k-input transaction needs the account state of up to `k`
//!   shards; when more than one shard is involved, the S-BAC style
//!   commit runs **two rounds** of cross-shard leader communication
//!   (intra-shard consensus → cross-shard accept), each booked as one
//!   message. Sec. VII also prices a round at O(N²) bits among the N
//!   participating nodes; no figure reads bits, so the model counts rounds.

use cshard_crypto::Prf;
use cshard_ledger::Transaction;
use cshard_network::{CommKind, LatencyModel};
use cshard_primitives::{Error, ShardId, SimTime};
use cshard_runtime::{
    Batch, ContractShardDriver, CrosslinkChannel, Ctx, Event, ProtocolDriver, RuntimeConfig,
    SettleStats, ShardReport, ShardSpec,
};
use cshard_sim::SimRng;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Rounds of cross-shard leader communication per cross-shard transaction
/// ("to validate one cross-shard transaction, there will be at least 2
/// rounds of cross-shard communication", Sec. VII).
pub const CROSS_SHARD_ROUNDS_PER_TX: u64 = 2;

/// A ChainSpace-style random placement of a workload over `shards` shards.
#[derive(Clone, Debug)]
pub struct ChainspacePlacement {
    /// Number of shards.
    pub shards: usize,
    /// Transaction `i`'s shards are `touched[ends[i - 1]..ends[i]]`: its
    /// home (output) shard first, then its further input shards,
    /// deduplicated — one flat table, not a list per transaction.
    ends: Vec<usize>,
    touched: Vec<ShardId>,
}

impl ChainspacePlacement {
    /// Places `txs` uniformly at random over `shards` shards. Each input
    /// account of a k-input transaction is (as in ChainSpace's random state
    /// partition) independently located in a random shard.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a shard count counts `u32` `ShardId`s"
    )]
    pub fn place(txs: &[Transaction], shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ends = Vec::with_capacity(txs.len());
        let mut touched = Vec::with_capacity(txs.len());
        for tx in txs {
            let start = touched.len();
            touched.push(ShardId::new(rng.gen_range(0..shards as u32)));
            // Each further input lives in an independently random shard.
            for _ in 1..tx.kind.input_count() {
                let s = ShardId::new(rng.gen_range(0..shards as u32));
                if !touched[start..].contains(&s) {
                    touched.push(s);
                }
            }
            ends.push(touched.len());
        }
        ChainspacePlacement {
            shards,
            ends,
            touched,
        }
    }

    /// The shards transaction `i` touches, its home shard first.
    fn touched(&self, i: usize) -> &[ShardId] {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.touched[start..self.ends[i]]
    }

    /// Whether transaction `i` is cross-shard (touches > 1 shard).
    fn is_cross_shard(&self, i: usize) -> bool {
        self.touched(i).len() > 1
    }

    /// Number of cross-shard transactions.
    pub fn cross_shard_count(&self) -> usize {
        (0..self.ends.len())
            .filter(|&i| self.is_cross_shard(i))
            .count()
    }

    /// Transaction indices grouped by home shard — the per-shard queues a
    /// throughput run feeds into the runtime.
    pub fn shard_tx_indices(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.shards];
        for i in 0..self.ends.len() {
            groups[self.touched(i)[0].0 as usize].push(i);
        }
        groups
    }

    /// Builds one [`ChainspaceDriver`] per shard over this placement:
    /// each shard mines its home queue (solo greedy, as Fig. 4(a) runs it)
    /// and drives the 2PC validation rounds of its cross-shard
    /// transactions as scheduled events, booking each round into the
    /// driver's `CommStats` as it fires. `fees` are the workload's fees by
    /// global transaction index; `latency` spaces the validation rounds.
    ///
    /// When `config.settle` enables batching, the per-round booking is
    /// replaced by crosslink settlement: the commit still runs its two
    /// rounds, but the cross-shard messaging toward each foreign shard is
    /// handed to a [`CrosslinkChannel`] and ships one
    /// [`CommKind::Crosslink`] per flushed batch.
    pub fn drivers(
        &self,
        fees: &[u64],
        config: &RuntimeConfig,
        latency: LatencyModel,
    ) -> Vec<ChainspaceDriver> {
        self.shard_tx_indices()
            .into_iter()
            .enumerate()
            .map(|(s, idxs)| {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "`s` is below `shards`, whose ids `place` drew as `u32`"
                )]
                let shard = ShardId::new(s as u32);
                let local_fees: Vec<u64> = idxs.iter().map(|&i| fees[i]).collect();
                let mut cross = CrossTable::default();
                for i in idxs {
                    if self.is_cross_shard(i) {
                        cross.push(i, self.touched(i).iter().copied().filter(|&t| t != shard));
                    }
                }
                ChainspaceDriver::new(shard, local_fees, cross, config, latency)
            })
            .collect()
    }
}

/// The cross-shard transactions homed at one driver's shard, addressed by
/// slot: slot `s` is the global workload index `txs[s]`, and its foreign
/// input shards (home excluded) are `foreign[ends[s - 1]..ends[s]]` — one
/// flat table per driver, not a list per transaction. The foreign shards
/// are what the batched settlement path keys its per-destination
/// crosslinks by.
#[derive(Debug, Default)]
struct CrossTable {
    txs: Vec<usize>,
    ends: Vec<usize>,
    foreign: Vec<ShardId>,
}

impl CrossTable {
    fn push(&mut self, tx: usize, foreign: impl IntoIterator<Item = ShardId>) {
        self.txs.push(tx);
        self.foreign.extend(foreign);
        self.ends.push(self.foreign.len());
    }

    fn len(&self) -> usize {
        self.txs.len()
    }

    fn foreign(&self, slot: usize) -> &[ShardId] {
        let start = slot.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.foreign[start..self.ends[slot]]
    }
}

/// One ChainSpace shard as a [`ProtocolDriver`]: home-queue mining plus
/// the S-BAC style two-round cross-shard commit, run as real scheduled
/// events on the shared loop.
///
/// The driver composes a [`ContractShardDriver`] (the shard's chain, with
/// the same `(seed, shard)` RNG streams a plain sharded run would use —
/// so the mining trajectory, and hence Fig. 4(a)'s throughput, is
/// unchanged from the closed-form era) with a 2PC pipeline: an
/// [`Event::EpochAdvance`] kick-off injects the cross-shard transactions,
/// each [`Event::TxInjected`] starts that transaction's first
/// [`Event::ValidationRound`], and every round books one communication
/// time into the driver's `CommStats` *as it fires* — Fig. 4(b)'s accounting
/// is emitted from inside the loop, not reconstructed afterwards.
pub struct ChainspaceDriver {
    mining: ContractShardDriver,
    shard: ShardId,
    /// Cross-shard transactions homed here. `TxInjected` and
    /// `ValidationRound` carry a slot of this table, not a global index.
    cross: CrossTable,
    latency: LatencyModel,
    /// Round-spacing stream, derived from `(seed, shard)` by the PRF —
    /// independent of the mining streams, so validation never perturbs
    /// block production.
    vrng: SimRng,
    /// Whether the `EpochAdvance` kick-off has fired; a second one is a
    /// malformed stream.
    kicked_off: bool,
    /// Protocol events still owed before the shard's 2PC work is done.
    outstanding: usize,
    /// Batched settlement (`Some` iff the run's settle config enables
    /// it). `None` keeps the per-round booking path byte-identical to the
    /// pre-settlement driver.
    settle: Option<CrosslinkChannel>,
}

impl ChainspaceDriver {
    /// A shard driver over its home-queue `fees` (local order) and its
    /// cross-shard transactions.
    fn new(
        shard: ShardId,
        fees: Vec<u64>,
        cross: CrossTable,
        config: &RuntimeConfig,
        latency: LatencyModel,
    ) -> ChainspaceDriver {
        let spec = ShardSpec::solo_greedy(shard, fees);
        let prf = Prf::new(config.seed.to_be_bytes());
        let vrng = SimRng::from_seed_bytes(
            *prf.eval("chainspace-2pc-v1", shard.0.to_be_bytes())
                .as_bytes(),
        );
        let settle = config
            .settle
            .enabled
            .then(|| CrosslinkChannel::new(shard, &config.settle));
        #[expect(
            clippy::expect_used,
            reason = "a solo spec has one miner, and `NoMiners` is the constructor's only error"
        )]
        let mining = ContractShardDriver::new(&spec, config).expect("a solo spec has one miner");
        ChainspaceDriver {
            mining,
            shard,
            cross,
            latency,
            vrng,
            kicked_off: false,
            outstanding: 0,
            settle,
        }
    }

    /// Crosslink batches this shard shipped (empty when settlement is
    /// disabled).
    pub fn settled_batches(&self) -> &[Batch] {
        self.settle
            .as_ref()
            .map_or(&[], CrosslinkChannel::settled_batches)
    }

    fn round_delay(&mut self) -> SimTime {
        self.latency.delay(self.vrng.unit())
    }

    /// Final-round hook in batched mode: hand the committed transaction's
    /// messaging toward each foreign shard to the channel.
    fn submit_transfers(&mut self, now: SimTime, slot: usize, ctx: &mut Ctx) {
        let Some(channel) = self.settle.as_mut() else {
            return;
        };
        let tx = self.cross.txs[slot] as u64;
        for &dest in self.cross.foreign(slot) {
            channel.submit(now, dest, tx, ctx);
        }
    }
}

fn unexpected(ev: Event) -> Error {
    Error::UnexpectedEvent {
        driver: "ChainspaceDriver",
        event: format!("{ev:?}"),
    }
}

impl ProtocolDriver for ChainspaceDriver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.mining.on_start(ctx);
        if self.cross.len() > 0 {
            // The commit pipeline opens with an epoch kick-off that injects
            // this shard's cross-shard transactions.
            ctx.schedule(SimTime::ZERO, Event::EpochAdvance { epoch: 0 });
            self.outstanding = 1;
        }
    }

    fn on_event(&mut self, now: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
        match ev {
            Event::EpochAdvance { .. } => {
                if self.kicked_off || self.outstanding == 0 {
                    return Err(unexpected(ev));
                }
                self.kicked_off = true;
                // The kick-off is paid; each injected transaction is owed.
                self.outstanding = self.cross.len();
                for slot in 0..self.cross.len() {
                    ctx.schedule(now, Event::TxInjected { tx: slot });
                }
            }
            Event::TxInjected { tx: slot } => {
                if slot >= self.cross.len() {
                    return Err(unexpected(ev));
                }
                let d = self.round_delay();
                ctx.schedule_in(d, Event::ValidationRound { tx: slot, round: 1 });
            }
            Event::ValidationRound { tx: slot, round } => {
                let last = u64::from(round) == CROSS_SHARD_ROUNDS_PER_TX;
                if slot >= self.cross.len()
                    || !(1..=CROSS_SHARD_ROUNDS_PER_TX).contains(&u64::from(round))
                    || (last && self.outstanding == 0)
                {
                    return Err(unexpected(ev));
                }
                if self.settle.is_none() {
                    // One round of cross-shard leader communication,
                    // attributed to the home shard that drives the commit
                    // (Sec. VII). Batched mode books crosslinks at flush
                    // time instead, never per round.
                    ctx.comm()
                        .record_many(self.shard, CommKind::CrossShardValidation, 1);
                }
                if last {
                    self.outstanding -= 1;
                    self.submit_transfers(now, slot, ctx);
                } else {
                    let d = self.round_delay();
                    ctx.schedule_in(
                        d,
                        Event::ValidationRound {
                            tx: slot,
                            round: round + 1,
                        },
                    );
                }
            }
            Event::SettlementFlush { dest } => {
                let Some(channel) = self.settle.as_mut() else {
                    return Err(unexpected(ev));
                };
                channel.on_flush(now, dest, ctx);
            }
            mining_ev @ Event::BlockFound { .. } => {
                self.mining.on_event(now, mining_ev, ctx)?;
            }
            other @ Event::Migration { .. } => return Err(unexpected(other)),
        }
        Ok(())
    }

    fn done(&self) -> bool {
        self.mining.done()
            && self.outstanding == 0
            && self.settle.as_ref().is_none_or(|c| c.batcher().is_empty())
    }

    fn completion(&self) -> Option<SimTime> {
        self.mining.completion()
    }

    fn report(&self, events: usize, wall: Duration) -> ShardReport {
        self.mining.report(events, wall)
    }

    fn settle_stats(&self) -> Option<SettleStats> {
        self.settle.as_ref().map(|c| c.batcher().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_network::CommStats;
    use cshard_workload::{FeeDistribution, Workload};

    fn three_input_txs(n: usize) -> Vec<Transaction> {
        Workload::three_input(n, 3, FeeDistribution::Constant(5), 1).transactions
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let txs = three_input_txs(50);
        let a = ChainspacePlacement::place(&txs, 9, 7);
        let b = ChainspacePlacement::place(&txs, 9, 7);
        assert_eq!((&a.ends, &a.touched), (&b.ends, &b.touched));
        assert_eq!(a.ends.len(), 50);
        let groups = a.shard_tx_indices();
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 50);
    }

    #[test]
    fn three_input_txs_touch_up_to_three_shards() {
        let txs = three_input_txs(200);
        let p = ChainspacePlacement::place(&txs, 9, 3);
        for i in 0..200 {
            assert!((1..=3).contains(&p.touched(i).len()));
        }
        // With 9 shards, the vast majority of 3-input txs are cross-shard.
        assert!(p.cross_shard_count() > 180, "{}", p.cross_shard_count());
    }

    #[test]
    fn single_shard_means_no_cross_shard_traffic() {
        let txs = three_input_txs(40);
        let p = ChainspacePlacement::place(&txs, 1, 3);
        assert_eq!(p.cross_shard_count(), 0);
    }

    #[test]
    fn single_input_txs_are_never_cross_shard() {
        let w = Workload::uniform_contracts(60, 3, FeeDistribution::Constant(2), 4);
        let p = ChainspacePlacement::place(&w.transactions, 9, 9);
        assert_eq!(p.cross_shard_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ChainspacePlacement::place(&[], 0, 0);
    }

    // ---- the event-driven driver (Fig. 4(b) accounting from inside the loop) ----

    use cshard_runtime::Runtime;
    use cshard_workload::Workload as W;

    fn run_drivers(count: usize, shards: usize, seed: u64) -> (ChainspacePlacement, CommStats) {
        let w = W::three_input(count, 3, FeeDistribution::Constant(5), seed);
        let p = ChainspacePlacement::place(&w.transactions, shards, seed);
        let cfg = RuntimeConfig {
            seed,
            mean_block_interval: SimTime::from_millis(132), // 10 txs / 76 tps
            ..RuntimeConfig::default()
        };
        let fees = w.fees();
        let outcome = Runtime::builder()
            .run(p.drivers(&fees, &cfg, LatencyModel::wide_area()))
            .expect("well-formed");
        // Mining still confirms the whole workload under the driver.
        assert_eq!(outcome.report.total_txs(), count);
        assert!(outcome.report.shards.iter().all(|s| s.confirmed == s.txs));
        (p, outcome.comm)
    }

    #[test]
    fn driver_emits_the_papers_two_x_over_nine_line() {
        // The Fig. 4(b) pin: per-shard communication = 2·X/9 for X
        // cross-shard transactions over 9 shards, now emitted by the
        // driver during the run rather than booked post-hoc.
        let (p, stats) = run_drivers(300, 9, 5);
        let x = p.cross_shard_count() as u64;
        assert_eq!(stats.total(), CROSS_SHARD_ROUNDS_PER_TX * x);
        assert_eq!(stats.for_kind(CommKind::CrossShardValidation), 2 * x);
        let per_shard = stats.per_shard_average(9);
        assert!((per_shard - 2.0 * x as f64 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn driver_accounting_matches_the_closed_form() {
        // The event-driven runs book two rounds per cross-shard
        // transaction on its home shard (the one that drives the commit),
        // shard by shard.
        let (p, from_driver) = run_drivers(200, 9, 11);
        let mut closed_form = [0u64; 9];
        for i in (0..p.ends.len()).filter(|&i| p.is_cross_shard(i)) {
            closed_form[p.touched(i)[0].0 as usize] += CROSS_SHARD_ROUNDS_PER_TX;
        }
        for (s, &rounds) in closed_form.iter().enumerate() {
            assert_eq!(
                from_driver.for_shard(ShardId::new(s as u32)),
                rounds,
                "shard {s} diverged"
            );
        }
    }

    #[test]
    fn driver_mining_matches_plain_sharded_run() {
        // Validation events ride alongside mining without perturbing it:
        // the confirmation trajectory equals a plain solo-greedy run of
        // the same home queues (same (seed, shard) RNG streams).
        let w = W::three_input(150, 3, FeeDistribution::Constant(5), 2);
        let p = ChainspacePlacement::place(&w.transactions, 4, 2);
        let cfg = RuntimeConfig {
            seed: 2,
            ..RuntimeConfig::default()
        };
        let fees = w.fees();
        let driven = Runtime::builder()
            .run(p.drivers(&fees, &cfg, LatencyModel::wide_area()))
            .expect("well-formed")
            .report;
        let specs: Vec<ShardSpec> = p
            .shard_tx_indices()
            .into_iter()
            .enumerate()
            .map(|(s, idxs)| {
                ShardSpec::solo_greedy(
                    ShardId::new(s as u32),
                    idxs.into_iter().map(|i| fees[i]).collect(),
                )
            })
            .collect();
        let plain = cshard_runtime::simulate(&specs, &cfg).expect("valid test config");
        assert_eq!(driven.completion, plain.completion);
        for (d, q) in driven.shards.iter().zip(&plain.shards) {
            assert_eq!(d.completion, q.completion);
            assert_eq!(d.confirmed, q.confirmed);
        }
    }

    // ---- malformed event streams are typed errors, never panics ----

    use cshard_runtime::Event;
    use cshard_sim::EventQueue;

    /// Shard 0's driver over a 9-shard placement, started on its own
    /// queue, with the number of cross-shard transactions it homes.
    fn started_driver() -> (ChainspaceDriver, EventQueue<Event>, CommStats, usize) {
        let w = W::three_input(90, 3, FeeDistribution::Constant(5), 4);
        let p = ChainspacePlacement::place(&w.transactions, 9, 4);
        let cfg = RuntimeConfig {
            seed: 4,
            ..RuntimeConfig::default()
        };
        let mut driver = p
            .drivers(&w.fees(), &cfg, LatencyModel::wide_area())
            .swap_remove(0);
        let cross = driver.cross.len();
        assert!(cross > 0, "shard 0 homes no cross-shard transaction");
        let (mut queue, mut comm) = (EventQueue::new(), CommStats::new());
        driver.on_start(&mut Ctx::new(&mut queue, &mut comm));
        (driver, queue, comm, cross)
    }

    /// Feeds the driver its own queue until it reports done.
    fn run_to_done(
        driver: &mut ChainspaceDriver,
        queue: &mut EventQueue<Event>,
        comm: &mut CommStats,
    ) {
        while !driver.done() {
            let (now, ev) = queue.pop().expect("work left");
            driver
                .on_event(now, ev, &mut Ctx::new(queue, comm))
                .expect("well-formed stream");
        }
    }

    fn rejects(
        driver: &mut ChainspaceDriver,
        queue: &mut EventQueue<Event>,
        comm: &mut CommStats,
        ev: Event,
    ) {
        let now = queue.now();
        let booked = comm.total();
        let got = driver.on_event(now, ev, &mut Ctx::new(queue, comm));
        assert!(
            matches!(
                got,
                Err(Error::UnexpectedEvent {
                    driver: "ChainspaceDriver",
                    ..
                })
            ),
            "{ev:?} was accepted: {got:?}"
        );
        assert_eq!(comm.total(), booked, "{ev:?} booked a round");
    }

    #[test]
    fn a_repeated_final_round_is_an_error_not_an_underflow() {
        let (mut driver, mut queue, mut comm, cross) = started_driver();
        run_to_done(&mut driver, &mut queue, &mut comm);
        assert_eq!(
            comm.for_shard(ShardId::new(0)),
            CROSS_SHARD_ROUNDS_PER_TX * cross as u64
        );
        let last = CROSS_SHARD_ROUNDS_PER_TX as u32;
        rejects(
            &mut driver,
            &mut queue,
            &mut comm,
            Event::ValidationRound { tx: 0, round: last },
        );
        assert!(driver.done());
    }

    #[test]
    fn a_second_kick_off_is_an_error() {
        let (mut driver, mut queue, mut comm, _) = started_driver();
        let (now, ev) = queue.pop().expect("kick-off");
        assert!(matches!(ev, Event::EpochAdvance { .. }), "{ev:?}");
        driver
            .on_event(now, ev, &mut Ctx::new(&mut queue, &mut comm))
            .expect("first kick-off");
        let pending = queue.len();
        rejects(
            &mut driver,
            &mut queue,
            &mut comm,
            Event::EpochAdvance { epoch: 0 },
        );
        assert_eq!(queue.len(), pending, "the second kick-off re-injected");
        run_to_done(&mut driver, &mut queue, &mut comm);
    }

    #[test]
    fn a_kick_off_with_nothing_to_inject_is_an_error() {
        let w = W::three_input(30, 3, FeeDistribution::Constant(5), 4);
        let p = ChainspacePlacement::place(&w.transactions, 1, 4);
        let mut driver = p
            .drivers(
                &w.fees(),
                &RuntimeConfig::default(),
                LatencyModel::wide_area(),
            )
            .swap_remove(0);
        let (mut queue, mut comm) = (EventQueue::new(), CommStats::new());
        driver.on_start(&mut Ctx::new(&mut queue, &mut comm));
        rejects(
            &mut driver,
            &mut queue,
            &mut comm,
            Event::EpochAdvance { epoch: 0 },
        );
    }

    #[test]
    fn out_of_range_slots_and_rounds_are_errors() {
        let (mut driver, mut queue, mut comm, cross) = started_driver();
        let (now, ev) = queue.pop().expect("kick-off");
        driver
            .on_event(now, ev, &mut Ctx::new(&mut queue, &mut comm))
            .expect("kick-off");
        let last = CROSS_SHARD_ROUNDS_PER_TX as u32;
        for ev in [
            Event::TxInjected { tx: cross },
            Event::ValidationRound {
                tx: cross,
                round: 1,
            },
            Event::ValidationRound { tx: 0, round: 0 },
            Event::ValidationRound {
                tx: 0,
                round: last + 1,
            },
        ] {
            rejects(&mut driver, &mut queue, &mut comm, ev);
        }
        // The rejected events left the pipeline as it was.
        run_to_done(&mut driver, &mut queue, &mut comm);
        assert_eq!(comm.total(), CROSS_SHARD_ROUNDS_PER_TX * cross as u64);
    }

    // ---- batched settlement (async crosslinks) over the same placement ----

    use cshard_runtime::SettleConfig;

    fn settled_outcome(
        count: usize,
        shards: usize,
        seed: u64,
        settle: SettleConfig,
        threads: usize,
    ) -> (
        ChainspacePlacement,
        cshard_runtime::RunOutcome<ChainspaceDriver>,
    ) {
        let w = W::three_input(count, 3, FeeDistribution::Constant(5), seed);
        let p = ChainspacePlacement::place(&w.transactions, shards, seed);
        let cfg = RuntimeConfig {
            seed,
            mean_block_interval: SimTime::from_millis(132),
            settle,
            ..RuntimeConfig::default()
        };
        let fees = w.fees();
        let outcome = Runtime::builder()
            .scheduler(cshard_runtime::SchedulerConfig::new(threads))
            .run(p.drivers(&fees, &cfg, LatencyModel::wide_area()))
            .expect("well-formed drivers");
        (p, outcome)
    }

    /// A batched settle config whose timeout comfortably exceeds the
    /// run's span, so batches fill instead of draining per window.
    fn wide_batched(cap: usize) -> SettleConfig {
        SettleConfig {
            timeout: SimTime::from_secs(10),
            ..SettleConfig::batched(cap)
        }
    }

    #[test]
    fn batched_mode_settles_every_foreign_leg_exactly_once() {
        let (p, outcome) = settled_outcome(300, 9, 5, wide_batched(100), 1);
        // Expected multiset: one transfer per (home tx, foreign shard) leg.
        let mut expected: Vec<(ShardId, ShardId, u64)> = (0..p.ends.len())
            .flat_map(|i| {
                let (&home, foreign) = p.touched(i).split_first().expect("one shard");
                foreign.iter().map(move |&s| (home, s, i as u64))
            })
            .collect();
        expected.sort_unstable();
        let mut settled: Vec<(ShardId, ShardId, u64)> = outcome
            .drivers
            .iter()
            .flat_map(|d| d.settled_batches())
            .flat_map(|b| b.transfers.iter().map(|&t| (b.source, b.dest, t)))
            .collect();
        settled.sort_unstable();
        assert_eq!(settled, expected);
        // Crosslinks are the only messaging; per-round booking is off.
        assert_eq!(outcome.comm.for_kind(CommKind::CrossShardValidation), 0);
        assert_eq!(
            outcome.comm.for_kind(CommKind::Crosslink),
            outcome.settle.batches
        );
        assert_eq!(outcome.settle.txs_settled, expected.len() as u64);
    }

    #[test]
    fn cap_100_cuts_messages_at_least_ten_x() {
        let count = 600;
        let (p, baseline) = settled_outcome(count, 9, 5, SettleConfig::disabled(), 1);
        let x = p.cross_shard_count() as u64;
        assert_eq!(baseline.comm.total(), CROSS_SHARD_ROUNDS_PER_TX * x);
        let (_, batched) = settled_outcome(count, 9, 5, wide_batched(100), 1);
        let links = batched.comm.total();
        assert!(
            links * 10 <= baseline.comm.total(),
            "cap 100 must cut messages 10x: {links} crosslinks vs {} rounds",
            baseline.comm.total()
        );
        // And batching never changes the mining trajectory.
        assert_eq!(baseline.report.completion, batched.report.completion);
    }

    #[test]
    fn batched_run_is_thread_count_independent() {
        let base = settled_outcome(200, 9, 3, wide_batched(50), 1).1;
        for threads in [4, 0] {
            let other = settled_outcome(200, 9, 3, wide_batched(50), threads).1;
            assert_eq!(base.report.fingerprint(), other.report.fingerprint());
            assert_eq!(base.settle, other.settle);
            assert_eq!(base.comm, other.comm);
            for (a, b) in base.drivers.iter().zip(&other.drivers) {
                assert_eq!(a.settled_batches(), b.settled_batches());
            }
        }
    }

    #[test]
    fn disabled_settlement_leaves_the_driver_untouched() {
        let (p, outcome) = settled_outcome(150, 9, 2, SettleConfig::disabled(), 1);
        assert!(outcome.settle.is_empty());
        assert!(outcome.drivers.iter().all(|d| d.settle_stats().is_none()));
        assert!(outcome
            .drivers
            .iter()
            .all(|d| d.settled_batches().is_empty()));
        assert_eq!(outcome.comm.for_kind(CommKind::Crosslink), 0);
        assert_eq!(
            outcome.comm.total(),
            CROSS_SHARD_ROUNDS_PER_TX * p.cross_shard_count() as u64
        );
    }

    #[test]
    fn driver_run_is_thread_count_independent() {
        let mk = |threads: usize| {
            let w = W::three_input(120, 3, FeeDistribution::Constant(5), 7);
            let p = ChainspacePlacement::place(&w.transactions, 9, 7);
            let cfg = RuntimeConfig {
                seed: 7,
                scheduler: cshard_runtime::SchedulerConfig::new(threads),
                ..RuntimeConfig::default()
            };
            let fees = w.fees();
            let outcome = Runtime::builder()
                .scheduler(cfg.scheduler)
                .run(p.drivers(&fees, &cfg, LatencyModel::wide_area()))
                .expect("well-formed");
            (outcome.report.fingerprint(), outcome.comm)
        };
        let base = mk(1);
        assert!(base.1.total() > 0);
        for threads in [4, 0] {
            assert_eq!(base, mk(threads));
        }
    }
}
