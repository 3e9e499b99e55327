//! The contract-centric shard driver (and its degenerate single-chain
//! instance, vanilla Ethereum).
//!
//! This is the stand-in for the paper's nine-server go-Ethereum testbed.
//! Each shard runs an independent PoW chain; each miner finds blocks as a
//! Poisson process (mean one per minute in the Sec. VI-B1 calibration) and
//! fills them from the shard's unconfirmed queue according to a selection
//! strategy:
//!
//! * [`SelectionStrategy::IdenticalGreedy`] — every miner picks the same
//!   top-fee transactions (Sec. II-B). Progress serializes: a block found
//!   within the propagation/template window of an accepted block confirms
//!   the *same* set and is wasted ("stale"). This reproduces Table I's
//!   plateau and is the Ethereum baseline of every comparison. The driver
//!   counts it: the confirmed set is always a prefix of the (fee desc,
//!   index asc) order, so a useful block confirms `min(block_capacity,
//!   unconfirmed)` and no per-transaction state is kept. Settlement, the
//!   one reader of *which* transactions confirmed, ranks its transfers by
//!   that order itself ([`crate::SettlingShardDriver`]).
//! * [`SelectionStrategy::Equilibrium`] — miners play Algorithm 2 per
//!   epoch: the leader's unified parameters assign each miner a distinct
//!   (at equilibrium) transaction set; disjoint blocks commute, so miners
//!   of one shard confirm in parallel. Epochs advance when the previous
//!   assignment is fully confirmed, matching the per-epoch broadcast of
//!   parameter unification.
//!
//! A miner whose visible queue is empty still mines — for the block reward
//! — producing the **empty blocks** that motivate inter-shard merging; they
//! are counted within the configured measurement window (the paper counts
//! over 212 s in Sec. VI-C1).
//!
//! Propagation is governed by the run's [`PropagationModel`], read through
//! one rule: the delivery time it draws when a block confirms — a time,
//! not an event. A contended block found before it is stale.
//!
//! A crashed miner is its Poisson process switched off for a span: a tick
//! inside its downtime ([`ContractShardDriver::set_downtime`]) is swallowed.
//!
//! Once a shard has confirmed everything it keeps mining until the run's
//! last shard finishes, and at stream scale those idle ticks are almost
//! every event of a run. They cannot confirm anything, so each one's
//! classification (empty, or stale while a competitor's confirmation is
//! still propagating) is a pure function of its time and miner:
//! [`ContractShardDriver`]'s phase-2 [`ProtocolDriver::idle_turn`]
//! replays each miner's chain of ticks in one loop — a draw and a
//! classification per tick, no queue round trip — with counters and event
//! counts identical to the event-by-event default.

use crate::driver::{Ctx, ProtocolDriver};
use crate::event::Event;
use crate::harness::Runtime;
use crate::propagation::PropagationModel;
use crate::report::{RunReport, ShardReport};
use cshard_crypto::Prf;
use cshard_games::dynamics::{BestReplyDynamics, SelectInput};
use cshard_games::selection::SelectionConfig;
use cshard_network::Blackouts;
use cshard_primitives::{Error, ShardId, SimTime};
use cshard_settle::SettleConfig;
use cshard_sim::{SchedulerConfig, SimRng};
use std::time::Duration;

/// How miners of a shard pick transactions.
#[derive(Clone, Debug)]
pub enum SelectionStrategy {
    /// Fee-greedy, identical at every miner (vanilla Ethereum, Sec. II-B).
    IdenticalGreedy,
    /// Best-reply congestion-game equilibrium per epoch (Algorithm 2).
    Equilibrium {
        /// The game's tunables (capacity is taken from the runtime's block
        /// capacity).
        max_rounds: usize,
    },
}

/// One shard's inputs to a run.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// The shard id (labels the report).
    pub shard: ShardId,
    /// Fee of each transaction in the shard (local indices). A greedy
    /// shard's driver reads only how many there are.
    pub fees: Vec<u64>,
    /// Miners assigned to this shard.
    pub miners: usize,
    /// Selection behaviour.
    pub strategy: SelectionStrategy,
}

impl ShardSpec {
    /// A single-miner greedy shard — the common sharded-run configuration
    /// (the paper sets one miner per shard, Sec. VI-A).
    pub fn solo_greedy(shard: ShardId, fees: Vec<u64>) -> Self {
        ShardSpec {
            shard,
            fees,
            miners: 1,
            strategy: SelectionStrategy::IdenticalGreedy,
        }
    }
}

/// Global run parameters.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Transactions per block (the paper's gas limit admits 10).
    pub block_capacity: usize,
    /// Mean block interval per miner (Sec. VI-B1: 60 s; Sec. VI-B2 unifies
    /// confirmation at 76 tx/s instead).
    pub mean_block_interval: SimTime,
    /// How found blocks propagate to the shard's other miners: each
    /// confirming block's delivery time, before which the shard's other
    /// miners mine stale blocks. The default one-block-interval
    /// [`PropagationModel::Window`] drives Table I's plateau (and is
    /// irrelevant for one-miner shards).
    pub propagation: PropagationModel,
    /// Count empty blocks only up to this time (Sec. VI-C1 counts over a
    /// fixed 212 s window). `None` counts until the run completes.
    pub empty_block_window: Option<SimTime>,
    /// RNG seed; identical seeds reproduce runs bit-for-bit.
    pub seed: u64,
    /// How the per-shard drivers are scheduled: worker count (`threads: 1`
    /// runs shard drivers inline, `0` uses one worker per available core).
    /// Results are bit-identical across all settings — each shard's
    /// randomness is derived from `(seed, shard)` by a PRF, never from
    /// cross-shard draw order or worker interleaving.
    pub scheduler: SchedulerConfig,
    /// Cross-shard settlement batching (`cshard-settle`). Disabled by
    /// default; only drivers that opt into settlement (the settling
    /// wrapper, ChainSpace's batched mode) read it, so the golden paths
    /// are untouched.
    pub settle: SettleConfig,
}

impl RuntimeConfig {
    /// The one runtime-config check every run entry point performs: a
    /// positive block capacity, a positive block interval (every miner
    /// draws its next tick from it) and a well-formed settle knob set.
    pub fn validate(&self) -> Result<(), Error> {
        if self.block_capacity == 0 {
            return Err(Error::Config {
                field: "block_capacity",
                reason: "must be positive".into(),
            });
        }
        if self.mean_block_interval == SimTime::ZERO {
            return Err(Error::Config {
                field: "mean_block_interval",
                reason: "must be positive".into(),
            });
        }
        self.settle.validate()
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            block_capacity: 10,
            mean_block_interval: SimTime::from_secs(60),
            // One block interval: after a confirmation, the network needs a
            // full template round before non-duplicate work lands (the
            // serialization the paper describes in Sec. II-B).
            propagation: PropagationModel::Window(SimTime::from_secs(60)),
            empty_block_window: None,
            seed: 0,
            scheduler: SchedulerConfig::sequential(),
            settle: SettleConfig::disabled(),
        }
    }
}

/// Iteration accounting of a shard's selection-game dynamics — how many
/// epochs were played and how many best-reply sweeps they cost.
/// Sim-clock-free counters (ND001): pure event-path arithmetic, no wall
/// time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectionDynamicsStats {
    /// Selection epochs started over the run.
    pub epochs: u64,
    /// Total best-reply sweeps across all epochs (including the final
    /// certification sweep of each).
    pub rounds: u64,
}

/// An equilibrium shard's Algorithm 2 epochs, which read each
/// transaction's fee and confirmation. A greedy shard has none of this.
struct EquilibriumState {
    max_rounds: usize,
    /// Fee of each transaction (local indices).
    fees: Vec<u64>,
    /// Per local tx (None = unconfirmed): when the confirming block
    /// reaches the whole shard — its delivery time, once drawn — and its
    /// author.
    confirmed: Vec<Option<(SimTime, usize)>>,
    /// The current epoch's per-miner assignment.
    assignments: Vec<Vec<usize>>,
    epoch_unconfirmed: usize,
    /// Per-epoch selection-game inputs, kept so an epoch after the first
    /// allocates nothing: the unconfirmed local indices, their fees, and
    /// each miner's unified initial choice.
    remaining: Vec<usize>,
    sub_fees: Vec<u64>,
    initial: Vec<Vec<usize>>,
    /// The block a miner is packing.
    candidate: Vec<usize>,
    /// Per-shard RNG stream for epoch initial choices.
    rng: SimRng,
    /// The selection game's dynamics, run once per epoch so its buffers
    /// persist across epochs.
    dynamics: BestReplyDynamics,
    stats: SelectionDynamicsStats,
}

impl EquilibriumState {
    fn new(fees: Vec<u64>, miners: usize, max_rounds: usize, rng: SimRng) -> Self {
        EquilibriumState {
            max_rounds,
            confirmed: vec![None; fees.len()],
            fees,
            assignments: vec![Vec::new(); miners],
            epoch_unconfirmed: 0,
            remaining: Vec::new(),
            sub_fees: Vec::new(),
            initial: vec![Vec::new(); miners],
            candidate: Vec::new(),
            rng,
            dynamics: BestReplyDynamics::new(),
            stats: SelectionDynamicsStats::default(),
        }
    }

    /// Starts a new selection-game epoch over the currently unconfirmed
    /// transactions (Algorithm 2 under unified parameters). Every buffer
    /// it fills lives in `self`, so after a shard's first epoch this
    /// allocates nothing.
    fn start_epoch(&mut self, capacity: usize) {
        self.stats.epochs += 1;
        self.assignments.iter_mut().for_each(Vec::clear);
        self.remaining.clear();
        self.remaining
            .extend((0..self.fees.len()).filter(|&i| self.confirmed[i].is_none()));
        if self.remaining.is_empty() {
            self.epoch_unconfirmed = 0;
            return;
        }
        self.sub_fees.clear();
        self.sub_fees
            .extend(self.remaining.iter().map(|&i| self.fees[i]));
        let t = self.sub_fees.len();
        let cap = capacity.min(t);
        // Unified initial choices: a seeded stride per miner.
        for (m, choice) in self.initial.iter_mut().enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the draw is below `t`, a `usize`"
            )]
            let offset = self.rng.below(t as u64) as usize;
            choice.clear();
            choice.extend((0..cap).map(|k| (offset + k * 7 + m) % t));
        }
        self.stats.rounds += self.dynamics.run(SelectInput {
            fees: &self.sub_fees,
            initial: &self.initial,
            config: &SelectionConfig {
                capacity: cap,
                max_rounds: self.max_rounds,
            },
        }) as u64;
        // Map sub-indices back to local tx indices.
        for (epoch_set, set) in self.assignments.iter_mut().zip(self.dynamics.assignments()) {
            epoch_set.extend(set.iter().map(|&j| self.remaining[j]));
        }
        // Union size = number of covered (distinct) remaining txs.
        self.epoch_unconfirmed = self.dynamics.covered();
    }

    /// Packs `miner`'s block at `now` from its epoch assignment (starting
    /// an epoch first when the last one is done and the shard still has
    /// `unconfirmed` work) and confirms it. Returns `(packed, newly
    /// confirmed)`.
    fn pack(
        &mut self,
        now: SimTime,
        miner: usize,
        unconfirmed: usize,
        config: &RuntimeConfig,
    ) -> (usize, usize) {
        if self.epoch_unconfirmed == 0 && unconfirmed > 0 {
            self.start_epoch(config.block_capacity);
        }
        self.candidate.clear();
        for &tx in &self.assignments[miner] {
            if self.candidate.len() >= config.block_capacity {
                break;
            }
            // Unconfirmed, or confirmed so recently (still propagating, by
            // someone else) that the miner has not seen it yet.
            let visible = match self.confirmed[tx] {
                None => true,
                Some((delivered, author)) => author != miner && now < delivered,
            };
            if visible {
                self.candidate.push(tx);
            }
        }
        let mut newly = 0;
        for &tx in &self.candidate {
            if self.confirmed[tx].is_none() {
                self.confirmed[tx] = Some((now, miner));
                newly += 1;
            }
        }
        self.epoch_unconfirmed = self.epoch_unconfirmed.saturating_sub(newly);
        (self.candidate.len(), newly)
    }
}

/// Derives one shard driver's root RNG stream as a pure function of
/// `(master seed, shard id)`, via the keyed PRF. No draw order is
/// involved, so shard drivers can be constructed and run in any order — or
/// concurrently — with bit-identical results, and a shard's stream does
/// not depend on which other shards share the run.
pub fn shard_stream(seed: u64, shard: ShardId) -> SimRng {
    let prf = Prf::new(seed.to_be_bytes());
    SimRng::from_seed_bytes(*prf.eval("shard-task-v1", shard.0.to_be_bytes()).as_bytes())
}

/// One shard of the contract-centric scheme as a [`ProtocolDriver`]: its
/// chain state and its miners' private RNG streams, driven by
/// [`Event::BlockFound`] ticks. The driver never reads another shard's state,
/// which is what makes the harness's executor safe. It keeps only what its
/// strategy reads: a greedy shard is a count (see the module docs).
pub struct ContractShardDriver {
    shard: ShardId,
    txs: usize,
    unconfirmed: usize,
    /// `None` for a fee-greedy shard.
    equilibrium: Option<Box<EquilibriumState>>,
    /// One stream per miner; its length is the shard's miner count.
    miner_rngs: Vec<SimRng>,
    /// Delivery-delay stream. Forked *after* the epoch and miner streams
    /// and read by nothing else, so a draw a constant delay ignores leaves
    /// every trajectory as the pre-refactor simulator's.
    prop_rng: SimRng,
    config: RuntimeConfig,
    /// Report accumulators.
    blocks: usize,
    empty_blocks: usize,
    stale_blocks: usize,
    last_confirmation: Option<SimTime>,
    /// The latest delivery time drawn so far: a contended block found
    /// before it is stale.
    latest_visible: Option<SimTime>,
    /// Per-miner downtime ([`ContractShardDriver::set_downtime`]); empty,
    /// and unallocated, for a shard whose miners never crash.
    downtime: Vec<Blackouts>,
    /// Ticks swallowed because their miner was down.
    suppressed: usize,
}

impl ContractShardDriver {
    /// Builds the driver for one shard spec under `config`.
    ///
    /// Errors with [`Error::NoMiners`] when the spec assigns no miners.
    pub fn new(spec: &ShardSpec, config: &RuntimeConfig) -> Result<ContractShardDriver, Error> {
        if spec.miners == 0 {
            return Err(Error::NoMiners { shard: spec.shard });
        }
        let mut root = shard_stream(config.seed, spec.shard);
        let epoch_rng = root.fork(0x4550_4F43); // "EPOC"
        let miner_rngs: Vec<SimRng> = (0..spec.miners as u64).map(|m| root.fork(m)).collect();
        let prop_rng = root.fork(0x5052_4F50); // "PROP"
        let equilibrium =
            match spec.strategy {
                SelectionStrategy::IdenticalGreedy => None,
                SelectionStrategy::Equilibrium { max_rounds } => Some(Box::new(
                    EquilibriumState::new(spec.fees.clone(), spec.miners, max_rounds, epoch_rng),
                )),
            };
        Ok(ContractShardDriver {
            shard: spec.shard,
            txs: spec.fees.len(),
            unconfirmed: spec.fees.len(),
            equilibrium,
            miner_rngs,
            prop_rng,
            config: config.clone(),
            blocks: 0,
            empty_blocks: 0,
            stale_blocks: 0,
            last_confirmation: None,
            latest_visible: None,
            downtime: Vec::new(),
            suppressed: 0,
        })
    }

    /// Installs `miner`'s downtime, replacing any earlier table: a tick
    /// inside one of its windows is swallowed and the miner's next tick
    /// fires at the heal (chained through touching windows) with no RNG
    /// draw, so a window that holds no tick changes nothing. Overlapping
    /// windows act as their union, as in every [`Blackouts`].
    ///
    /// Errors (`field: "downtime"`) for a miner the shard does not have.
    pub fn set_downtime(&mut self, miner: usize, downtime: Blackouts) -> Result<(), Error> {
        let miners = self.miner_rngs.len();
        if miner >= miners {
            return Err(Error::Config {
                field: "downtime",
                reason: format!("miner {miner} on {}, which has {miners} miners", self.shard),
            });
        }
        if self.downtime.is_empty() {
            self.downtime = vec![Blackouts::default(); miners];
        }
        self.downtime[miner] = downtime;
        Ok(())
    }

    /// Ticks swallowed so far because their miner was down.
    pub fn suppressed_ticks(&self) -> usize {
        self.suppressed
    }

    /// How many of the shard's transactions have confirmed. A greedy
    /// shard's confirmations are the first this many of its fee order,
    /// which is how settlement decides when a transfer becomes eligible.
    pub fn confirmed_count(&self) -> usize {
        self.txs - self.unconfirmed
    }

    /// Iteration accounting of this shard's selection dynamics.
    pub fn selection_stats(&self) -> SelectionDynamicsStats {
        self.equilibrium
            .as_ref()
            .map_or_else(Default::default, |eq| eq.stats)
    }

    /// Processes one block-found event: pack the miner's block, classify
    /// it (useful / empty / stale) and apply confirmations. A confirming
    /// block draws its delivery time.
    fn on_block_found(&mut self, now: SimTime, miner: usize) {
        self.blocks += 1;
        let (packed, newly, contended_stale) = match &mut self.equilibrium {
            None => {
                // Identical selection serializes the network: after any
                // confirmation, every in-flight template of a *contended*
                // chain (more than one miner) references the just-confirmed
                // set, so blocks found while it still propagates are
                // duplicates — "transactions with the highest transaction
                // fees are likely to be confirmed first before the whole
                // network moves on to the next set" (Sec. II-B). A solo
                // miner refreshes its own template instantly and never
                // self-conflicts.
                let stale = self.miner_rngs.len() > 1
                    && self.unconfirmed > 0
                    && self.latest_visible.is_some_and(|v| now < v);
                // Otherwise the block takes the top-fee unconfirmed txs.
                let newly = if stale {
                    0
                } else {
                    self.unconfirmed.min(self.config.block_capacity)
                };
                (newly, newly, stale)
            }
            Some(eq) => {
                let (packed, newly) = eq.pack(now, miner, self.unconfirmed, &self.config);
                (packed, newly, false)
            }
        };

        if newly > 0 {
            self.unconfirmed -= newly;
            self.last_confirmation = Some(now);
        }
        if contended_stale {
            self.stale_blocks += 1;
        } else if packed == 0 {
            let within = self.config.empty_block_window.is_none_or(|cap| now <= cap);
            if within {
                self.empty_blocks += 1;
            }
        } else if newly == 0 {
            self.stale_blocks += 1;
        }

        // A confirming block's visibility is its delivery time.
        if newly == 0 {
            return;
        }
        let delivered = self
            .config
            .propagation
            .delivery_time(now, &mut self.prop_rng);
        if let Some(eq) = &mut self.equilibrium {
            for &tx in &eq.candidate {
                if eq.confirmed[tx] == Some((now, miner)) {
                    eq.confirmed[tx] = Some((delivered, miner));
                }
            }
        }
        self.latest_visible = Some(self.latest_visible.map_or(delivered, |v| v.max(delivered)));
    }

    /// The miner's next tick after `now`.
    fn next_tick(&mut self, now: SimTime, miner: usize) -> SimTime {
        now.saturating_add(self.miner_rngs[miner].exp_delay(self.config.mean_block_interval))
    }

    /// Handles `miner`'s tick at `now` and returns when its next one fires:
    /// a down miner's tick is swallowed and the next fires at the heal;
    /// otherwise its block is mined and the next tick drawn.
    fn tick(&mut self, now: SimTime, miner: usize) -> SimTime {
        if let Some(heal) = self.downtime.get(miner).and_then(|down| down.heal(now)) {
            self.suppressed += 1;
            return heal;
        }
        self.on_block_found(now, miner);
        self.next_tick(now, miner)
    }
}

impl ProtocolDriver for ContractShardDriver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (m, rng) in self.miner_rngs.iter_mut().enumerate() {
            let dt = rng.exp_delay(self.config.mean_block_interval);
            ctx.schedule(dt, Event::BlockFound { miner: m });
        }
    }

    fn on_event(&mut self, now: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
        match ev {
            // A miner the shard does not have is an event it never scheduled.
            Event::BlockFound { miner } if miner < self.miner_rngs.len() => {
                let next = self.tick(now, miner);
                ctx.schedule(next, Event::BlockFound { miner });
                Ok(())
            }
            other => Err(Error::UnexpectedEvent {
                driver: "ContractShardDriver",
                event: format!("{other:?}"),
            }),
        }
    }

    fn done(&self) -> bool {
        self.unconfirmed == 0
    }

    fn completion(&self) -> Option<SimTime> {
        self.last_confirmation
    }

    /// Idle mining as one closed loop per miner (see the module docs).
    /// With nothing left unconfirmed a tick's classification depends only
    /// on `(now, miner)` and only bumps counters, so the miners' ticks may
    /// be replayed in any order: each popped `BlockFound` runs its miner's
    /// ticks here — each one swallowed inside the miner's downtime, or one
    /// `on_block_found` and one [`SimRng::exp_delay`] draw — and puts back
    /// only the first tick at or after `completion`. Every tick counts as one event and other events
    /// go through `on_event`, so the count matches the event-by-event
    /// default.
    fn idle_turn(&mut self, ctx: &mut Ctx, completion: SimTime) -> Result<usize, Error> {
        let (mut replayed, miners) = (0, self.miner_rngs.len());
        while let Some((mut now, ev)) = ctx.pop_before(completion) {
            replayed += 1;
            match ev {
                // A tick of a miner the shard lacks falls to `on_event`'s error.
                Event::BlockFound { miner } if self.unconfirmed == 0 && miner < miners => loop {
                    let next = self.tick(now, miner);
                    if next >= completion {
                        ctx.schedule(next, Event::BlockFound { miner });
                        break;
                    }
                    now = next;
                    replayed += 1;
                },
                ev => self.on_event(now, ev, ctx)?,
            }
        }
        Ok(replayed)
    }

    fn report(&self, events: usize, wall: Duration) -> ShardReport {
        ShardReport {
            shard: self.shard,
            txs: self.txs,
            confirmed: self.confirmed_count(),
            completion: self.last_confirmation,
            blocks: self.blocks,
            empty_blocks: self.empty_blocks,
            stale_blocks: self.stale_blocks,
            events_processed: events,
            wall,
        }
    }
}

/// Runs the simulation to completion (every injected transaction of every
/// shard confirmed) and reports.
///
/// Thin wrapper: builds one [`ContractShardDriver`] per spec and hands
/// them to [`Runtime::builder`]. Shards are independent drivers — each derives
/// its randomness from `(config.seed, shard)` via a PRF and owns its event
/// queue, so the harness may run them on any number of threads
/// ([`RuntimeConfig::scheduler`]) and the report is bit-for-bit identical
/// to a sequential run.
///
/// Errors on an invalid configuration (zero [`RuntimeConfig::block_capacity`],
/// a minerless spec) or a malformed event stream, instead of panicking.
pub fn simulate(shards: &[ShardSpec], config: &RuntimeConfig) -> Result<RunReport, Error> {
    config.validate()?;
    let drivers = shards
        .iter()
        .map(|spec| ContractShardDriver::new(spec, config))
        .collect::<Result<Vec<_>, _>>()?;
    Runtime::builder()
        .scheduler(config.scheduler)
        .run(drivers)
        .map(|outcome| outcome.report)
}

/// Convenience: the Ethereum baseline — all transactions on one chain,
/// `miners` identical greedy miners (Sec. VI-A's benchmark). Vanilla
/// Ethereum is the degenerate sharding where nothing is separated: a
/// [`simulate`] run of one greedy shard, the [`ShardId::MAX_SHARD`], so,
/// because RNG streams are keyed by `(seed, shard)`, it is bit-identical
/// to a one-shard run of the full system under the same configuration.
/// Errors, instead of panicking, on an invalid configuration or zero
/// miners.
pub fn simulate_ethereum(
    fees: Vec<u64>,
    miners: usize,
    config: &RuntimeConfig,
) -> Result<RunReport, Error> {
    let spec = ShardSpec {
        shard: ShardId::MAX_SHARD,
        fees,
        miners,
        strategy: SelectionStrategy::IdenticalGreedy,
    };
    simulate(&[spec], config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::throughput_improvement;
    use cshard_network::{Blackouts, CommStats, LatencyModel};
    use cshard_sim::EventQueue;

    // Shadow the fallible entry points: every config in this module is
    // well-formed, so the tests read as before the `Result` change.
    fn simulate(shards: &[ShardSpec], config: &RuntimeConfig) -> RunReport {
        super::simulate(shards, config).expect("valid test config")
    }

    fn simulate_ethereum(fees: Vec<u64>, miners: usize, config: &RuntimeConfig) -> RunReport {
        super::simulate_ethereum(fees, miners, config).expect("valid test config")
    }

    fn fees(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| 1 + (i * 17) % 97).collect()
    }

    fn cfg(seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn single_miner_confirms_everything() {
        let r = simulate_ethereum(fees(20), 1, &cfg(1));
        assert_eq!(r.total_txs(), 20);
        assert_eq!(r.shards[0].confirmed, 20);
        assert!(r.completion > SimTime::ZERO);
        // 20 txs at capacity 10 → exactly 2 useful blocks; no empty ones
        // (the run stops at the last confirmation).
        assert_eq!(
            r.shards[0].blocks - r.shards[0].stale_blocks - r.shards[0].empty_blocks,
            2
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = simulate_ethereum(fees(50), 3, &cfg(7));
        let b = simulate_ethereum(fees(50), 3, &cfg(7));
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.total_blocks(), b.total_blocks());
        let c = simulate_ethereum(fees(50), 3, &cfg(8));
        assert_ne!(a.completion, c.completion);
    }

    #[test]
    fn table1_shape_more_miners_saturate() {
        // Average completion over seeds for 20 txs: 2 miners much slower
        // than 4; 4 → 7 roughly flat (the Table I plateau).
        let avg = |miners: usize| -> f64 {
            (0..200u64)
                .map(|s| {
                    simulate_ethereum(fees(20), miners, &cfg(s))
                        .completion
                        .as_secs_f64()
                })
                .sum::<f64>()
                / 200.0
        };
        let t2 = avg(2);
        let t4 = avg(4);
        let t7 = avg(7);
        assert!(t2 > t7, "t2={t2:.0} t7={t7:.0}: no initial gain");
        let plateau = (t4 - t7).abs() / t4;
        assert!(plateau < 0.20, "t4={t4:.0} t7={t7:.0} not a plateau");
    }

    #[test]
    fn greedy_duplicates_become_stale_blocks() {
        // Many fast miners on one queue: lots of duplicate selections.
        let mut total_stale = 0;
        for s in 0..10 {
            total_stale += simulate_ethereum(fees(30), 8, &cfg(s)).total_stale_blocks();
        }
        assert!(total_stale > 0, "8 racing miners must waste some blocks");
    }

    #[test]
    fn sharding_beats_single_chain() {
        // 9 shards × 22 txs in parallel vs 198 txs on one chain.
        let shard_specs: Vec<ShardSpec> = (0..9)
            .map(|i| ShardSpec::solo_greedy(ShardId::new(i), fees(22)))
            .collect();
        let sharded = simulate(&shard_specs, &cfg(3));
        // The Ethereum benchmark is the one-chain instance: the paper's
        // improvement curve is anchored at 1.0 for a single shard, and
        // Table I shows extra miners do not speed the single chain up.
        let ethereum = simulate_ethereum(fees(198), 1, &cfg(3));
        let imp = throughput_improvement(&ethereum, &sharded);
        assert!(imp > 2.5, "improvement {imp:.2} too small");
        assert_eq!(sharded.total_txs(), 198);
        assert!(sharded.shards.iter().all(|s| s.confirmed == s.txs));
    }

    #[test]
    fn idle_shard_mines_empty_blocks_until_completion() {
        // A 2-tx shard next to a 60-tx shard idles for most of the run.
        let specs = vec![
            ShardSpec::solo_greedy(ShardId::new(0), fees(2)),
            ShardSpec::solo_greedy(ShardId::new(1), fees(60)),
        ];
        let mut empties = 0;
        for s in 0..10 {
            empties += simulate(&specs, &cfg(s)).shards[0].empty_blocks;
        }
        assert!(empties > 10, "small shard produced only {empties} empties");
    }

    #[test]
    fn empty_block_window_caps_counting() {
        let specs = vec![
            ShardSpec::solo_greedy(ShardId::new(0), fees(2)),
            ShardSpec::solo_greedy(ShardId::new(1), fees(60)),
        ];
        let uncapped = simulate(&specs, &cfg(4));
        let capped = simulate(
            &specs,
            &RuntimeConfig {
                empty_block_window: Some(SimTime::from_secs(120)),
                ..cfg(4)
            },
        );
        assert!(capped.shards[0].empty_blocks <= uncapped.shards[0].empty_blocks);
    }

    #[test]
    fn equilibrium_selection_outperforms_greedy_with_many_miners() {
        // Fig. 3(h): 200 txs, one shard, 9 miners.
        let f = fees(200);
        let greedy = ShardSpec {
            shard: ShardId::new(0),
            fees: f.clone(),
            miners: 9,
            strategy: SelectionStrategy::IdenticalGreedy,
        };
        let eq = ShardSpec {
            shard: ShardId::new(0),
            fees: f,
            miners: 9,
            strategy: SelectionStrategy::Equilibrium { max_rounds: 1000 },
        };
        let mut imp_sum = 0.0;
        for s in 0..6 {
            let g = simulate(std::slice::from_ref(&greedy), &cfg(s));
            let e = simulate(std::slice::from_ref(&eq), &cfg(s));
            assert_eq!(e.shards[0].confirmed, 200);
            imp_sum += throughput_improvement(&g, &e);
        }
        let avg = imp_sum / 6.0;
        assert!(avg > 1.5, "equilibrium improvement only {avg:.2}x");
    }

    #[test]
    fn equilibrium_with_one_miner_equals_greedy_scale() {
        // One miner: both strategies confirm capacity per block; completion
        // should be within noise of each other.
        let f = fees(50);
        let mk = |strategy| ShardSpec {
            shard: ShardId::new(0),
            fees: f.clone(),
            miners: 1,
            strategy,
        };
        let g = simulate(&[mk(SelectionStrategy::IdenticalGreedy)], &cfg(2));
        let e = simulate(
            &[mk(SelectionStrategy::Equilibrium { max_rounds: 100 })],
            &cfg(2),
        );
        assert_eq!(g.shards[0].confirmed, 50);
        assert_eq!(e.shards[0].confirmed, 50);
        let useful_g = g.shards[0].blocks - g.shards[0].empty_blocks - g.shards[0].stale_blocks;
        let useful_e = e.shards[0].blocks - e.shards[0].empty_blocks - e.shards[0].stale_blocks;
        assert_eq!(useful_g, 5);
        assert_eq!(useful_e, 5);
    }

    #[test]
    fn empty_shard_contributes_nothing_but_is_reported() {
        let specs = vec![
            ShardSpec::solo_greedy(ShardId::new(0), vec![]),
            ShardSpec::solo_greedy(ShardId::new(1), fees(5)),
        ];
        let r = simulate(&specs, &cfg(1));
        assert_eq!(r.shards[0].txs, 0);
        assert_eq!(r.shards[0].completion, None);
        assert_eq!(r.total_txs(), 5);
    }

    #[test]
    fn shard_without_miners_rejected() {
        let spec = ShardSpec {
            shard: ShardId::new(0),
            fees: fees(5),
            miners: 0,
            strategy: SelectionStrategy::IdenticalGreedy,
        };
        let err = super::simulate(&[spec], &cfg(0)).unwrap_err();
        assert_eq!(
            err,
            Error::NoMiners {
                shard: ShardId::new(0)
            }
        );
    }

    /// The driver's own constructor rejects a minerless spec with a typed
    /// error, so no entry point needs a pre-check.
    #[test]
    fn minerless_driver_is_a_typed_error_not_a_panic() {
        let spec = ShardSpec {
            miners: 0,
            ..ShardSpec::solo_greedy(ShardId::new(4), fees(5))
        };
        let err = ContractShardDriver::new(&spec, &cfg(0))
            .err()
            .expect("a shard without miners must be rejected");
        assert_eq!(
            err,
            Error::NoMiners {
                shard: ShardId::new(4)
            }
        );
    }

    /// A tick for a miner the shard does not have is an event the driver
    /// never schedules: a typed error in the event loop and in the idle
    /// drain's fast path alike, not an out-of-bounds index, and so is that
    /// miner's downtime.
    #[test]
    fn ghost_miner_tick_is_rejected_not_panicked() {
        let ghost = Event::BlockFound { miner: 5 };
        // No transactions: the shard is done, so the idle drain takes its
        // per-miner loop.
        let spec = ShardSpec::solo_greedy(ShardId::new(0), Vec::new());
        let mut driver = ContractShardDriver::new(&spec, &cfg(0)).expect("one miner");
        let (mut queue, mut comm) = (EventQueue::new(), CommStats::new());
        let mut ctx = Ctx::new(&mut queue, &mut comm);
        let rejected = |got: Result<usize, Error>| {
            matches!(
                got,
                Err(Error::UnexpectedEvent {
                    driver: "ContractShardDriver",
                    ..
                })
            )
        };
        assert!(rejected(
            driver.on_event(SimTime::ZERO, ghost, &mut ctx).map(|()| 0)
        ));
        ctx.schedule(SimTime::from_secs(1), ghost);
        assert!(rejected(driver.idle_turn(&mut ctx, SimTime::from_secs(2))));
        assert_eq!(driver.report(0, Duration::ZERO).blocks, 0);
        // Nor can a ghost miner be taken down.
        let down = driver.set_downtime(5, Blackouts::default());
        assert!(matches!(
            down,
            Err(Error::Config {
                field: "downtime",
                ..
            })
        ));
    }

    #[test]
    fn ethereum_without_miners_rejected() {
        let err = super::simulate_ethereum(fees(5), 0, &cfg(0)).unwrap_err();
        assert_eq!(
            err,
            Error::NoMiners {
                shard: ShardId::MAX_SHARD
            }
        );
    }

    /// A zero block capacity or block interval is a typed error at both
    /// entry points. (A zero interval used to pass `validate()` and panic
    /// in the first miner's `exp_delay`.)
    #[test]
    fn malformed_runtime_config_is_a_typed_error() {
        type Patch = fn(&mut RuntimeConfig);
        let rows: [(&str, Patch); 2] = [
            ("block_capacity", |c| c.block_capacity = 0),
            ("mean_block_interval", |c| {
                c.mean_block_interval = SimTime::ZERO
            }),
        ];
        for (field, patch) in rows {
            let mut bad = cfg(0);
            patch(&mut bad);
            let specs = [ShardSpec::solo_greedy(ShardId::new(0), fees(5))];
            for err in [
                super::simulate(&specs, &bad).unwrap_err(),
                super::simulate_ethereum(fees(5), 1, &bad).unwrap_err(),
            ] {
                assert!(
                    matches!(err, Error::Config { field: got, .. } if got == field),
                    "expected a config error on `{field}`, got {err:?}"
                );
            }
        }
    }

    // ---- latency propagation (new in the unified runtime) ----

    fn latency_cfg(seed: u64, model: LatencyModel) -> RuntimeConfig {
        RuntimeConfig {
            propagation: PropagationModel::Network {
                latency: model,
                blackouts: Blackouts::default(),
            },
            seed,
            ..RuntimeConfig::default()
        }
    }

    /// `Window(w)` is the constant link `w` with no blackouts: a delivery is
    /// a time, not an event, and a constant delay ignores its draw, so the
    /// two spellings run one trajectory on greedy and equilibrium shards.
    #[test]
    fn instant_latency_matches_zero_window_trajectory() {
        let specs = [
            ShardSpec {
                miners: 4,
                ..ShardSpec::solo_greedy(ShardId::new(0), fees(40))
            },
            ShardSpec {
                shard: ShardId::new(1),
                fees: fees(60),
                miners: 5,
                strategy: SelectionStrategy::Equilibrium { max_rounds: 200 },
            },
        ];
        for w in [0, 1, 60].map(SimTime::from_secs) {
            let window = RuntimeConfig {
                propagation: PropagationModel::Window(w),
                ..cfg(5)
            };
            let w_run = simulate(&specs, &window);
            let l_run = simulate(&specs, &latency_cfg(5, LatencyModel::constant(w)));
            assert_eq!(w_run.fingerprint(), l_run.fingerprint(), "w = {w}");
        }
    }

    #[test]
    fn wide_area_latency_wastes_contended_blocks() {
        let mut stale = 0;
        for s in 0..10 {
            let r = simulate_ethereum(fees(30), 8, &latency_cfg(s, LatencyModel::wide_area()));
            assert_eq!(r.shards[0].confirmed, 30);
            stale += r.total_stale_blocks();
        }
        assert!(stale > 0, "slow propagation must waste contended blocks");
    }

    #[test]
    fn latency_runs_are_deterministic_and_seed_sensitive() {
        let model = LatencyModel::wide_area();
        let a = simulate_ethereum(fees(50), 3, &latency_cfg(7, model));
        let b = simulate_ethereum(fees(50), 3, &latency_cfg(7, model));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = simulate_ethereum(fees(50), 3, &latency_cfg(8, model));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn equilibrium_confirms_under_latency_propagation() {
        let spec = ShardSpec {
            shard: ShardId::new(0),
            fees: fees(60),
            miners: 5,
            strategy: SelectionStrategy::Equilibrium { max_rounds: 200 },
        };
        let r = simulate(&[spec], &latency_cfg(3, LatencyModel::wide_area()));
        assert_eq!(r.shards[0].confirmed, 60);
    }

    #[test]
    fn selection_epochs_reuse_scratch_without_leaking_state() {
        // One contended equilibrium shard played through several
        // selection epochs (100 txs, 3 miners × capacity 10 ⇒ at most 30
        // covered per epoch), beside a solo shard so `threads: 2` takes
        // the pooled path. The literals were captured at the parent of
        // the commit that made `start_epoch` reuse its buffers and
        // `BestReplyDynamics` certify-or-select: an epoch that read a
        // stale `remaining` / `initial` entry would move them.
        const FINGERPRINT: &str =
            "0x90c83ed5617c98ff18e165f7867bc833474dc231cfd1bd553d9a396bcbebb814";
        const EPOCHS: u64 = 5;
        const ROUNDS: u64 = 9;
        let specs = [
            ShardSpec {
                shard: ShardId::new(0),
                fees: fees(100),
                miners: 3,
                strategy: SelectionStrategy::Equilibrium { max_rounds: 200 },
            },
            ShardSpec::solo_greedy(ShardId::new(1), fees(30)),
        ];
        let config = cfg(5);
        let run = |threads: usize| {
            let outcome = Runtime::builder()
                .scheduler(SchedulerConfig::new(threads))
                .run(vec![
                    ContractShardDriver::new(&specs[0], &config).expect("valid test spec"),
                    ContractShardDriver::new(&specs[1], &config).expect("valid test spec"),
                ])
                .expect("valid test config");
            assert_eq!(outcome.report.fingerprint().to_string(), FINGERPRINT);
            let mut drivers = outcome.drivers.into_iter();
            drivers.next().expect("the contended shard's driver")
        };
        for threads in [1, 2] {
            let stats = run(threads).selection_stats();
            assert!(stats.epochs >= 4, "only {} epochs", stats.epochs);
            assert_eq!((stats.epochs, stats.rounds), (EPOCHS, ROUNDS));
        }
    }
}
