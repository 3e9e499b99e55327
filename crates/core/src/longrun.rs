//! Long-run operation: the sharding system across many epochs.
//!
//! One [`crate::system::ShardingSystem`] run answers "how fast does one
//! injection confirm?". A deployment lives longer: every epoch brings a new
//! transaction batch, a new VRF leader, fresh assignment randomness, and a
//! sender history that keeps accumulating (so the MaxShard's share grows as
//! users diversify). [`LongRun`] drives that loop — leader election from
//! the [`EpochManager`], epochs through one persistent
//! [`EpochPipeline`] (whose classify stage owns the accumulating call
//! graph) — and aggregates the metrics operators watch across epochs:
//! sustained throughput improvement, waste, communication, and MaxShard
//! drift.

use crate::epoch::EpochManager;
use crate::pipeline::{EpochInput, EpochPipeline, PipelineConfig, SilentObserver, StageObserver};
use cshard_games::MergingConfig;
use cshard_ledger::Transaction;
use cshard_place::PlacementConfig;
use cshard_primitives::{Error, Hash32, MinerId, SimTime};
use cshard_runtime::report::throughput_improvement;
use cshard_runtime::{simulate_ethereum, EpochBatches, RuntimeConfig};

/// The randomness an epoch's unified game parameters derive from (the
/// leader's VRF output is already baked into the assignment; a stable
/// sub-digest keyed by the epoch number seeds the game layer).
pub fn game_randomness(epoch: u64) -> Hash32 {
    cshard_crypto::sha256_concat(&[b"epoch-game-randomness".as_slice(), &epoch.to_be_bytes()])
}

/// Per-epoch aggregate results.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Epoch number.
    pub epoch: u64,
    /// The elected leader.
    pub leader: MinerId,
    /// Active shards this epoch (post-merge).
    pub shards: usize,
    /// Fraction of the batch routed to the MaxShard (history drift).
    pub maxshard_fraction: f64,
    /// Throughput improvement vs. the one-chain baseline on this batch.
    pub improvement: f64,
    /// Empty blocks across the epoch's run.
    pub empty_blocks: usize,
    /// Cross-shard communication rounds this epoch (merging only; always
    /// zero for validation).
    pub comm_rounds: u64,
}

/// Configuration of a long run.
#[derive(Clone, Debug)]
pub struct LongRunConfig {
    /// Block-production parameters (the seed is varied per epoch).
    pub runtime: RuntimeConfig,
    /// Merging-game settings; `None` disables merging.
    pub merging: Option<MergingConfig>,
    /// Number of enrolled miners (assignment is proportional per epoch,
    /// but the simulated run still uses one miner per shard, as in the
    /// paper's testbed). Zero is a config error: no leader can be elected.
    pub miners: u32,
    /// Retired: `false` is its one legal value, and
    /// [`LongRun::run_epoch`] rejects `true` as a config error. Kept only
    /// because the benchmark harness names it; deleted once ROADMAP item
    /// 1(c) stops it doing so.
    pub warm_start: bool,
    /// The cross-epoch placement engine (merge-group carry-over +
    /// hot-account migration). Disabled by default.
    pub placement: PlacementConfig,
}

impl Default for LongRunConfig {
    fn default() -> Self {
        LongRunConfig {
            runtime: RuntimeConfig::default(),
            merging: Some(MergingConfig::default()),
            miners: 32,
            warm_start: false,
            placement: PlacementConfig::disabled(),
        }
    }
}

/// A multi-epoch simulation.
#[derive(Debug)]
pub struct LongRun {
    config: LongRunConfig,
    /// `None` for an empty enrolment, which every epoch rejects.
    epochs: Option<EpochManager>,
    pipeline: EpochPipeline,
}

impl LongRun {
    /// Creates a long run with a fresh miner enrolment.
    pub fn new(config: LongRunConfig) -> Self {
        let epochs = (config.miners > 0).then(|| EpochManager::with_miner_count(config.miners));
        let pipeline = EpochPipeline::new(PipelineConfig {
            merging: config.merging,
            warm_start: config.warm_start,
            placement: config.placement,
            ..PipelineConfig::default()
        });
        LongRun {
            config,
            epochs,
            pipeline,
        }
    }

    /// Drives one epoch over `batch` (the epoch's injected transactions
    /// with their fees) and returns its report.
    ///
    /// Errors on an empty enrolment (`Error::Config { field: "miners" }`),
    /// an empty batch, a malformed configuration (including the retired
    /// `warm_start: true`), merge-game misuse, or when the epoch's
    /// simulation run is rejected — the long run never panics on input.
    pub fn run_epoch(&mut self, batch: &[Transaction]) -> Result<EpochReport, Error> {
        self.epoch(batch, &mut SilentObserver)
    }

    /// [`LongRun::run_epoch`], handing every stage's counts to `observer`.
    fn epoch(
        &mut self,
        batch: &[Transaction],
        observer: &mut dyn StageObserver,
    ) -> Result<EpochReport, Error> {
        let Some(epochs) = self.epochs.as_mut() else {
            return Err(Error::Config {
                field: "miners",
                reason: "an epoch needs at least one enrolled miner".into(),
            });
        };
        if batch.is_empty() {
            return Err(Error::Config {
                field: "batch",
                reason: "an epoch needs transactions".into(),
            });
        }
        let fees: Vec<u64> = batch.iter().map(|t| t.fee.raw()).collect();
        let (epoch, leader) = epochs.elect();

        // Epoch-salted seed; the pipeline's persistent classify stage
        // carries the accumulated sender history.
        let runtime = RuntimeConfig {
            seed: self.config.runtime.seed ^ epoch.wrapping_mul(0x9E37_79B9),
            ..self.config.runtime.clone()
        };
        let out = self.pipeline.run_epoch_observed(
            EpochInput {
                transactions: batch,
                fees: &fees,
                randomness: game_randomness(epoch),
                runtime: runtime.clone(),
            },
            observer,
        )?;
        let ethereum = simulate_ethereum(fees, 1, &runtime)?;

        Ok(EpochReport {
            epoch,
            leader,
            shards: out.shard_sizes.len(),
            maxshard_fraction: out.plan.maxshard.len() as f64 / batch.len() as f64,
            improvement: throughput_improvement(&ethereum, &out.run),
            empty_blocks: out.run.total_empty_blocks(),
            comm_rounds: out.comm.total(),
        })
    }

    /// Drives epochs from a lazy arrival stream instead of pre-cut
    /// batches: arrivals are sealed into per-epoch batches every
    /// `epoch_interval` of simulated time by [`EpochBatches`], and each
    /// batch runs through [`LongRun::run_epoch`] as soon as it is sealed,
    /// before the next arrival past it is pulled. Sealing is arithmetic on
    /// timestamps — no injection run, no scheduler — so memory is
    /// O(epoch), not O(stream), and the stream may be unbounded. Intervals
    /// with no arrivals produce no epoch — a long-lived deployment idles
    /// through quiet periods instead of erroring on empty batches.
    ///
    /// Returns the reports of the epochs this call ran, in order. On an
    /// error — a rewinding timestamp (`Error::Config { field: "stream" }`),
    /// a zero interval with a non-empty stream (`field: "epoch_interval"`)
    /// or a rejected epoch — the epochs sealed before it have already run:
    /// the next epoch is numbered after them.
    pub fn run_stream(
        &mut self,
        stream: impl Iterator<Item = (SimTime, Transaction)>,
        epoch_interval: SimTime,
    ) -> Result<Vec<EpochReport>, Error> {
        self.run_stream_observed(stream, epoch_interval, &mut SilentObserver)
    }

    /// [`LongRun::run_stream`], bracketing every stage of every epoch with
    /// the caller's observer — how a harness times or counts the stages
    /// of a long run.
    pub fn run_stream_observed(
        &mut self,
        stream: impl Iterator<Item = (SimTime, Transaction)>,
        epoch_interval: SimTime,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<EpochReport>, Error> {
        let mut reports = Vec::new();
        for sealed in EpochBatches::new(stream, epoch_interval) {
            let (_sim_epoch, batch) = sealed?;
            reports.push(self.epoch(&batch, observer)?);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_workload::{FeeDistribution, Workload};

    const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 100 };

    fn batch(epoch: u64, contracts: usize) -> Vec<Transaction> {
        Workload::uniform_contracts(160, contracts, FEES, 1000 + epoch).transactions
    }

    #[test]
    fn epochs_accumulate_reports() {
        let mut lr = LongRun::new(LongRunConfig::default());
        let mut total = 0.0;
        for e in 0..4 {
            let report = lr.run_epoch(&batch(e, 5)).expect("valid batch");
            assert_eq!(report.epoch, e);
            assert!(report.improvement > 1.0, "epoch {e}: {report:?}");
            assert!(report.shards >= 2);
            total += report.improvement;
        }
        let mean = total / 4.0;
        assert!(mean > 1.5, "mean improvement {mean}");
    }

    #[test]
    fn merging_keeps_comm_at_two_per_small_shard() {
        let mut lr = LongRun::new(LongRunConfig {
            merging: Some(MergingConfig {
                lower_bound: 12,
                ..MergingConfig::default()
            }),
            ..LongRunConfig::default()
        });
        // A batch with deliberate small shards.
        let w = Workload::with_small_shards(160, 8, 3, &[4, 5, 6], FEES, 7);
        let report = lr.run_epoch(&w.transactions).expect("valid batch");
        assert_eq!(report.comm_rounds, 6, "2 per small shard");
    }

    #[test]
    fn history_drift_grows_the_maxshard() {
        // Re-sending from the same users across epochs with different
        // contracts pushes them into the MaxShard over time.
        let mut lr = LongRun::new(LongRunConfig {
            merging: None,
            ..LongRunConfig::default()
        });
        // Epoch 0: users 0..160 call contract set A.
        let w0 = Workload::uniform_contracts(160, 4, FEES, 42);
        let r0 = lr
            .run_epoch(&w0.transactions)
            .expect("valid batch")
            .maxshard_fraction;
        // Epoch 1: THE SAME senders now call a different contract each —
        // multi-contract history forces them into the MaxShard.
        let mut w1 = Vec::new();
        for (i, tx) in w0.transactions.iter().enumerate() {
            if let cshard_ledger::TxKind::ContractCall { contract, value } = &tx.kind {
                let other = cshard_primitives::ContractId::new((contract.0 + 1) % 4);
                let _ = (i, value);
                w1.push(Transaction::call(
                    tx.sender,
                    tx.nonce + 1,
                    other,
                    *value,
                    tx.fee,
                ));
            }
        }
        let r1 = lr.run_epoch(&w1).expect("valid batch").maxshard_fraction;
        assert!(r1 > r0 + 0.5, "drift not visible: {r0:.2} -> {r1:.2}");
    }

    #[test]
    fn deterministic_across_replays() {
        let run = || {
            let mut lr = LongRun::new(LongRunConfig::default());
            let first = lr.run_epoch(&batch(0, 5)).expect("valid batch");
            let second = lr.run_epoch(&batch(1, 6)).expect("valid batch");
            (first.improvement, second.improvement)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stream_fed_epochs_match_batch_fed() {
        // 120 txs at 40 ms spacing, sealed every 1 600 ms → 3 batches of
        // 40, identical to hand-cut chunks.
        let txs = Workload::uniform_contracts(120, 4, FEES, 9).transactions;
        let stream = txs
            .clone()
            .into_iter()
            .enumerate()
            .map(|(i, tx)| (SimTime::from_millis(i as u64 * 40), tx));
        let mut streamed = LongRun::new(LongRunConfig::default());
        let reports = streamed
            .run_stream(stream, SimTime::from_millis(1_600))
            .expect("valid stream");
        assert_eq!(reports.len(), 3);
        let mut batched = LongRun::new(LongRunConfig::default());
        let b: Vec<f64> = txs
            .chunks(40)
            .map(|chunk| batched.run_epoch(chunk).expect("valid batch").improvement)
            .collect();
        let a: Vec<f64> = reports.iter().map(|r| r.improvement).collect();
        assert_eq!(a, b, "stream-fed epochs must replay batch-fed exactly");
    }

    #[test]
    fn epochs_sealed_before_a_rewind_have_already_run() {
        // 40 txs per 1 600 ms epoch; arrival 100 rewinds, after arrivals
        // 40 and 80 sealed epochs 0 and 1.
        let txs = Workload::uniform_contracts(120, 4, FEES, 9).transactions;
        let stream = txs.clone().into_iter().enumerate().map(|(i, tx)| {
            let ms = if i == 100 { 0 } else { i as u64 * 40 };
            (SimTime::from_millis(ms), tx)
        });
        let mut lr = LongRun::new(LongRunConfig::default());
        let err = lr.run_stream(stream, SimTime::from_millis(1_600)).err();
        assert!(
            matches!(
                err,
                Some(Error::Config {
                    field: "stream",
                    ..
                })
            ),
            "{err:?}"
        );
        // Epochs 0 and 1 ran: the next one is epoch 2.
        let next = lr.run_epoch(&txs[..40]).expect("valid batch");
        assert_eq!(next.epoch, 2);
    }

    #[test]
    fn quiet_intervals_produce_no_epoch() {
        let txs = Workload::uniform_contracts(20, 2, FEES, 11).transactions;
        // Two tight clusters separated by a long silence.
        let stream = txs.into_iter().enumerate().map(|(i, tx)| {
            let at = if i < 10 {
                SimTime::from_millis(i as u64)
            } else {
                SimTime::from_millis(10_000 + i as u64)
            };
            (at, tx)
        });
        let mut lr = LongRun::new(LongRunConfig::default());
        let reports = lr
            .run_stream(stream, SimTime::from_millis(1_000))
            .expect("valid stream");
        assert_eq!(reports.len(), 2, "silent intervals are skipped, not run");
    }

    #[test]
    fn streamed_epochs_reclassify_only_churn() {
        // A small account pool repeating into its home contracts: after
        // the first sightings, most senders are carried, not recomputed.
        use cshard_workload::{StreamConfig, TxStream};
        let stream = TxStream::new(StreamConfig {
            accounts: 50,
            contracts: 4,
            seed: 3,
            ..StreamConfig::default()
        })
        .take(400);
        let mut lr = LongRun::new(LongRunConfig {
            merging: None,
            ..LongRunConfig::default()
        });
        let mut sums = crate::pipeline::StageSums::default();
        let reports = lr
            .run_stream_observed(stream, SimTime::from_secs(60), &mut sums)
            .expect("valid stream");
        assert!(reports.len() >= 2, "expected several epochs");
        let c = sums.totals[crate::pipeline::StageKind::Classify as usize];
        assert!(
            c.carried > c.reclassified,
            "repeat-sender traffic must be carried, not reclassified: \
             carried={} reclassified={}",
            c.carried,
            c.reclassified
        );
    }

    #[test]
    fn empty_batch_rejected() {
        let err = LongRun::new(LongRunConfig::default())
            .run_epoch(&[])
            .unwrap_err();
        assert!(err.to_string().contains("needs transactions"));
    }
}
