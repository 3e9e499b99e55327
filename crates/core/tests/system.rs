//! End-to-end tests of [`ShardingSystem`] and the staged [`EpochPipeline`]
//! through the public API (relocated from `system.rs` when the epoch was
//! carved into pipeline stages).

use cshard_core::prelude::*;
use cshard_crypto::sha256;
use cshard_games::MergingConfig;
use cshard_primitives::SimTime;
use cshard_workload::{FeeDistribution, Workload};

const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 99 };

/// Field-wise sum of the outputs each stage handed the observer.
#[derive(Default)]
struct StageSums([StageOutput; 6]);

impl StageObserver for StageSums {
    fn stage_finished(&mut self, stage: StageKind, output: &StageOutput) {
        self.0[stage as usize] += *output;
    }
}

fn runtime(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        seed,
        ..RuntimeConfig::default()
    }
}

#[test]
fn testbed_run_confirms_everything() {
    let w = Workload::uniform_contracts(200, 8, FEES, 1);
    let report = ShardingSystem::testbed(runtime(1))
        .run(&w)
        .expect("valid config");
    assert_eq!(report.run.total_txs(), 200);
    assert_eq!(report.shard_sizes.len(), 9);
    assert!(report.merge.is_none());
    assert_eq!(report.comm.total(), 0, "no communication without merging");
    assert!(report.run.shards.iter().all(|s| s.confirmed == s.txs));
}

#[test]
fn fig3a_improvement_grows_with_shards() {
    // Throughput improvement vs Ethereum rises ~linearly in the shard
    // count (Fig. 3(a): 7.2× at 9 shards on the testbed).
    let mut prev = 0.0;
    for contracts in [1usize, 4, 8] {
        let mut imp_sum = 0.0;
        for seed in 0..5u64 {
            let w = Workload::uniform_contracts(200, contracts, FEES, 2);
            let sharded = ShardingSystem::testbed(runtime(seed))
                .run(&w)
                .expect("valid config");
            let eth = simulate_ethereum(w.fees(), 1, &runtime(seed)).expect("valid config");
            imp_sum += throughput_improvement(&eth, &sharded.run);
        }
        let imp = imp_sum / 5.0;
        assert!(
            imp > prev * 0.8,
            "contracts={contracts}: {imp:.2} after {prev:.2}"
        );
        prev = imp;
    }
    assert!(prev > 2.8, "9-shard improvement {prev:.2} too small");
}

#[test]
fn merging_reduces_empty_blocks() {
    // Fig. 3(c): small shards idle and spin empty blocks; merging fuses
    // them into one busy shard.
    let w = Workload::with_small_shards(200, 9, 4, &[3, 4, 5, 4], FEES, 3);
    let base = SystemConfig {
        runtime: RuntimeConfig {
            mean_block_interval: SimTime::from_millis(1500),
            propagation: PropagationModel::Window(SimTime::from_millis(1500)),
            seed: 3,
            ..RuntimeConfig::default()
        },
        ..SystemConfig::default()
    };
    let unmerged = ShardingSystem::new(base.clone())
        .run(&w)
        .expect("valid config");
    let merged = ShardingSystem::new(SystemConfig {
        merging: Some(MergingConfig {
            lower_bound: 16,
            ..MergingConfig::default()
        }),
        ..base
    })
    .run(&w)
    .expect("valid config");
    let summary = merged.merge.clone().expect("merging ran");
    assert_eq!(summary.small_shards, 4);
    assert!(summary.new_shards >= 1, "no shard formed: {summary:?}");
    assert!(
        merged.run.total_empty_blocks() < unmerged.run.total_empty_blocks(),
        "merging did not reduce empties: {} vs {}",
        merged.run.total_empty_blocks(),
        unmerged.run.total_empty_blocks()
    );
    // Fewer shards after merging.
    assert!(merged.shard_sizes.len() < unmerged.shard_sizes.len());
    // Unification cost: exactly 2 per small shard.
    assert_eq!(merged.comm.total(), 8);
}

#[test]
fn merged_runs_are_deterministic() {
    let w = Workload::with_small_shards(200, 9, 3, &[4, 5, 6], FEES, 4);
    let cfg = SystemConfig {
        runtime: runtime(9),
        merging: Some(MergingConfig {
            lower_bound: 18,
            ..MergingConfig::default()
        }),
        ..SystemConfig::default()
    };
    let a = ShardingSystem::new(cfg.clone())
        .run(&w)
        .expect("valid config");
    let b = ShardingSystem::new(cfg).run(&w).expect("valid config");
    assert_eq!(a.run.completion, b.run.completion);
    assert_eq!(a.shard_sizes, b.shard_sizes);
}

#[test]
fn selection_strategy_applies_to_multi_miner_shards() {
    let w = Workload::uniform_contracts(200, 0, FEES, 5); // single MaxShard
    let mut imp_sum = 0.0;
    for seed in 0..6u64 {
        let cfg = SystemConfig {
            runtime: runtime(seed),
            selection: Some(500),
            allocation: MinerAllocation::PerShard(9),
            ..SystemConfig::default()
        };
        let with_game = ShardingSystem::new(cfg.clone())
            .run(&w)
            .expect("valid config");
        let without = ShardingSystem::new(SystemConfig {
            selection: None,
            ..cfg
        })
        .run(&w)
        .expect("valid config");
        imp_sum += throughput_improvement(&without.run, &with_game.run);
    }
    let imp = imp_sum / 6.0;
    assert!(imp > 1.2, "selection game improvement {imp:.2}");
}

#[test]
fn proportional_allocation_tracks_shard_sizes() {
    // One dominant shard plus a small one: the dominant shard must get
    // the lion's share of a 20-miner pool, and all shards ≥ 1.
    let w = Workload::with_small_shards(200, 3, 1, &[8], FEES, 8);
    let report = ShardingSystem::new(SystemConfig {
        runtime: runtime(8),
        allocation: MinerAllocation::Proportional { total: 20 },
        ..SystemConfig::default()
    })
    .run(&w)
    .expect("valid config");
    assert_eq!(report.run.total_txs(), 200);
    assert!(report.run.shards.iter().all(|s| s.confirmed == s.txs));
}

#[test]
fn builder_defaults_match_struct_defaults() {
    let built = ShardingSystem::builder().build().expect("defaults valid");
    let direct = ShardingSystem::new(SystemConfig::default());
    let w = Workload::uniform_contracts(100, 4, FEES, 11);
    let a = built.run(&w).expect("valid config");
    let b = direct.run(&w).expect("valid config");
    assert_eq!(a.run.completion, b.run.completion);
    assert_eq!(a.shard_sizes, b.shard_sizes);
}

#[test]
fn builder_sets_every_knob() {
    let system = ShardingSystem::builder()
        .shards(9)
        .block_capacity(12)
        .mean_block_interval(SimTime::from_secs(30))
        .propagation(PropagationModel::Window(SimTime::from_secs(15)))
        .empty_block_window(SimTime::from_secs(212))
        .seed(42)
        .threads(4)
        .total_miners(20)
        .merging(16)
        .selection(500)
        .placement(PlacementConfig::engaged())
        .epoch(3)
        .build()
        .expect("valid configuration");
    let cfg = system.config();
    assert_eq!(cfg.runtime.block_capacity, 12);
    assert_eq!(cfg.runtime.mean_block_interval, SimTime::from_secs(30));
    assert_eq!(
        cfg.runtime.propagation,
        PropagationModel::Window(SimTime::from_secs(15))
    );
    assert_eq!(
        cfg.runtime.empty_block_window,
        Some(SimTime::from_secs(212))
    );
    assert_eq!(cfg.runtime.seed, 42);
    assert_eq!(cfg.runtime.scheduler, SchedulerConfig::new(4));
    assert!(matches!(
        cfg.allocation,
        MinerAllocation::Proportional { total: 20 }
    ));
    assert_eq!(cfg.merging.as_ref().map(|m| m.lower_bound), Some(16));
    assert_eq!(cfg.selection, Some(500));
    assert_eq!(cfg.placement, PlacementConfig::engaged());
    assert_eq!(cfg.epoch, 3);
}

#[test]
fn run_rejects_invalid_direct_configs() {
    use cshard_primitives::Error;
    let w = Workload::uniform_contracts(50, 2, FEES, 12);
    let zero_cap = ShardingSystem::new(SystemConfig {
        runtime: RuntimeConfig {
            block_capacity: 0,
            ..RuntimeConfig::default()
        },
        ..SystemConfig::default()
    });
    assert!(matches!(
        zero_cap.run(&w),
        Err(Error::Config {
            field: "block_capacity",
            ..
        })
    ));
    let starved = ShardingSystem::new(SystemConfig {
        runtime: runtime(1),
        allocation: MinerAllocation::Proportional { total: 1 },
        ..SystemConfig::default()
    });
    assert!(matches!(
        starved.run(&w),
        Err(Error::InsufficientMiners { .. })
    ));
}

#[test]
fn from_impls_wire_the_old_call_sites() {
    let w = Workload::uniform_contracts(80, 3, FEES, 13);
    let via_runtime: ShardingSystem = runtime(2).into();
    let via_config: ShardingSystem = SystemConfig {
        runtime: runtime(2),
        ..SystemConfig::default()
    }
    .into();
    let a = via_runtime.run(&w).expect("valid config");
    let b = via_config.run(&w).expect("valid config");
    assert_eq!(a.run.completion, b.run.completion);
    // SystemBuilder -> SystemConfig is the unvalidated escape hatch.
    let cfg: SystemConfig = ShardingSystem::builder().seed(9).into();
    assert_eq!(cfg.runtime.seed, 9);
}

#[test]
fn total_txs_preserved_through_merging() {
    let w = Workload::with_small_shards(200, 9, 5, &[2, 3, 4, 5, 6], FEES, 6);
    let report = ShardingSystem::new(SystemConfig {
        runtime: runtime(7),
        merging: Some(MergingConfig {
            lower_bound: 15,
            ..MergingConfig::default()
        }),
        ..SystemConfig::default()
    })
    .run(&w)
    .expect("valid config");
    let total: u64 = report.shard_sizes.iter().map(|&(_, s)| s).sum();
    assert_eq!(total, 200);
    assert_eq!(report.run.total_txs(), 200);
}

/// The placement engine's merge-carry pin, fuzzed over 200 seeds: with
/// carry-only placement (`max_moves_per_epoch: 0` — no migrations, just
/// persistent merge groups), repeated identical epochs must be
/// **bit-identical** to a cold pipeline while spending strictly fewer
/// replicator-dynamics iterations — the carried partition is reused, not
/// recomputed. This is the contract that lets merge decisions persist
/// across epochs without perturbing a single golden result.
#[test]
fn carried_merge_groups_match_cold_recompute_over_200_seeds() {
    let carry_only = PlacementConfig {
        max_moves_per_epoch: 0,
        ..PlacementConfig::engaged()
    };
    for seed in 0..200u64 {
        // Seed-indexed small-shard patterns: every point gives the merge
        // game real work, with varying group shapes.
        let shards = [6usize, 8, 9][(seed % 3) as usize];
        let smalls: &[u64] = [
            &[3u64, 4, 5, 4][..],
            &[2u64, 3, 4, 5, 6][..],
            &[4u64, 4, 4][..],
        ][((seed / 3) % 3) as usize];
        // Every small-size pattern sums past both bounds, so the game
        // always has at least one mergeable group to work on.
        let lower_bound = [8u64, 10][((seed / 9) % 2) as usize];
        let w = Workload::with_small_shards(120, shards, smalls.len(), smalls, FEES, seed);
        let fees = w.fees();
        let config = |placement: PlacementConfig| PipelineConfig {
            merging: Some(MergingConfig {
                lower_bound,
                ..MergingConfig::default()
            }),
            placement,
            ..PipelineConfig::default()
        };
        let drive = |placement: PlacementConfig| {
            let mut pipeline = EpochPipeline::new(config(placement));
            let mut sums = StageSums::default();
            let mut runs = Vec::new();
            for _ in 0..2 {
                let out = pipeline
                    .run_epoch_observed(
                        EpochInput {
                            transactions: &w.transactions,
                            fees: &fees,
                            randomness: sha256(seed.to_be_bytes()),
                            runtime: runtime(seed),
                        },
                        &mut sums,
                    )
                    .expect("valid config");
                runs.push((out.run.fingerprint(), out.shard_sizes, out.migrations));
            }
            (runs, sums.0[StageKind::Merge as usize])
        };
        let (cold_runs, cold_merge) = drive(PlacementConfig::disabled());
        let (carry_runs, carry_merge) = drive(carry_only);
        assert_eq!(
            cold_runs, carry_runs,
            "seed {seed}: carry-only placement changed a result"
        );
        assert!(
            carry_runs.iter().all(|(_, _, m)| m.is_empty()),
            "seed {seed}: carry-only mode must propose no migrations"
        );
        assert!(
            cold_merge.iterations > 0,
            "seed {seed}: grid point gave the merge game no work"
        );
        assert!(
            carry_merge.iterations < cold_merge.iterations,
            "seed {seed}: carried {} !< cold {}",
            carry_merge.iterations,
            cold_merge.iterations
        );
        assert!(
            carry_merge.carried > 0,
            "seed {seed}: the second epoch must reuse carried groups"
        );
        assert_eq!(cold_merge.carried, 0, "seed {seed}: cold never carries");
    }
}

/// With merging, selection and placement on, the observer's sums over
/// three epochs show every kind of counter live: merge iterations,
/// scheduler tasks and carried classifications.
#[test]
fn observed_stage_sums_are_live_with_every_stage_on() {
    let w = Workload::with_small_shards(200, 9, 4, &[3, 4, 5, 4], FEES, 17);
    let fees = w.fees();
    let mut pipeline = EpochPipeline::new(PipelineConfig {
        merging: Some(MergingConfig {
            lower_bound: 16,
            ..MergingConfig::default()
        }),
        selection: Some(500),
        allocation: MinerAllocation::PerShard(3),
        warm_start: false,
        placement: PlacementConfig::engaged(),
    });
    let mut sums = StageSums::default();
    for _ in 0..3 {
        pipeline
            .run_epoch_observed(
                EpochInput {
                    transactions: &w.transactions,
                    fees: &fees,
                    randomness: sha256(17u64.to_be_bytes()),
                    runtime: runtime(17),
                },
                &mut sums,
            )
            .expect("valid config");
    }
    let totals = |kind: StageKind| sums.0[kind as usize];
    assert!(totals(StageKind::Merge).iterations > 0);
    assert!(totals(StageKind::Unify).tasks_scheduled > 0);
    assert!(totals(StageKind::Classify).carried > 0);
}

/// A `LongRun` is constructible from raw config structs, so nothing has
/// validated them before the first epoch: every malformed knob must come
/// back as a typed `Error::Config` naming its field, never as a panic.
#[test]
fn malformed_long_run_input_is_a_typed_error() {
    type Patch = fn(&mut LongRunConfig, &mut SimTime);
    let rows: [(&str, Patch); 8] = [
        ("merging.eta", |c, _| {
            c.merging.as_mut().expect("on by default").eta = f64::NAN
        }),
        ("merging.reward", |c, _| {
            let m = c.merging.as_mut().expect("on by default");
            m.reward = m.cost;
        }),
        ("placement.min_dominance_percent", |c, _| {
            c.placement = PlacementConfig {
                min_dominance_percent: 0,
                ..PlacementConfig::engaged()
            }
        }),
        ("epoch_interval", |_, interval| *interval = SimTime::ZERO),
        ("block_capacity", |c, _| c.runtime.block_capacity = 0),
        ("mean_block_interval", |c, _| {
            c.runtime.mean_block_interval = SimTime::ZERO
        }),
        ("warm_start", |c, _| c.warm_start = true),
        ("miners", |c, _| c.miners = 0),
    ];
    for (field, patch) in rows {
        let (mut config, mut interval) = (LongRunConfig::default(), SimTime::from_secs(60));
        patch(&mut config, &mut interval);
        let stream = Workload::uniform_contracts(40, 3, FEES, 21)
            .transactions
            .into_iter()
            .enumerate()
            .map(|(i, tx)| (SimTime::from_millis(i as u64), tx));
        let mut long_run = LongRun::new(config);
        let err = long_run.run_stream(stream, interval).err();
        assert!(
            matches!(err, Some(Error::Config { field: got, .. }) if got == field),
            "expected a config error on `{field}`, got {err:?}"
        );
        assert!(long_run.reports().is_empty(), "`{field}` ran an epoch");
    }
}

/// Seals `source` with the lazy adaptor and with the event-loop driver at
/// threads 1 and 4, asserting all three yield the same batches.
fn assert_shells_agree<T, S>(source: impl Fn() -> S, interval: SimTime)
where
    T: PartialEq + std::fmt::Debug + Send + 'static,
    S: Iterator<Item = (SimTime, T)> + Send + 'static,
{
    let lazy: Vec<(u64, Vec<T>)> = EpochBatches::new(source(), interval)
        .collect::<Result<_, _>>()
        .expect("well-formed stream");
    for threads in [1, 4] {
        let driven = Runtime::builder()
            .scheduler(SchedulerConfig::new(threads))
            .run(vec![StreamDriver::new(source(), interval)])
            .expect("well-formed stream")
            .drivers
            .remove(0)
            .into_batches();
        assert_eq!(lazy, driven, "interval {interval}, threads {threads}");
    }
}

#[test]
fn epoch_batches_match_the_stream_driver() {
    use cshard_workload::{BurstEpisode, SpamFlood};
    let intervals = [1, 7, 60_000].map(SimTime::from_millis);
    let hand: [&[u64]; 5] = [
        // On boundaries of every interval, then quiet gaps of many epochs.
        &[0, 7, 14, 14, 21, 60_000, 60_007, 420_000, 420_001],
        &[3, 3, 3, 6, 8, 9, 13, 700, 60_001, 180_003],
        &[],
        &[5],
        &[59_999, 60_000],
    ];
    let config = StreamConfig {
        accounts: 5_000,
        contracts: 16,
        bursts: vec![BurstEpisode {
            start: SimTime::from_secs(400),
            end: SimTime::from_secs(900),
            rate_multiplier: 6.0,
        }],
        spam: Some(SpamFlood {
            start: SimTime::from_secs(1_200),
            end: SimTime::from_secs(2_000),
            fraction: 0.6,
        }),
        seed: 27,
        ..StreamConfig::default()
    };
    for interval in intervals {
        for ms in hand {
            let arrivals = || {
                ms.iter()
                    .enumerate()
                    .map(|(i, &t)| (SimTime::from_millis(t), i))
                    .collect::<Vec<_>>()
                    .into_iter()
            };
            assert_shells_agree(arrivals, interval);
        }
        assert_shells_agree(|| TxStream::new(config.clone()).take(10_000), interval);
    }
}
