//! Cross-crate integration: the full pipeline from workload generation
//! through formation, merging, selection and simulation.

mod common;

use contractshard::prelude::*;

const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 100 };

#[test]
fn full_pipeline_is_deterministic_end_to_end() {
    let run = || {
        let w = Workload::with_small_shards(200, 9, 4, &[2, 5, 7, 3], FEES, 11);
        let cfg = SystemConfig {
            runtime: RuntimeConfig {
                seed: 11,
                ..RuntimeConfig::default()
            },
            pipeline: PipelineConfig {
                merging: Some(MergingConfig {
                    lower_bound: 12,
                    ..MergingConfig::default()
                }),
                selection: Some(500),
                allocation: MinerAllocation::PerShard(3),
                ..PipelineConfig::default()
            },
            epoch: 11,
        };
        let report = ShardingSystem::new(cfg).run(&w).expect("valid config");
        (
            report.run.completion,
            report.shard_sizes.clone(),
            report.run.total_blocks(),
            report.comm.total(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn every_transaction_confirms_exactly_once() {
    let w = Workload::uniform_contracts(300, 5, FEES, 3);
    let report = ShardingSystem::testbed(RuntimeConfig {
        seed: 3,
        ..RuntimeConfig::default()
    })
    .run(&w)
    .expect("valid config");
    assert_eq!(report.run.total_txs(), 300);
    let confirmed: usize = report.run.shards.iter().map(|s| s.confirmed).sum();
    assert_eq!(confirmed, 300);
    // Shard sizes partition the workload.
    let partition: u64 = report.shard_sizes.iter().map(|&(_, s)| s).sum();
    assert_eq!(partition, 300);
}

#[test]
fn merging_and_selection_compose() {
    // Both mechanisms on at once: small shards merge, multi-miner shards
    // run the selection game, and the result still confirms everything
    // faster than Ethereum.
    let w = Workload::with_small_shards(400, 9, 5, &[3, 4, 5, 6, 7], FEES, 5);
    let runtime = RuntimeConfig {
        seed: 5,
        ..RuntimeConfig::default()
    };
    let report = ShardingSystem::new(SystemConfig {
        runtime: runtime.clone(),
        pipeline: PipelineConfig {
            merging: Some(MergingConfig {
                lower_bound: 15,
                ..MergingConfig::default()
            }),
            selection: Some(500),
            allocation: MinerAllocation::PerShard(4),
            ..PipelineConfig::default()
        },
        epoch: 5,
    })
    .run(&w)
    .expect("valid config");
    let merge = report.merge.expect("merging enabled");
    assert_eq!(merge.small_shards, 5);
    assert!(report.run.shards.iter().all(|s| s.confirmed == s.txs));

    let ethereum = simulate_ethereum(w.fees(), 1, &runtime).expect("valid config");
    let imp = throughput_improvement(&ethereum, &report.run);
    assert!(imp > 2.0, "combined system improvement {imp:.2}");
}

#[test]
fn ledger_validates_a_simulated_workload_for_real() {
    // The statistical runtime and the real ledger agree on validity: every
    // generated transaction applies cleanly in order on the real state
    // machine, and the resulting balances conserve value.
    let w = Workload::uniform_contracts(150, 4, FEES, 9);
    let mut state = common::funded_genesis(&w.transactions);
    let supply = state.total_balance();
    for tx in &w.transactions {
        state
            .apply_transaction(tx, Address::miner(0))
            .expect("workloads are valid by construction");
    }
    assert_eq!(state.total_balance(), supply, "fees move, never vanish");
    // Contract invocation counters saw every call.
    let calls: u64 = (0..state.contract_count() as u32)
        .map(|c| state.contract(ContractId::new(c)).unwrap().invocations)
        .sum();
    assert_eq!(calls as usize, 150 - w.maxshard_tx_count());
}

#[test]
fn formation_plus_assignment_route_consistently() {
    // The shard a transaction lands in (formation) and the shard a miner
    // verifies for it (assignment) use the same id space: every active
    // shard receives a positive miner fraction and at least one miner in a
    // large roster.
    use contractshard::core::assignment::MinerAssignment;
    let w = Workload::uniform_contracts(200, 8, FEES, 2);
    let plan = ShardPlan::build(&w.transactions);
    let fractions = plan.fractions_percent().expect("non-empty plan");
    let assignment = MinerAssignment::new(sha256(b"itest"), &fractions).expect("sums to 100");
    let roster: Vec<(MinerId, _)> = (0..3000u64)
        .map(|i| {
            (
                MinerId::new(i as u32),
                Vrf::from_seed(i.to_be_bytes()).public_key(),
            )
        })
        .collect();
    let counts = assignment.shard_miner_counts(&roster);
    for (shard, _) in plan.shard_sizes() {
        assert!(
            counts.get(&shard).copied().unwrap_or(0) > 0,
            "{shard} received no miners"
        );
    }
    // Proportionality: the MaxShard (24/200 = 12%) gets ~12% of miners.
    let maxshard_share = counts[&ShardId::MAX_SHARD] as f64 / 3000.0;
    assert!(
        (maxshard_share - 0.12).abs() < 0.04,
        "MaxShard share {maxshard_share:.3}"
    );
}

#[test]
fn unified_parameters_run_the_system_games_identically_across_replicas() {
    // Simulate three miners receiving the same broadcast and driving their
    // own ShardingSystem instances: identical outputs (Sec. IV-C).
    let w = Workload::with_small_shards(200, 9, 3, &[4, 5, 6], FEES, 13);
    let mk = || {
        ShardingSystem::new(SystemConfig {
            runtime: RuntimeConfig {
                seed: 13,
                ..RuntimeConfig::default()
            },
            pipeline: PipelineConfig {
                merging: Some(MergingConfig {
                    lower_bound: 14,
                    ..MergingConfig::default()
                }),
                ..PipelineConfig::default()
            },
            epoch: 99,
        })
        .run(&w)
        .expect("valid config")
    };
    let a = mk();
    let b = mk();
    let c = mk();
    assert_eq!(a.shard_sizes, b.shard_sizes);
    assert_eq!(b.shard_sizes, c.shard_sizes);
    assert_eq!(a.run.completion, c.run.completion);
}
