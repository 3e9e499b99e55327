//! Integration across the newer substrates: epochs and proportional
//! allocation working together.

use contractshard::prelude::*;

const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 100 };

#[test]
fn mainnet_shaped_workload_through_the_full_system() {
    // Zipf 1.08 puts rank 1 at ≈ 3.45 × the top-ten mean, the ratio of the
    // mainnet statistics Sec. II-A quotes (10 354 398 vs. 2 998 533).
    let w = Workload::heavy_tail(1_000, 16, 1.08, FEES, 4);
    let report = ShardingSystem::new(SystemConfig {
        runtime: RuntimeConfig {
            seed: 4,
            mean_block_interval: SimTime::from_millis(500),
            propagation: PropagationModel::Window(SimTime::from_millis(500)),
            ..RuntimeConfig::default()
        },
        pipeline: PipelineConfig {
            merging: Some(MergingConfig {
                lower_bound: 10,
                ..MergingConfig::default()
            }),
            selection: Some(500),
            allocation: MinerAllocation::Proportional { total: 40 },
            ..PipelineConfig::default()
        },
        epoch: 4,
    })
    .run(&w)
    .expect("valid config");
    assert_eq!(report.run.total_txs(), 1_000);
    assert!(report.run.shards.iter().all(|s| s.confirmed == s.txs));
    // The dominant contract shard exists and is the biggest.
    let max_size = report.shard_sizes.iter().map(|&(_, s)| s).max().unwrap();
    assert!(max_size > 1_000 / 16);
}

#[test]
fn epoch_manager_drives_node_verification() {
    use contractshard::core::epoch::EpochManager;
    use contractshard::core::pipeline::ClassifyStage;
    // The epoch's assignment rule is exactly what nodes verify block
    // shard-claims against.
    let mut mgr = EpochManager::with_miner_count(40);
    let w = Workload::uniform_contracts(100, 3, FEES, 6);
    let (epoch, leader) = mgr.elect();
    let (plan, _) = ClassifyStage::new().run(&w.transactions);
    let assignment = mgr
        .assignment(epoch, leader, &plan)
        .expect("non-empty batch");
    for (_, vrf) in mgr.miners().take(10) {
        let pk = vrf.public_key();
        let shard = assignment.shard_of(pk);
        assert!(assignment.verify_claim(pk, shard));
        // A forged claim to any other shard fails.
        for &other in assignment.shards() {
            if other != shard {
                assert!(!assignment.verify_claim(pk, other));
            }
        }
    }
}
