//! Integration across the newer substrates: snapshots, epochs and
//! proportional allocation working together.

mod common;

use contractshard::core::system::{MinerAllocation, SystemConfig};
use contractshard::ledger::StateSnapshot;
use contractshard::prelude::*;

const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 100 };

#[test]
fn snapshot_sync_joins_a_running_shard() {
    // A shard runs for a while; a new miner syncs from a snapshot and can
    // validate the next block without replaying history.
    let w = Workload::uniform_contracts(40, 1, FEES, 1);
    let mut state = common::funded_genesis(&w.transactions);
    for tx in &w.transactions[..20] {
        state.apply_transaction(tx, Address::miner(0)).unwrap();
    }

    // Checkpoint: snapshot + digest travel to the newcomer.
    let snap = StateSnapshot::capture(&state);
    let digest = snap.digest();
    let json = snap.to_json();

    // Newcomer restores and verifies the commitment.
    let received = StateSnapshot::from_json(&json).unwrap();
    assert_eq!(received.digest(), digest, "commitment pins the snapshot");
    let mut synced = received.restore();

    // Both the original and the synced node apply the remaining txs and
    // end in identical states.
    for tx in &w.transactions[20..] {
        state.apply_transaction(tx, Address::miner(0)).unwrap();
        synced.apply_transaction(tx, Address::miner(0)).unwrap();
    }
    assert_eq!(
        StateSnapshot::capture(&state).digest(),
        StateSnapshot::capture(&synced).digest()
    );
}

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
        merging: Some(MergingConfig {
            lower_bound: 10,
            ..MergingConfig::default()
        }),
        selection: Some(500),
        allocation: MinerAllocation::Proportional { total: 40 },
        placement: PlacementConfig::disabled(),
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
