//! Quickstart: contract-centric sharding vs. vanilla Ethereum in ~40 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use contractshard::prelude::*;

fn main() {
    // The paper's testbed workload: 200 transactions spread uniformly over
    // 8 smart contracts plus the MaxShard (Sec. VI-B1).
    let workload =
        Workload::uniform_contracts(200, 8, FeeDistribution::Uniform { lo: 1, hi: 100 }, 42);

    // How the transactions are classified (Sec. III-A): single-contract
    // senders are isolable; everything else goes to the MaxShard.
    let plan = ShardPlan::build(&workload.transactions);
    println!("shard formation:");
    for (shard, size) in plan.shard_sizes() {
        println!("  {shard}: {size} transactions");
    }

    // Run the sharded system on the builder's defaults: one miner per
    // shard, one block per minute, 10 transactions per block — the paper's
    // testbed calibration. The builder validates the combination;
    // threads(0) simulates shards on one worker per core with bit-identical
    // results to a sequential run.
    let system = ShardingSystem::builder()
        .threads(0)
        .build()
        .expect("valid configuration");
    let sharded = system.run(&workload).expect("valid config");

    // The Ethereum baseline: the same transactions on one serialized chain.
    let ethereum = simulate_ethereum(workload.fees(), 1, &RuntimeConfig::default())
        .expect("valid runtime configuration");

    println!("\nresults:");
    println!(
        "  Ethereum : all confirmed after {} ({} blocks)",
        ethereum.completion,
        ethereum.total_blocks()
    );
    println!(
        "  Sharded  : all confirmed after {} ({} blocks across {} shards)",
        sharded.run.completion,
        sharded.run.total_blocks(),
        sharded.run.shards.len()
    );
    println!(
        "  Throughput improvement: {:.2}x (paper reports 7.2x at 9 shards \
         on its AWS testbed)",
        throughput_improvement(&ethereum, &sharded.run)
    );
    println!(
        "  Cross-shard communication during validation: {} rounds (always 0 \
         by construction)",
        sharded.comm.total()
    );
}
