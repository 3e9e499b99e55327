//! A marketplace scenario: a few hot token contracts and a long tail of
//! niche ones — the workload shape the paper's introduction motivates
//! (mainnet's most popular contract holds 10.35 M transactions while
//! thousands barely see any).
//!
//! The long tail produces many *small* shards that would waste mining power
//! on empty blocks; this example shows the inter-shard merging game fusing
//! them, and what it costs.
//!
//! Run with: `cargo run --release --example token_marketplace`

use contractshard::prelude::*;

fn main() {
    // 600 transactions over 24 contracts with Zipf(1.2) popularity: the
    // top contract takes ~25%, the tail contracts a handful each.
    let workload =
        Workload::heavy_tail(600, 24, 1.2, FeeDistribution::Exponential { mean: 40.0 }, 7);
    let plan = ShardPlan::build(&workload.transactions);
    let sizes = plan.shard_sizes();
    let small = plan.small_shards(10).len();
    println!(
        "marketplace formation: {} active shards, {small} below 10 txs",
        sizes.len()
    );
    let mut sorted: Vec<u64> = sizes.iter().map(|&(_, s)| s).collect();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    println!("  shard sizes (desc): {sorted:?}");

    // Empty blocks count over the first ten minutes.
    let runtime = RuntimeConfig {
        seed: 7,
        empty_block_window: Some(SimTime::from_secs(600)),
        ..RuntimeConfig::default()
    };

    // Without merging: the tail shards idle and pack empty blocks.
    let before = ShardingSystem::testbed(runtime.clone())
        .run(&workload)
        .expect("valid config");

    // With the merging game (Algorithm 1 + 3) under unified parameters.
    let after = ShardingSystem::new(SystemConfig {
        runtime: runtime.clone(),
        pipeline: PipelineConfig {
            merging: Some(MergingConfig {
                lower_bound: 10,
                ..MergingConfig::default()
            }),
            ..PipelineConfig::default()
        },
        epoch: 1,
    })
    .run(&workload)
    .expect("valid config");

    let ethereum =
        simulate_ethereum(workload.fees(), 1, &runtime).expect("valid runtime configuration");
    let merge = after.merge.as_ref().expect("merging ran");

    println!("\nmerging game outcome:");
    println!(
        "  {} small shards -> {} merged shards ({} left unmerged)",
        merge.small_shards, merge.new_shards, merge.leftover
    );
    println!(
        "  communication spent: {} rounds total (2 per small shard — submit \
         sizes, receive broadcast)",
        after.comm.total()
    );

    println!("\nwaste and throughput:");
    println!(
        "  empty blocks: {} before merging, {} after ({}% reduction)",
        before.run.total_empty_blocks(),
        after.run.total_empty_blocks(),
        (100.0
            * (1.0
                - after.run.total_empty_blocks() as f64
                    / before.run.total_empty_blocks().max(1) as f64))
            .round()
    );
    println!(
        "  throughput improvement vs Ethereum: {:.2}x before, {:.2}x after",
        throughput_improvement(&ethereum, &before.run),
        throughput_improvement(&ethereum, &after.run),
    );
    println!(
        "  (the paper's trade-off: ~90% fewer empty blocks for ~14% less \
         throughput improvement)"
    );
}
