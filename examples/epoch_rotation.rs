//! Multi-epoch operation: leader rotation, miner reshuffling, and history
//! accumulation across epochs — the periodic reconfiguration that defeats
//! slow adversarial concentration (the Sybil-attack argument of Sec. VII).
//!
//! Each epoch the leader schedule elects a leader, the pipeline's classify
//! stage (whose call graph persists across epochs) plans the batch, and
//! the leader's randomness plus the plan's fractions place every miner.
//!
//! Run with: `cargo run --release --example epoch_rotation`

use contractshard::core::pipeline::ClassifyStage;
use contractshard::prelude::*;
use std::collections::BTreeMap;

fn main() {
    let mut mgr = EpochManager::with_miner_count(60);
    let mut classify = ClassifyStage::new();
    let fees = FeeDistribution::Uniform { lo: 1, hi: 100 };

    println!("running 5 epochs over a 60-miner enrolment…\n");
    let mut prev_assignment: Option<BTreeMap<MinerId, ShardId>> = None;
    for epoch in 0..5u64 {
        // Each epoch brings a fresh transaction batch; the contract mix
        // drifts (a contract is added every other epoch).
        let contracts = 4 + (epoch / 2) as usize;
        let batch = Workload::uniform_contracts(150, contracts, fees, 100 + epoch);
        let (epoch, leader) = mgr.elect();
        let (plan, _) = classify.run(&batch.transactions);
        let assignment = mgr
            .assignment(epoch, leader, &plan)
            .expect("non-empty batch");
        let shard_of: BTreeMap<MinerId, ShardId> = mgr
            .miners()
            .map(|(id, vrf)| (id, assignment.shard_of(vrf.public_key())))
            .collect();

        // Miner movement vs. the previous epoch.
        let moved = prev_assignment
            .as_ref()
            .map(|prev| {
                shard_of
                    .iter()
                    .filter(|(id, s)| prev.get(id).is_some_and(|p| p != *s))
                    .count()
            })
            .unwrap_or(0);

        println!(
            "epoch {epoch}: leader {leader}, {} active shards, {moved} miners reshuffled",
            plan.active_shard_count(),
        );
        // Every claim is verifiable by anyone holding the broadcast.
        for (id, vrf) in mgr.miners().take(3) {
            let shard = shard_of[&id];
            assert!(assignment.verify_claim(vrf.public_key(), shard));
            println!("    {id} -> {shard} (claim verified)");
        }
        prev_assignment = Some(shard_of);
    }

    println!(
        "\nthe classify stage's call graph keeps sender history across epochs; \
         a sender that diversifies migrates to the MaxShard automatically:"
    );

    // Demonstrate cross-epoch reclassification.
    let loyal = Address::user(5_000_000);
    let call0 = Transaction::call(loyal, 0, ContractId::new(0), Amount(10), Amount(1));
    let (plan, _) = classify.run(std::slice::from_ref(&call0));
    println!(
        "  first-time sender calling contract-0 -> {} MaxShard txs (isolable)",
        plan.maxshard.len()
    );
    let call1 = Transaction::call(loyal, 1, ContractId::new(1), Amount(10), Amount(1));
    let (plan, _) = classify.run(std::slice::from_ref(&call1));
    println!(
        "  same sender calling contract-1 -> {} MaxShard txs (history forces MaxShard)",
        plan.maxshard.len()
    );
}
