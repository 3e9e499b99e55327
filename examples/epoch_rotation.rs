//! Multi-epoch operation: leader rotation, miner reshuffling, and history
//! accumulation across epochs — the periodic reconfiguration that defeats
//! slow adversarial concentration (the Sybil-attack argument of Sec. VII).
//!
//! Run with: `cargo run --release --example epoch_rotation`

use contractshard::prelude::*;

fn main() {
    let mut mgr = EpochManager::with_miner_count(60);
    let fees = FeeDistribution::Uniform { lo: 1, hi: 100 };

    println!("running 5 epochs over a 60-miner enrolment…\n");
    let mut prev_assignment: Option<std::collections::BTreeMap<MinerId, ShardId>> = None;
    for epoch in 0..5u64 {
        // Each epoch brings a fresh transaction batch; the contract mix
        // drifts (a contract is added every other epoch).
        let contracts = 4 + (epoch / 2) as usize;
        let batch = Workload::uniform_contracts(150, contracts, fees, 100 + epoch);
        let out = mgr.run_epoch(&batch.transactions).expect("non-empty batch");

        // Miner movement vs. the previous epoch.
        let moved = prev_assignment
            .as_ref()
            .map(|prev| {
                out.shard_of
                    .iter()
                    .filter(|(id, s)| prev.get(id).is_some_and(|p| p != *s))
                    .count()
            })
            .unwrap_or(0);
        prev_assignment = Some(out.shard_of.clone());

        println!(
            "epoch {}: leader {}, {} active shards, {} miners reshuffled",
            out.epoch,
            out.leader,
            out.plan.active_shard_count(),
            moved,
        );
        // Every claim is verifiable by anyone holding the broadcast.
        for (id, shard) in out.shard_of.iter().take(3) {
            let pk = mgr.public_key(*id).unwrap();
            assert!(out.assignment.verify_claim(pk, *shard));
            println!("    {id} -> {shard} (claim verified)");
        }
    }

    println!(
        "\ncall-graph history now tracks {} senders across epochs; a sender \
         that diversifies migrates to the MaxShard automatically:",
        mgr.history().sender_count()
    );

    // Demonstrate cross-epoch reclassification.
    let loyal = Address::user(5_000_000);
    let call0 = Transaction::call(loyal, 0, ContractId::new(0), Amount(10), Amount(1));
    let out = mgr
        .run_epoch(std::slice::from_ref(&call0))
        .expect("non-empty batch");
    println!(
        "  epoch {}: first-time sender calling contract-0 -> {} MaxShard txs (isolable)",
        out.epoch,
        out.plan.maxshard.len()
    );
    let call1 = Transaction::call(loyal, 1, ContractId::new(1), Amount(10), Amount(1));
    let out = mgr
        .run_epoch(std::slice::from_ref(&call1))
        .expect("non-empty batch");
    println!(
        "  epoch {}: same sender calling contract-1 -> {} MaxShard txs (history forces MaxShard)",
        out.epoch,
        out.plan.maxshard.len()
    );
}
