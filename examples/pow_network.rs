//! A miniature real-PoW network: full nodes over the actual substrates —
//! real SHA-256 proof-of-work, real chains with state validation, the
//! Sec. III-C routing and verification workflow. No statistical model here;
//! every block is actually mined.
//!
//! Run with: `cargo run --release --example pow_network`

use contractshard::core::node::{Node, NodeError};
use contractshard::crypto::VrfPublicKey;
use contractshard::prelude::*;
use std::collections::BTreeMap;

const POW_BITS: u32 = 12; // a few thousand hashes per block

fn main() {
    // --- Genesis: fund users, register two contracts --------------------
    let mut genesis = State::new();
    for u in 0..32 {
        genesis.fund_user(Address::user(u), Amount::from_coins(100));
    }
    for c in 0..2u32 {
        genesis.register_contract(SmartContract::unconditional(
            ContractId::new(c),
            Address::user(900 + c as u64),
        ));
        genesis.fund_user(Address::user(900 + c as u64), Amount::ZERO);
    }

    // --- Miner separation (Sec. III-B) ----------------------------------
    // Fractions: shard 0 and 1 get 33/33, the MaxShard 34.
    let fractions = vec![
        (ShardId::new(0), 33u32),
        (ShardId::new(1), 33),
        (ShardId::MAX_SHARD, 34),
    ];
    let assignment =
        MinerAssignment::new(sha256(b"epoch-randomness"), &fractions).expect("sums to 100");

    // Enroll one miner per shard: draw keys until the public randomness
    // assigns one to each shard (exactly how a miner learns its shard).
    let mut roster: BTreeMap<MinerId, VrfPublicKey> = BTreeMap::new();
    let mut vrfs = Vec::new();
    let targets = [ShardId::new(0), ShardId::new(1), ShardId::MAX_SHARD];
    let mut key_seed = 0u64;
    for (i, target) in targets.iter().enumerate() {
        loop {
            let vrf = Vrf::from_seed(key_seed.to_be_bytes());
            key_seed += 1;
            if assignment.shard_of(vrf.public_key()) == *target {
                roster.insert(MinerId::new(i as u32), vrf.public_key());
                vrfs.push((*target, vrf));
                break;
            }
        }
    }
    let mut nodes: Vec<Node> = vrfs
        .into_iter()
        .enumerate()
        .map(|(i, (shard, vrf))| {
            println!("miner-{i} assigned to {shard} (verifiable from its public key)");
            Node::new(
                MinerId::new(i as u32),
                vrf,
                shard,
                genesis.clone(),
                assignment.clone(),
                roster.clone(),
                POW_BITS,
                10,
            )
        })
        .collect();

    // --- Broadcast transactions; nodes route by call graph --------------
    let txs = vec![
        Transaction::call(
            Address::user(1),
            0,
            ContractId::new(0),
            Amount::from_coins(2),
            Amount::from_raw(30),
        ),
        Transaction::call(
            Address::user(2),
            0,
            ContractId::new(0),
            Amount::from_coins(1),
            Amount::from_raw(50),
        ),
        Transaction::call(
            Address::user(3),
            0,
            ContractId::new(1),
            Amount::from_coins(3),
            Amount::from_raw(20),
        ),
        Transaction::direct(
            Address::user(4),
            0,
            Address::user(5),
            Amount::from_coins(1),
            Amount::from_raw(40),
        ),
    ];
    for tx in &txs {
        let takers: Vec<String> = nodes
            .iter_mut()
            .filter_map(|n| {
                n.submit_transaction(tx.clone())
                    .ok()
                    .map(|_| n.shard().to_string())
            })
            .collect();
        println!("tx from {:?} pooled by: {takers:?}", tx.sender);
    }

    // --- Mine in parallel shards (real nonce search) ---------------------
    println!("\nmining one block per shard at {POW_BITS}-bit difficulty…");
    let blocks: Vec<Block> = nodes
        .iter_mut()
        .map(|n| {
            n.mine_block(SimTime::from_secs(60))
                .expect("example difficulty is minable")
        })
        .collect();
    for (n, b) in nodes.iter().zip(&blocks) {
        println!(
            "  {}: block {} with {} txs, pow nonce {}",
            n.shard(),
            b.hash(),
            b.transactions.len(),
            b.header.pow_nonce
        );
    }

    // Deliver every block to every node; only same-shard nodes record it.
    let mut recorded = 0;
    for block in &blocks {
        for node in nodes.iter_mut() {
            match node.receive_block(block.clone()) {
                Ok(()) => recorded += 1,
                Err(NodeError::NotOurShard(_)) => {}
                Err(NodeError::Ledger(e)) => panic!("valid block rejected: {e}"),
                Err(e) => panic!("unexpected rejection: {e:?}"),
            }
        }
    }
    println!("\n{recorded} (block, node) pairs recorded — one per shard, as designed");

    // --- An adversary forges its shard id --------------------------------
    let mut forged = blocks[0].clone();
    forged.header.shard = ShardId::new(1);
    forged.header.mine().expect("regrind");
    match nodes[1].receive_block(forged) {
        Err(NodeError::ShardClaimMismatch { packer, claimed }) => println!(
            "forged block by {packer} claiming {claimed}: REJECTED \
             (assignment randomness proves the lie)"
        ),
        other => panic!("forgery not caught: {other:?}"),
    }

    // --- Final ledger state ----------------------------------------------
    let shard0_state = nodes[0].chain().state();
    println!(
        "\nshard-0 ledger after one block: contract-0 sink holds {}, miner \
         coinbase holds {}",
        shard0_state.balance_of(Address::user(900)),
        shard0_state.balance_of(Address::miner(0)),
    );
}
