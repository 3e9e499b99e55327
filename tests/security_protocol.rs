//! Adversarial integration tests: every cheat the paper's verifications
//! must catch, executed against the real node/ledger substrates.

use contractshard::core::assignment::MinerAssignment;
use contractshard::core::node::{Node, NodeError};
use contractshard::crypto::VrfPublicKey;
use contractshard::prelude::*;
use std::collections::BTreeMap;

const BITS: u32 = 8;

struct TestNet {
    nodes: Vec<Node>,
}

fn genesis(contracts: u32) -> State {
    let mut s = State::new();
    for u in 0..32 {
        s.fund_user(Address::user(u), Amount::from_coins(50));
    }
    for c in 0..contracts {
        s.register_contract(SmartContract::unconditional(
            ContractId::new(c),
            Address::user(500 + c as u64),
        ));
        s.fund_user(Address::user(500 + c as u64), Amount::ZERO);
    }
    s
}

/// One node per shard (contracts 0..n plus MaxShard), with keys actually
/// assigned to those shards by the epoch randomness.
fn build(contracts: u32) -> TestNet {
    let groups = contracts + 1;
    let base = 100 / groups;
    let extra = 100 % groups;
    let mut fractions: Vec<(ShardId, u32)> = (0..contracts)
        .map(|i| (ShardId::new(i), base + u32::from(i < extra)))
        .collect();
    fractions.push((ShardId::MAX_SHARD, base + u32::from(contracts < extra)));
    let assignment = MinerAssignment::new(sha256(b"sec-epoch"), &fractions);

    let mut wanted: Vec<ShardId> = (0..contracts).map(ShardId::new).collect();
    wanted.push(ShardId::MAX_SHARD);
    let mut roster: BTreeMap<MinerId, VrfPublicKey> = BTreeMap::new();
    let mut picks = Vec::new();
    let mut seed = 0u64;
    for (i, target) in wanted.iter().enumerate() {
        loop {
            let vrf = Vrf::from_seed(seed.to_be_bytes());
            seed += 1;
            if assignment.shard_of(vrf.public_key()) == *target {
                roster.insert(MinerId::new(i as u32), vrf.public_key());
                picks.push((*target, vrf));
                break;
            }
        }
    }
    let nodes = picks
        .into_iter()
        .enumerate()
        .map(|(i, (shard, vrf))| {
            Node::new(
                MinerId::new(i as u32),
                vrf,
                shard,
                genesis(contracts),
                assignment.clone(),
                roster.clone(),
                BITS,
                10,
            )
        })
        .collect();
    TestNet { nodes }
}

#[test]
fn cross_shard_double_spend_is_impossible_by_construction() {
    // User 1 only ever calls contract 0, so ONLY shard 0 pools its txs;
    // there is no second shard that could confirm a conflicting spend.
    let mut net = build(2);
    let spend_a = Transaction::call(
        Address::user(1),
        0,
        ContractId::new(0),
        Amount::from_coins(30),
        Amount::from_raw(5),
    );
    let spend_b = Transaction::call(
        Address::user(1),
        0,
        ContractId::new(0),
        Amount::from_coins(30),
        Amount::from_raw(9),
    );
    for node in net.nodes.iter_mut() {
        let _ = node.submit_transaction(spend_a.clone());
        let _ = node.submit_transaction(spend_b.clone());
    }
    // Only shard-0's node pooled them; both spends conflict, so a mined
    // block contains exactly one.
    assert_eq!(net.nodes[0].mempool_len(), 2);
    assert_eq!(net.nodes[1].mempool_len(), 0);
    let block = net.nodes[0]
        .mine_block(SimTime::from_secs(60))
        .expect("test-scale difficulty");
    assert_eq!(block.transactions.len(), 1);
    assert_eq!(
        block.transactions[0].fee,
        Amount::from_raw(9),
        "higher fee wins"
    );
    net.nodes[0].receive_block(block).unwrap();
    // The loser can never confirm anywhere: no other shard pools user 1.
    assert_eq!(
        net.nodes[0].chain().state().balance_of(Address::user(500)),
        Amount::from_coins(30)
    );
}

#[test]
fn forged_shard_id_rejected_by_every_receiver() {
    let mut net = build(2);
    net.nodes[0]
        .submit_transaction(Transaction::call(
            Address::user(2),
            0,
            ContractId::new(0),
            Amount::from_coins(1),
            Amount::from_raw(5),
        ))
        .unwrap();
    let mut forged = net.nodes[0]
        .mine_block(SimTime::from_secs(60))
        .expect("test-scale difficulty");
    forged.header.shard = ShardId::new(1);
    forged.header.mine().unwrap();
    for node in net.nodes.iter_mut() {
        let err = node.receive_block(forged.clone()).unwrap_err();
        assert!(
            matches!(err, NodeError::ShardClaimMismatch { .. }),
            "{}: {err:?}",
            node.shard()
        );
    }
}

#[test]
fn insufficient_pow_rejected() {
    let mut net = build(1);
    let mut block = net.nodes[0]
        .mine_block(SimTime::from_secs(60))
        .expect("test-scale difficulty");
    // Tamper after mining: hash no longer meets the difficulty.
    block.header.timestamp = SimTime::from_secs(61);
    let err = net.nodes[0].receive_block(block).unwrap_err();
    assert!(
        matches!(
            err,
            NodeError::Ledger(contractshard::ledger::LedgerError::InsufficientWork { .. })
        ),
        "{err:?}"
    );
}

#[test]
fn replayed_transaction_rejected_across_blocks() {
    let mut net = build(1);
    let tx = Transaction::call(
        Address::user(3),
        0,
        ContractId::new(0),
        Amount::from_coins(1),
        Amount::from_raw(5),
    );
    net.nodes[0].submit_transaction(tx.clone()).unwrap();
    let b1 = net.nodes[0]
        .mine_block(SimTime::from_secs(60))
        .expect("test-scale difficulty");
    net.nodes[0].receive_block(b1.clone()).unwrap();

    // An attacker re-broadcasts the same transaction in a hand-built block.
    let mut replay = Block::assemble(
        b1.hash(),
        2,
        net.nodes[0].shard(),
        MinerId::new(0),
        SimTime::from_secs(120),
        BITS,
        vec![tx],
    );
    replay.header.mine().unwrap();
    let err = net.nodes[0].receive_block(replay).unwrap_err();
    assert!(
        matches!(
            err,
            NodeError::Ledger(contractshard::ledger::LedgerError::BadNonce { .. })
        ),
        "{err:?}"
    );
}

#[test]
fn condition_violating_contract_call_never_confirms() {
    // A conditional contract: pay user 9 only while their balance < 1 coin.
    let mut s = genesis(0);
    s.register_contract(SmartContract::conditional(
        ContractId::new(0),
        Address::user(9),
        Condition::BalanceBelow(Address::user(9), Amount::from_coins(1)),
    ));
    let tx_ok = Transaction::call(
        Address::user(1),
        0,
        ContractId::new(0),
        Amount::from_coins(2),
        Amount::from_raw(1),
    );
    // First call: user 9 holds 50 coins at genesis → condition fails.
    assert!(matches!(
        s.validate_transaction(&tx_ok),
        Err(contractshard::ledger::LedgerError::ConditionNotMet(_))
    ));
    // Drain user 9 below the threshold and the same call becomes valid.
    let drain = Transaction::direct(
        Address::user(9),
        0,
        Address::user(10),
        Amount::from_coins(50) - Amount::from_raw(10),
        Amount::from_raw(10),
    );
    s.apply_transaction(&drain, Address::SYSTEM).unwrap();
    assert!(s.validate_transaction(&tx_ok).is_ok());
}

#[test]
fn unification_rejects_non_equilibrium_blocks_fleet_wide() {
    // Five replicas hold the same broadcast; all five agree a sixth
    // miner's claimed selection is bogus.
    let params = UnifiedParameters::from_randomness(
        sha256(b"fleet-epoch"),
        (0..6).map(MinerId::new).collect(),
        GameInputs::Select {
            shard: ShardId::new(0),
            fees: (1..=30).collect(),
            config: SelectionConfig {
                capacity: 3,
                max_rounds: 500,
            },
        },
    );
    let truth = params.selection_outcome().expect("selection inputs");
    let foreign = (0..30)
        .find(|j| !truth.assignments[5].contains(j))
        .expect("some tx is not miner 5's");
    for _replica in 0..5 {
        let verdict = params.verify_selection_block(5, &[foreign]);
        assert!(verdict.is_err(), "a replica accepted the bogus block");
    }
}
