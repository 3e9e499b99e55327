//! Adversarial integration tests: cheats the paper's verifications must
//! catch, executed against shard formation and the real ledger state.

use contractshard::ledger::LedgerError;
use contractshard::prelude::*;

/// A plain genesis: users 0..32 hold 50 coins each, and each of the
/// `contracts` contracts unconditionally pays its own sink user.
fn genesis(contracts: u32) -> State {
    let mut s = State::new();
    for u in 0..32 {
        s.fund_user(Address::user(u), Amount::from_coins(50))
            .expect("a user account");
    }
    for c in 0..contracts {
        s.register_contract(SmartContract::unconditional(
            ContractId::new(c),
            Address::user(500 + c as u64),
        ))
        .expect("the next dense contract id");
        s.fund_user(Address::user(500 + c as u64), Amount::ZERO)
            .expect("a user account");
    }
    s
}

#[test]
fn cross_shard_double_spend_is_impossible_by_construction() {
    // User 1 only ever calls contract 0, so both of its conflicting spends
    // (same nonce) form part of contract 0's shard and of no other: there
    // is no second shard that could confirm the other one.
    let spend = |fee| {
        Transaction::call(
            Address::user(1),
            0,
            ContractId::new(0),
            Amount::from_coins(30),
            Amount::from_raw(fee),
        )
    };
    let batch = vec![
        spend(5),
        Transaction::call(
            Address::user(2),
            0,
            ContractId::new(1),
            Amount::from_coins(1),
            Amount::from_raw(3),
        ),
        spend(9),
        // User 3 touches both contracts, so the MaxShard is not empty.
        Transaction::call(
            Address::user(3),
            0,
            ContractId::new(0),
            Amount::from_coins(1),
            Amount::from_raw(4),
        ),
        Transaction::call(
            Address::user(3),
            1,
            ContractId::new(1),
            Amount::from_coins(1),
            Amount::from_raw(4),
        ),
    ];
    let plan = ShardPlan::build(&batch);
    let shard0 = ShardPlan::shard_for_contract(ContractId::new(0));
    let shard1 = ShardPlan::shard_for_contract(ContractId::new(1));
    assert_eq!(plan.contract_shards[&shard0], vec![0, 2]);
    assert_eq!(plan.contract_shards[&shard1], vec![1]);
    assert_eq!(plan.maxshard, vec![3, 4]);
    for i in [0, 2] {
        assert_eq!(plan.shard_of[i], shard0);
    }

    // Contract 0's shard applies its transactions in order: exactly one
    // spend confirms, and the other is a replay of the same nonce.
    let mut state = genesis(2);
    let supply = state.total_balance();
    let results: Vec<_> = plan.contract_shards[&shard0]
        .iter()
        .map(|&i| state.apply_transaction(&batch[i], Address::miner(0)))
        .collect();
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 1);
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(LedgerError::BadNonce { .. }))),
        "{results:?}"
    );
    assert_eq!(state.balance_of(Address::user(500)), Amount::from_coins(30));
    assert_eq!(state.total_balance(), supply);
}

#[test]
fn condition_violating_contract_call_never_confirms() {
    // A conditional contract: pay user 9 only while their balance < 1 coin.
    let mut s = genesis(0);
    s.register_contract(SmartContract::conditional(
        ContractId::new(0),
        Address::user(9),
        Condition::BalanceBelow(Address::user(9), Amount::from_coins(1)),
    ))
    .expect("the next dense contract id");
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
        Err(LedgerError::ConditionNotMet(_))
    ));
    // Drain user 9 below the threshold and the same call becomes valid.
    let drain = Transaction::direct(
        Address::user(9),
        0,
        Address::user(10),
        Amount::from_raw(50_000_000_000 - 10),
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
