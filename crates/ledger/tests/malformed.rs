//! Malformed genesis and malformed transactions are typed errors, never
//! panics: funding a contract account as a user, a contract registered out
//! of id order or over a funded account, a value plus fee past
//! `u64::MAX`, a credit past the recipient's `u64::MAX`, a fee payer that
//! is not an input and cannot pay, and an input listed twice that cannot
//! cover both shares are rejected, and the state stays as it was.

use cshard_ledger::{LedgerError, SmartContract, State, Transaction};
use cshard_primitives::{Address, Amount, ContractId};

fn funded(users: &[(u64, u64)]) -> State {
    let mut state = State::new();
    for &(user, balance) in users {
        state
            .fund_user(Address::user(user), Amount::from_raw(balance))
            .expect("a user account");
    }
    state
}

#[test]
fn funding_a_contract_account_fails_without_mutation() {
    let mut state = State::new();
    let contract = SmartContract::unconditional(ContractId::new(0), Address::user(1));
    let addr = contract.address;
    state
        .register_contract(contract)
        .expect("the next dense contract id");
    let before = state.account(addr).cloned();
    assert_eq!(
        state.fund_user(addr, Amount::from_raw(5)),
        Err(LedgerError::FundContractAccount(addr))
    );
    assert_eq!(state.account(addr).cloned(), before);
}

#[test]
fn a_contract_out_of_id_order_is_not_registered() {
    let mut state = State::new();
    let skipped = SmartContract::unconditional(ContractId::new(1), Address::user(1));
    let addr = skipped.address;
    assert_eq!(
        state.register_contract(skipped),
        Err(LedgerError::ContractOutOfOrder {
            got: ContractId::new(1),
            expected: 0,
        })
    );
    assert_eq!(state.contract_count(), 0);
    assert!(state.account(addr).is_none());
}

#[test]
fn a_contract_over_a_funded_account_is_not_registered() {
    let addr = Address::contract(0);
    let mut state = State::new();
    state
        .fund_user(addr, Amount::from_raw(7))
        .expect("no contract there yet");
    let before = state.clone();
    assert_eq!(
        state.register_contract(SmartContract::unconditional(
            ContractId::new(0),
            Address::user(1)
        )),
        Err(LedgerError::ContractAddressTaken(addr))
    );
    assert_eq!(state.contract_count(), 0);
    assert_eq!(state.account(addr), before.account(addr));
}

#[test]
fn value_plus_fee_overflow_fails_validation() {
    let state = funded(&[(1, 1_000)]);
    let tx = Transaction::direct(
        Address::user(1),
        0,
        Address::user(2),
        Amount::from_raw(u64::MAX),
        Amount::from_raw(1),
    );
    assert_eq!(
        state.validate_transaction(&tx),
        Err(LedgerError::Overflow(Address::user(1)))
    );
}

#[test]
fn credit_past_u64_max_fails_without_mutation() {
    let mut state = funded(&[(1, 1_000), (2, u64::MAX)]);
    let before = state.clone();
    let tx = Transaction::direct(
        Address::user(1),
        0,
        Address::user(2),
        Amount::from_raw(1),
        Amount::from_raw(1),
    );
    assert_eq!(
        state.apply_transaction(&tx, Address::SYSTEM),
        Err(LedgerError::Overflow(Address::user(2)))
    );
    for user in [1, 2] {
        let addr = Address::user(user);
        assert_eq!(state.account(addr), before.account(addr));
    }
    assert_eq!(state.balance_of(Address::SYSTEM), Amount::ZERO);
}

#[test]
fn fee_payer_outside_the_inputs_must_cover_the_fee() {
    let mut state = funded(&[(1, 0), (2, 100)]);
    let tx = Transaction::multi_input(
        Address::user(1),
        0,
        vec![Address::user(2)],
        Address::user(3),
        Amount::from_raw(10),
        Amount::from_raw(5),
    );
    assert_eq!(
        state.apply_transaction(&tx, Address::SYSTEM),
        Err(LedgerError::InsufficientBalance {
            sender: Address::user(1),
            needed: Amount::from_raw(5),
            available: Amount::ZERO,
        })
    );
    assert_eq!(state.balance_of(Address::user(2)), Amount::from_raw(100));
}

#[test]
fn an_input_listed_twice_pays_both_shares() {
    let mut state = funded(&[(1, 100), (2, 60)]);
    let tx = Transaction::multi_input(
        Address::user(1),
        0,
        vec![Address::user(2), Address::user(2)],
        Address::user(3),
        Amount::from_raw(100),
        Amount::from_raw(5),
    );
    let short = LedgerError::InsufficientBalance {
        sender: Address::user(2),
        needed: Amount::from_raw(50),
        available: Amount::from_raw(10),
    };
    assert_eq!(
        state.apply_transaction(&tx, Address::SYSTEM),
        Err(LedgerError::InputFailed(1, Box::new(short)))
    );
    assert_eq!(state.balance_of(Address::user(2)), Amount::from_raw(60));
}
