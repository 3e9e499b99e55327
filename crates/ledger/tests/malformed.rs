//! Malformed transactions are typed errors, never panics: a value plus
//! fee past `u64::MAX`, a credit past the recipient's `u64::MAX`, a fee
//! payer that is not an input and cannot pay, and an input listed twice
//! that cannot cover both shares are rejected, and the state stays as it
//! was.

use cshard_ledger::{LedgerError, State, Transaction};
use cshard_primitives::{Address, Amount};

fn funded(users: &[(u64, u64)]) -> State {
    let mut state = State::new();
    for &(user, balance) in users {
        state.fund_user(Address::user(user), Amount::from_raw(balance));
    }
    state
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
