//! The world state and the transaction application rules.
//!
//! `State` is what each miner's "local ledger" resolves to. Validation
//! here is the double-spend guard the paper's shard formation relies on: a
//! transaction is only valid against the sender's current balance and
//! nonce, so two conflicting spends can never both apply.

use crate::account::{Account, AccountKind};
use crate::contract::SmartContract;
use crate::error::LedgerError;
use crate::transaction::{Transaction, TxKind};
use cshard_primitives::{Address, Amount, ContractId};
use std::collections::BTreeMap;

/// The account/contract world state.
#[derive(Clone, Debug, Default)]
pub struct State {
    accounts: BTreeMap<Address, Account>,
    contracts: Vec<SmartContract>,
}

impl State {
    /// An empty state.
    pub fn new() -> Self {
        State::default()
    }

    /// Creates (or tops up) a user account at genesis.
    pub fn fund_user(&mut self, addr: Address, balance: Amount) {
        let entry = self
            .accounts
            .entry(addr)
            .or_insert_with(|| Account::user(Amount::ZERO));
        assert!(
            entry.is_user(),
            "cannot fund contract account {addr:?} as a user"
        );
        entry.balance += balance;
    }

    /// Registers a smart contract, creating its account. Returns its id.
    pub fn register_contract(&mut self, contract: SmartContract) -> ContractId {
        assert_eq!(
            contract.id.0 as usize,
            self.contracts.len(),
            "contracts must be registered densely in id order"
        );
        let id = contract.id;
        self.accounts
            .insert(contract.address, Account::contract(id));
        self.contracts.push(contract);
        id
    }

    /// Looks up a contract.
    pub fn contract(&self, id: ContractId) -> Option<&SmartContract> {
        self.contracts.get(id.0 as usize)
    }

    /// Number of registered contracts.
    pub fn contract_count(&self) -> usize {
        self.contracts.len()
    }

    /// Looks up an account.
    pub fn account(&self, addr: Address) -> Option<&Account> {
        self.accounts.get(&addr)
    }

    /// The balance of an address (zero for unknown accounts, matching
    /// Ethereum's empty-account semantics).
    pub fn balance_of(&self, addr: Address) -> Amount {
        self.accounts
            .get(&addr)
            .map(|a| a.balance)
            .unwrap_or(Amount::ZERO)
    }

    /// Sum of all account balances (for conservation checks).
    pub fn total_balance(&self) -> Amount {
        self.accounts.values().map(|a| a.balance).sum()
    }

    /// Validates a transaction against the current state without applying
    /// it. Exactly the checks `apply_transaction` performs.
    pub fn validate_transaction(&self, tx: &Transaction) -> Result<(), LedgerError> {
        let sender = self
            .accounts
            .get(&tx.sender)
            .ok_or(LedgerError::UnknownSender(tx.sender))?;
        if !sender.is_user() {
            // Contract accounts never originate transactions in this model.
            return Err(LedgerError::UnknownSender(tx.sender));
        }
        if sender.nonce != tx.nonce {
            return Err(LedgerError::BadNonce {
                sender: tx.sender,
                got: tx.nonce,
                expected: sender.nonce,
            });
        }
        match &tx.kind {
            TxKind::ContractCall { contract, value } => {
                let c = self
                    .contract(*contract)
                    .ok_or(LedgerError::UnknownContract(*contract))?;
                if !c.condition_holds(|a| self.balance_of(a)) {
                    return Err(LedgerError::ConditionNotMet(*contract));
                }
                let needed = *value + tx.fee;
                if sender.balance < needed {
                    return Err(LedgerError::InsufficientBalance {
                        sender: tx.sender,
                        needed,
                        available: sender.balance,
                    });
                }
                // Destination must not be a contract account.
                if self
                    .accounts
                    .get(&c.destination)
                    .is_some_and(|a| a.is_contract())
                {
                    return Err(LedgerError::TransferToContract(c.destination));
                }
                Ok(())
            }
            TxKind::DirectTransfer { to, value } => {
                if self.accounts.get(to).is_some_and(|a| a.is_contract()) {
                    return Err(LedgerError::TransferToContract(*to));
                }
                let needed = *value + tx.fee;
                if sender.balance < needed {
                    return Err(LedgerError::InsufficientBalance {
                        sender: tx.sender,
                        needed,
                        available: sender.balance,
                    });
                }
                Ok(())
            }
            TxKind::MultiInput { inputs, to, value } => {
                if inputs.is_empty() {
                    return Err(LedgerError::EmptyInputs);
                }
                if self.accounts.get(to).is_some_and(|a| a.is_contract()) {
                    return Err(LedgerError::TransferToContract(*to));
                }
                let shares = split_shares(*value, inputs.len());
                for (i, (input, share)) in inputs.iter().zip(shares.iter()).enumerate() {
                    let acct = self.accounts.get(input).ok_or_else(|| {
                        LedgerError::InputFailed(i, Box::new(LedgerError::UnknownSender(*input)))
                    })?;
                    if !acct.is_user() {
                        return Err(LedgerError::InputFailed(
                            i,
                            Box::new(LedgerError::UnknownSender(*input)),
                        ));
                    }
                    // The sender additionally covers the fee.
                    let needed = if *input == tx.sender {
                        *share + tx.fee
                    } else {
                        *share
                    };
                    if acct.balance < needed {
                        return Err(LedgerError::InputFailed(
                            i,
                            Box::new(LedgerError::InsufficientBalance {
                                sender: *input,
                                needed,
                                available: acct.balance,
                            }),
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// Applies a transaction, paying its fee to `fee_recipient`.
    ///
    /// On error the state is unchanged (validation runs first).
    pub fn apply_transaction(
        &mut self,
        tx: &Transaction,
        fee_recipient: Address,
    ) -> Result<(), LedgerError> {
        self.validate_transaction(tx)?;
        match tx.kind.clone() {
            TxKind::ContractCall { contract, value } => {
                let destination = self.contracts[contract.0 as usize].destination;
                self.debit(tx.sender, value + tx.fee);
                self.credit(destination, value);
                self.contracts[contract.0 as usize].invocations += 1;
            }
            TxKind::DirectTransfer { to, value } => {
                self.debit(tx.sender, value + tx.fee);
                self.credit(to, value);
            }
            TxKind::MultiInput { inputs, to, value } => {
                let shares = split_shares(value, inputs.len());
                for (input, share) in inputs.iter().zip(shares) {
                    self.debit(*input, share);
                }
                self.debit(tx.sender, tx.fee);
                self.credit(to, value);
            }
        }
        self.credit(fee_recipient, tx.fee);
        let sender = self.accounts.get_mut(&tx.sender).expect("validated");
        sender.nonce += 1;
        Ok(())
    }

    fn credit(&mut self, addr: Address, amount: Amount) {
        let entry = self
            .accounts
            .entry(addr)
            .or_insert_with(|| Account::user(Amount::ZERO));
        debug_assert!(
            !matches!(entry.kind, AccountKind::Contract(_)),
            "credits to contract accounts are rejected during validation"
        );
        entry.balance += amount;
    }

    fn debit(&mut self, addr: Address, amount: Amount) {
        let entry = self
            .accounts
            .get_mut(&addr)
            .expect("debit of validated account");
        entry.balance = entry
            .balance
            .checked_sub(amount)
            .expect("debit exceeds validated balance");
    }
}

/// Splits `value` into `n` near-equal shares; the remainder lands on the
/// first share so the shares always sum to `value` exactly.
fn split_shares(value: Amount, n: usize) -> Vec<Amount> {
    assert!(n > 0);
    let each = value.raw() / n as u64;
    let remainder = value.raw() % n as u64;
    (0..n)
        .map(|i| {
            if i == 0 {
                Amount::from_raw(each + remainder)
            } else {
                Amount::from_raw(each)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Condition;
    use proptest::prelude::*;

    /// The next expected nonce of an address.
    fn nonce(s: &State, addr: Address) -> u64 {
        s.accounts.get(&addr).map_or(0, |a| a.nonce)
    }

    fn setup() -> State {
        let mut s = State::new();
        s.fund_user(Address::user(1), Amount::from_coins(10));
        s.fund_user(Address::user(2), Amount::from_coins(10));
        s.register_contract(SmartContract::unconditional(
            ContractId::new(0),
            Address::user(3),
        ));
        s
    }

    const FEE: Amount = Amount(50);
    const COLLECTOR: Address = Address::SYSTEM;

    #[test]
    fn contract_call_moves_value_and_fee() {
        let mut s = setup();
        let tx = Transaction::call(
            Address::user(1),
            0,
            ContractId::new(0),
            Amount::from_coins(2),
            FEE,
        );
        s.apply_transaction(&tx, COLLECTOR).unwrap();
        assert_eq!(s.balance_of(Address::user(1)), Amount::from_coins(8) - FEE);
        assert_eq!(s.balance_of(Address::user(3)), Amount::from_coins(2));
        assert_eq!(s.balance_of(COLLECTOR), FEE);
        assert_eq!(nonce(&s, Address::user(1)), 1);
        assert_eq!(s.contract(ContractId::new(0)).unwrap().invocations, 1);
    }

    #[test]
    fn replay_is_rejected() {
        let mut s = setup();
        let tx = Transaction::call(
            Address::user(1),
            0,
            ContractId::new(0),
            Amount::from_coins(1),
            FEE,
        );
        s.apply_transaction(&tx, COLLECTOR).unwrap();
        let err = s.apply_transaction(&tx, COLLECTOR).unwrap_err();
        assert!(matches!(
            err,
            LedgerError::BadNonce {
                got: 0,
                expected: 1,
                ..
            }
        ));
    }

    #[test]
    fn overspend_is_rejected_without_mutation() {
        let mut s = setup();
        let before = s.clone();
        let tx = Transaction::call(
            Address::user(1),
            0,
            ContractId::new(0),
            Amount::from_coins(100),
            FEE,
        );
        let err = s.apply_transaction(&tx, COLLECTOR).unwrap_err();
        assert!(matches!(err, LedgerError::InsufficientBalance { .. }));
        assert_eq!(
            s.balance_of(Address::user(1)),
            before.balance_of(Address::user(1))
        );
        assert_eq!(nonce(&s, Address::user(1)), 0);
    }

    #[test]
    fn double_spend_second_leg_fails() {
        // Balance 10: two txs of 6 each conflict — only one can apply.
        let mut s = setup();
        let tx1 = Transaction::call(
            Address::user(1),
            0,
            ContractId::new(0),
            Amount::from_coins(6),
            FEE,
        );
        let tx2 = Transaction::direct(
            Address::user(1),
            1,
            Address::user(2),
            Amount::from_coins(6),
            FEE,
        );
        s.apply_transaction(&tx1, COLLECTOR).unwrap();
        let err = s.apply_transaction(&tx2, COLLECTOR).unwrap_err();
        assert!(matches!(err, LedgerError::InsufficientBalance { .. }));
    }

    #[test]
    fn condition_gates_contract_calls() {
        let mut s = State::new();
        s.fund_user(Address::user(1), Amount::from_coins(10));
        s.fund_user(Address::user(2), Amount::from_coins(5)); // B: 5 coins
                                                              // "Transfer to B only if B's balance is below 1 coin."
        s.register_contract(SmartContract::conditional(
            ContractId::new(0),
            Address::user(2),
            Condition::BalanceBelow(Address::user(2), Amount::from_coins(1)),
        ));
        let tx = Transaction::call(
            Address::user(1),
            0,
            ContractId::new(0),
            Amount::from_coins(2),
            FEE,
        );
        let err = s.apply_transaction(&tx, COLLECTOR).unwrap_err();
        assert_eq!(err, LedgerError::ConditionNotMet(ContractId::new(0)));
    }

    #[test]
    fn unknown_contract_and_sender_rejected() {
        let mut s = setup();
        let tx = Transaction::call(
            Address::user(1),
            0,
            ContractId::new(9),
            Amount::from_coins(1),
            FEE,
        );
        assert_eq!(
            s.apply_transaction(&tx, COLLECTOR).unwrap_err(),
            LedgerError::UnknownContract(ContractId::new(9))
        );
        let tx = Transaction::direct(
            Address::user(99),
            0,
            Address::user(1),
            Amount::from_coins(1),
            FEE,
        );
        assert_eq!(
            s.apply_transaction(&tx, COLLECTOR).unwrap_err(),
            LedgerError::UnknownSender(Address::user(99))
        );
    }

    #[test]
    fn direct_transfer_to_contract_account_rejected() {
        let mut s = setup();
        let contract_addr = s.contract(ContractId::new(0)).unwrap().address;
        let tx = Transaction::direct(
            Address::user(1),
            0,
            contract_addr,
            Amount::from_coins(1),
            FEE,
        );
        assert_eq!(
            s.apply_transaction(&tx, COLLECTOR).unwrap_err(),
            LedgerError::TransferToContract(contract_addr)
        );
    }

    #[test]
    fn multi_input_draws_from_every_input() {
        let mut s = setup();
        s.fund_user(Address::user(4), Amount::from_coins(10));
        let tx = Transaction::multi_input(
            Address::user(1),
            0,
            vec![Address::user(1), Address::user(2), Address::user(4)],
            Address::user(5),
            Amount::from_raw(9),
            FEE,
        );
        s.apply_transaction(&tx, COLLECTOR).unwrap();
        assert_eq!(s.balance_of(Address::user(5)), Amount::from_raw(9));
        assert_eq!(
            s.balance_of(Address::user(1)),
            Amount::from_coins(10) - Amount::from_raw(3) - FEE
        );
        assert_eq!(
            s.balance_of(Address::user(2)),
            Amount::from_coins(10) - Amount::from_raw(3)
        );
    }

    #[test]
    fn multi_input_failure_names_the_input() {
        let mut s = setup();
        let tx = Transaction::multi_input(
            Address::user(1),
            0,
            vec![Address::user(1), Address::user(42)],
            Address::user(5),
            Amount::from_raw(2),
            FEE,
        );
        match s.apply_transaction(&tx, COLLECTOR).unwrap_err() {
            LedgerError::InputFailed(1, inner) => {
                assert_eq!(*inner, LedgerError::UnknownSender(Address::user(42)));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_inputs_rejected() {
        let mut s = setup();
        let tx = Transaction::multi_input(
            Address::user(1),
            0,
            vec![],
            Address::user(5),
            Amount::from_raw(2),
            FEE,
        );
        assert_eq!(
            s.apply_transaction(&tx, COLLECTOR).unwrap_err(),
            LedgerError::EmptyInputs
        );
    }

    #[test]
    fn shares_sum_exactly() {
        for value in [0u64, 1, 9, 10, 100, 101] {
            for n in 1..=7usize {
                let shares = split_shares(Amount::from_raw(value), n);
                assert_eq!(shares.len(), n);
                let total: Amount = shares.into_iter().sum();
                assert_eq!(total, Amount::from_raw(value));
            }
        }
    }

    proptest! {
        /// Exact supply conservation: any sequence of applied transactions
        /// keeps Σ balances == Σ genesis funds (fees move, never vanish, and
        /// nothing is minted).
        #[test]
        fn prop_conservation(ops in proptest::collection::vec((0u64..4, 0u64..4, 1u64..1000, 0u64..50), 0..40)) {
            let mut s = State::new();
            for u in 0..4 {
                s.fund_user(Address::user(u), Amount::from_coins(100));
            }
            s.register_contract(SmartContract::unconditional(
                ContractId::new(0),
                Address::user(2),
            ));
            let genesis = s.total_balance();
            let ops_len = ops.len();
            let mut applied = 0usize;
            for (from, to, value, fee) in ops {
                let sender = Address::user(from);
                let tx = if value % 2 == 0 {
                    Transaction::call(
                        sender,
                        nonce(&s, sender),
                        ContractId::new(0),
                        Amount::from_raw(value),
                        Amount::from_raw(fee),
                    )
                } else {
                    Transaction::direct(
                        sender,
                        nonce(&s, sender),
                        Address::user(to),
                        Amount::from_raw(value),
                        Amount::from_raw(fee),
                    )
                };
                if s.apply_transaction(&tx, COLLECTOR).is_ok() {
                    applied += 1;
                }
                prop_assert_eq!(s.total_balance(), genesis);
            }
            // Sanity: with 100-coin balances, every small op applies, so the
            // conservation check above ran over real transfers.
            prop_assert_eq!(applied, ops_len);
        }
    }
}
