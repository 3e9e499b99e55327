//! The world state and the transaction application rules.
//!
//! `State` is what each miner's "local ledger" resolves to. Validation
//! here is the double-spend guard the paper's shard formation relies on: a
//! transaction is only valid against the sender's current balance and
//! nonce, so two conflicting spends can never both apply.

use crate::account::Account;
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
    ///
    /// The balance saturates at [`u64::MAX`] base units: genesis
    /// configuration never gets near it.
    pub fn fund_user(&mut self, addr: Address, balance: Amount) {
        let entry = self
            .accounts
            .entry(addr)
            .or_insert_with(|| Account::user(Amount::ZERO));
        assert!(
            entry.is_user(),
            "cannot fund contract account {addr:?} as a user"
        );
        entry.balance = entry.balance.saturating_add(balance);
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

    /// Sum of all account balances (for conservation checks), or `None`
    /// when it overflows `u64`.
    pub fn total_balance(&self) -> Option<Amount> {
        self.accounts
            .values()
            .try_fold(Amount::ZERO, |sum, a| sum.checked_add(a.balance))
    }

    /// Validates a transaction against the current state without applying
    /// it: every check `apply_transaction` makes but the fee credit, whose
    /// recipient only the block knows.
    pub fn validate_transaction(&self, tx: &Transaction) -> Result<(), LedgerError> {
        self.balances_after(tx, None).map(drop)
    }

    /// Applies a transaction, paying its fee to `fee_recipient`.
    ///
    /// On error the state is unchanged: every new balance is computed
    /// before any is written.
    pub fn apply_transaction(
        &mut self,
        tx: &Transaction,
        fee_recipient: Address,
    ) -> Result<(), LedgerError> {
        for (addr, balance) in self.balances_after(tx, Some(fee_recipient))? {
            self.accounts
                .entry(addr)
                .or_insert_with(|| Account::user(Amount::ZERO))
                .balance = balance;
        }
        if let TxKind::ContractCall { contract, .. } = &tx.kind {
            if let Some(c) = self.contracts.get_mut(contract.0 as usize) {
                c.invocations += 1;
            }
        }
        if let Some(sender) = self.accounts.get_mut(&tx.sender) {
            sender.nonce += 1;
        }
        Ok(())
    }

    /// The balance each account `tx` touches ends with, debits first, the
    /// fee credited to `fee_recipient` when one is given; or the first
    /// check `tx` fails.
    fn balances_after(
        &self,
        tx: &Transaction,
        fee_recipient: Option<Address>,
    ) -> Result<Vec<(Address, Amount)>, LedgerError> {
        let sender = self
            .accounts
            .get(&tx.sender)
            // Contract accounts never originate transactions in this model.
            .filter(|a| a.is_user())
            .ok_or(LedgerError::UnknownSender(tx.sender))?;
        if sender.nonce != tx.nonce {
            return Err(LedgerError::BadNonce {
                sender: tx.sender,
                got: tx.nonce,
                expected: sender.nonce,
            });
        }
        let with_fee = |value: Amount| {
            value
                .checked_add(tx.fee)
                .ok_or(LedgerError::Overflow(tx.sender))
        };
        // Each debit is `(input index, account, amount)`: the index names
        // the failing input of a multi-input transaction.
        let (debits, to, value) = match &tx.kind {
            TxKind::ContractCall { contract, value } => {
                let c = self
                    .contract(*contract)
                    .ok_or(LedgerError::UnknownContract(*contract))?;
                if !c.condition_holds(|a| self.balance_of(a)) {
                    return Err(LedgerError::ConditionNotMet(*contract));
                }
                (
                    vec![(None, tx.sender, with_fee(*value)?)],
                    c.destination,
                    *value,
                )
            }
            TxKind::DirectTransfer { to, value } => {
                (vec![(None, tx.sender, with_fee(*value)?)], *to, *value)
            }
            TxKind::MultiInput { inputs, to, value } => {
                if inputs.is_empty() {
                    return Err(LedgerError::EmptyInputs);
                }
                let mut debits = Vec::with_capacity(inputs.len() + 1);
                let mut fee_paid = false;
                for (i, (&input, share)) in inputs
                    .iter()
                    .zip(split_shares(*value, inputs.len()))
                    .enumerate()
                {
                    if !self.accounts.get(&input).is_some_and(Account::is_user) {
                        let unknown = LedgerError::UnknownSender(input);
                        return Err(LedgerError::InputFailed(i, Box::new(unknown)));
                    }
                    // The sender covers the fee with its first share.
                    let pays_fee = input == tx.sender && !fee_paid;
                    fee_paid |= pays_fee;
                    let amount = if pays_fee { with_fee(share)? } else { share };
                    debits.push((Some(i), input, amount));
                }
                if !fee_paid {
                    debits.push((None, tx.sender, tx.fee));
                }
                (debits, *to, *value)
            }
        };
        // Destination must not be a contract account.
        if self.accounts.get(&to).is_some_and(|a| a.is_contract()) {
            return Err(LedgerError::TransferToContract(to));
        }
        let mut balances: Vec<(Address, Amount)> = Vec::with_capacity(debits.len() + 2);
        for (input, addr, needed) in debits {
            let k = self.touch(&mut balances, addr);
            let available = balances[k].1;
            balances[k].1 = available.checked_sub(needed).ok_or_else(|| {
                let short = LedgerError::InsufficientBalance {
                    sender: addr,
                    needed,
                    available,
                };
                match input {
                    Some(i) => LedgerError::InputFailed(i, Box::new(short)),
                    None => short,
                }
            })?;
        }
        for (addr, amount) in std::iter::once((to, value)).chain(fee_recipient.map(|r| (r, tx.fee)))
        {
            let k = self.touch(&mut balances, addr);
            balances[k].1 = balances[k]
                .1
                .checked_add(amount)
                .ok_or(LedgerError::Overflow(addr))?;
        }
        Ok(balances)
    }

    /// The index of `addr` in `balances`, entered at its current balance
    /// on first touch.
    fn touch(&self, balances: &mut Vec<(Address, Amount)>, addr: Address) -> usize {
        balances
            .iter()
            .position(|&(a, _)| a == addr)
            .unwrap_or_else(|| {
                balances.push((addr, self.balance_of(addr)));
                balances.len() - 1
            })
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
        assert_eq!(
            s.balance_of(Address::user(1)),
            Amount::from_raw(8_000_000_000 - 50)
        );
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
            Amount::from_raw(10_000_000_000 - 3 - 50)
        );
        assert_eq!(
            s.balance_of(Address::user(2)),
            Amount::from_raw(10_000_000_000 - 3)
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
                let total: u64 = shares.iter().map(Amount::raw).sum();
                assert_eq!(total, value);
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
