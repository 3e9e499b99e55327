//! Accounts: externally-owned user accounts and contract accounts.

use cshard_primitives::{Amount, ContractId, Nonce};

/// What kind of account an address denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccountKind {
    /// An externally-owned account controlled by a user key.
    User,
    /// A smart-contract account; its behaviour lives in the contract
    /// registry under the given id.
    Contract(ContractId),
}

/// A ledger account.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Account {
    /// Spendable balance.
    pub balance: Amount,
    /// Next expected transaction nonce (starts at 0).
    pub nonce: Nonce,
    /// User or contract.
    pub kind: AccountKind,
}

impl Account {
    /// A fresh user account with the given starting balance.
    pub fn user(balance: Amount) -> Self {
        Account {
            balance,
            nonce: 0,
            kind: AccountKind::User,
        }
    }

    /// A fresh contract account.
    ///
    /// Contract accounts in this model never hold value themselves: the
    /// contract mediates transfers between user accounts (the paper's
    /// "a new transaction is conducted between user A and that smart
    /// contract account", with the balance change recorded on users A and
    /// B). Keeping them value-free simplifies conservation invariants.
    pub fn contract(id: ContractId) -> Self {
        Account {
            balance: Amount::ZERO,
            nonce: 0,
            kind: AccountKind::Contract(id),
        }
    }

    /// True for user accounts.
    pub fn is_user(&self) -> bool {
        matches!(self.kind, AccountKind::User)
    }

    /// True for contract accounts.
    pub fn is_contract(&self) -> bool {
        matches!(self.kind, AccountKind::Contract(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_account_basics() {
        let a = Account::user(Amount::from_coins(10));
        assert!(a.is_user());
        assert!(!a.is_contract());
        assert_eq!(a.nonce, 0);
        assert_eq!(a.kind, AccountKind::User);
    }

    #[test]
    fn contract_account_basics() {
        let c = Account::contract(ContractId::new(4));
        assert!(c.is_contract());
        assert!(c.balance.is_zero());
        assert_eq!(c.kind, AccountKind::Contract(ContractId::new(4)));
    }
}
