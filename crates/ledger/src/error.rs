//! Ledger error types.

use cshard_primitives::{Address, Amount, ContractId, Nonce};
use std::fmt;

/// Everything that can go wrong when validating a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// The sending account does not exist.
    UnknownSender(Address),
    /// The transaction references a contract that is not registered.
    UnknownContract(ContractId),
    /// The transaction nonce does not match the account's next nonce —
    /// either a replay (too low) or a gap (too high).
    BadNonce {
        /// Account whose nonce mismatched.
        sender: Address,
        /// Nonce the transaction carried.
        got: Nonce,
        /// Nonce the state expected.
        expected: Nonce,
    },
    /// The sender cannot cover value + fee. This is the double-spend guard.
    InsufficientBalance {
        /// Account with the shortfall.
        sender: Address,
        /// Amount the transaction needs (value + fee).
        needed: Amount,
        /// Amount actually available.
        available: Amount,
    },
    /// The contract's recorded condition evaluated to false, so the
    /// transfer it guards must not happen.
    ConditionNotMet(ContractId),
    /// A multi-input transaction listed no inputs.
    EmptyInputs,
    /// An input of a multi-input transaction failed (index + reason).
    InputFailed(usize, Box<LedgerError>),
    /// The value would be transferred to a contract account directly, which
    /// this model does not allow (contracts hold no balance).
    TransferToContract(Address),
    /// A sum of amounts overflows `u64`: the value plus fee this sender
    /// pays, or a credit to this account's balance.
    Overflow(Address),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::UnknownSender(a) => write!(f, "unknown sender {a:?}"),
            LedgerError::UnknownContract(c) => write!(f, "unknown contract {c}"),
            LedgerError::BadNonce {
                sender,
                got,
                expected,
            } => write!(
                f,
                "bad nonce for {sender:?}: got {got}, expected {expected}"
            ),
            LedgerError::InsufficientBalance {
                sender,
                needed,
                available,
            } => write!(
                f,
                "insufficient balance for {sender:?}: needs {needed}, has {available}"
            ),
            LedgerError::ConditionNotMet(c) => {
                write!(f, "condition of {c} not met")
            }
            LedgerError::EmptyInputs => write!(f, "multi-input transaction with no inputs"),
            LedgerError::InputFailed(i, e) => write!(f, "input {i} failed: {e}"),
            LedgerError::TransferToContract(a) => {
                write!(f, "direct value transfer to contract account {a:?}")
            }
            LedgerError::Overflow(a) => write!(f, "amount overflow at {a:?}"),
        }
    }
}

impl std::error::Error for LedgerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LedgerError::BadNonce {
            sender: Address::user(1),
            got: 5,
            expected: 3,
        };
        let s = e.to_string();
        assert!(s.contains("got 5"));
        assert!(s.contains("expected 3"));
    }

    #[test]
    fn nested_input_error_displays() {
        let inner = LedgerError::UnknownSender(Address::user(9));
        let e = LedgerError::InputFailed(2, Box::new(inner));
        assert!(e.to_string().contains("input 2"));
        assert!(e.to_string().contains("unknown sender"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(LedgerError::EmptyInputs, LedgerError::EmptyInputs);
        assert_ne!(
            LedgerError::EmptyInputs,
            LedgerError::UnknownContract(ContractId::new(0))
        );
    }
}
