//! Transactions: contract calls, direct transfers, multi-input transfers.

use cshard_primitives::{Address, Amount, ContractId, Nonce};

/// What a transaction does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxKind {
    /// Invoke a smart contract with `value`; if the contract's condition
    /// holds, `value` moves from the sender to the contract's destination.
    /// This is the dominant shape in the paper (Sec. II-A).
    ContractCall {
        /// The contract being invoked.
        contract: ContractId,
        /// Value the guarded transfer moves.
        value: Amount,
    },
    /// A plain user-to-user transfer (Fig. 1(c)'s "transaction 5").
    DirectTransfer {
        /// Recipient user account.
        to: Address,
        /// Value transferred.
        value: Amount,
    },
    /// A transfer funded by several input accounts (the "3-input
    /// transactions" of Fig. 4(b)). Each input contributes `value /
    /// inputs.len()` (remainder charged to the first input). The sender must
    /// be one of the inputs and authorises the whole transaction.
    MultiInput {
        /// Funding accounts (the sender must appear among them).
        inputs: Vec<Address>,
        /// Recipient user account.
        to: Address,
        /// Total value transferred.
        value: Amount,
    },
}

impl TxKind {
    /// Number of distinct input accounts whose state is read/written.
    pub fn input_count(&self) -> usize {
        match self {
            TxKind::ContractCall { .. } | TxKind::DirectTransfer { .. } => 1,
            TxKind::MultiInput { inputs, .. } => inputs.len(),
        }
    }

    /// The contract invoked, if any.
    pub fn contract(&self) -> Option<ContractId> {
        match self {
            TxKind::ContractCall { contract, .. } => Some(*contract),
            _ => None,
        }
    }

    /// Total value moved by the transaction.
    pub fn value(&self) -> Amount {
        match self {
            TxKind::ContractCall { value, .. }
            | TxKind::DirectTransfer { value, .. }
            | TxKind::MultiInput { value, .. } => *value,
        }
    }
}

/// A signed transaction.
///
/// Signatures are modelled, not computed: within the simulation the sender
/// field is authoritative (an honest-channel assumption; the paper's
/// adversary does not forge signatures either).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// The (authenticated) sender.
    pub sender: Address,
    /// Replay-protection nonce; must equal the sender's account nonce.
    pub nonce: Nonce,
    /// Fee paid to the miner that confirms the transaction.
    pub fee: Amount,
    /// The action.
    pub kind: TxKind,
}

impl Transaction {
    /// Convenience constructor for a contract call.
    pub fn call(
        sender: Address,
        nonce: Nonce,
        contract: ContractId,
        value: Amount,
        fee: Amount,
    ) -> Self {
        Transaction {
            sender,
            nonce,
            fee,
            kind: TxKind::ContractCall { contract, value },
        }
    }

    /// Convenience constructor for a direct transfer.
    pub fn direct(sender: Address, nonce: Nonce, to: Address, value: Amount, fee: Amount) -> Self {
        Transaction {
            sender,
            nonce,
            fee,
            kind: TxKind::DirectTransfer { to, value },
        }
    }

    /// Convenience constructor for a multi-input transfer.
    pub fn multi_input(
        sender: Address,
        nonce: Nonce,
        inputs: Vec<Address>,
        to: Address,
        value: Amount,
        fee: Amount,
    ) -> Self {
        Transaction {
            sender,
            nonce,
            fee,
            kind: TxKind::MultiInput { inputs, to, value },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_call() -> Transaction {
        Transaction::call(
            Address::user(1),
            0,
            ContractId::new(2),
            Amount::from_coins(1),
            Amount::from_raw(50),
        )
    }

    #[test]
    fn input_counts() {
        assert_eq!(sample_call().kind.input_count(), 1);
        let multi = Transaction::multi_input(
            Address::user(1),
            0,
            vec![Address::user(1), Address::user(2), Address::user(3)],
            Address::user(4),
            Amount::from_coins(3),
            Amount::ZERO,
        );
        assert_eq!(multi.kind.input_count(), 3);
    }

    #[test]
    fn contract_accessor() {
        assert_eq!(sample_call().kind.contract(), Some(ContractId::new(2)));
        let direct = Transaction::direct(
            Address::user(1),
            0,
            Address::user(2),
            Amount::ZERO,
            Amount::ZERO,
        );
        assert_eq!(direct.kind.contract(), None);
    }
}
