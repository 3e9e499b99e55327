//! The call graph's reference model: the ordered-map algorithm the
//! slot-indexed [`cshard_ledger::CallGraph`] replaced, kept verbatim as the
//! oracle it is pinned to. One participation set and one direct flag per
//! address, and the batch's dirty addresses as an explicit set.
//!
//! Test support only — no library compiles it. `callgraph_oracle.rs` here
//! and `crates/core/tests/classify_stage.rs` (by `#[path]`) both use it,
//! each a part of it.
#![allow(dead_code)]

use cshard_ledger::{SenderClass, Transaction, TxKind};
use cshard_primitives::{Address, ContractId};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Default)]
pub struct ReferenceGraph {
    senders: BTreeMap<Address, (BTreeSet<ContractId>, bool)>,
}

impl ReferenceGraph {
    /// Records a batch; returns the addresses whose classification inputs
    /// changed.
    pub fn observe_all<'a>(
        &mut self,
        txs: impl IntoIterator<Item = &'a Transaction>,
    ) -> BTreeSet<Address> {
        let mut dirty = BTreeSet::new();
        for tx in txs {
            let (contracts, direct) = self.senders.entry(tx.sender).or_default();
            match &tx.kind {
                TxKind::ContractCall { contract, .. } => {
                    if contracts.insert(*contract) {
                        dirty.insert(tx.sender);
                    }
                }
                TxKind::DirectTransfer { .. } => {
                    if !std::mem::replace(direct, true) {
                        dirty.insert(tx.sender);
                    }
                }
                TxKind::MultiInput { inputs, .. } => {
                    if !std::mem::replace(direct, true) {
                        dirty.insert(tx.sender);
                    }
                    for input in inputs {
                        let (_, direct) = self.senders.entry(*input).or_default();
                        if !std::mem::replace(direct, true) {
                            dirty.insert(*input);
                        }
                    }
                }
            }
        }
        dirty
    }

    pub fn classify(&self, sender: Address) -> SenderClass {
        match self.senders.get(&sender) {
            None => SenderClass::Unknown,
            Some((_, true)) => SenderClass::Direct,
            Some((contracts, false)) => match (contracts.len(), contracts.first()) {
                (1, Some(&only)) => SenderClass::SingleContract(only),
                (0, _) | (_, None) => SenderClass::Unknown,
                _ => SenderClass::MultiContract,
            },
        }
    }

    pub fn isolable_contract(&self, tx: &Transaction) -> Option<ContractId> {
        let TxKind::ContractCall { contract, .. } = &tx.kind else {
            return None;
        };
        match self.classify(tx.sender) {
            SenderClass::SingleContract(c) if c == *contract => Some(c),
            SenderClass::Unknown => Some(*contract),
            _ => None,
        }
    }

    pub fn sender_count(&self) -> usize {
        self.senders.len()
    }
}
