//! The unvalidated-transaction pool.
//!
//! Sec. II-B: "miners in a blockchain system keep track of unvalidated
//! transactions … miners always select transactions with the highest fees".
//! [`Mempool::select_greedy`] is exactly that behaviour — the root cause of
//! serialized confirmation that the intra-shard selection game replaces.

use crate::transaction::Transaction;
use cshard_primitives::{Amount, TxId};
use std::collections::BTreeMap;

/// A pool of pending transactions with fee-ordered selection.
#[derive(Clone, Debug, Default)]
pub struct Mempool {
    txs: BTreeMap<TxId, Transaction>,
}

impl Mempool {
    /// An empty pool.
    pub fn new() -> Self {
        Mempool::default()
    }

    /// Inserts a transaction; returns false when it was already present.
    pub fn insert(&mut self, tx: Transaction) -> bool {
        self.txs.insert(tx.id(), tx).is_none()
    }

    /// Removes a confirmed transaction.
    pub fn remove(&mut self, id: &TxId) -> Option<Transaction> {
        self.txs.remove(id)
    }

    /// Removes a batch of confirmed transactions (e.g. after receiving a
    /// block).
    pub fn remove_all<'a>(&mut self, ids: impl IntoIterator<Item = &'a TxId>) {
        for id in ids {
            self.txs.remove(id);
        }
    }

    /// True when the pool holds no transactions — a miner in this situation
    /// packs an empty block.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether a transaction is pending.
    pub fn contains(&self, id: &TxId) -> bool {
        self.txs.contains_key(id)
    }

    /// Iterates over pending transactions in transaction-id order (the
    /// map is a `BTreeMap`, so iteration is deterministic — audit rule
    /// ND003).
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.txs.values()
    }

    /// All pending transactions sorted by descending fee, ties broken by
    /// tx id so every miner computes the identical order (which is exactly
    /// why vanilla miners collide on the same set).
    pub fn sorted_by_fee(&self) -> Vec<&Transaction> {
        let mut v: Vec<(&TxId, &Transaction)> = self.txs.iter().collect();
        // The id is the map key — no re-hashing during the sort.
        v.sort_by(|(ida, a), (idb, b)| b.fee.cmp(&a.fee).then_with(|| ida.cmp(idb)));
        v.into_iter().map(|(_, tx)| tx).collect()
    }

    /// Greedy selection: the `limit` highest-fee transactions.
    pub fn select_greedy(&self, limit: usize) -> Vec<Transaction> {
        self.sorted_by_fee()
            .into_iter()
            .take(limit)
            .cloned()
            .collect()
    }

    /// Sum of all pending fees.
    pub fn total_fees(&self) -> Amount {
        self.txs.values().map(|t| t.fee).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_primitives::{Address, Amount, ContractId};

    fn tx(user: u64, fee: u64) -> Transaction {
        Transaction::call(
            Address::user(user),
            0,
            ContractId::new(0),
            Amount::from_coins(1),
            Amount::from_raw(fee),
        )
    }

    #[test]
    fn insert_and_remove() {
        let mut m = Mempool::new();
        let t = tx(1, 10);
        assert!(m.insert(t.clone()));
        assert!(!m.insert(t.clone()), "duplicate insert reports false");
        assert_eq!(m.len(), 1);
        assert!(m.contains(&t.id()));
        assert!(m.remove(&t.id()).is_some());
        assert!(m.is_empty());
    }

    #[test]
    fn greedy_selects_highest_fees() {
        let mut m = Mempool::new();
        for (u, fee) in [(1, 5), (2, 50), (3, 20), (4, 40)] {
            m.insert(tx(u, fee));
        }
        let picked = m.select_greedy(2);
        let fees: Vec<u64> = picked.iter().map(|t| t.fee.raw()).collect();
        assert_eq!(fees, vec![50, 40]);
    }

    #[test]
    fn greedy_selection_is_deterministic_across_clones() {
        // Two miners with the same pool must compute the same order — the
        // serialization premise of Sec. II-B.
        let mut m = Mempool::new();
        for u in 0..20 {
            m.insert(tx(u, 7)); // all fees equal: order falls to tx id
        }
        let a = m.clone().select_greedy(10);
        let b = m.select_greedy(10);
        assert_eq!(a, b);
    }

    #[test]
    fn select_more_than_available_returns_all() {
        let mut m = Mempool::new();
        m.insert(tx(1, 1));
        assert_eq!(m.select_greedy(10).len(), 1);
        assert_eq!(m.select_greedy(0).len(), 0);
    }

    #[test]
    fn remove_all_clears_confirmed() {
        let mut m = Mempool::new();
        let txs: Vec<Transaction> = (0..5).map(|u| tx(u, u)).collect();
        for t in &txs {
            m.insert(t.clone());
        }
        let ids: Vec<_> = txs[..3].iter().map(|t| t.id()).collect();
        m.remove_all(ids.iter());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn total_fees_sums() {
        let mut m = Mempool::new();
        m.insert(tx(1, 10));
        m.insert(tx(2, 15));
        assert_eq!(m.total_fees(), Amount::from_raw(25));
    }
}
