//! The user↔contract call graph.
//!
//! Sec. III-C: to decide whether a sender "is only involved in the current
//! shard", miners "maintain the call graph among smart contracts and users
//! locally. In this way, miners can check the call graph instead of remotely
//! referring to the whole history." This module is that structure: it is fed
//! every observed transaction and classifies each sender as
//! single-contract, multi-contract, or direct-transacting — the predicate
//! that decides which shard a transaction belongs to (Sec. III-A).

use crate::transaction::{Transaction, TxKind};
use cshard_primitives::{Address, ContractId};
use std::collections::{BTreeMap, BTreeSet};

/// How a sender participates in the system — the three cases of Fig. 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SenderClass {
    /// Never seen — no history constrains it yet.
    Unknown,
    /// Participates in exactly one contract and never transacted directly
    /// (Fig. 1(a)): transactions validatable inside that contract's shard.
    SingleContract(ContractId),
    /// Participates in two or more contracts (Fig. 1(b)): must be handled
    /// by the MaxShard.
    MultiContract,
    /// Has sent direct user-to-user or multi-input transfers (Fig. 1(c)):
    /// must be handled by the MaxShard.
    Direct,
}

/// Per-sender participation record.
#[derive(Clone, Debug, Default)]
struct Participation {
    contracts: BTreeSet<ContractId>,
    direct: bool,
}

/// The call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    senders: BTreeMap<Address, Participation>,
}

impl CallGraph {
    /// An empty call graph.
    pub fn new() -> Self {
        CallGraph::default()
    }

    /// Records one observed transaction.
    pub fn observe(&mut self, tx: &Transaction) {
        let mut dirty = BTreeSet::new();
        self.observe_tracking(tx, &mut dirty);
    }

    /// Records one transaction, adding every address whose classification
    /// inputs *changed* (a new contract in its participation set, or a
    /// fresh direct-transacting flag — including multi-input side effects
    /// on input accounts) to `dirty`.
    ///
    /// [`CallGraph::classify`] is a pure function of the participation
    /// record, so an address absent from `dirty` is guaranteed to classify
    /// exactly as it did before the observation.
    fn observe_tracking(&mut self, tx: &Transaction, dirty: &mut BTreeSet<Address>) {
        let p = self.senders.entry(tx.sender).or_default();
        match &tx.kind {
            TxKind::ContractCall { contract, .. } => {
                if p.contracts.insert(*contract) {
                    dirty.insert(tx.sender);
                }
            }
            TxKind::DirectTransfer { .. } => {
                if !p.direct {
                    p.direct = true;
                    dirty.insert(tx.sender);
                }
            }
            TxKind::MultiInput { inputs, .. } => {
                // Every input account's funds are touched, so each input is
                // "transacting directly" for classification purposes.
                if !p.direct {
                    p.direct = true;
                    dirty.insert(tx.sender);
                }
                for input in inputs {
                    if *input != tx.sender {
                        let q = self.senders.entry(*input).or_default();
                        if !q.direct {
                            q.direct = true;
                            dirty.insert(*input);
                        }
                    }
                }
            }
        }
    }

    /// Records a whole batch (e.g. an injected workload) and returns the
    /// set of addresses whose classification inputs changed — the *dirty
    /// senders*. A first-ever observation always dirties its sender;
    /// repeat observations that add no new participation (the same sender
    /// calling its usual contract, or transacting directly again) leave
    /// the sender clean. The pipeline's classify stage reports the set's
    /// size as its per-epoch churn counter.
    pub fn observe_all<'a>(
        &mut self,
        txs: impl IntoIterator<Item = &'a Transaction>,
    ) -> BTreeSet<Address> {
        let mut dirty = BTreeSet::new();
        for tx in txs {
            self.observe_tracking(tx, &mut dirty);
        }
        dirty
    }

    /// Classifies a sender from its observed history.
    pub fn classify(&self, sender: Address) -> SenderClass {
        match self.senders.get(&sender) {
            None => SenderClass::Unknown,
            Some(p) if p.direct => SenderClass::Direct,
            Some(p) => match p.contracts.len() {
                0 => SenderClass::Unknown,
                1 => p
                    .contracts
                    .first()
                    .map(|c| SenderClass::SingleContract(*c))
                    .unwrap_or(SenderClass::Unknown),
                _ => SenderClass::MultiContract,
            },
        }
    }

    /// Classifies the *transaction*: the shard-formation predicate.
    ///
    /// A transaction is isolable to a contract shard iff it is a contract
    /// call **and** its sender's entire history (including this
    /// transaction) involves only that contract. Everything else belongs to
    /// the MaxShard.
    pub fn isolable_contract(&self, tx: &Transaction) -> Option<ContractId> {
        let TxKind::ContractCall { contract, .. } = &tx.kind else {
            return None;
        };
        match self.classify(tx.sender) {
            SenderClass::SingleContract(c) if c == *contract => Some(c),
            // An unknown sender invoking a contract is single-contract so
            // far; the caller must have already observed the workload, so
            // Unknown means "no other history" — still isolable.
            SenderClass::Unknown => Some(*contract),
            _ => None,
        }
    }

    /// Number of tracked senders.
    pub fn sender_count(&self) -> usize {
        self.senders.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_primitives::Amount;

    fn call(user: u64, contract: u32) -> Transaction {
        Transaction::call(
            Address::user(user),
            0,
            ContractId::new(contract),
            Amount::from_coins(1),
            Amount::from_raw(1),
        )
    }

    fn direct(user: u64, to: u64) -> Transaction {
        Transaction::direct(
            Address::user(user),
            0,
            Address::user(to),
            Amount::from_coins(1),
            Amount::from_raw(1),
        )
    }

    #[test]
    fn fig1a_single_contract_sender_is_isolable() {
        // User A only sends through contract 1.
        let mut g = CallGraph::new();
        let t = call(1, 1);
        g.observe(&t);
        assert_eq!(
            g.classify(Address::user(1)),
            SenderClass::SingleContract(ContractId::new(1))
        );
        assert_eq!(g.isolable_contract(&t), Some(ContractId::new(1)));
    }

    #[test]
    fn fig1b_multi_contract_sender_goes_to_maxshard() {
        // User C invokes contracts 2 and 3.
        let mut g = CallGraph::new();
        let t2 = call(3, 2);
        let t3 = call(3, 3);
        g.observe(&t2);
        g.observe(&t3);
        assert_eq!(g.classify(Address::user(3)), SenderClass::MultiContract);
        assert_eq!(g.isolable_contract(&t2), None);
        assert_eq!(g.isolable_contract(&t3), None);
    }

    #[test]
    fn fig1c_direct_transactor_goes_to_maxshard() {
        // User F invokes contract 1 AND pays H directly.
        let mut g = CallGraph::new();
        let t4 = call(6, 1);
        let t5 = direct(6, 8);
        g.observe(&t4);
        g.observe(&t5);
        assert_eq!(g.classify(Address::user(6)), SenderClass::Direct);
        assert_eq!(g.isolable_contract(&t4), None);
    }

    #[test]
    fn unknown_sender_calling_a_contract_is_isolable() {
        let g = CallGraph::new();
        let t = call(9, 4);
        assert_eq!(g.classify(Address::user(9)), SenderClass::Unknown);
        assert_eq!(g.isolable_contract(&t), Some(ContractId::new(4)));
    }

    #[test]
    fn direct_transfer_is_never_isolable() {
        let mut g = CallGraph::new();
        let t = direct(1, 2);
        g.observe(&t);
        assert_eq!(g.isolable_contract(&t), None);
    }

    #[test]
    fn multi_input_marks_all_inputs_direct() {
        let mut g = CallGraph::new();
        let t = Transaction::multi_input(
            Address::user(1),
            0,
            vec![Address::user(1), Address::user(2), Address::user(3)],
            Address::user(4),
            Amount::from_coins(3),
            Amount::ZERO,
        );
        g.observe(&t);
        for u in 1..=3 {
            assert_eq!(
                g.classify(Address::user(u)),
                SenderClass::Direct,
                "user {u}"
            );
        }
        // The recipient is not an input; untouched.
        assert_eq!(g.classify(Address::user(4)), SenderClass::Unknown);
    }

    #[test]
    fn repeated_same_contract_calls_stay_single() {
        let mut g = CallGraph::new();
        for _ in 0..5 {
            g.observe(&call(1, 2));
        }
        assert_eq!(
            g.classify(Address::user(1)),
            SenderClass::SingleContract(ContractId::new(2))
        );
    }

    #[test]
    fn contract_call_after_direct_is_not_isolable() {
        let mut g = CallGraph::new();
        g.observe(&direct(1, 2));
        let t = call(1, 1);
        g.observe(&t);
        assert_eq!(g.isolable_contract(&t), None);
    }

    #[test]
    fn observe_all_reports_exactly_the_changed_senders() {
        let mut g = CallGraph::new();
        // First sight of user 1: dirty.
        let first = g.observe_all([call(1, 0)].iter());
        assert_eq!(
            first.into_iter().collect::<Vec<_>>(),
            vec![Address::user(1)]
        );
        // Same sender, same contract: participation unchanged — clean.
        let repeat = g.observe_all([call(1, 0), call(1, 0)].iter());
        assert!(repeat.is_empty(), "repeat observation dirtied: {repeat:?}");
        // Same sender, NEW contract: dirty again.
        let diversified = g.observe_all([call(1, 1)].iter());
        assert!(diversified.contains(&Address::user(1)));
        // A repeat direct transfer only dirties the first time.
        let d1 = g.observe_all([direct(2, 3)].iter());
        assert!(d1.contains(&Address::user(2)));
        let d2 = g.observe_all([direct(2, 4)].iter());
        assert!(d2.is_empty(), "repeat direct dirtied: {d2:?}");
    }

    #[test]
    fn multi_input_dirties_every_newly_direct_input() {
        let mut g = CallGraph::new();
        // User 2 is already direct; users 1 and 3 are not.
        g.observe(&direct(2, 9));
        let t = Transaction::multi_input(
            Address::user(1),
            0,
            vec![Address::user(1), Address::user(2), Address::user(3)],
            Address::user(4),
            Amount::from_coins(3),
            Amount::ZERO,
        );
        let dirty = g.observe_all([t].iter());
        assert!(dirty.contains(&Address::user(1)));
        assert!(!dirty.contains(&Address::user(2)), "already direct");
        assert!(dirty.contains(&Address::user(3)));
        assert!(!dirty.contains(&Address::user(4)), "recipient untouched");
    }

    #[test]
    fn clean_senders_classify_identically_before_and_after() {
        // An address outside the dirty set classifies exactly as it did
        // before the batch was observed.
        let mut g = CallGraph::new();
        g.observe_all([call(1, 0), direct(2, 9), call(3, 1)].iter());
        let before: Vec<SenderClass> = (1..=3).map(|u| g.classify(Address::user(u))).collect();
        let dirty = g.observe_all([call(1, 0), direct(2, 5), call(3, 2)].iter());
        for u in 1..=3u64 {
            if !dirty.contains(&Address::user(u)) {
                assert_eq!(
                    g.classify(Address::user(u)),
                    before[(u - 1) as usize],
                    "clean sender {u} changed class"
                );
            }
        }
        // User 3 diversified and must be dirty.
        assert!(dirty.contains(&Address::user(3)));
    }

    #[test]
    fn sender_count_tracks_distinct_senders() {
        let mut g = CallGraph::new();
        g.observe(&call(1, 0));
        g.observe(&call(1, 0));
        g.observe(&call(2, 0));
        assert_eq!(g.sender_count(), 2);
    }
}
