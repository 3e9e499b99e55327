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
use cshard_primitives::{Address, AddressSlots, ContractId};

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

/// What one observed batch changed — the classify stage's per-epoch churn
/// counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchChurn {
    /// Distinct addresses whose classification inputs changed: a new
    /// contract in the participation set, or a fresh direct-transacting
    /// flag — including multi-input side effects on input accounts that
    /// sent nothing themselves.
    pub reclassified: u64,
    /// Distinct batch senders whose inputs did *not* change.
    /// [`CallGraph::classify`] is a pure function of the participation
    /// record, so these classify exactly as they did before the batch.
    pub carried: u64,
}

/// Per-address participation record.
#[derive(Clone, Debug)]
struct Participation {
    /// The first contract called; meaningful once `called` is set.
    first: ContractId,
    called: bool,
    direct: bool,
    /// The last batch this address sent in / was dirtied in (0 = never):
    /// batch membership without a per-batch set.
    sent: u32,
    dirtied: u32,
    /// Distinct contracts beyond the first. Almost every sender has none
    /// (Sec. II-A), so the record carries one pointer, not a `Vec` header.
    #[allow(clippy::box_collection)]
    more: Option<Box<Vec<ContractId>>>,
}

impl Participation {
    /// No history yet.
    fn empty() -> Self {
        Participation {
            first: ContractId::new(0),
            called: false,
            direct: false,
            sent: 0,
            dirtied: 0,
            more: None,
        }
    }

    /// Adds `contract` to the participation set; true when it was new.
    fn call(&mut self, contract: ContractId) -> bool {
        if !self.called {
            self.called = true;
            self.first = contract;
            return true;
        }
        if self.first == contract {
            return false;
        }
        let more = self.more.get_or_insert_with(Box::default);
        let new = !more.contains(&contract);
        if new {
            more.push(contract);
        }
        new
    }

    /// Sets the direct-transacting flag; true when it was clear.
    fn transact_directly(&mut self) -> bool {
        !std::mem::replace(&mut self.direct, true)
    }

    /// The Fig. 1 class this history puts its address in.
    fn class(&self) -> SenderClass {
        if self.direct {
            SenderClass::Direct
        } else if !self.called {
            SenderClass::Unknown
        } else if self.more.is_none() {
            SenderClass::SingleContract(self.first)
        } else {
            SenderClass::MultiContract
        }
    }

    /// Counts this address as a sender of `batch`, once: carried, unless
    /// the batch has dirtied it already.
    fn mark_sent(&mut self, batch: u32, churn: &mut BatchChurn) {
        if self.sent != batch {
            self.sent = batch;
            churn.carried += u64::from(self.dirtied != batch);
        }
    }

    /// Counts this address as dirtied in `batch`, once: reclassified, and
    /// no longer carried if it was counted as an unchanged sender.
    fn mark_dirtied(&mut self, batch: u32, churn: &mut BatchChurn) {
        if self.dirtied != batch {
            self.dirtied = batch;
            churn.reclassified += 1;
            churn.carried -= u64::from(self.sent == batch);
        }
    }
}

/// The call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    records: AddressSlots<Participation>,
    /// The stamp of the batch being observed.
    batch: u32,
}

impl CallGraph {
    /// An empty call graph.
    pub fn new() -> Self {
        CallGraph::default()
    }

    /// Records a whole batch (e.g. an injected workload) and returns what
    /// it changed. A first-ever observation always reclassifies its
    /// sender; repeat observations that add no new participation (the same
    /// sender calling its usual contract, or transacting directly again)
    /// carry it.
    pub fn observe_all<'a>(
        &mut self,
        txs: impl IntoIterator<Item = &'a Transaction>,
    ) -> BatchChurn {
        self.absorb(txs, |_| {})
    }

    /// [`CallGraph::observe_all`] that also hands back where each record
    /// lives: `slots` is cleared, then holds the sender slot of every
    /// transaction, in batch order. The caller owns the buffer;
    /// [`CallGraph::isolable_contract_at`] reads a record by its slot with
    /// no hash probe.
    pub fn observe_all_slots<'a>(
        &mut self,
        txs: impl IntoIterator<Item = &'a Transaction>,
        slots: &mut Vec<usize>,
    ) -> BatchChurn {
        slots.clear();
        self.absorb(txs, |slot| slots.push(slot))
    }

    /// The one observation loop: one hash probe per sender (and one per
    /// multi-input input), and the sender's slot goes to `sender_slot`.
    fn absorb<'a>(
        &mut self,
        txs: impl IntoIterator<Item = &'a Transaction>,
        mut sender_slot: impl FnMut(usize),
    ) -> BatchChurn {
        self.batch = match self.batch.checked_add(1) {
            Some(next) => next,
            None => {
                // 2³² batches on one graph: forget the stamps, which only
                // ever mean "in the current batch", and start over.
                for p in self.records.values_mut() {
                    (p.sent, p.dirtied) = (0, 0);
                }
                1
            }
        };
        let batch = self.batch;
        let mut churn = BatchChurn::default();
        for tx in txs {
            let (slot, sender) = self.records.slot_entry(tx.sender, Participation::empty);
            sender_slot(slot);
            sender.mark_sent(batch, &mut churn);
            let changed = match &tx.kind {
                TxKind::ContractCall { contract, .. } => sender.call(*contract),
                // Every input account's funds are touched, so each input
                // is "transacting directly" for classification purposes.
                TxKind::DirectTransfer { .. } | TxKind::MultiInput { .. } => {
                    sender.transact_directly()
                }
            };
            if changed {
                sender.mark_dirtied(batch, &mut churn);
            }
            if let TxKind::MultiInput { inputs, .. } = &tx.kind {
                for input in inputs {
                    let input = self.records.entry(*input, Participation::empty);
                    if input.transact_directly() {
                        input.mark_dirtied(batch, &mut churn);
                    }
                }
            }
        }
        churn
    }

    /// The slot of `address`, entering it with no history when it is new.
    /// A record with no history classifies as [`SenderClass::Unknown`],
    /// exactly like an address never seen, and observing the address later
    /// counts as its first sight.
    pub fn account_slot(&mut self, address: Address) -> usize {
        self.records.slot_entry(address, Participation::empty).0
    }

    /// Classifies a sender from its observed history.
    pub fn classify(&self, sender: Address) -> SenderClass {
        self.records
            .get(&sender)
            .map_or(SenderClass::Unknown, Participation::class)
    }

    /// Classifies the *transaction*: the shard-formation predicate.
    ///
    /// A transaction is isolable to a contract shard iff it is a contract
    /// call **and** its sender's entire history (including this
    /// transaction) involves only that contract. Everything else belongs to
    /// the MaxShard.
    pub fn isolable_contract(&self, tx: &Transaction) -> Option<ContractId> {
        isolable(tx, || self.classify(tx.sender))
    }

    /// [`CallGraph::isolable_contract`] with the sender's record found by
    /// `slot`, as [`CallGraph::observe_all_slots`] or
    /// [`CallGraph::account_slot`] handed it out: no hash probe.
    pub fn isolable_contract_at(&self, slot: usize, tx: &Transaction) -> Option<ContractId> {
        isolable(tx, || self.records.values()[slot].class())
    }

    /// Number of tracked addresses: senders, multi-input inputs, and
    /// accounts entered by [`CallGraph::account_slot`].
    pub fn sender_count(&self) -> usize {
        self.records.len()
    }
}

/// The formation predicate over a sender's class, which `class` finds only
/// for a contract call.
fn isolable(tx: &Transaction, class: impl FnOnce() -> SenderClass) -> Option<ContractId> {
    let TxKind::ContractCall { contract, .. } = &tx.kind else {
        return None;
    };
    match class() {
        SenderClass::SingleContract(c) if c == *contract => Some(c),
        // An unknown sender invoking a contract is single-contract so
        // far; the caller must have already observed the workload, so
        // Unknown means "no other history" — still isolable.
        SenderClass::Unknown => Some(*contract),
        _ => None,
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
        g.observe_all([&t]);
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
        g.observe_all([&t2]);
        g.observe_all([&t3]);
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
        g.observe_all([&t4]);
        g.observe_all([&t5]);
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
        g.observe_all([&t]);
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
        g.observe_all([&t]);
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
            g.observe_all([&call(1, 2)]);
        }
        assert_eq!(
            g.classify(Address::user(1)),
            SenderClass::SingleContract(ContractId::new(2))
        );
    }

    #[test]
    fn contract_call_after_direct_is_not_isolable() {
        let mut g = CallGraph::new();
        g.observe_all([&direct(1, 2)]);
        let t = call(1, 1);
        g.observe_all([&t]);
        assert_eq!(g.isolable_contract(&t), None);
    }

    fn churn(reclassified: u64, carried: u64) -> BatchChurn {
        BatchChurn {
            reclassified,
            carried,
        }
    }

    #[test]
    fn observe_all_counts_exactly_the_changed_senders() {
        let mut g = CallGraph::new();
        // First sight of user 1: reclassified.
        assert_eq!(g.observe_all(&[call(1, 0)]), churn(1, 0));
        // Same sender, same contract: participation unchanged — carried,
        // and counted once however often it sends.
        assert_eq!(g.observe_all(&[call(1, 0), call(1, 0)]), churn(0, 1));
        // Same sender, NEW contract: reclassified again.
        assert_eq!(g.observe_all(&[call(1, 1)]), churn(1, 0));
        assert_eq!(g.classify(Address::user(1)), SenderClass::MultiContract);
        // A third distinct contract still changes the participation set;
        // going back to the second does not.
        assert_eq!(g.observe_all(&[call(1, 2)]), churn(1, 0));
        assert_eq!(g.observe_all(&[call(1, 1), call(1, 2)]), churn(0, 1));
        // A repeat direct transfer only reclassifies the first time.
        assert_eq!(g.observe_all(&[direct(2, 3)]), churn(1, 0));
        assert_eq!(g.observe_all(&[direct(2, 4)]), churn(0, 1));
        // Changed and unchanged senders in one batch, each counted once.
        assert_eq!(
            g.observe_all(&[call(1, 0), call(5, 0), direct(2, 9), call(5, 1)]),
            churn(1, 2)
        );
    }

    #[test]
    fn multi_input_dirties_every_newly_direct_input() {
        let mut g = CallGraph::new();
        // User 2 is already direct; users 1 and 3 are not.
        g.observe_all([&direct(2, 9)]);
        let t = Transaction::multi_input(
            Address::user(1),
            0,
            vec![Address::user(1), Address::user(2), Address::user(3)],
            Address::user(4),
            Amount::from_coins(3),
            Amount::ZERO,
        );
        // Users 1 and 3 change; user 2 is already direct, the recipient is
        // untouched. Input 3 is reclassified but sent nothing, so it is
        // not a sender — nobody is carried.
        assert_eq!(g.observe_all([&t]), churn(2, 0));
        assert_eq!(g.classify(Address::user(3)), SenderClass::Direct);
        assert_eq!(g.classify(Address::user(4)), SenderClass::Unknown);
        assert_eq!(
            g.sender_count(),
            3,
            "inputs are tracked, the recipient is not"
        );
        // Replayed, only the sender is in the batch, and it is unchanged.
        assert_eq!(g.observe_all([&t]), churn(0, 1));
    }

    #[test]
    fn a_sender_dirtied_as_an_input_is_not_carried() {
        // The two orders in which one address can both send unchanged and
        // be dirtied by someone else's multi-input in the same batch.
        let spend = |from: u64, input: u64| {
            Transaction::multi_input(
                Address::user(from),
                0,
                vec![Address::user(from), Address::user(input)],
                Address::user(99),
                Amount::from_coins(2),
                Amount::ZERO,
            )
        };
        for sends_first in [true, false] {
            let mut g = CallGraph::new();
            g.observe_all(&[call(1, 0), direct(7, 8)]);
            let batch = if sends_first {
                [call(1, 0), spend(7, 1)]
            } else {
                [spend(7, 1), call(1, 0)]
            };
            // User 1 is reclassified (newly direct); user 7 is carried.
            assert_eq!(g.observe_all(&batch), churn(1, 1), "{sends_first}");
            assert_eq!(g.classify(Address::user(1)), SenderClass::Direct);
        }
    }

    #[test]
    fn clean_senders_classify_identically_before_and_after() {
        // Every sender the batch carries classifies exactly as it did
        // before the batch was observed.
        let mut g = CallGraph::new();
        g.observe_all(&[call(1, 0), direct(2, 9), call(3, 1)]);
        let before: Vec<SenderClass> = (1..=3).map(|u| g.classify(Address::user(u))).collect();
        // User 3 diversifies; users 1 and 2 repeat themselves.
        let after = g.observe_all(&[call(1, 0), direct(2, 5), call(3, 2)]);
        assert_eq!(after, churn(1, 2));
        assert_eq!(g.classify(Address::user(1)), before[0]);
        assert_eq!(g.classify(Address::user(2)), before[1]);
        assert_ne!(g.classify(Address::user(3)), before[2]);
    }

    #[test]
    fn batch_stamps_survive_the_counter_wrapping() {
        let mut g = CallGraph::new();
        g.observe_all(&[call(1, 0), call(2, 0)]);
        // The next batch is the last stamp; the one after wraps.
        g.batch = u32::MAX - 1;
        assert_eq!(g.observe_all(&[call(1, 0)]), churn(0, 1));
        assert_eq!(g.batch, u32::MAX);
        assert_eq!(g.observe_all(&[call(1, 0), call(2, 1)]), churn(1, 1));
        assert_eq!(g.batch, 1);
        // Stamp 1 was user 1's and 2's very first batch: a stale stamp
        // must not pass for membership of the new batch 1.
        assert_eq!(g.observe_all(&[call(2, 1), call(3, 0)]), churn(1, 1));
    }

    #[test]
    fn slots_find_the_records_the_addresses_do() {
        let batch = [call(1, 0), call(2, 0), call(1, 1), direct(3, 4), call(2, 0)];
        let mut g = CallGraph::new();
        let mut slots = vec![99];
        let counted = g.observe_all_slots(&batch, &mut slots);
        assert_eq!(counted, CallGraph::new().observe_all(&batch));
        assert_eq!(slots, [0, 1, 0, 2, 1], "cleared, then one slot per tx");
        for (tx, &slot) in batch.iter().zip(&slots) {
            assert_eq!(g.isolable_contract_at(slot, tx), g.isolable_contract(tx));
        }
        // Interning an unseen address adds a record with no history: it
        // classifies like an absent one, and its first send still counts
        // as first sight.
        assert_eq!(g.account_slot(Address::user(2)), 1);
        let fresh = g.account_slot(Address::user(7));
        assert_eq!(fresh, 3);
        assert_eq!(g.classify(Address::user(7)), SenderClass::Unknown);
        let t = call(7, 5);
        assert_eq!(g.isolable_contract_at(fresh, &t), Some(ContractId::new(5)));
        assert_eq!(g.observe_all_slots([&t], &mut slots), churn(1, 0));
        assert_eq!(slots, [fresh]);
    }

    #[test]
    fn sender_count_tracks_distinct_senders() {
        let mut g = CallGraph::new();
        g.observe_all([&call(1, 0)]);
        g.observe_all([&call(1, 0)]);
        g.observe_all([&call(2, 0)]);
        assert_eq!(g.sender_count(), 2);
    }

    #[test]
    fn a_record_stays_compact() {
        // One record per address ever seen (the spam flood mints one per
        // transaction): the stamps and the spill pointer must not grow it.
        assert!(std::mem::size_of::<Participation>() <= 24);
    }
}
