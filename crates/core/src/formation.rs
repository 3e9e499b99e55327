//! Contract-centric shard formation (Sec. III-A).
//!
//! "Transactions sent by users who only participate in the same smart
//! contract naturally form a shard … Transactions sent by [users who
//! participate in more than one contract or have directly sent transactions
//! to other users] form a unique shard, called the MaxShard."

use cshard_ledger::{CallGraph, Transaction};
use cshard_primitives::{ContractId, Error, ShardId};
use std::collections::BTreeMap;

/// The partition of a transaction batch into shards.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Transaction indices per contract shard, keyed by shard id. Contract
    /// `c` maps to `ShardId(c)`.
    pub contract_shards: BTreeMap<ShardId, Vec<usize>>,
    /// Transaction indices in the MaxShard.
    pub maxshard: Vec<usize>,
    /// The shard of each transaction, by transaction index.
    pub shard_of: Vec<ShardId>,
}

impl ShardPlan {
    /// Builds the plan for a batch with no prior history: observe the
    /// whole batch on a fresh call graph, then classify every transaction.
    ///
    /// The effective call graph includes the batch itself: a sender that
    /// invokes two contracts within the batch is multi-contract.
    pub fn build(transactions: &[Transaction]) -> ShardPlan {
        let mut graph = CallGraph::new();
        graph.observe_all(transactions.iter());
        Self::classify(transactions, &graph)
    }

    /// Classifies a batch against a call graph that has *already observed
    /// it*.
    ///
    /// A transaction lands in contract shard `c` iff it is a contract call
    /// and its sender's *entire* history touches only `c` — otherwise the
    /// MaxShard takes it. This is exactly the Fig. 1 classification
    /// ([`CallGraph::isolable_contract`]).
    pub fn classify(transactions: &[Transaction], graph: &CallGraph) -> ShardPlan {
        Self::partition(transactions, |_, tx| graph.isolable_contract(tx))
    }

    /// The one formation loop: `isolable(i, tx)` names the contract whose
    /// shard transaction `i` joins, `None` sending it to the MaxShard.
    /// [`ShardPlan::classify`] finds each sender's record by address;
    /// the classify stage finds it by the slot observation handed back.
    ///
    /// The groups are built once from the finished `shard_of`: every index
    /// is sorted *stably* by shard (the MaxShard's id sorts last) and each
    /// run becomes one exactly sized `Vec`, so every group lists its
    /// indices in ascending order — the order the Form stage builds fee
    /// queues in.
    pub(crate) fn partition(
        transactions: &[Transaction],
        mut isolable: impl FnMut(usize, &Transaction) -> Option<ContractId>,
    ) -> ShardPlan {
        let shard_of: Vec<ShardId> = transactions
            .iter()
            .enumerate()
            .map(|(i, tx)| isolable(i, tx).map_or(ShardId::MAX_SHARD, Self::shard_for_contract))
            .collect();
        let mut order: Vec<usize> = (0..shard_of.len()).collect();
        order.sort_by_key(|&i| shard_of[i]);
        let mut contract_shards = BTreeMap::new();
        let mut maxshard = Vec::new();
        for group in order.chunk_by(|&a, &b| shard_of[a] == shard_of[b]) {
            let shard = shard_of[group[0]];
            if shard.is_max_shard() {
                maxshard = group.to_vec();
            } else {
                contract_shards.insert(shard, group.to_vec());
            }
        }
        ShardPlan {
            contract_shards,
            maxshard,
            shard_of,
        }
    }

    /// The shard a contract's isolable transactions form.
    pub fn shard_for_contract(c: ContractId) -> ShardId {
        ShardId::new(c.0)
    }

    /// Number of shards with at least one transaction (MaxShard included
    /// when non-empty).
    pub fn active_shard_count(&self) -> usize {
        self.contract_shards.len() + usize::from(!self.maxshard.is_empty())
    }

    /// `(shard, size)` for every active shard, MaxShard last.
    pub fn shard_sizes(&self) -> Vec<(ShardId, u64)> {
        let mut v: Vec<(ShardId, u64)> = self
            .contract_shards
            .iter()
            .map(|(&s, txs)| (s, txs.len() as u64))
            .collect();
        if !self.maxshard.is_empty() {
            v.push((ShardId::MAX_SHARD, self.maxshard.len() as u64));
        }
        v
    }

    /// Total transactions in the plan.
    pub fn total_txs(&self) -> usize {
        self.shard_of.len()
    }

    /// The transaction fractions β (Sec. III-B), in percent, per active
    /// shard — the statistic the verifiable leader broadcasts for miner
    /// separation. Fractions are rounded to sum to exactly 100 (largest-
    /// remainder method) so the RandHound group intervals tile `1..=100`.
    ///
    /// An empty plan has no fractions: `Error::Config { field: "batch" }`.
    pub fn fractions_percent(&self) -> Result<Vec<(ShardId, u32)>, Error> {
        let sizes = self.shard_sizes();
        let total: u64 = sizes.iter().map(|&(_, s)| s).sum();
        if total == 0 {
            return Err(Error::Config {
                field: "batch",
                reason: "an epoch needs transactions".into(),
            });
        }
        // Largest-remainder rounding.
        let mut entries: Vec<(ShardId, u32, f64)> = sizes
            .iter()
            .map(|&(shard, s)| {
                let exact = s as f64 * 100.0 / total as f64;
                // `s <= total`, so the whole percent is at most 100.
                let whole = u32::try_from(s * 100 / total).unwrap_or(100);
                (shard, whole, exact - exact.floor())
            })
            .collect();
        let assigned: u32 = entries.iter().map(|e| e.1).sum();
        let mut rest = 100 - assigned;
        // Hand out remainders to the largest fractional parts, ties by
        // shard id for determinism.
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            entries[b]
                .2
                .total_cmp(&entries[a].2)
                .then(entries[a].0.cmp(&entries[b].0))
        });
        for idx in order {
            if rest == 0 {
                break;
            }
            entries[idx].1 += 1;
            rest -= 1;
        }
        Ok(entries.into_iter().map(|(s, pct, _)| (s, pct)).collect())
    }

    /// The small shards: active shards strictly below `lower_bound`
    /// transactions — the players of the merging game (MaxShard never
    /// merges; it is structurally distinct).
    pub fn small_shards(&self, lower_bound: u64) -> Vec<(ShardId, u64)> {
        self.contract_shards
            .iter()
            .filter(|(_, txs)| (txs.len() as u64) < lower_bound)
            .map(|(&s, txs)| (s, txs.len() as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_workload::{FeeDistribution, Workload};

    const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 99 };

    fn plan(w: &Workload) -> ShardPlan {
        ShardPlan::build(&w.transactions)
    }

    #[test]
    fn uniform_workload_forms_expected_shards() {
        // 200 txs over 8 contracts + MaxShard (the paper's 9-shard setup).
        let w = Workload::uniform_contracts(200, 8, FEES, 1);
        let p = plan(&w);
        assert_eq!(p.active_shard_count(), 9);
        for txs in p.contract_shards.values() {
            assert_eq!(txs.len(), 22);
        }
        assert_eq!(p.maxshard.len(), 200 - 8 * 22);
        assert_eq!(p.total_txs(), 200);
    }

    #[test]
    fn shard_of_is_consistent_with_groups() {
        let w = Workload::uniform_contracts(90, 3, FEES, 2);
        let p = plan(&w);
        for (shard, txs) in &p.contract_shards {
            for &i in txs {
                assert_eq!(p.shard_of[i], *shard);
            }
        }
        for &i in &p.maxshard {
            assert_eq!(p.shard_of[i], ShardId::MAX_SHARD);
        }
    }

    #[test]
    fn multi_contract_sender_pushes_txs_to_maxshard() {
        // Same sender invokes two contracts: both txs must be MaxShard
        // even though each individually looks isolable.
        use cshard_ledger::Transaction;
        use cshard_primitives::{Address, Amount};
        let txs = vec![
            Transaction::call(
                Address::user(1),
                0,
                ContractId::new(0),
                Amount(10),
                Amount(1),
            ),
            Transaction::call(
                Address::user(1),
                1,
                ContractId::new(1),
                Amount(10),
                Amount(1),
            ),
            Transaction::call(
                Address::user(2),
                0,
                ContractId::new(0),
                Amount(10),
                Amount(1),
            ),
        ];
        let p = ShardPlan::build(&txs);
        assert_eq!(p.maxshard, vec![0, 1]);
        assert_eq!(p.contract_shards[&ShardId::new(0)], vec![2]);
    }

    #[test]
    fn history_from_prior_epochs_affects_classification() {
        use cshard_ledger::Transaction;
        use cshard_primitives::{Address, Amount};
        // User 1 transacted directly in the past.
        let mut history = CallGraph::new();
        history.observe_all([&Transaction::direct(
            Address::user(1),
            0,
            Address::user(9),
            Amount(5),
            Amount(1),
        )]);
        let txs = vec![Transaction::call(
            Address::user(1),
            1,
            ContractId::new(0),
            Amount(10),
            Amount(1),
        )];
        history.observe_all(txs.iter());
        let p = ShardPlan::classify(&txs, &history);
        assert_eq!(p.maxshard, vec![0], "history forces MaxShard");
    }

    #[test]
    fn three_input_workload_is_all_maxshard() {
        let w = Workload::three_input(50, 3, FEES, 3);
        let p = plan(&w);
        assert_eq!(p.maxshard.len(), 50);
        assert!(p.contract_shards.is_empty());
        assert_eq!(p.active_shard_count(), 1);
    }

    #[test]
    fn fractions_sum_to_exactly_100() {
        for contracts in 1..=9 {
            let w = Workload::uniform_contracts(200, contracts, FEES, 4);
            let p = plan(&w);
            let fr = p.fractions_percent().expect("non-empty plan");
            let total: u32 = fr.iter().map(|&(_, pct)| pct).sum();
            assert_eq!(total, 100, "contracts={contracts}: {fr:?}");
        }
    }

    #[test]
    fn fractions_track_sizes() {
        let w = Workload::with_small_shards(200, 9, 2, &[5, 5], FEES, 5);
        let p = plan(&w);
        let fr = p.fractions_percent().expect("non-empty plan");
        // Small shards (5/200 = 2.5 %) get 2–3 %.
        for &(shard, pct) in &fr {
            if shard == ShardId::new(0) || shard == ShardId::new(1) {
                assert!((2..=3).contains(&pct), "{shard}: {pct}%");
            }
        }
    }

    #[test]
    fn small_shards_are_those_below_the_bound() {
        let w = Workload::with_small_shards(200, 9, 3, &[4, 8, 9], FEES, 6);
        let p = plan(&w);
        let small = p.small_shards(22);
        assert_eq!(small.len(), 3);
        let sizes: Vec<u64> = small.iter().map(|&(_, s)| s).collect();
        assert_eq!(sizes, vec![4, 8, 9]);
    }
}
