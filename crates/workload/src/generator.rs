//! The injection patterns of Sec. VI, as deterministic generators.

use crate::fees::FeeDistribution;
use cshard_ledger::Transaction;
use cshard_primitives::{Address, Amount, ContractId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A generated workload: the injected transactions, in injection order.
///
/// Every count the simulator reports derives from this list alone. The
/// contracts the paper registers (Sec. VI-A) are the `ContractId`s the
/// calls name; nothing here builds a genesis ledger for them.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The injected transactions, in injection order.
    pub transactions: Vec<Transaction>,
}

/// Value carried by every generated transfer — small and constant; the
/// evaluation's metrics never depend on transfer size.
const TX_VALUE: Amount = Amount(1_000);

struct Builder {
    txs: Vec<Transaction>,
    next_user: u64,
    rng: ChaCha8Rng,
    fees: FeeDistribution,
}

impl Builder {
    fn new(seed: u64, fees: FeeDistribution) -> Self {
        Builder {
            txs: Vec::new(),
            next_user: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            fees,
        }
    }

    fn fresh_user(&mut self) -> Address {
        let addr = Address::user(self.next_user);
        self.next_user += 1;
        addr
    }

    fn fee(&mut self) -> Amount {
        Amount::from_raw(self.fees.sample(&mut self.rng))
    }

    /// A single-contract sender's call: one fresh user, one invocation —
    /// the Fig. 1(a) shape that makes the transaction isolable.
    fn contract_call(&mut self, contract: ContractId) {
        let sender = self.fresh_user();
        let fee = self.fee();
        self.txs
            .push(Transaction::call(sender, 0, contract, TX_VALUE, fee));
    }

    /// A MaxShard-bound transaction: a fresh user paying another user
    /// directly (Fig. 1(c)'s direct-transfer shape).
    fn direct_transfer(&mut self) {
        let sender = self.fresh_user();
        let recipient = self.fresh_user();
        let fee = self.fee();
        self.txs
            .push(Transaction::direct(sender, 0, recipient, TX_VALUE, fee));
    }

    /// A k-input transfer (Sec. VI-B2): all inputs are fresh users.
    fn multi_input(&mut self, k: usize) {
        assert!(k >= 1);
        let inputs: Vec<Address> = (0..k).map(|_| self.fresh_user()).collect();
        let sender = inputs[0];
        let recipient = self.fresh_user();
        let fee = self.fee();
        self.txs.push(Transaction::multi_input(
            sender, 0, inputs, recipient, TX_VALUE, fee,
        ));
    }

    fn finish(self) -> Workload {
        Workload {
            transactions: self.txs,
        }
    }
}

impl Workload {
    /// Sec. VI-B1: `total` transactions over `contracts` contract shards
    /// plus the MaxShard, each group of size `total / (contracts + 1)` (the
    /// remainder goes to the MaxShard, keeping the total exact).
    ///
    /// With `contracts == 0` every transaction is a direct transfer — the
    /// non-sharded degenerate case.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "contract ids are `u32`: a contract count counts `ContractId`s"
    )]
    pub fn uniform_contracts(
        total: usize,
        contracts: usize,
        fees: FeeDistribution,
        seed: u64,
    ) -> Workload {
        let mut b = Builder::new(seed, fees);
        let groups = contracts + 1;
        let per_group = total / groups;
        for c in 0..contracts {
            for _ in 0..per_group {
                b.contract_call(ContractId::new(c as u32));
            }
        }
        let maxshard = total - per_group * contracts;
        for _ in 0..maxshard {
            b.direct_transfer();
        }
        b.finish()
    }

    /// Sec. VI-C: nine shards of which `small` are small. Small shards get
    /// `small_sizes` transactions each (the paper injects 1–9); regular
    /// shards split the remainder of `total` evenly (the paper keeps the
    /// total at 200, giving regular shards "more than 22").
    #[expect(
        clippy::cast_possible_truncation,
        reason = "contract ids are `u32`: a contract count counts `ContractId`s"
    )]
    pub fn with_small_shards(
        total: usize,
        shards: usize,
        small: usize,
        small_sizes: &[u64],
        fees: FeeDistribution,
        seed: u64,
    ) -> Workload {
        assert!(small <= shards, "more small shards than shards");
        assert_eq!(small_sizes.len(), small, "one size per small shard");
        let small_total = usize::try_from(small_sizes.iter().sum::<u64>()).unwrap_or(usize::MAX);
        assert!(small_total <= total, "small shards exceed the total");
        let regular = shards - small;
        let mut b = Builder::new(seed, fees);
        // Small shards first (contract ids 0..small).
        for (i, &size) in small_sizes.iter().enumerate() {
            for _ in 0..size {
                b.contract_call(ContractId::new(i as u32));
            }
        }
        // Regular shards split the remainder.
        let remainder = total - small_total;
        #[allow(clippy::manual_checked_ops)] // the guard also skips the loop body
        if regular > 0 {
            let per_regular = remainder / regular;
            let mut extra = remainder - per_regular * regular;
            for r in 0..regular {
                let mut count = per_regular;
                if extra > 0 {
                    count += 1;
                    extra -= 1;
                }
                for _ in 0..count {
                    b.contract_call(ContractId::new((small + r) as u32));
                }
            }
        }
        b.finish()
    }

    /// Sec. VI-B2 / Fig. 4(b): `total` transactions with `inputs` funding
    /// accounts each. In random sharding these are cross-shard; in
    /// contract-centric sharding they all land in the MaxShard.
    pub fn three_input(total: usize, inputs: usize, fees: FeeDistribution, seed: u64) -> Workload {
        let mut b = Builder::new(seed, fees);
        for _ in 0..total {
            b.multi_input(inputs);
        }
        b.finish()
    }

    /// A Zipf contract-popularity mix: contract `k`'s share ∝ `k^-s`,
    /// echoing the paper's mainnet statistics (Sec. II-A: the most popular
    /// contract holds 10.35 M transactions while the top-10 average 3 M).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "contract ids are `u32`, and a share is a rounded non-negative fraction of `total`"
    )]
    pub fn heavy_tail(
        total: usize,
        contracts: usize,
        zipf_s: f64,
        fees: FeeDistribution,
        seed: u64,
    ) -> Workload {
        assert!(contracts >= 1);
        let mut b = Builder::new(seed, fees);
        let norm: f64 = (1..=contracts).map(|k| (k as f64).powf(-zipf_s)).sum();
        let mut assigned = 0usize;
        for c in 0..contracts {
            let share = ((c as f64 + 1.0).powf(-zipf_s) / norm * total as f64).round() as usize;
            let share = share.min(total - assigned);
            for _ in 0..share {
                b.contract_call(ContractId::new(c as u32));
            }
            assigned += share;
        }
        // Rounding dust becomes MaxShard traffic.
        for _ in assigned..total {
            b.direct_transfer();
        }
        b.finish()
    }

    /// Number of transactions that are not single-contract calls.
    pub fn maxshard_tx_count(&self) -> usize {
        self.transactions
            .iter()
            .filter(|t| t.kind.contract().is_none())
            .count()
    }

    /// All fees in injection order (inputs to the selection game).
    pub fn fees(&self) -> Vec<u64> {
        self.transactions.iter().map(|t| t.fee.raw()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_ledger::CallGraph;

    const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 100 };

    /// Contract calls per contract id, for ids below `contracts`.
    fn calls_per_contract(w: &Workload, contracts: usize) -> Vec<u64> {
        let mut counts = vec![0u64; contracts];
        for c in w.transactions.iter().filter_map(|t| t.kind.contract()) {
            counts[c.0 as usize] += 1;
        }
        counts
    }

    #[test]
    fn uniform_contracts_splits_evenly() {
        // The paper's 9-shard setting: 200 txs over 8 contracts + MaxShard
        // = 22 per contract shard.
        let w = Workload::uniform_contracts(200, 8, FEES, 1);
        assert_eq!(w.transactions.len(), 200);
        assert_eq!(calls_per_contract(&w, 8), vec![22; 8]);
        assert_eq!(w.maxshard_tx_count(), 200 - 8 * 22);
    }

    #[test]
    fn uniform_contracts_zero_contracts_is_all_maxshard() {
        let w = Workload::uniform_contracts(50, 0, FEES, 1);
        assert_eq!(w.transactions.len(), 50);
        assert_eq!(w.maxshard_tx_count(), 50);
    }

    #[test]
    fn every_generator_validates_against_a_funded_genesis() {
        for w in [
            Workload::uniform_contracts(100, 4, FEES, 7),
            Workload::with_small_shards(200, 9, 3, &[4, 5, 6], FEES, 8),
            Workload::three_input(40, 3, FEES, 3),
            Workload::heavy_tail(300, 9, 1.1, FEES, 5),
        ] {
            crate::assert_validates(&w.transactions);
        }
    }

    #[test]
    fn generated_workloads_are_deterministic() {
        let a = Workload::uniform_contracts(60, 3, FEES, 9);
        let b = Workload::uniform_contracts(60, 3, FEES, 9);
        assert_eq!(a.transactions, b.transactions);
        let c = Workload::uniform_contracts(60, 3, FEES, 10);
        assert_ne!(a.fees(), c.fees(), "different seed, different fees");
    }

    #[test]
    fn small_shard_mix_matches_paper_shape() {
        // 9 shards, 3 small with 4 txs each, total 200.
        let w = Workload::with_small_shards(200, 9, 3, &[4, 4, 4], FEES, 2);
        assert_eq!(w.transactions.len(), 200);
        let counts = calls_per_contract(&w, 9);
        assert_eq!(&counts[..3], &[4, 4, 4]);
        // Regular shards share 188 over 6: sizes 31/32.
        let regular: Vec<u64> = counts[3..].to_vec();
        assert_eq!(regular.iter().sum::<u64>(), 188);
        assert!(regular.iter().all(|&c| c == 31 || c == 32));
    }

    #[test]
    fn small_shard_mix_validates_inputs() {
        let r =
            std::panic::catch_unwind(|| Workload::with_small_shards(10, 2, 3, &[1, 1, 1], FEES, 0));
        assert!(r.is_err(), "small > shards must panic");
        let r = std::panic::catch_unwind(|| Workload::with_small_shards(5, 9, 2, &[9, 9], FEES, 0));
        assert!(r.is_err(), "small total > total must panic");
    }

    #[test]
    fn three_input_transactions_have_k_inputs() {
        let w = Workload::three_input(40, 3, FEES, 3);
        assert_eq!(w.transactions.len(), 40);
        assert!(w.transactions.iter().all(|t| t.kind.input_count() == 3));
        assert_eq!(w.maxshard_tx_count(), 40);
    }

    #[test]
    fn call_graph_classifies_generated_workloads_as_designed() {
        // Contract calls isolable; direct transfers MaxShard-bound.
        let w = Workload::uniform_contracts(90, 2, FEES, 4);
        let mut g = CallGraph::new();
        g.observe_all(w.transactions.iter());
        let isolable = w
            .transactions
            .iter()
            .filter(|t| g.isolable_contract(t).is_some())
            .count();
        assert_eq!(isolable, 60); // 30 per contract shard
    }

    #[test]
    fn heavy_tail_is_skewed_and_exact() {
        let w = Workload::heavy_tail(1000, 10, 1.1, FEES, 5);
        assert_eq!(w.transactions.len(), 1000);
        let counts = calls_per_contract(&w, 10);
        assert!(counts[0] > counts[9] * 3, "counts {counts:?}");
    }

    #[test]
    fn fees_follow_requested_distribution() {
        let w = Workload::uniform_contracts(500, 4, FeeDistribution::Constant(13), 6);
        assert!(w.fees().iter().all(|&f| f == 13));
    }
}
