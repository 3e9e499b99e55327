//! The intra-shard transaction selection game (Sec. IV-B, Algorithm 2).
//!
//! Miners of a large shard each select a block's worth of transactions.
//! The expected payoff of miner `i` for holding transaction `j` is Eq. (2):
//! `U_{i,j} = f_j / (n_j + 1)`, with `n_j` the number of *other* miners
//! holding `j` — every extra competitor halves, thirds, … the expected fee.
//!
//! With payoffs of the form `f_j / (count on j)` this is a congestion game
//! with the exact Rosenthal potential `Φ(σ) = Σ_j Σ_{k=1}^{c_j} f_j / k`
//! (`c_j` = total holders of `j`): any unilateral best reply increases `Φ`,
//! so best-reply dynamics terminate in a pure strategy Nash equilibrium —
//! the convergence argument the paper cites from Milchtaich/Heikkinen. The
//! monotone increase of `Φ` is `debug_assert`ed on every improving move.

use std::collections::BTreeSet;

use crate::dynamics::BestReplyDynamics;

/// Tunables of the selection game.
#[derive(Clone, Copy, Debug)]
pub struct SelectionConfig {
    /// How many transactions one miner packs into a block (the paper's gas
    /// limit admits 10 per block, Sec. VI-A).
    pub capacity: usize,
    /// Cap on best-reply sweeps (the theoretical bound O(uT²) is far above
    /// what occurs in practice; this is a safety net only).
    pub max_rounds: usize,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            capacity: 10,
            max_rounds: 10_000,
        }
    }
}

/// The outcome of Algorithm 2.
#[derive(Clone, Debug)]
pub struct SelectionOutcome {
    /// Per-miner selected transaction indices, each sorted ascending.
    pub assignments: Vec<Vec<usize>>,
    /// How many miners hold each transaction.
    pub load: Vec<u32>,
    /// Best-reply sweeps until no miner could improve.
    pub rounds: usize,
    /// Final Rosenthal potential.
    pub potential: f64,
}

impl SelectionOutcome {
    /// Number of *distinct* selected sets — the paper's throughput proxy
    /// for Fig. 3(h)/5(b) ("the number of transaction sets can represent
    /// the throughput improvement of the system").
    pub fn distinct_set_count(&self) -> usize {
        let seen: BTreeSet<&[usize]> = self.assignments.iter().map(Vec::as_slice).collect();
        seen.len()
    }

    /// Number of transactions selected by at least one miner.
    pub fn covered_tx_count(&self) -> usize {
        self.load.iter().filter(|&&c| c > 0).count()
    }
}

/// The Rosenthal potential `Φ(σ) = Σ_j Σ_{k=1}^{c_j} f_j / k`.
pub fn potential(fees: &[u64], load: &[u32]) -> f64 {
    fees.iter()
        .zip(load)
        .map(|(&f, &c)| (1..=c).map(|k| f as f64 / k as f64).sum::<f64>())
        .sum()
}

/// Runs Algorithm 2: best-reply dynamics from the given initial choices to
/// a pure strategy Nash equilibrium.
///
/// `initial` holds each miner's starting set (the "initial transaction set
/// selected by each miner" input of Algorithm 2, distributed by the
/// verifiable leader under parameter unification). Sets are deduplicated
/// and truncated/padded to `capacity` deterministically.
///
/// This is one run of [`BestReplyDynamics`]; the fuzz grid in
/// `tests/dynamics_equivalence.rs` pins it move-for-move equal to the
/// pre-refactor direct implementation.
pub fn best_reply_equilibrium(
    fees: &[u64],
    initial: &[Vec<usize>],
    config: &SelectionConfig,
) -> SelectionOutcome {
    let mut dynamics = BestReplyDynamics::default();
    dynamics.run(fees, initial, config);
    dynamics.outcome(fees)
}

/// The optimal number of distinct sets (Sec. VI-E2): every miner validates
/// a different set, bounded by how many disjoint capacity-sized sets exist.
pub fn optimal_distinct_sets(tx_count: usize, miners: usize, capacity: usize) -> usize {
    assert!(capacity > 0);
    miners
        .min(tx_count.div_ceil(capacity))
        .max(usize::from(tx_count > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(capacity: usize) -> SelectionConfig {
        SelectionConfig {
            capacity,
            max_rounds: 10_000,
        }
    }

    fn seq_initial(miners: usize, capacity: usize, t: usize) -> Vec<Vec<usize>> {
        // Staggered deterministic starts.
        (0..miners)
            .map(|i| {
                (0..capacity)
                    .map(|k| (i * capacity + k) % t.max(1))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn equilibrium_spreads_miners_over_equal_fees() {
        // 4 miners, 8 equal-fee txs, capacity 2: at equilibrium every tx
        // has exactly one holder (any overlap is an improving deviation).
        let fees = vec![10u64; 8];
        let out = best_reply_equilibrium(&fees, &seq_initial(4, 2, 8), &cfg(2));
        assert_eq!(out.covered_tx_count(), 8);
        assert!(out.load.iter().all(|&c| c == 1), "load {:?}", out.load);
        assert_eq!(out.distinct_set_count(), 4);
    }

    #[test]
    fn equilibrium_is_stable_no_profitable_deviation() {
        let fees = vec![100, 90, 80, 70, 60, 50, 40, 30, 20, 10];
        let out = best_reply_equilibrium(&fees, &seq_initial(5, 2, 10), &cfg(2));
        // Re-running best reply from the equilibrium changes nothing.
        let again = best_reply_equilibrium(&fees, &out.assignments, &cfg(2));
        assert_eq!(again.assignments, out.assignments);
        assert_eq!(again.rounds, 1, "one certification sweep, no moves");
    }

    #[test]
    fn dominant_fee_attracts_everyone() {
        // One tx worth 1000, the rest worth 1: with capacity 1, sharing the
        // big fee beats owning a small one as long as share > 1, so all
        // miners sit on tx 0 (u ≤ 500 here) — the degenerate equilibrium
        // the paper blames for Fig. 5(b)'s 50% gap.
        let mut fees = vec![1u64; 10];
        fees[0] = 1000;
        let out = best_reply_equilibrium(&fees, &seq_initial(6, 1, 10), &cfg(1));
        assert_eq!(out.load[0], 6, "load {:?}", out.load);
        assert_eq!(out.distinct_set_count(), 1);
    }

    #[test]
    fn capacity_larger_than_tx_count_is_clamped() {
        let fees = vec![3, 2, 1];
        let out = best_reply_equilibrium(&fees, &seq_initial(2, 5, 3), &cfg(5));
        for a in &out.assignments {
            assert_eq!(a.len(), 3);
        }
    }

    #[test]
    fn empty_inputs() {
        let out = best_reply_equilibrium(&[], &[], &cfg(3));
        assert_eq!(out.assignments.len(), 0);
        assert_eq!(out.distinct_set_count(), 0);
        let out = best_reply_equilibrium(&[1, 2], &[], &cfg(1));
        assert_eq!(out.assignments.len(), 0);
        // Zero capacity: every miner's set is empty and no sweep runs.
        let out = best_reply_equilibrium(&[5, 9], &[vec![0, 1], vec![1]], &cfg(0));
        assert_eq!(out.assignments, vec![Vec::<usize>::new(); 2]);
        assert_eq!((out.rounds, out.covered_tx_count()), (0, 0));
    }

    #[test]
    fn initial_sets_are_sanitised() {
        // Out-of-range, duplicated, oversized initial picks are repaired.
        let fees = vec![10, 20, 30];
        let initial = vec![vec![7, 7, 1, 1, 2, 2, 0]];
        let out = best_reply_equilibrium(&fees, &initial, &cfg(2));
        assert_eq!(out.assignments[0].len(), 2);
        assert!(out.assignments[0].iter().all(|&j| j < 3));
    }

    #[test]
    fn profit_accounting_matches_load() {
        let fees = vec![60, 40];
        // Two miners, capacity 1, distinct txs at equilibrium (sharing 60
        // yields 30 < 40).
        let out = best_reply_equilibrium(&fees, &[vec![0], vec![0]], &cfg(1));
        assert_eq!(out.covered_tx_count(), 2);
        // A miner's expected profit under Eq. (2): each fee shared by load.
        let profit = |miner: usize| -> f64 {
            out.assignments[miner]
                .iter()
                .map(|&j| fees[j] as f64 / out.load[j] as f64)
                .sum()
        };
        let mut profits = [profit(0), profit(1)];
        profits.sort_by(f64::total_cmp);
        assert_eq!(profits, [40.0, 60.0]);
    }

    #[test]
    fn more_miners_never_fewer_distinct_sets_on_uniform_fees() {
        let fees: Vec<u64> = (1..=200).collect();
        let mut prev = 0;
        for miners in 1..=9 {
            let out = best_reply_equilibrium(&fees, &seq_initial(miners, 10, 200), &cfg(10));
            let d = out.distinct_set_count();
            assert!(d >= prev, "miners={miners}: {d} < {prev}");
            prev = d;
        }
        // With 200 spread fees and capacity 10, nine miners find nine
        // disjoint profitable sets.
        assert_eq!(prev, 9);
    }

    #[test]
    fn optimal_distinct_sets_formula() {
        assert_eq!(optimal_distinct_sets(200, 9, 10), 9);
        assert_eq!(optimal_distinct_sets(15, 9, 10), 2);
        assert_eq!(optimal_distinct_sets(5, 3, 10), 1);
        assert_eq!(optimal_distinct_sets(0, 3, 10), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Best reply always terminates at a genuine equilibrium: no miner
        /// can improve by any unilateral set change (verified against the
        /// top-marginal-value criterion).
        #[test]
        fn prop_terminates_at_equilibrium(
            fees in proptest::collection::vec(1u64..1000, 1..40),
            miners in 1usize..8,
            capacity in 1usize..6,
        ) {
            let initial = seq_initial(miners, capacity, fees.len());
            let out = best_reply_equilibrium(&fees, &initial, &cfg(capacity));
            prop_assert!(out.rounds < cfg(capacity).max_rounds);
            // Certification: re-run yields no movement.
            let again = best_reply_equilibrium(&fees, &out.assignments, &cfg(capacity));
            prop_assert_eq!(&again.assignments, &out.assignments);
            // Load bookkeeping is consistent.
            let mut load = vec![0u32; fees.len()];
            for a in &out.assignments {
                for &j in a {
                    load[j] += 1;
                }
            }
            prop_assert_eq!(load, out.load.clone());
        }

        /// The equilibrium weakly beats all-greedy in total welfare proxy
        /// (covered transactions), since spreading never covers fewer:
        /// greedy miners all take the same `capacity` top fees.
        #[test]
        fn prop_covers_at_least_greedy(
            fees in proptest::collection::vec(1u64..1000, 1..40),
            miners in 1usize..8,
        ) {
            let capacity = 3usize;
            let out = best_reply_equilibrium(
                &fees,
                &seq_initial(miners, capacity, fees.len()),
                &cfg(capacity),
            );
            prop_assert!(out.covered_tx_count() >= capacity.min(fees.len()));
        }
    }
}
