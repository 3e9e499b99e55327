//! Fig. 5: the large-scale simulations (Sec. VI-E).
//!
//! * (a) number of new shards formed by the merging game vs. the optimal
//!   `⌊Σ sizes / L⌋`, up to 1000 small shards.
//! * (b) number of distinct transaction sets reached by the selection game
//!   vs. the optimal (= miner count), up to 1000 miners.

use crate::experiments::grid_scheduler;
use crate::report::{ExperimentResult, Series};
use cshard_games::merging::optimal_new_shard_count;
use cshard_games::selection::{best_reply_equilibrium, optimal_distinct_sets, SelectionConfig};
use cshard_games::{iterative_merge, MergingConfig};
use cshard_workload::FeeDistribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Fig. 5(a): merging at scale.
pub fn run_a(quick: bool) -> ExperimentResult {
    let xs: Vec<usize> = if quick {
        vec![50, 100, 200]
    } else {
        vec![100, 200, 400, 600, 800, 1000]
    };
    let lower_bound = 22u64;
    let config = MergingConfig {
        lower_bound,
        ..MergingConfig::default()
    };
    // Grid points are seeded by `n` alone, so they are independent tasks.
    let points = grid_scheduler().map(xs.clone(), move |_, n| {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        // "We randomly generate different numbers of transactions in
        // multiple small shards" — 1..=9 like the testbed runs.
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=9u64)).collect();
        let probs = vec![0.5; n];
        let out = iterative_merge(&sizes, &probs, &config, n as u64).expect("valid input");
        (
            (n as f64, out.new_shard_count() as f64),
            (
                n as f64,
                optimal_new_shard_count(&sizes, lower_bound).expect("valid input") as f64,
            ),
        )
    });
    type Points = Vec<(f64, f64)>;
    let (ours, optimal): (Points, Points) = points.into_iter().unzip();
    let ratio: f64 = ours
        .iter()
        .zip(&optimal)
        .map(|(&(_, o), &(_, opt))| o / opt.max(1.0))
        .sum::<f64>()
        / ours.len() as f64;
    ExperimentResult {
        id: "fig5a".into(),
        title: "Merging at scale: new shards vs. optimal".into(),
        x_label: "small shards".into(),
        y_label: "new shards".into(),
        series: vec![
            Series::new("our shard merging", ours),
            Series::new("optimal", optimal),
        ],
        notes: vec![
            format!("shard sizes ~U(1,9), L = {lower_bound}"),
            format!(
                "our merging reaches {:.0}% of the optimal shard count on average \
                 (paper: ~80%, i.e. a 20% loss)",
                ratio * 100.0
            ),
        ],
    }
}

/// Fig. 5(b): selection at scale.
///
/// The paper records "the numbers of transaction sets": miners choose among
/// candidate *sets* (a block's worth of transactions each), and the optimum
/// is every miner on a different set. We build `miners` candidate sets of
/// `capacity` transactions with randomly generated fees and let the
/// congestion game (payoff = set fee / holders) run to equilibrium; the
/// metric is how many distinct sets end up selected. Heavy-tailed fees
/// produce the degeneracy the paper blames for its ~50% average loss: when
/// one set's fee dwarfs the rest, sharing it still beats owning a cheap
/// set, and miners pile onto it.
pub fn run_b(quick: bool) -> ExperimentResult {
    let xs: Vec<usize> = if quick {
        vec![50, 100, 200]
    } else {
        vec![100, 200, 400, 600, 800, 1000]
    };
    let capacity = 10usize;
    let repeats = if quick { 3 } else { 10 };
    // Flatten (miners, repeat) into independent tasks — each is seeded by
    // its own pair, so the fan-out is deterministic and load-balanced
    // (the 1000-miner repeats dominate; one point would bottleneck).
    let pairs: Vec<(usize, usize)> = xs
        .iter()
        .flat_map(|&miners| (0..repeats).map(move |rep| (miners, rep)))
        .collect();
    let counts = grid_scheduler().map(pairs, move |_, (miners, rep)| {
        let mut rng = ChaCha8Rng::seed_from_u64((miners * 31 + rep) as u64 ^ 0xBEEF);
        // Candidate-set fee = sum of `capacity` heavy-tailed tx fees.
        let fee_model = FeeDistribution::Zipf {
            max: 50_000,
            s: 1.1,
        };
        let set_fees: Vec<u64> = (0..miners)
            .map(|_| (0..capacity).map(|_| fee_model.sample(&mut rng)).sum())
            .collect();
        // Each miner picks one set; staggered initial choices.
        let initial: Vec<Vec<usize>> = (0..miners).map(|m| vec![m]).collect();
        let out = best_reply_equilibrium(
            &set_fees,
            &initial,
            &SelectionConfig {
                capacity: 1,
                max_rounds: 10_000,
            },
        );
        out.covered_tx_count() as f64
    });
    let mut ours = Vec::new();
    let mut optimal = Vec::new();
    for (i, &miners) in xs.iter().enumerate() {
        let distinct_sum: f64 = counts[i * repeats..(i + 1) * repeats].iter().sum();
        ours.push((miners as f64, distinct_sum / repeats as f64));
        optimal.push((
            miners as f64,
            optimal_distinct_sets(miners, miners, 1) as f64,
        ));
    }
    let ratio: f64 = ours
        .iter()
        .zip(&optimal)
        .map(|(&(_, o), &(_, opt))| o / opt.max(1.0))
        .sum::<f64>()
        / ours.len() as f64;
    ExperimentResult {
        id: "fig5b".into(),
        title: "Selection at scale: distinct transaction sets vs. optimal".into(),
        x_label: "miners".into(),
        y_label: "distinct transaction sets".into(),
        series: vec![
            Series::new("our transaction selection", ours),
            Series::new("optimal", optimal),
        ],
        notes: vec![
            format!(
                "one candidate set per miner, {capacity} Zipf(1.1) fees per set, \
                 {repeats} repeats/point"
            ),
            format!(
                "the equilibrium reaches {:.0}% of the optimal distinct-set count on average \
                 (paper: ~50%); the loss concentrates where a few set fees dominate, exactly \
                 the degeneracy the paper describes",
                ratio * 100.0
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_is_near_but_below_optimal() {
        let r = run_a(true);
        for (o, opt) in r.series[0].points.iter().zip(&r.series[1].points) {
            assert!(o.1 <= opt.1 + 1e-9, "beat the oracle at {}", o.0);
            assert!(
                o.1 >= opt.1 * 0.4,
                "too far from optimal at {}: {} vs {}",
                o.0,
                o.1,
                opt.1
            );
        }
    }

    #[test]
    fn selection_is_below_optimal_but_grows() {
        let r = run_b(true);
        let ours = &r.series[0].points;
        let opt = &r.series[1].points;
        for (o, p) in ours.iter().zip(opt) {
            assert!(o.1 <= p.1 + 1e-9);
            assert!(o.1 >= 1.0);
        }
        assert!(ours.last().unwrap().1 > ours.first().unwrap().1);
    }
}
