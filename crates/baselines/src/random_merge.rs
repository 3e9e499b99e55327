//! The randomized merging baseline (Sec. VI-C2).
//!
//! "Miners in small shards randomly choose whether to merge with others
//! with a probability of 0.5. At some random point, all the miners are at
//! an equilibrium state … to form a stable shard, **and the algorithm also
//! stops here**." — i.e. coin-flip coalitions retried until one satisfies
//! the size bound, after which the baseline stops: it forms at most ONE
//! stable shard. (This is what makes the game-driven Algorithm 1, which
//! keeps iterating over the remainder, form ~59% more new shards in the
//! paper's Fig. 3(g).)

use cshard_primitives::Error;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Outcome of the randomized merging baseline.
#[derive(Clone, Debug)]
pub struct RandomMergeOutcome {
    /// Each new shard, as indices into the input sizes.
    pub new_shards: Vec<Vec<usize>>,
    /// Players left unmerged.
    pub leftover: Vec<usize>,
    /// Coin-flip rounds consumed.
    pub rounds: usize,
}

impl RandomMergeOutcome {
    /// Number of new shards — comparable with
    /// `IterativeMergeOutcome::new_shard_count`.
    pub fn new_shard_count(&self) -> usize {
        self.new_shards.len()
    }
}

/// Bounded retries per formed shard, mirroring the merging game's bounded
/// realization draws.
const MAX_ROUNDS_PER_SHARD: usize = 64;

/// Runs the p = 0.5 randomized merging baseline over small-shard sizes:
/// coin-flip coalitions until the first one satisfies the bound, then stop.
///
/// A zero `lower_bound` is an [`Error::Config`]: every coalition, the
/// empty one included, would satisfy it.
pub fn random_merge(
    sizes: &[u64],
    lower_bound: u64,
    seed: u64,
) -> Result<RandomMergeOutcome, Error> {
    if lower_bound == 0 {
        return Err(Error::Config {
            field: "lower_bound",
            reason: "the merged-shard size bound must be positive".into(),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut remaining: Vec<usize> = (0..sizes.len()).collect();
    let mut new_shards = Vec::new();
    let mut rounds = 0;

    if remaining.iter().map(|&i| sizes[i]).sum::<u64>() >= lower_bound {
        for _attempt in 0..MAX_ROUNDS_PER_SHARD {
            rounds += 1;
            let coalition: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|_| rng.gen::<bool>())
                .collect();
            let size: u64 = coalition.iter().map(|&i| sizes[i]).sum();
            if size >= lower_bound {
                let set: std::collections::BTreeSet<usize> = coalition.iter().copied().collect();
                remaining.retain(|i| !set.contains(i));
                new_shards.push(coalition);
                break; // "the algorithm also stops here"
            }
        }
    }

    Ok(RandomMergeOutcome {
        new_shards,
        leftover: remaining,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_games::{iterative_merge, MergingConfig};

    #[test]
    fn deterministic_per_seed() {
        let sizes = vec![3, 5, 7, 2, 8, 4, 6];
        let a = random_merge(&sizes, 15, 7).unwrap();
        let b = random_merge(&sizes, 15, 7).unwrap();
        assert_eq!(a.new_shards, b.new_shards);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn forms_at_most_one_stable_shard() {
        let sizes = vec![6u64; 12];
        let out = random_merge(&sizes, 22, 3).unwrap();
        assert!(out.new_shard_count() <= 1);
        for players in &out.new_shards {
            let s: u64 = players.iter().map(|&i| sizes[i]).sum();
            assert!(s >= 22, "undersized shard {s}");
        }
        // Partition property.
        let mut all: Vec<usize> = out.new_shards.iter().flatten().copied().collect();
        all.extend(&out.leftover);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn cannot_merge_below_bound() {
        let out = random_merge(&[2, 3], 100, 1).unwrap();
        assert_eq!(out.new_shard_count(), 0);
        assert_eq!(out.leftover, vec![0, 1]);
        assert_eq!(out.rounds, 0, "no rounds when the bound is unreachable");
    }

    #[test]
    fn zero_bound_is_a_config_error() {
        assert!(matches!(
            random_merge(&[2, 3], 0, 1),
            Err(Error::Config {
                field: "lower_bound",
                ..
            })
        ));
    }

    #[test]
    fn empty_input() {
        let out = random_merge(&[], 10, 1).unwrap();
        assert_eq!(out.new_shard_count(), 0);
        assert!(out.leftover.is_empty());
    }

    #[test]
    fn game_merging_yields_at_least_as_many_shards_on_average() {
        // The Fig. 3(g) direction: the replicator-dynamics merge forms more
        // (because smaller) shards than coin-flip coalitions, which tend to
        // capture ~half the remaining players at once.
        let mut ours_total = 0usize;
        let mut random_total = 0usize;
        let cfg = MergingConfig {
            lower_bound: 22,
            ..MergingConfig::default()
        };
        for seed in 0..12u64 {
            let sizes: Vec<u64> = (0..20).map(|i| 2 + (i * 7 + seed) % 8).collect();
            let probs = vec![0.5; sizes.len()];
            ours_total += iterative_merge(&sizes, &probs, &cfg, seed)
                .unwrap()
                .new_shard_count();
            random_total += random_merge(&sizes, 22, seed).unwrap().new_shard_count();
        }
        assert!(
            ours_total >= random_total,
            "game merging {ours_total} < random {random_total}"
        );
    }
}
