//! The inter-shard merging game (Sec. IV-A, Sec. V, Algorithms 1 and 3).
//!
//! Players are small shards (the paper lets "player i represent miners in
//! shard i"). Each player holds a mixed strategy `x_i = P(merge)`. A slot
//! consists of `M` subslots; in each subslot every player tosses a coin with
//! its current probability, utilities are scored with Eq. (14), and at the
//! end of the slot each player updates its probability with the discretized
//! replicator dynamics of Eq. (11):
//!
//! ```text
//! x_i(t+1) = x_i(t) + η · [ Ū_i(Y, x_-i(t)) − Ū_i(x_i(t)) ] · x_i(t)
//! ```
//!
//! where `Ū_i(Y, ·)` averages utility over the subslots in which `i` merged
//! (Eq. 12) and `Ū_i(x_i)` over all subslots (Eq. 13). The process stops
//! when no probability moves by more than `tolerance` — the fixed point
//! `ẋ = 0`, i.e. the mixed strategy Nash equilibrium (Sec. V-B).
//!
//! Algorithm 1 then applies the one-shot game repeatedly: each round forms
//! one stable shard out of the players whose equilibrium strategy is to
//! merge, removes them, and continues while the remaining small shards can
//! still reach the lower bound `L` of Eq. (1).

use cshard_primitives::{Amount, Error};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::dynamics::{MergeInput, ReplicatorMergeDynamics};

/// Tunables of the merging game.
#[derive(Clone, Copy, Debug)]
pub struct MergingConfig {
    /// The shard reward `G` every small-shard player receives when the new
    /// shard satisfies Eq. (1).
    pub reward: Amount,
    /// The merging cost `C_i` (lost fee competition) a player pays if it
    /// merges — identical across players here; per-player costs only
    /// rescale the equilibrium point.
    pub cost: Amount,
    /// `L`: minimum size (transactions) of an acceptable new shard.
    pub lower_bound: u64,
    /// Replicator step size `η`.
    pub eta: f64,
    /// Subslots per slot, `M` (more subslots = better utility estimates).
    pub subslots: usize,
    /// Convergence tolerance `E` on the per-slot probability change.
    pub tolerance: f64,
    /// Hard cap on slots, so a mis-parameterised game cannot spin forever.
    pub max_slots: usize,
}

impl Default for MergingConfig {
    fn default() -> Self {
        MergingConfig {
            reward: Amount::from_coins(2),
            cost: Amount::from_raw(250_000_000), // 0.25 coin
            lower_bound: 22,
            eta: 0.12,
            subslots: 24,
            tolerance: 5e-3,
            max_slots: 400,
        }
    }
}

impl MergingConfig {
    /// The invariants the dynamics rely on, as a typed [`Error`]. Every
    /// surface that accepts a config from outside — the system builder,
    /// a miner replaying a leader's broadcast — calls this before the
    /// game runs; the dynamics themselves only `debug_assert` it.
    ///
    /// One of them is a precision bound: `reward × subslots ≤ 2⁵³` in
    /// raw units. A slot's utility sums are integers of at most that
    /// magnitude, so under the bound they are exact in `f64` and the
    /// bit-counted closed forms of the merge slot equal the
    /// toss-by-toss sums of Eq. (12)/(13) by construction rather than by
    /// luck. The default config sits four orders of magnitude below it.
    pub fn validate(&self) -> Result<(), Error> {
        let reject = |field: &'static str, reason: &str| {
            Err(Error::Config {
                field,
                reason: reason.into(),
            })
        };
        if self.reward <= self.cost {
            return reject("merging.reward", "reward must exceed merging cost");
        }
        if u128::from(self.reward.raw()) * self.subslots as u128 > 1 << 53 {
            return reject(
                "merging.reward",
                "reward × subslots must not exceed 2^53 raw units (exact utility sums)",
            );
        }
        if self.eta.is_nan() || self.eta <= 0.0 || self.eta >= 1.0 {
            return reject("merging.eta", "step size must lie in (0, 1)");
        }
        if self.subslots == 0 {
            return reject("merging.subslots", "need at least one subslot");
        }
        if self.tolerance.is_nan() || self.tolerance <= 0.0 {
            return reject("merging.tolerance", "tolerance must be positive");
        }
        if self.max_slots == 0 {
            return reject("merging.max_slots", "slot cap must be positive");
        }
        if self.lower_bound == 0 {
            return reject("merging.lower_bound", "size lower bound must be positive");
        }
        Ok(())
    }
}

/// Result of one run of Algorithm 3.
#[derive(Clone, Debug)]
pub struct OneShotOutcome {
    /// Indices (into the input sizes) of the players that merged.
    pub merged: Vec<usize>,
    /// Total transactions in the new shard.
    pub merged_size: u64,
    /// Whether the new shard satisfies Eq. (1).
    pub satisfied: bool,
    /// Slots until convergence (or the cap).
    pub slots: usize,
    /// Final mixed strategies.
    pub final_probs: Vec<f64>,
}

/// Result of Algorithm 1.
#[derive(Clone, Debug)]
pub struct IterativeMergeOutcome {
    /// Each new shard, as player indices into the original input.
    pub new_shards: Vec<Vec<usize>>,
    /// Players left unmerged.
    pub leftover: Vec<usize>,
    /// Total slots spent across rounds.
    pub total_slots: usize,
}

impl IterativeMergeOutcome {
    /// Number of new shards formed — the Fig. 3(g)/5(a) metric.
    pub fn new_shard_count(&self) -> usize {
        self.new_shards.len()
    }
}

/// Probability bounds during iteration. The replicator has absorbing states
/// at 0 and 1; clamping keeps exploration alive until convergence is
/// declared, mirroring the paper's "players try different strategies in
/// every play".
pub(crate) const X_MIN: f64 = 0.02;
pub(crate) const X_MAX: f64 = 0.98;

/// Runs Algorithm 3 once over `sizes` (transactions per small shard).
///
/// `initial_probs` are the "others' random initial choices" distributed by
/// the verifiable leader (Sec. IV-C); `seed` drives every coin toss, so two
/// replays with identical inputs produce identical outcomes — the property
/// parameter unification needs.
///
/// This is one run of the crate's replicator dynamics; the fuzz grid in
/// `tests/dynamics_equivalence.rs` pins it draw-for-draw equal to the
/// pre-refactor direct implementation.
pub fn one_shot_merge(
    sizes: &[u64],
    initial_probs: &[f64],
    config: &MergingConfig,
    seed: u64,
) -> OneShotOutcome {
    ReplicatorMergeDynamics::default().run(MergeInput {
        sizes,
        initial_probs,
        config,
        seed,
    })
}

/// Runs Algorithm 1: iterative merging until the remaining small shards
/// cannot form a shard satisfying Eq. (1).
pub fn iterative_merge(
    sizes: &[u64],
    initial_probs: &[f64],
    config: &MergingConfig,
    seed: u64,
) -> IterativeMergeOutcome {
    assert_eq!(sizes.len(), initial_probs.len());
    let mut remaining: Vec<usize> = (0..sizes.len()).collect();
    let mut new_shards = Vec::new();
    let mut total_slots = 0;
    let mut round: u64 = 0;
    // A round that converges to "nobody merges" gets a few fresh seeds
    // before we give up — mixed equilibria are stochastic.
    let mut retries = 0;
    const MAX_RETRIES: usize = 4;
    let mut subset_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_CAFE);
    // One dynamics instance across all rounds: each `run` reuses its
    // buffers, so they are allocated once per size class rather than
    // once per round.
    let mut dynamics = ReplicatorMergeDynamics::default();
    // Per-round buffers, and a dense "joined this round's shard" flag
    // per player, point-cleared after use.
    let mut round_players: Vec<usize> = Vec::new();
    let mut round_sizes: Vec<u64> = Vec::new();
    let mut round_probs: Vec<f64> = Vec::new();
    let mut in_shard = vec![false; sizes.len()];

    loop {
        // Saturating: sizes come off a broadcast, and a sum past
        // `u64::MAX` clears any bound just the same.
        let remaining_size = remaining
            .iter()
            .fold(0u64, |sum, &i| sum.saturating_add(sizes[i]));
        if remaining_size < config.lower_bound {
            break;
        }
        // Algorithm 1 forms ONE shard per round; the round's game runs
        // among a bounded candidate set whose expected size is a few
        // multiples of the lower bound. This keeps the replicator
        // dynamics' stable band (coalition ≈ L) scale-free: with all
        // remaining players in one game, the marginal value of any single
        // player vanishes and the dynamics are absorbed at "stay".
        // Candidates are drawn from the (leader-seeded) randomness, so
        // replays remain deterministic.
        let mean_size = (remaining_size as f64 / remaining.len() as f64).max(1.0);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "a non-negative ratio, clamped to `remaining.len()` below"
        )]
        let cap = ((2.5 * config.lower_bound as f64 / mean_size).ceil() as usize)
            .clamp(2.min(remaining.len()), remaining.len());
        round_players.clear();
        round_players.extend_from_slice(&remaining);
        if cap < remaining.len() {
            // Seeded partial Fisher–Yates: first `cap` entries.
            for k in 0..cap {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a uniform draw; on a 32-bit target its low half is uniform too"
                )]
                let j = k + (subset_rng.gen::<u64>() as usize) % (round_players.len() - k);
                round_players.swap(k, j);
            }
            round_players.truncate(cap);
        }
        round_sizes.clear();
        round_sizes.extend(round_players.iter().map(|&i| sizes[i]));
        round_probs.clear();
        round_probs.extend(round_players.iter().map(|&i| initial_probs[i]));
        let round_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let outcome = dynamics.run(MergeInput {
            sizes: &round_sizes,
            initial_probs: &round_probs,
            config,
            seed: round_seed,
        });
        total_slots += outcome.slots;
        round += 1;
        if outcome.satisfied {
            let shard: Vec<usize> = outcome.merged.iter().map(|&j| round_players[j]).collect();
            for &i in &shard {
                in_shard[i] = true;
            }
            remaining.retain(|&i| !in_shard[i]);
            for &i in &shard {
                in_shard[i] = false;
            }
            new_shards.push(shard);
            retries = 0;
        } else {
            retries += 1;
            if retries > MAX_RETRIES {
                break;
            }
        }
    }

    IterativeMergeOutcome {
        new_shards,
        leftover: remaining,
        total_slots,
    }
}

/// The optimal number of new shards (Sec. VI-E1): throughput is maximised
/// when every new shard has exactly size `L`, i.e. `⌊Σ sizes / L⌋`.
pub fn optimal_new_shard_count(sizes: &[u64], lower_bound: u64) -> u64 {
    assert!(lower_bound > 0);
    sizes.iter().sum::<u64>() / lower_bound
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probs(n: usize) -> Vec<f64> {
        vec![0.5; n]
    }

    fn cfg(l: u64) -> MergingConfig {
        MergingConfig {
            lower_bound: l,
            ..MergingConfig::default()
        }
    }

    #[test]
    fn empty_game_is_trivial() {
        let out = one_shot_merge(&[], &[], &cfg(10), 1);
        assert!(out.merged.is_empty());
        assert!(!out.satisfied);
    }

    #[test]
    fn deterministic_replay() {
        let sizes = vec![5, 7, 3, 9, 4, 6];
        let a = one_shot_merge(&sizes, &probs(6), &cfg(20), 42);
        let b = one_shot_merge(&sizes, &probs(6), &cfg(20), 42);
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.final_probs, b.final_probs);
    }

    #[test]
    fn different_seed_may_differ_but_stays_valid() {
        let sizes = vec![5, 7, 3, 9, 4, 6];
        for seed in 0..10 {
            let out = one_shot_merge(&sizes, &probs(6), &cfg(20), seed);
            let size: u64 = out.merged.iter().map(|&i| sizes[i]).sum();
            assert_eq!(size, out.merged_size);
            assert_eq!(out.satisfied, size >= 20);
        }
    }

    #[test]
    fn players_merge_when_reward_justifies_it() {
        // Five shards of 6 txs, L = 22: at least four must merge. Across
        // seeds, the game should regularly produce a satisfied shard.
        let sizes = vec![6, 6, 6, 6, 6];
        let satisfied = (0..20)
            .filter(|&s| one_shot_merge(&sizes, &probs(5), &cfg(22), s).satisfied)
            .count();
        assert!(satisfied >= 12, "only {satisfied}/20 runs satisfied (1)");
    }

    #[test]
    fn nobody_merges_when_cost_exceeds_reward_gain() {
        // Reward barely above cost and L already reachable by others:
        // free-riding dominates, so most players drift down. We only check
        // the dynamics do not explode and probabilities stay bounded.
        let config = MergingConfig {
            reward: Amount::from_raw(600),
            cost: Amount::from_raw(550),
            ..cfg(10)
        };
        let sizes = vec![9, 9, 9, 9];
        let out = one_shot_merge(&sizes, &probs(4), &config, 7);
        for &p in &out.final_probs {
            assert!((X_MIN..=X_MAX).contains(&p));
        }
    }

    #[test]
    fn impossible_bound_cannot_satisfy() {
        let sizes = vec![2, 3, 4];
        let out = one_shot_merge(&sizes, &probs(3), &cfg(100), 3);
        assert!(!out.satisfied, "9 total can never reach 100");
    }

    #[test]
    fn convergence_within_slot_cap() {
        let sizes = vec![5, 7, 3, 9, 4, 6, 8, 2];
        let out = one_shot_merge(&sizes, &probs(8), &cfg(25), 11);
        assert!(out.slots <= cfg(25).max_slots);
        // Equilibrium probabilities exist for every player.
        assert_eq!(out.final_probs.len(), 8);
    }

    #[test]
    fn iterative_merging_forms_multiple_shards() {
        // 12 shards of 6 txs = 72 total, L = 22 → optimum 3 new shards.
        let sizes = vec![6u64; 12];
        let out = iterative_merge(&sizes, &probs(12), &cfg(22), 99);
        assert!(
            (1..=3).contains(&out.new_shard_count()),
            "formed {} shards",
            out.new_shard_count()
        );
        // Every formed shard satisfies (1).
        for players in &out.new_shards {
            let size: u64 = players.iter().map(|&i| sizes[i]).sum();
            assert!(size >= 22, "undersized shard {size}");
        }
        // No player appears twice.
        let mut all: Vec<usize> = out.new_shards.iter().flatten().copied().collect();
        all.extend(&out.leftover);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn iterative_merge_leftover_below_bound() {
        let sizes = vec![6u64; 12];
        let out = iterative_merge(&sizes, &probs(12), &cfg(22), 5);
        let leftover_total: u64 = out.leftover.iter().map(|&i| sizes[i]).sum();
        // Either everything merged, or what is left cannot reach L (modulo
        // the bounded retry cutoff).
        if !out.new_shards.is_empty() {
            assert!(
                leftover_total < 22 || out.new_shard_count() >= 1,
                "leftover {leftover_total}"
            );
        }
    }

    #[test]
    fn iterative_merge_is_total_on_sizes_no_merge_stage_builds() {
        // A lone player at the bound: the candidate cap used to be
        // `clamp(2, 1)`. It satisfies Eq. (1) by itself.
        let out = iterative_merge(&[1000], &[0.5], &cfg(500), 1);
        assert_eq!(out.new_shards, vec![vec![0]]);
        assert!(out.leftover.is_empty());
        // Sizes whose sum overflows u64 saturate instead of wrapping.
        let out = iterative_merge(&[u64::MAX, 5], &probs(2), &cfg(500), 1);
        assert!(out.new_shards.iter().flatten().any(|&i| i == 0));
        let mut placed: Vec<usize> = out.new_shards.into_iter().flatten().collect();
        placed.extend(out.leftover);
        placed.sort_unstable();
        assert_eq!(placed, vec![0, 1]);
    }

    #[test]
    fn optimal_count_formula() {
        assert_eq!(optimal_new_shard_count(&[6; 12], 22), 3);
        assert_eq!(optimal_new_shard_count(&[5, 5], 22), 0);
        assert_eq!(optimal_new_shard_count(&[22], 22), 1);
    }

    #[test]
    fn achieves_a_reasonable_fraction_of_optimal() {
        // The Fig. 5(a) claim at small scale: ≥ 40 % of optimal new shards
        // on average (the paper reports ≈ 80 % at large scale).
        let mut total_ours = 0u64;
        let mut total_opt = 0u64;
        for seed in 0..10u64 {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let sizes: Vec<u64> = (0..30).map(|_| 1 + r.gen_range(0..10u64)).collect();
            let out = iterative_merge(&sizes, &probs(30), &cfg(22), seed);
            total_ours += out.new_shard_count() as u64;
            total_opt += optimal_new_shard_count(&sizes, 22);
        }
        assert!(total_opt > 0);
        let ratio = total_ours as f64 / total_opt as f64;
        assert!(ratio >= 0.4, "ratio {ratio:.2} too far from optimal");
        assert!(ratio <= 1.0 + 1e-9, "cannot beat optimal");
    }

    #[test]
    fn single_large_player_can_satisfy_alone() {
        let sizes = vec![30u64];
        let out = one_shot_merge(&sizes, &[0.9], &cfg(22), 1);
        // With x clamped below 1 the coin sometimes stays, but equilibrium
        // should strongly favour merging (it alone gains G−C vs 0).
        assert!(out.final_probs[0] > 0.5, "prob {}", out.final_probs[0]);
        assert!(out.satisfied);
    }
}
