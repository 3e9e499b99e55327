//! The paper's game-theoretic mechanisms (Sec. IV and Sec. V).
//!
//! * [`merging`] — the inter-shard merging algorithm: miners of small
//!   shards play an evolutionary cooperative game; replicator dynamics
//!   (Eq. 11) over per-player merge probabilities converge to the mixed
//!   strategy Nash equilibrium (Algorithm 3), and Algorithm 1 iterates
//!   one-shot merges until no further shard can reach the size lower bound
//!   of Eq. (1).
//! * [`selection`] — the intra-shard transaction selection algorithm: a
//!   congestion game with payoff `U_{i,j} = f_j / (n_j + 1)` (Eq. 2),
//!   solved by best-reply dynamics (Algorithm 2). The game is an exact
//!   potential game (Rosenthal), so best reply terminates in a pure
//!   strategy Nash equilibrium; the potential's monotone increase is
//!   asserted in debug builds.
//! * [`dynamics`] — the [`GameDynamics`] stepping interface both
//!   equilibrium searches implement: deterministic `init / step /
//!   converged / solution`, allocation-free after `init`, with
//!   warm-start entry points that seed from a previous epoch's
//!   equilibrium. The classic free functions above are thin wrappers
//!   over these instances.
//! * [`unification`] — the parameter unification scheme (Sec. IV-C): a
//!   VRF-elected leader broadcasts identical inputs (randomness, miner set,
//!   shard sizes / fees, initial choices), every miner replays the
//!   algorithms locally and deterministically, and blocks contradicting
//!   the replayed outcome are rejected. Replaying locally is also what
//!   eliminates the per-iteration gossip — the O(1) communication of
//!   Fig. 4(c).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dynamics;
pub mod merging;
pub mod rewards;
pub mod selection;
pub mod unification;

pub use dynamics::{
    BestReplyDynamics, GameDynamics, GameScratch, MergeInput, ReplicatorMergeDynamics, SelectInput,
    SelectionWarmCache,
};
pub use merging::{
    iterative_merge, one_shot_merge, IterativeMergeOutcome, MergingConfig, OneShotOutcome,
};
pub use rewards::{apply_shard_rewards, Payout};
pub use selection::{
    best_reply_equilibrium, greedy_assignment, potential, SelectionConfig, SelectionOutcome,
};
pub use unification::{GameInputs, UnifiedParameters, VerificationError};
