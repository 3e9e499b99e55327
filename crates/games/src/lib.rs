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
//! * [`dynamics`] — the two equilibrium searches, one `run` call per
//!   game: replicator dynamics behind [`one_shot_merge`] and
//!   [`iterative_merge`], and [`BestReplyDynamics`] behind
//!   [`best_reply_equilibrium`], which the runtime also keeps one of per
//!   shard. Each reuses its own buffers across runs.
//! * [`unification`] — the parameter unification scheme (Sec. IV-C): a
//!   VRF-elected leader broadcasts identical inputs (randomness, miner set,
//!   shard sizes / fees, initial choices), every miner replays the
//!   algorithms locally and deterministically, and blocks contradicting
//!   the replayed outcome are rejected. Replaying locally is also what
//!   eliminates the per-iteration gossip — the O(1) communication of
//!   Fig. 4(c).

// Replay code surfaces typed errors, never panics, and converts integers
// without dropping bits (PH001).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod dynamics;
pub mod merging;
pub mod selection;
pub mod unification;

pub use dynamics::BestReplyDynamics;
pub use merging::{
    iterative_merge, one_shot_merge, IterativeMergeOutcome, MergingConfig, OneShotOutcome,
};
pub use selection::{best_reply_equilibrium, potential, SelectionConfig, SelectionOutcome};
pub use unification::{GameInputs, UnifiedParameters, VerificationError};
