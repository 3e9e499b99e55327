//! The comparison schemes of Sec. VI.
//!
//! * [`random_merge`](mod@random_merge) — the randomized merging baseline of Sec. VI-C2:
//!   miners in small shards merge with probability ½, stopping at the first
//!   stable (satisfying) realization.
//! * [`chainspace`] — the ChainSpace model: uniform random transaction
//!   placement over a fixed shard count, run as a real
//!   [`cshard_runtime::ProtocolDriver`] whose 2PC validation rounds are
//!   scheduled events booking cross-shard communication (≥ 2 rounds per
//!   cross-shard transaction, one message each) into
//!   [`cshard_network::CommStats`] as they fire. Fig. 4(a)/(b).
//! * [`optimal`] — the oracles of Sec. VI-E: the optimal number of new
//!   shards (every new shard exactly `L`) and the optimal number of
//!   distinct transaction sets (every miner distinct), plus a first-fit
//!   packing that *constructs* a near-optimal merge partition for ablation
//!   comparisons.
//!
//! The Ethereum baseline (all miners greedily pick the same transactions)
//! is not a separate algorithm — it is the `IdenticalGreedy` strategy of
//! the core runtime, run on a single shard.

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

pub mod chainspace;
pub mod optimal;
pub mod random_merge;

pub use chainspace::{ChainspaceDriver, ChainspacePlacement, CROSS_SHARD_ROUNDS_PER_TX};
pub use optimal::{optimal_distinct_sets, optimal_new_shards};
pub use random_merge::{random_merge, RandomMergeOutcome};
