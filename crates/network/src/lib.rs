//! Simulated peer-to-peer network: latency modelling, network faults and —
//! crucially for the paper's evaluation — **communication accounting**.
//!
//! A network fault is one thing, a [`Blackouts`] table of half-open
//! windows during which a link cannot deliver. The runtime's propagation
//! model reads it as a delivery time and the settlement batcher as a heal
//! time, so the rule lives here once.
//!
//! Fig. 4(b)/(c) measure "communication times per shard": how many rounds of
//! cross-shard communication each scheme performs. The contract-centric
//! design needs zero during validation and exactly two per shard during a
//! merge (submit sizes → receive broadcast); ChainSpace needs at least two
//! rounds per cross-shard transaction. [`CommStats`] is the one counter
//! type all schemes report into, so the comparison is apples-to-apples:
//! a plain value that each recorder owns, summed with
//! [`CommStats::merge`].

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

pub mod gossip;
pub mod latency;
pub mod partition;
pub mod stats;

pub use gossip::GossipNet;
pub use latency::LatencyModel;
pub use partition::Blackouts;
pub use stats::{CommKind, CommStats};
