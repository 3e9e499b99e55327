//! The cross-epoch placement engine.
//!
//! The paper's shard-formation games (Algorithm 1, Sec. V) recompute
//! placement from scratch every epoch and never move an account: a
//! zipf-hot contract therefore pins its callers' cross-shard traffic
//! forever. This crate holds the *policy* half of the fix — persistent
//! per-sender traffic accounting plus a migration proposer — while the
//! pipeline and runtime own the mechanism (route-map invalidation,
//! in-flight drains, the `Event::Migration` apply path):
//!
//! * [`PlacementConfig`] — the off-by-default knob block threaded through
//!   `SystemBuilder::placement()`. Disabled, the engine is bit-invisible;
//! * [`PlacementEngine`] — observes MaxShard-routed contract calls across
//!   epochs and proposes dominance-based hot-account moves
//!   ([`PlacementEngine::propose`]);
//! * [`HotAccount`] — a proposed move in contract space (who, where, how
//!   hot), mapped to a shard-level [`Migration`] by the pipeline's
//!   placement stage;
//! * [`Migration`] — the shard-level move record carried in each epoch's
//!   output and executed by the runtime's migrating driver.
//!
//! Everything here is deterministic: traffic counters sit in first-seen
//! slot order and proposals sort by (descending traffic, address).

// Placement decisions feed the runtime's event loop; policy code must
// surface typed errors, not panics (PH001).
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

pub mod config;
pub mod engine;
pub mod migration;

pub use config::PlacementConfig;
pub use engine::{HotAccount, PlacementEngine};
pub use migration::Migration;
