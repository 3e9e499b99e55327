//! Batched cross-shard settlement ("async crosslinks").
//!
//! The paper's ChainSpace comparison charges every cross-shard transaction
//! its own 2PC validation round (Sec. VII: "at least 2 rounds of
//! cross-shard communication"), so cross-shard message cost grows linearly
//! with traffic — the Fig. 4(b) line. This crate breaks that linearity the
//! way Vision-Node-style crosslinks do: transfers destined for the same
//! shard pair accumulate in a batch and ship as **one** crosslink message
//! when the batch fills (`batch_cap`) or a simulated-time timeout expires.
//!
//! The crate is deliberately a *pure batching engine*, below the runtime:
//!
//! * [`SettleConfig`] — the `{ enabled, batch_cap, timeout }` knob set,
//!   off by default so every existing run is bit-identical;
//! * [`SettlementBatcher`] — per-source batching state keyed by
//!   destination shard. It never schedules anything itself; it *asks* the
//!   caller to arm a flush at an absolute simulated time ([`Submit::Arm`])
//!   and adjudicates fired flush events ([`SettlementBatcher::on_flush`]),
//!   which keeps it wall-clock-free by construction (ND001) and lets any
//!   event loop drive it;
//! * [`SettleStats`] — flush accounting (batches, fill, cap vs. timeout
//!   vs. deferred flushes), mergeable across shards for the run outcome.
//!
//! Fault integration: a partition that blacks out a shard pair mid-batch
//! must not lose or duplicate transfers. The batcher takes the pair's
//! blackout table (`cshard_network::Blackouts`, the same table block
//! propagation reads) up front and **defers** any flush that would land
//! inside one to the heal instant — never hastens it — re-arming through
//! the caller's event queue. Exactly-once then follows from two local
//! invariants: a transfer enters exactly one pair buffer exactly once, and
//! a buffer is drained only by the single flush event whose timestamp
//! matches the recorded deadline (every superseded event is recognized as
//! stale and ignored).

// Settlement runs inside driver event paths: typed flow, no panics (PH001).
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

pub mod batcher;
pub mod config;
pub mod stats;

pub use batcher::{Batch, FlushOutcome, SettlementBatcher, Submit};
pub use config::SettleConfig;
pub use stats::SettleStats;
