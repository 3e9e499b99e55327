//! Security analysis of the sharding design (Sec. III-B and Sec. IV-D).
//!
//! Pure probability computations, no dependencies:
//!
//! * [`math`] — log-space gamma/binomial machinery stable up to shard sizes
//!   of 10⁵ and beyond.
//! * [`shard_safety`](mod@shard_safety) — Fig. 1(d): the probability that a randomly-filled
//!   shard stays below the corruption threshold, for 25 % / 33 %
//!   adversaries under PoW (corruption needs a strict in-shard majority).
//! * [`corruption`] — Eq. (3) (inter-shard merging corruption), Eq. (4)
//!   (binomially distributed fees), Eq. (5) (per-transaction corruption)
//!   and Eq. (6) (intra-shard selection corruption), including the two
//!   headline numbers of Sec. IV-D (≈8·10⁻⁶ and ≈7·10⁻⁷ for a 25 %
//!   adversary).
//!
//! The unit tests cross-check every closed form against a seeded Monte
//! Carlo simulation of the process it models (the test-only `montecarlo`
//! module).

pub mod corruption;
pub mod math;
#[cfg(test)]
mod montecarlo;
pub mod shard_safety;

pub use corruption::{
    fee_pmf, inter_shard_corruption, inter_shard_corruption_for_shard, selection_corruption,
    tx_corruption_probability,
};
pub use shard_safety::{shard_safety, shard_safety_curve, CorruptionThreshold};
