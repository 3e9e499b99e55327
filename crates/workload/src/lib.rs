//! Workload generation for the Sec. VI evaluation.
//!
//! The paper does not replay mainnet transactions; it registers synthetic
//! contracts and injects transactions that invoke them ("We do not use real
//! transactions in the Ethereum. Instead, we register multiple smart
//! contracts, and each of them records an unconditional transaction…",
//! Sec. VI-A). This crate reproduces every injection pattern the evaluation
//! uses, deterministically from a seed:
//!
//! * [`generator::Workload::uniform_contracts`] — Sec. VI-B1: `total` txs
//!   spread uniformly over `s` contract shards plus the MaxShard.
//! * [`generator::Workload::with_small_shards`] — Sec. VI-C: 9 shards of
//!   which 2–7 are *small* (1–9 txs each), total fixed at 200.
//! * [`generator::Workload::three_input`] — Sec. VI-B2 / Fig. 4(b): k-input
//!   transactions that force cross-shard validation in random sharding.
//! * [`generator::Workload::heavy_tail`] — a Zipf-distributed contract mix
//!   modelled on the paper's quoted mainnet statistics (top contracts own
//!   millions of transactions), used by examples and ablations.
//!
//! [`fees::FeeDistribution`] covers the fee models: constant, uniform,
//! binomial (the Sec. IV-D security assumption), exponential and Zipf.
//!
//! For million-user scale, [`stream::TxStream`] generates transactions
//! *lazily* as a seeded `(SimTime, Transaction)` iterator — Poisson
//! arrivals, Zipf-hot contract communities, burst episodes and an
//! adversarial spam-flood mode — without materializing a genesis-sized
//! vector. A bounded prefix collects into an ordinary [`Workload`] via
//! [`stream::TxStream::take_workload`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fees;
pub mod generator;
pub mod stream;

pub use fees::FeeDistribution;
pub use generator::{Workload, WorkloadKind};
pub use stream::{BurstEpisode, SpamFlood, StreamConfig, TxStream};
