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
//! adversarial spam-flood mode — without materializing the whole
//! injection.
//!
//! A workload is its transactions and nothing else: no generator builds a
//! genesis ledger. Every generated list is nevertheless valid — applied
//! in order, each transaction passes the ledger's checks against a
//! genesis that funds the addresses the list touches and registers the
//! contracts it calls. The crate's tests pin that property for every
//! generator.

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

pub mod fees;
pub mod generator;
pub mod stream;

pub use fees::FeeDistribution;
pub use generator::Workload;
pub use stream::{BurstEpisode, SpamFlood, StreamConfig, TxStream};

/// Applies `txs` in order to a genesis that funds every sender,
/// multi-input input and direct recipient once and registers every
/// contract the list calls, panicking at the first transaction the ledger
/// rejects.
#[cfg(test)]
pub(crate) fn assert_validates(txs: &[cshard_ledger::Transaction]) {
    use cshard_ledger::{SmartContract, State, TxKind};
    use cshard_primitives::{Address, Amount, ContractId};

    let mut state = State::new();
    let contracts = txs
        .iter()
        .filter_map(|t| t.kind.contract())
        .map(|c| c.0 + 1);
    for c in 0..contracts.max().unwrap_or(0) {
        // Each contract unconditionally pays its own sink user (Sec. VI-A).
        let sink = Address::user(u64::MAX - u64::from(c));
        state.register_contract(SmartContract::unconditional(ContractId::new(c), sink));
    }
    for tx in txs {
        let (inputs, recipient) = match &tx.kind {
            TxKind::MultiInput { inputs, .. } => (inputs.as_slice(), None),
            TxKind::DirectTransfer { to, .. } => (&[][..], Some(to)),
            TxKind::ContractCall { .. } => (&[][..], None),
        };
        for &user in std::iter::once(&tx.sender).chain(inputs).chain(recipient) {
            if state.account(user).is_none() {
                state.fund_user(user, Amount::from_raw(2_000_000_000));
            }
        }
    }
    for (i, tx) in txs.iter().enumerate() {
        if let Err(e) = state.apply_transaction(tx, Address::SYSTEM) {
            panic!("transaction {i} does not validate: {e}");
        }
    }
}
