//! Account-based ledger substrate (the "go-Ethereum" of this reproduction).
//!
//! The paper's prototype runs on go-Ethereum 1.8.0; its evaluation exercises
//! a narrow slice of it: account balances and nonces, smart contracts that
//! record a (possibly conditional) transfer, fee-carrying transactions that
//! invoke those contracts, 10-transaction blocks mined by PoW, and local
//! ledgers (chains) maintained per shard. This crate implements that slice
//! completely and from scratch:
//!
//! * [`account`] / [`state`] — the world state: balances, nonces, contract
//!   storage, transaction application with full validation.
//! * [`contract`] — smart contracts as *condition → transfer* records
//!   (Sec. II-A's "transfer 2 ETH to B if B's balance is below 1 ETH", and
//!   the unconditional variant used throughout Sec. VI).
//! * [`transaction`] — contract calls, direct user-to-user transfers and
//!   multi-input transactions (the 3-input workload of Fig. 4(b)).
//! * [`merkle`] / [`block`] — transaction Merkle roots and blocks whose
//!   headers carry the packer's `ShardId` (Sec. III-C), mined by a real
//!   SHA-256 nonce search.
//! * [`chain`] — per-shard ledgers with longest-chain fork choice.
//! * [`mempool`] — the unvalidated-transaction pool with fee-greedy
//!   selection (the behaviour that serializes vanilla Ethereum, Sec. II-B).
//! * [`callgraph`] — the user↔contract call graph miners maintain locally to
//!   classify senders (Sec. III-C's "more elegant way").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod account;
pub mod block;
pub mod callgraph;
pub mod chain;
pub mod contract;
pub mod error;
pub mod mempool;
pub mod merkle;
pub mod snapshot;
pub mod state;
pub mod transaction;

pub use account::{Account, AccountKind};
pub use block::{Block, BlockHeader, MAX_POW_ITERATIONS};
pub use callgraph::{BatchChurn, CallGraph, SenderClass};
pub use chain::Chain;
pub use contract::{Condition, SmartContract};
pub use error::LedgerError;
pub use mempool::Mempool;
pub use merkle::merkle_root;
pub use snapshot::StateSnapshot;
pub use state::State;
pub use transaction::{Transaction, TxKind};
