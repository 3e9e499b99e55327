//! Account-based ledger: the world state and the call graph.
//!
//! The paper's prototype runs on go-Ethereum 1.8.0; its evaluation exercises
//! a narrow slice of it: account balances and nonces, smart contracts that
//! record a (possibly conditional) transfer, fee-carrying transactions that
//! invoke those contracts, and the call graph miners keep to classify
//! senders. This crate implements that slice from scratch. Block production
//! is not here: the runtime's one mining model is the exponential draw at
//! `ContractShardDriver::next_tick`.
//!
//! * [`account`] / [`state`] — the world state: balances, nonces, contract
//!   storage, transaction application with full validation. Supply is
//!   conserved exactly: nothing is minted, fees only move.
//! * [`contract`] — smart contracts as *condition → transfer* records
//!   (Sec. II-A's "transfer 2 ETH to B if B's balance is below 1 ETH", and
//!   the unconditional variant used throughout Sec. VI).
//! * [`transaction`] — contract calls, direct user-to-user transfers and
//!   multi-input transactions (the 3-input workload of Fig. 4(b)).
//! * [`callgraph`] — the user↔contract call graph miners maintain locally to
//!   classify senders (Sec. III-C's "more elegant way").

pub mod account;
pub mod callgraph;
pub mod contract;
pub mod error;
pub mod state;
pub mod transaction;

pub use account::{Account, AccountKind};
pub use callgraph::{BatchChurn, CallGraph, SenderClass};
pub use contract::{Condition, SmartContract};
pub use error::LedgerError;
pub use state::State;
pub use transaction::{Transaction, TxKind};
