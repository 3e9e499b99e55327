//! Fundamental value types shared by every ContractShard crate.
//!
//! This crate is dependency-light on purpose: it defines the vocabulary of
//! the system — hashes, addresses, amounts, identifiers and simulated time —
//! and nothing else. Every other crate builds on these types, so they are all
//! small, `Copy` where possible, and implement the full complement of
//! ordering/hashing traits needed to be used as map keys. The one container
//! is [`AddressSlots`] over [`AddressIndex`], which interns addresses to
//! dense slots so per-address state lives in a `Vec`.

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

pub mod address;
pub mod amount;
pub mod error;
pub mod hash;
pub mod hex;
pub mod ids;
pub mod index;
pub mod time;

pub use address::Address;
pub use amount::Amount;
pub use error::Error;
pub use hash::Hash32;
pub use ids::{ContractId, MinerId, Nonce, ShardId};
pub use index::{AddressIndex, AddressSlots};
pub use time::SimTime;
