//! Deterministic discrete-event simulation engine.
//!
//! Replaces the paper's AWS testbed: block discovery, propagation and
//! injection become timestamped events on a priority queue. Everything is
//! seeded, so a run is a pure function of its configuration — the property
//! the parameter-unification scheme (Sec. IV-C) also relies on.

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

pub mod engine;
pub mod rng;
pub mod scheduler;

pub use engine::EventQueue;
pub use rng::SimRng;
pub use scheduler::{DrainStats, SchedulerConfig, Turn, WorkScheduler};
