//! Deterministic fault injection and recovery for the sharding runtime.
//!
//! The paper's evaluation (Sec. VI) runs on a healthy testbed; its security
//! analysis (Sec. IV-D) bounds what an adversary — or plain bad luck — can
//! do to the protocol. This crate connects the two empirically, without
//! giving up the repository's core invariant: **every run is a pure
//! function of `(config, seed)`**.
//!
//! * [`FaultPlan`] — a declarative, validated schedule of faults: crash
//!   and recover miners, partition a shard for a span, stop at a deadline
//!   ([`plan`]). A partition becomes a `cshard_network::Blackouts` table,
//!   the one blackout rule block propagation and settlement share.
//! * [`FaultyDriver`] — wraps any [`cshard_runtime::ProtocolDriver`] and
//!   executes the plan by intercepting the event stream; with an empty
//!   plan it is bit-for-bit transparent ([`driver`]).
//! * [`run_with_faults`] — the one harness entry point: the
//!   contract-centric `simulate` under a plan, optionally carrying
//!   cross-shard [`Traffic`] (settlement transfers, migration tickets),
//!   returning the ordinary [`cshard_runtime::RunReport`] *plus* what the
//!   faults, the settlement layer and the migrations did ([`FaultRun`],
//!   [`harness`]).
//! * [`epochs`] — VRF-ranked leader failover: crash or equivocate the
//!   unification leader and watch every miner deterministically agree on
//!   the next-ranked fallback.
//! * [`corruption`] — the empirical side of Sec. IV-D: mark a fraction of
//!   miners malicious, run epochs, and compare the measured corrupted
//!   fractions to the Eq. (3)–(6) analytics in `cshard-security`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Fault machinery runs inside the event loop: typed errors, not panics
// (audit rule PH001 covers this crate).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod corruption;
pub mod driver;
pub mod epochs;
pub mod harness;
pub mod plan;
pub mod report;

pub use corruption::{measure_corruption, CorruptionMeasurement};
pub use driver::FaultyDriver;
pub use epochs::{
    equivocation_detected, run_leader_faults, EpochFaultOutcome, EpochFaultReport, LeaderFaultPlan,
};
pub use harness::{run_with_faults, FaultRun, Traffic};
pub use plan::{FaultAction, FaultPlan};
pub use report::{FaultReport, ShardFaultStats};
