//! The unified event-driven protocol runtime.
//!
//! The paper evaluates three block-production regimes — vanilla Ethereum
//! (Table I), contract-centric sharding (Fig. 3) and ChainSpace-style
//! random sharding (Fig. 4) — as variants of *one* discrete-event
//! process. This crate is that process, factored once:
//!
//! * [`Event`] — the typed event vocabulary every protocol shares
//!   (transaction injection, block discovery, epoch advancement,
//!   cross-shard validation rounds, settlement flushes, migrations);
//! * [`ProtocolDriver`] — the per-shard protocol state machine. A driver
//!   owns one shard's state and reacts to events through
//!   [`ProtocolDriver::on_event`] (the harness's idle drain hands it one
//!   whole turn through [`ProtocolDriver::idle_turn`], whose default is
//!   that same event loop); it never touches the clock, another shard's state,
//!   or host wall-time;
//! * [`Ctx`] — what a driver may do in response: schedule further events
//!   on its own queue and account cross-shard messaging in its own
//!   [`cshard_network::CommStats`], which the harness sums after the run;
//! * [`PropagationModel`] — how a found block becomes visible to the
//!   shard's other miners: one rule, a delivery time drawn from a
//!   [`cshard_network::LatencyModel`] and deferred past
//!   [`cshard_network::Blackouts`]; the fixed conflict window
//!   ([`PropagationModel::Window`], bit-identical to the pre-refactor
//!   simulator) is its constant link;
//! * [`Runtime`] — the two-phase harness that runs one driver per shard
//!   on the shard-lifecycle scheduler (`cshard_sim::WorkScheduler`; at
//!   `threads > 1` its helpers are process-wide parked threads, so driver
//!   types must be `'static`) and assembles the [`RunReport`]. Runs launch
//!   through the fluent [`Runtime::builder`] ([`RunBuilder`]), which
//!   threads a [`SchedulerConfig`] (worker count), an optional horizon
//!   and an optional [`RunObserver`] through both phases and sums the
//!   drivers' communication counters into [`RunOutcome::comm`]. All host
//!   wall-clock reads live here, behind the report layer — drivers are
//!   replayable pure functions of their event streams.
//!
//! The concrete driver for the paper's protocols lives here too:
//! [`ContractShardDriver`] (one shard of the contract-centric scheme or,
//! on the MaxShard, vanilla Ethereum — [`simulate_ethereum`]). The
//! ChainSpace driver builds on it from `cshard-baselines`, which layers
//! 2PC validation events on top.
//!
//! Cross-shard traffic is one layer: [`SettlingShardDriver`] wraps a
//! [`ContractShardDriver`] with batched crosslink settlement and a
//! hot-account migration schedule, both riding on a [`CrosslinkChannel`]
//! — the one place a `cshard_settle::SettlementBatcher` meets the event
//! loop, shared with the ChainSpace driver's batched mode.
//!
//! Faults are data those drivers read, not a layer ([`faults`]): a
//! partition is a blackout table on propagation and settlement, a crashed
//! miner a downtime table ([`ContractShardDriver::set_downtime`]).

// Event-loop/driver code must use typed errors, not panics (PH001).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod contract;
pub mod crosslink;
pub mod driver;
pub mod event;
pub mod faults;
pub mod harness;
pub mod propagation;
pub mod report;
pub mod settle;
pub mod stream;

pub use contract::{
    shard_stream, simulate, simulate_ethereum, ContractShardDriver, RuntimeConfig,
    SelectionDynamicsStats, SelectionStrategy, ShardSpec,
};
pub use crosslink::CrosslinkChannel;
pub use cshard_settle::{
    Batch, FlushOutcome, SettleConfig, SettleStats, SettlementBatcher, Submit,
};
pub use cshard_sim::{DrainStats, SchedulerConfig};
pub use driver::{Ctx, ProtocolDriver};
pub use event::Event;
pub use harness::{RunBuilder, RunObserver, RunOutcome, RunPhase, RunSchedStats, Runtime};
pub use propagation::PropagationModel;
pub use report::{throughput_improvement, RunReport, ShardReport};
pub use settle::{MigrationTicket, SettlingShardDriver};
pub use stream::{ArrivalSource, EpochBatches, StreamDriver};
