//! The paper's primary contribution: contract-centric distributed sharding.
//!
//! * [`formation`] — Sec. III-A: transactions whose senders participate in
//!   a single smart contract form that contract's shard; everything else
//!   goes to the MaxShard. Classification runs on the locally-maintained
//!   call graph (Sec. III-C).
//! * [`assignment`] — Sec. III-B: miners are mapped to shards by verifiable
//!   leader randomness, proportionally to each shard's transaction
//!   fraction, and any claimed assignment is publicly checkable.
//! * [`pipeline`] — the epoch: six typed calls, `Classify → Form → Merge →
//!   Select → Unify → Place`, each one's product the next one's argument.
//!   The stage structs hold the persistent cross-epoch state (call-graph
//!   history, carried merge groups, placement traffic counters);
//!   per-stage counters accumulate beside them. This is the *only* epoch
//!   implementation in the workspace; everything below drives it.
//! * [`epoch`] — the leader schedule: VRF election per epoch, the ranked
//!   failover walk past a down set, and the epoch's [`MinerAssignment`]
//!   from the leader's randomness and a pipeline plan. It holds no call
//!   graph and classifies nothing.
//! * [`corruption`] — Sec. IV-D measured: malicious majorities over real
//!   assignment epochs against `cshard-security`'s Eq. (3)–(6).
//! * [`system`] — [`system::ShardingSystem`]: the workload-level facade
//!   over one cold pipeline epoch, with every stage optional so
//!   experiments can ablate each mechanism, and
//!   [`system::SystemBuilder`], its validated fluent configuration.
//! * [`longrun`] — epoch-driven evolution: leader election per epoch
//!   ([`epoch`]) over one persistent pipeline.
//!
//! The discrete-event simulator itself (typed events, the
//! `ProtocolDriver` trait, the shared harness, run reports, and the
//! block-production fault harness `cshard_runtime::faults`) lives in
//! [`cshard_runtime`]; this crate re-exports the common pieces at its
//! root.

// The epoch pipeline, the system facade and the fault machinery must use
// typed errors, not panics (PH001).
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

pub mod assignment;
pub mod corruption;
pub mod epoch;
pub mod formation;
pub mod longrun;
pub mod pipeline;
pub mod system;

pub use assignment::MinerAssignment;
pub use cshard_place::{HotAccount, Migration, PlacementConfig, PlacementEngine};
pub use cshard_runtime::report::{throughput_improvement, RunReport, ShardReport};
pub use cshard_runtime::{
    simulate, simulate_ethereum, ContractShardDriver, EpochBatches, Event, MigrationTicket,
    PropagationModel, ProtocolDriver, RunBuilder, RunObserver, RunOutcome, RunPhase, RunSchedStats,
    Runtime, RuntimeConfig, SchedulerConfig, SelectionStrategy, SettleConfig, SettleStats,
    SettlingShardDriver, ShardSpec, StreamDriver,
};
pub use epoch::EpochManager;
pub use formation::ShardPlan;
pub use longrun::{LongRun, LongRunConfig};
pub use pipeline::{
    EpochInput, EpochPipeline, EpochRun, MergeSummary, PipelineConfig, PlacementStage, StageKind,
    StageObserver, StageOutput,
};
pub use system::{MinerAllocation, ShardingSystem, SystemBuilder, SystemConfig};
