//! # ContractShard
//!
//! A from-scratch Rust implementation of **"On Sharding Open Blockchains
//! with Smart Contracts"** (Tao et al., ICDE 2020): contract-centric
//! sharding for account-based blockchains, with the paper's inter-shard
//! merging game, intra-shard transaction-selection game, and parameter
//! unification scheme — plus every substrate they need (ledger state,
//! simulated network, discrete-event runtime) and the full evaluation
//! harness.
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! ## Quick start
//!
//! ```
//! use contractshard::prelude::*;
//!
//! // 200 transactions spread over 8 contracts + the MaxShard — the
//! // paper's nine-shard testbed workload.
//! let workload = Workload::uniform_contracts(
//!     200, 8, FeeDistribution::Uniform { lo: 1, hi: 100 }, 42,
//! );
//!
//! // Configure the contract-centric sharding system with the builder
//! // (one miner per shard, 10 transactions per block by default).
//! // `threads(0)` simulates the shards on one worker per core; results
//! // are bit-identical to a sequential run (per-shard PRF seeding).
//! let system = ShardingSystem::builder()
//!     .seed(42)
//!     .threads(0)
//!     .build()
//!     .expect("valid configuration");
//! let report = system.run(&workload).expect("run completes");
//!
//! // …and compare with the single-chain Ethereum baseline.
//! let baseline = RuntimeConfig { seed: 42, ..RuntimeConfig::default() };
//! let ethereum = simulate_ethereum(workload.fees(), 1, &baseline).expect("valid config");
//! let improvement = throughput_improvement(&ethereum, &report.run);
//! assert!(improvement > 2.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`primitives`] | hashes, addresses, amounts, ids, simulated time |
//! | [`crypto`] | SHA-256, PRF, simulated VRF, randomness beacon |
//! | [`ledger`] | the world state (accounts, contracts, transaction validation and application), the call graph |
//! | [`network`] | latency model + cross-shard communication accounting |
//! | [`sim`] | deterministic discrete-event engine + the shard-lifecycle work scheduler |
//! | [`runtime`] | typed events, the `ProtocolDriver` trait, propagation models, the `Runtime::builder()` run harness, deterministic fault injection (`runtime::faults`) |
//! | [`games`] | merging game (Alg. 1+3), selection game (Alg. 2), parameter unification |
//! | [`security`] | Fig. 1(d) shard safety and the Eq. (3)–(6) corruption bounds |
//! | [`workload`] | the Sec. VI injection generators |
//! | [`baselines`] | randomized merging, ChainSpace model |
//! | [`place`] | cross-epoch placement engine: hot-account traffic tracking, migration proposals |
//! | [`core`] | shard formation, miner assignment, the staged `EpochPipeline`, the end-to-end system, the VRF leader schedule, empirical corruption checks |

pub use cshard_baselines as baselines;
pub use cshard_core as core;
pub use cshard_crypto as crypto;
pub use cshard_games as games;
pub use cshard_ledger as ledger;
pub use cshard_network as network;
pub use cshard_place as place;
pub use cshard_primitives as primitives;
pub use cshard_runtime as runtime;
pub use cshard_security as security;
pub use cshard_sim as sim;
pub use cshard_workload as workload;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use cshard_baselines::{random_merge, ChainspaceDriver, ChainspacePlacement};
    pub use cshard_core::corruption::measure_corruption;
    pub use cshard_core::{
        simulate, simulate_ethereum, throughput_improvement, EpochInput, EpochPipeline, EpochRun,
        MinerAllocation, MinerAssignment, PipelineConfig, RunReport, RuntimeConfig,
        SelectionStrategy, ShardPlan, ShardSpec, ShardingSystem, StageKind, StageObserver,
        SystemBuilder, SystemConfig,
    };
    pub use cshard_core::{EpochManager, LongRun, LongRunConfig};
    pub use cshard_crypto::{sha256, RandomnessBeacon, Vrf};
    pub use cshard_games::{
        best_reply_equilibrium, iterative_merge, GameInputs, MergingConfig, SelectionConfig,
        UnifiedParameters,
    };
    pub use cshard_ledger::{CallGraph, Condition, SmartContract, State, Transaction};
    pub use cshard_place::{Migration, PlacementConfig, PlacementEngine};
    pub use cshard_primitives::Error;
    pub use cshard_primitives::{Address, Amount, ContractId, Hash32, MinerId, ShardId, SimTime};
    pub use cshard_runtime::faults::{run_with_faults, FaultPlan, Traffic};
    pub use cshard_runtime::{
        ContractShardDriver, Ctx, Event, MigrationTicket, PropagationModel, ProtocolDriver,
        RunBuilder, RunObserver, RunOutcome, RunPhase, RunSchedStats, Runtime, SettlingShardDriver,
    };
    pub use cshard_security::{shard_safety, CorruptionThreshold};
    pub use cshard_sim::{DrainStats, SchedulerConfig, WorkScheduler};
    pub use cshard_workload::{FeeDistribution, Workload};
}
