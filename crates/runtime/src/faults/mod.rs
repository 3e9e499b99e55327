//! Deterministic fault injection as runtime data: a [`FaultPlan`]'s
//! partitions and crashes become `cshard_network::Blackouts` tables the
//! ordinary drivers read, and its deadline the run's horizon
//! ([`run_with_faults`]). Leader failover and the corruption check run the
//! epoch layer, so they live in `cshard-core`.

pub mod harness;
pub mod plan;
pub mod report;

pub use harness::{run_with_faults, FaultRun, Traffic};
pub use plan::{FaultAction, FaultPlan};
pub use report::{FaultReport, ShardFaultStats};
