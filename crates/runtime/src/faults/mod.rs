//! Deterministic fault injection as runtime data: a [`FaultPlan`]'s
//! partitions and crashes become `cshard_network::Blackouts` tables the
//! ordinary drivers read, and its deadline the run's horizon
//! ([`run_with_faults`], which returns the run's ordinary
//! [`crate::RunOutcome`]). The leader schedule and the corruption check
//! run the epoch layer, so they live in `cshard-core`.

pub mod harness;
pub mod plan;

pub use harness::{run_with_faults, Traffic};
pub use plan::{FaultAction, FaultPlan};
