//! The typed event vocabulary shared by every protocol driver.

use cshard_primitives::ShardId;

/// One scheduled occurrence in a shard's simulation.
///
/// Every protocol in the repository — vanilla Ethereum, contract-centric
/// sharding, ChainSpace-style random sharding — is a state machine over
/// this one vocabulary. A driver only ever sees events it (or its
/// harness) scheduled on its own queue; indices are local to the driver
/// unless its documentation says otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A transaction enters the shard's unconfirmed queue. The golden
    /// experiment paths inject the whole workload at t = 0 without
    /// events (matching the paper's setup, where injection precedes the
    /// measured run); drivers that model staggered arrival — the
    /// ChainSpace 2PC pipeline — schedule these explicitly.
    TxInjected {
        /// Driver-scoped transaction index.
        tx: usize,
    },
    /// A miner of this shard solved a block (the Poisson process tick).
    BlockFound {
        /// Local miner index within the shard.
        miner: usize,
    },
    /// A previously found block finished propagating: its confirmations
    /// are now visible to every miner of the shard. Only scheduled under
    /// [`crate::PropagationModel::Network`], at the delivery time drawn
    /// when the block confirmed; visibility is read from that time, so the
    /// handler only clears a cache. The legacy
    /// [`crate::PropagationModel::Window`] keeps visibility implicit in
    /// the conflict-window rule and schedules no delivery events (which
    /// is what keeps pre-refactor run fingerprints bit-identical).
    BlockDelivered {
        /// Local index of the miner whose block was delivered.
        origin: usize,
    },
    /// An epoch boundary (parameter unification broadcast, batch
    /// injection, …). The equilibrium selection game intentionally does
    /// *not* use this on the golden paths — epochs start lazily inside
    /// the `BlockFound` handler, as the pre-refactor simulator did.
    EpochAdvance {
        /// Monotone epoch counter.
        epoch: u64,
    },
    /// One round of cross-shard 2PC validation for a cross-shard
    /// transaction (S-BAC style: intra-shard consensus, then cross-shard
    /// accept). Scheduled by the ChainSpace driver; each round books one
    /// communication time into the driver's `CommStats`.
    ValidationRound {
        /// Driver-scoped transaction index.
        tx: usize,
        /// 1-based round number, up to the protocol's round count.
        round: u32,
    },
    /// A settlement-batch flush deadline for one destination shard
    /// (`cshard-settle`): the batcher armed a size-or-timeout flush and
    /// the driver adjudicates it when it fires — flush, defer past a
    /// partition blackout, or ignore as stale. Scheduled only by
    /// settlement-enabled drivers; like every event, simulated time only
    /// (ND001).
    SettlementFlush {
        /// Destination shard of the batch whose deadline fired.
        dest: ShardId,
    },
    /// A scheduled hot-account migration reaches its apply time (a ticket
    /// of `SettlingShardDriver::with_migrations`): the account's open
    /// settlement pairs are drained, its unsubmitted transfers re-keyed
    /// to the new home shard, and the move booked as one crosslink.
    /// Staleness and blackout deferral follow the same deadline rules as
    /// [`Event::SettlementFlush`] — an event applies its ticket only when
    /// its timestamp matches the recorded deadline, and a mid-partition
    /// apply re-arms at the heal instant.
    Migration {
        /// Index into the driver's migration schedule.
        slot: usize,
    },
    /// A fault-plan control point (crash, recovery, partition heal,
    /// deadline, …) fires. Scheduled and consumed exclusively by the
    /// fault-injection wrapper (`cshard-faults`); protocol drivers never
    /// see one — the wrapper intercepts its own control events before
    /// forwarding, so a `Fault` reaching a plain driver is a malformed
    /// stream and is rejected like any other foreign event.
    Fault {
        /// Index into the fault plan's action schedule (wrapper-scoped).
        action: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_comparable_and_copy() {
        let a = Event::BlockFound { miner: 3 };
        let b = a;
        assert_eq!(a, b);
        assert_ne!(a, Event::BlockFound { miner: 4 });
        assert_ne!(
            Event::ValidationRound { tx: 1, round: 1 },
            Event::ValidationRound { tx: 1, round: 2 }
        );
        assert_ne!(
            Event::SettlementFlush {
                dest: ShardId::new(1)
            },
            Event::SettlementFlush {
                dest: ShardId::new(2)
            }
        );
        assert_ne!(Event::Migration { slot: 0 }, Event::Migration { slot: 1 });
    }
}
