//! The shard-level migration record.

use cshard_primitives::{Address, ShardId};

/// One account move decided by the placement engine.
///
/// Produced by the pipeline's placement stage at the end of an epoch and
/// *executed* the following epoch: the classify stage pins the account to
/// its new shard, and the runtime's settling driver drains the account's
/// in-flight settlement state before switching shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Migration {
    /// The account being moved.
    pub account: Address,
    /// The shard the account currently routes to.
    pub from: ShardId,
    /// The shard the account moves to.
    pub to: ShardId,
    /// Observed contract calls backing the decision (the hotness that
    /// ranked this move).
    pub txs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migrations_are_copy_and_comparable() {
        let m = Migration {
            account: Address([7; 20]),
            from: ShardId::MAX_SHARD,
            to: ShardId::new(3),
            txs: 12,
        };
        let copy = m;
        assert_eq!(m, copy);
        assert!(m <= copy);
    }
}
