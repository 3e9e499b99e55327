//! Cross-shard communication accounting.

use cshard_primitives::ShardId;
use std::collections::BTreeMap;

/// What a communication round was for — lets experiments slice the totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommKind {
    /// Cross-shard transaction validation (ChainSpace-style consensus).
    CrossShardValidation,
    /// Submitting per-shard statistics to the verifiable leader
    /// (parameter unification, step 1).
    StatSubmission,
    /// The leader's broadcast of unified parameters (step 2).
    ParameterBroadcast,
    /// One batched settlement flush: a crosslink carrying every pending
    /// cross-shard transfer of one `(source, dest)` shard pair
    /// (`cshard-settle`). Batched runs book one of these per flush
    /// instead of per-transaction validation rounds.
    Crosslink,
    /// Anything else (labelled ad hoc in tests).
    Other,
}

/// Number of [`CommKind`]s: per-kind counts are a fixed array indexed by
/// `kind as usize`.
const KINDS: usize = CommKind::Other as usize + 1;

/// A communication counter: rounds per shard, per kind and in total.
///
/// A "communication time" is one round of cross-shard messaging, counted
/// once per participating shard — the unit Fig. 4 reports. A counter is a
/// plain value with one owner: each runtime driver records into its own,
/// and the harness sums them with [`CommStats::merge`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    per_shard: BTreeMap<ShardId, u64>,
    per_kind: [u64; KINDS],
    total: u64,
}

impl CommStats {
    /// A fresh, zeroed counter.
    pub fn new() -> Self {
        CommStats::default()
    }

    /// Records one communication round in which `shard` participated.
    pub fn record(&mut self, shard: ShardId, kind: CommKind) {
        self.record_many(shard, kind, 1);
    }

    /// Records `count` rounds at once.
    pub fn record_many(&mut self, shard: ShardId, kind: CommKind, count: u64) {
        if count == 0 {
            return;
        }
        *self.per_shard.entry(shard).or_default() += count;
        self.per_kind[kind as usize] += count;
        self.total += count;
    }

    /// Adds every counter of `other` into this one.
    pub fn merge(&mut self, other: &CommStats) {
        for (&shard, &rounds) in &other.per_shard {
            *self.per_shard.entry(shard).or_default() += rounds;
        }
        for (mine, theirs) in self.per_kind.iter_mut().zip(other.per_kind) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Total communication rounds across all shards.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rounds in which a specific shard participated.
    pub fn for_shard(&self, shard: ShardId) -> u64 {
        self.per_shard.get(&shard).copied().unwrap_or(0)
    }

    /// Rounds of a specific kind.
    pub fn for_kind(&self, kind: CommKind) -> u64 {
        self.per_kind[kind as usize]
    }

    /// Average rounds per shard over `shard_count` shards — the y-axis of
    /// Fig. 4(b)/(c).
    pub fn per_shard_average(&self, shard_count: usize) -> f64 {
        assert!(shard_count > 0);
        self.total as f64 / shard_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let s = CommStats::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.for_shard(ShardId::new(0)), 0);
    }

    #[test]
    fn records_accumulate_by_shard_and_kind() {
        let mut s = CommStats::new();
        s.record(ShardId::new(0), CommKind::CrossShardValidation);
        s.record(ShardId::new(0), CommKind::CrossShardValidation);
        s.record(ShardId::new(1), CommKind::StatSubmission);
        assert_eq!(s.total(), 3);
        assert_eq!(s.for_shard(ShardId::new(0)), 2);
        assert_eq!(s.for_shard(ShardId::new(1)), 1);
        assert_eq!(s.for_kind(CommKind::CrossShardValidation), 2);
        assert_eq!(s.for_kind(CommKind::ParameterBroadcast), 0);
    }

    #[test]
    fn record_many_and_zero() {
        let mut s = CommStats::new();
        s.record_many(ShardId::new(2), CommKind::Other, 5);
        s.record_many(ShardId::new(2), CommKind::Other, 0);
        assert_eq!(s.total(), 5);
        assert_eq!(s.for_shard(ShardId::new(2)), 5);
    }

    #[test]
    fn per_shard_average() {
        let mut s = CommStats::new();
        for i in 0..9 {
            s.record_many(ShardId::new(i), CommKind::StatSubmission, 2);
        }
        assert!((s.per_shard_average(9) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_one_counter_fed_both_streams() {
        let a_stream = [
            (ShardId::new(0), CommKind::CrossShardValidation, 3),
            (ShardId::new(2), CommKind::Crosslink, 1),
        ];
        let b_stream = [
            (ShardId::new(0), CommKind::StatSubmission, 2),
            (ShardId::new(1), CommKind::Crosslink, 4),
        ];
        let (mut a, mut b, mut both) = (CommStats::new(), CommStats::new(), CommStats::new());
        for (shard, kind, n) in a_stream {
            a.record_many(shard, kind, n);
            both.record_many(shard, kind, n);
        }
        for (shard, kind, n) in b_stream {
            b.record_many(shard, kind, n);
            both.record_many(shard, kind, n);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.total(), 10);
        assert_eq!(a.for_shard(ShardId::new(0)), 5);
        assert_eq!(a.for_kind(CommKind::Crosslink), 5);
    }
}
