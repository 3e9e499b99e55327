//! Cross-shard communication accounting.

use cshard_primitives::ShardId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

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

#[derive(Debug, Default)]
struct Inner {
    per_shard: BTreeMap<ShardId, u64>,
    per_kind: [u64; KINDS],
    total: u64,
}

/// Thread-safe communication counter, shared by every component of a run.
///
/// A "communication time" is one round of cross-shard messaging, counted
/// once per participating shard — the unit Fig. 4 reports.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    inner: Arc<Mutex<Inner>>,
}

impl CommStats {
    /// A fresh, zeroed counter.
    pub fn new() -> Self {
        CommStats::default()
    }

    /// Takes the lock whether or not a holder panicked: every update is a
    /// plain counter addition, so the counters are valid at every step and
    /// one crashed recorder must not fail every later reader of the run.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one communication round in which `shard` participated.
    pub fn record(&self, shard: ShardId, kind: CommKind) {
        self.record_many(shard, kind, 1);
    }

    /// Records `count` rounds at once.
    pub fn record_many(&self, shard: ShardId, kind: CommKind, count: u64) {
        if count == 0 {
            return;
        }
        let mut inner = self.lock();
        match inner.per_shard.get_mut(&shard) {
            Some(rounds) => *rounds += count,
            None => {
                inner.per_shard.insert(shard, count);
            }
        }
        inner.per_kind[kind as usize] += count;
        inner.total += count;
    }

    /// Total communication rounds across all shards.
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// Rounds in which a specific shard participated.
    pub fn for_shard(&self, shard: ShardId) -> u64 {
        self.lock().per_shard.get(&shard).copied().unwrap_or(0)
    }

    /// Rounds of a specific kind.
    pub fn for_kind(&self, kind: CommKind) -> u64 {
        self.lock().per_kind[kind as usize]
    }

    /// Average rounds per shard over `shard_count` shards — the y-axis of
    /// Fig. 4(b)/(c).
    pub fn per_shard_average(&self, shard_count: usize) -> f64 {
        assert!(shard_count > 0);
        self.total() as f64 / shard_count as f64
    }

    /// Maximum rounds over the shards that communicated at all.
    pub fn per_shard_max(&self) -> u64 {
        self.lock().per_shard.values().copied().max().unwrap_or(0)
    }

    /// Resets every counter (reused between experiment repetitions).
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }

    /// A point-in-time copy of every counter. Experiments bracket a run
    /// with snapshots instead of re-reading individual kinds ad hoc, and
    /// diff them with [`CommSnapshot::since`] / [`CommStats::delta`].
    pub fn snapshot(&self) -> CommSnapshot {
        let inner = self.lock();
        CommSnapshot {
            per_shard: inner.per_shard.clone(),
            per_kind: inner.per_kind,
            total: inner.total,
        }
    }

    /// What was recorded since `earlier` was taken — per shard, per kind
    /// and in total. Counters are monotone, so the delta saturates at
    /// zero only if `earlier` came from a different (or reset) counter.
    pub fn delta(&self, earlier: &CommSnapshot) -> CommSnapshot {
        self.snapshot().since(earlier)
    }
}

/// An immutable copy of a [`CommStats`] counter set, taken with
/// [`CommStats::snapshot`]. Supports the same per-shard/per-kind reads as
/// the live counter plus subtraction ([`CommSnapshot::since`]) for
/// measuring one phase of a longer run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommSnapshot {
    per_shard: BTreeMap<ShardId, u64>,
    per_kind: [u64; KINDS],
    total: u64,
}

impl CommSnapshot {
    /// Total rounds at snapshot time.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rounds in which `shard` participated.
    pub fn for_shard(&self, shard: ShardId) -> u64 {
        self.per_shard.get(&shard).copied().unwrap_or(0)
    }

    /// Rounds of a specific kind.
    pub fn for_kind(&self, kind: CommKind) -> u64 {
        self.per_kind[kind as usize]
    }

    /// Average rounds per shard over `shard_count` shards (Fig. 4(b)'s
    /// y-axis, read off a snapshot instead of the live counter).
    pub fn per_shard_average(&self, shard_count: usize) -> f64 {
        assert!(shard_count > 0);
        self.total as f64 / shard_count as f64
    }

    /// The counter-wise difference `self - earlier`, dropping zero
    /// per-shard entries (saturating: counters are monotone under one live
    /// counter, so a negative difference only means mismatched sources).
    pub fn since(&self, earlier: &CommSnapshot) -> CommSnapshot {
        let diff_shard: BTreeMap<ShardId, u64> = self
            .per_shard
            .iter()
            .map(|(k, v)| (*k, v.saturating_sub(earlier.for_shard(*k))))
            .filter(|&(_, v)| v > 0)
            .collect();
        let diff_kind =
            std::array::from_fn(|k| self.per_kind[k].saturating_sub(earlier.per_kind[k]));
        CommSnapshot {
            per_shard: diff_shard,
            per_kind: diff_kind,
            total: self.total.saturating_sub(earlier.total),
        }
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
        assert_eq!(s.per_shard_max(), 0);
    }

    #[test]
    fn records_accumulate_by_shard_and_kind() {
        let s = CommStats::new();
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
        let s = CommStats::new();
        s.record_many(ShardId::new(2), CommKind::Other, 5);
        s.record_many(ShardId::new(2), CommKind::Other, 0);
        assert_eq!(s.total(), 5);
        assert_eq!(s.per_shard_max(), 5);
    }

    #[test]
    fn per_shard_average() {
        let s = CommStats::new();
        for i in 0..9 {
            s.record_many(ShardId::new(i), CommKind::StatSubmission, 2);
        }
        assert!((s.per_shard_average(9) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_state() {
        let s = CommStats::new();
        let t = s.clone();
        t.record(ShardId::MAX_SHARD, CommKind::Other);
        assert_eq!(s.total(), 1);
        assert_eq!(s.for_shard(ShardId::MAX_SHARD), 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = CommStats::new();
        s.record(ShardId::new(0), CommKind::Other);
        s.reset();
        assert_eq!(s.total(), 0);
        assert_eq!(s.for_shard(ShardId::new(0)), 0);
    }

    #[test]
    fn snapshot_copies_all_counters() {
        let s = CommStats::new();
        s.record(ShardId::new(0), CommKind::CrossShardValidation);
        s.record_many(ShardId::new(1), CommKind::Crosslink, 4);
        let snap = s.snapshot();
        assert_eq!(snap.total(), 5);
        assert_eq!(snap.for_shard(ShardId::new(0)), 1);
        assert_eq!(snap.for_shard(ShardId::new(1)), 4);
        assert_eq!(snap.for_kind(CommKind::Crosslink), 4);
        assert_eq!(snap.for_kind(CommKind::Other), 0);
        assert!((snap.per_shard_average(5) - 1.0).abs() < 1e-12);
        // The snapshot is a copy: later records do not change it.
        s.record(ShardId::new(0), CommKind::Other);
        assert_eq!(snap.total(), 5);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn delta_isolates_one_phase() {
        let s = CommStats::new();
        s.record_many(ShardId::new(0), CommKind::StatSubmission, 3);
        let before = s.snapshot();
        s.record_many(ShardId::new(0), CommKind::StatSubmission, 2);
        s.record(ShardId::new(2), CommKind::Crosslink);
        let d = s.delta(&before);
        assert_eq!(d.total(), 3);
        assert_eq!(d.for_shard(ShardId::new(0)), 2);
        assert_eq!(d.for_shard(ShardId::new(2)), 1);
        assert_eq!(d.for_kind(CommKind::StatSubmission), 2);
        assert_eq!(d.for_kind(CommKind::Crosslink), 1);
        assert_eq!(d.for_kind(CommKind::CrossShardValidation), 0);
        // since() is the same operation on two snapshots.
        assert_eq!(s.snapshot().since(&before), d);
    }

    #[test]
    fn empty_delta_is_default() {
        let s = CommStats::new();
        s.record(ShardId::new(0), CommKind::Other);
        let snap = s.snapshot();
        assert_eq!(s.delta(&snap), CommSnapshot::default());
    }

    #[test]
    fn keeps_counting_after_a_recorder_panics_holding_the_lock() {
        let s = CommStats::new();
        s.record(ShardId::new(0), CommKind::Other);
        let crashed = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = s.lock();
                    panic!("recorder crashed mid-run");
                })
                .join()
        });
        assert!(crashed.is_err());
        s.record_many(ShardId::new(1), CommKind::Crosslink, 2);
        assert_eq!(s.total(), 3);
        assert_eq!(s.for_shard(ShardId::new(0)), 1);
        assert_eq!(s.snapshot().for_kind(CommKind::Crosslink), 2);
        s.reset();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let s = CommStats::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record(ShardId::new(t), CommKind::Other);
                    }
                });
            }
        });
        assert_eq!(s.total(), 4000);
    }
}
