//! Flush accounting, surfaced per driver and merged into the run outcome.

/// What a settlement batcher did over a run. Sim-clock-free counters
/// (ND001): pure event-path arithmetic, mergeable across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SettleStats {
    /// Crosslink batches flushed (each books one communication message).
    pub batches: u64,
    /// Transfers settled across all batches.
    pub txs_settled: u64,
    /// Flushes forced by a full batch (`batch_cap` reached).
    pub cap_flushes: u64,
    /// Flushes forced by the simulated-time timeout.
    pub timeout_flushes: u64,
    /// Flushes that landed inside a pair blackout and were re-armed at
    /// the heal instant (each deferral counts once; the eventual flush
    /// still counts under cap or timeout).
    pub deferred_flushes: u64,
}

impl SettleStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        SettleStats::default()
    }

    /// Folds another shard's accounting into this one (the run outcome
    /// aggregates every driver's stats this way).
    pub fn merge(&mut self, other: &SettleStats) {
        self.batches += other.batches;
        self.txs_settled += other.txs_settled;
        self.cap_flushes += other.cap_flushes;
        self.timeout_flushes += other.timeout_flushes;
        self.deferred_flushes += other.deferred_flushes;
    }

    /// Whether any settlement happened at all.
    pub fn is_empty(&self) -> bool {
        *self == SettleStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = SettleStats {
            batches: 1,
            txs_settled: 3,
            cap_flushes: 1,
            timeout_flushes: 0,
            deferred_flushes: 2,
        };
        let b = SettleStats {
            batches: 2,
            txs_settled: 5,
            cap_flushes: 0,
            timeout_flushes: 2,
            deferred_flushes: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            SettleStats {
                batches: 3,
                txs_settled: 8,
                cap_flushes: 1,
                timeout_flushes: 2,
                deferred_flushes: 3,
            }
        );
    }

    #[test]
    fn emptiness() {
        assert!(SettleStats::new().is_empty());
        let s = SettleStats {
            batches: 1,
            ..SettleStats::default()
        };
        assert!(!s.is_empty());
    }
}
