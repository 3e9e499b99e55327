//! The per-source settlement batcher.
//!
//! One batcher serves one source shard and keys pending transfers by
//! destination shard — the `(source, dest)` pair granularity at which
//! crosslinks ship and partitions black out. The batcher owns no clock
//! and no event queue: [`SettlementBatcher::submit`] and
//! [`SettlementBatcher::on_flush`] are pure state transitions over the
//! caller-supplied simulated `now`, and every deferred flush is handed
//! back as an absolute re-arm time for the caller to schedule. Iteration
//! state lives in `BTreeMap`s only (ND003), so batch emission order is a
//! pure function of the submission sequence.

use crate::config::SettleConfig;
use crate::stats::SettleStats;
use cshard_network::Blackouts;
use cshard_primitives::{ShardId, SimTime};
use std::collections::BTreeMap;

/// One flushed crosslink: every transfer the source shard settled toward
/// `dest` in this batch, in submission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    /// The settling (source) shard.
    pub source: ShardId,
    /// The destination shard.
    pub dest: ShardId,
    /// Caller-scoped transfer ids, in submission order.
    pub transfers: Vec<u64>,
    /// Simulated flush time.
    pub at: SimTime,
}

/// What a submission did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Submit {
    /// The transfer joined an already-armed batch; nothing to schedule.
    Queued,
    /// The batch (re-)armed its flush deadline: the caller must schedule
    /// a flush event for this destination at the given absolute time.
    Arm(SimTime),
    /// The submission filled the batch and it flushed synchronously.
    Flushed(Batch),
}

/// What a fired flush event did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlushOutcome {
    /// The event was superseded (batch already flushed by cap, or its
    /// deadline moved): ignore it. Staleness is how at-most-once flushing
    /// survives duplicate or outdated events in the queue.
    Stale,
    /// The pair is blacked out at the flush instant: the deadline moved
    /// to the returned heal time and the caller must schedule a new flush
    /// event there. Deferral never hastens a flush.
    Deferred(SimTime),
    /// The batch flushed: book one crosslink and settle its transfers.
    Flushed(Batch),
}

/// Pending state of one `(source, dest)` pair.
#[derive(Debug, Default)]
struct PairState {
    /// Unsettled transfer ids, in submission order.
    transfers: Vec<u64>,
    /// The one live flush deadline. An event fires *this* batch only if
    /// its timestamp equals the recorded deadline; every other flush
    /// event for the pair is stale.
    deadline: Option<SimTime>,
}

/// Per-source crosslink batching, keyed by destination shard.
///
/// Invariant (what makes the driver wrapping this never stall): whenever
/// a pair has pending transfers, `deadline` is `Some(t)` and the caller
/// holds a scheduled flush event at `t` — `submit` arms one on the first
/// transfer of every batch, and `on_flush` re-arms on deferral.
#[derive(Debug)]
pub struct SettlementBatcher {
    source: ShardId,
    batch_cap: usize,
    timeout: SimTime,
    pairs: BTreeMap<ShardId, PairState>,
    /// Blackout table per destination, built by the harness from the
    /// fault plan's partitions of either endpoint.
    blackouts: BTreeMap<ShardId, Blackouts>,
    stats: SettleStats,
}

impl SettlementBatcher {
    /// A batcher for `source` under `config`. A disabled config batches
    /// nothing: `batch_cap` is treated as 1, so every submission flushes
    /// immediately — the unbatched per-transfer ledger.
    pub fn new(source: ShardId, config: &SettleConfig) -> Self {
        let batch_cap = if config.enabled {
            config.batch_cap.max(1)
        } else {
            1
        };
        SettlementBatcher {
            source,
            batch_cap,
            timeout: config.timeout,
            pairs: BTreeMap::new(),
            blackouts: BTreeMap::new(),
            stats: SettleStats::new(),
        }
    }

    /// Installs the blackout table of the `(source, dest)` pair —
    /// typically the union of both endpoints' partition windows from a
    /// fault plan.
    pub fn set_blackouts(&mut self, dest: ShardId, blackouts: Blackouts) {
        self.blackouts.insert(dest, blackouts);
    }

    /// The source shard this batcher settles for.
    pub fn source(&self) -> ShardId {
        self.source
    }

    /// The flush accounting so far.
    pub fn stats(&self) -> SettleStats {
        self.stats
    }

    /// True when no pair holds an unsettled transfer — the driver-level
    /// `done()` conjunct that keeps phase 1 alive until the final flush.
    pub fn is_empty(&self) -> bool {
        self.pairs.values().all(|p| p.transfers.is_empty())
    }

    /// Unsettled transfers currently pending toward `dest`.
    pub fn pending(&self, dest: ShardId) -> usize {
        self.pairs.get(&dest).map_or(0, |p| p.transfers.len())
    }

    /// If the pair is blacked out at `t`, the instant it heals
    /// ([`Blackouts::heal`]). The one defer-to-heal rule: flushes consult
    /// it here, and a driver deferring other pair-bound work (a migration
    /// apply) consults the same table through it.
    pub fn heal_time(&self, dest: ShardId, t: SimTime) -> Option<SimTime> {
        self.blackouts.get(&dest)?.heal(t)
    }

    fn take_batch(&mut self, dest: ShardId, at: SimTime) -> Batch {
        let pair = self.pairs.entry(dest).or_default();
        let transfers = std::mem::take(&mut pair.transfers);
        pair.deadline = None;
        if transfers.len() >= self.batch_cap {
            self.stats.cap_flushes += 1;
        } else {
            self.stats.timeout_flushes += 1;
        }
        self.stats.batches += 1;
        self.stats.txs_settled += transfers.len() as u64;
        Batch {
            source: self.source,
            dest,
            transfers,
            at,
        }
    }

    /// Submits one transfer toward `dest` at simulated time `now`.
    ///
    /// The first transfer of a batch arms the timeout flush
    /// ([`Submit::Arm`]); reaching `batch_cap` flushes synchronously
    /// ([`Submit::Flushed`]) unless the pair is blacked out, in which case
    /// the deadline moves to the heal instant (re-armed if it changed).
    pub fn submit(&mut self, now: SimTime, dest: ShardId, transfer: u64) -> Submit {
        let heal = self.heal_time(dest, now);
        let timeout = self.timeout;
        let cap = self.batch_cap;
        let pair = self.pairs.entry(dest).or_default();
        let first = pair.transfers.is_empty();
        pair.transfers.push(transfer);
        if pair.transfers.len() >= cap {
            match heal {
                // A full batch flushes in the submitting event itself.
                None => Submit::Flushed(self.take_batch(dest, now)),
                // Blacked out: hold the (over-)full batch until the heal.
                Some(h) => {
                    if pair.deadline == Some(h) {
                        Submit::Queued
                    } else {
                        pair.deadline = Some(h);
                        Submit::Arm(h)
                    }
                }
            }
        } else if first {
            let at = now.saturating_add(timeout);
            pair.deadline = Some(at);
            Submit::Arm(at)
        } else {
            Submit::Queued
        }
    }

    /// Force-flushes the pair toward `dest` right now, bypassing both the
    /// cap and the armed deadline — the migration drain path: an account
    /// moving off this shard must not leave transfers parked in an open
    /// batch keyed to its old routing. Returns `None` when nothing pends.
    /// Clearing the deadline makes any armed flush event for the pair
    /// stale, so a drain never double-settles; the flush is booked through
    /// the ordinary [`SettleStats`] counters (as a timeout-class flush
    /// when under cap).
    pub fn drain(&mut self, now: SimTime, dest: ShardId) -> Option<Batch> {
        if self.pending(dest) == 0 {
            return None;
        }
        Some(self.take_batch(dest, now))
    }

    /// Adjudicates a flush event for `dest` firing at `now`.
    ///
    /// Only the event matching the pair's recorded deadline flushes; a
    /// cap flush or a re-arm in the meantime makes older events
    /// [`FlushOutcome::Stale`]. A live deadline inside a blackout defers
    /// to the heal instant instead ([`FlushOutcome::Deferred`]) — the
    /// caller schedules the replacement event, and the batch settles
    /// exactly once when it finally fires in the clear.
    pub fn on_flush(&mut self, now: SimTime, dest: ShardId) -> FlushOutcome {
        let heal = self.heal_time(dest, now);
        let Some(pair) = self.pairs.get_mut(&dest) else {
            return FlushOutcome::Stale;
        };
        if pair.transfers.is_empty() || pair.deadline != Some(now) {
            return FlushOutcome::Stale;
        }
        match heal {
            Some(h) => {
                pair.deadline = Some(h);
                self.stats.deferred_flushes += 1;
                FlushOutcome::Deferred(h)
            }
            None => FlushOutcome::Flushed(self.take_batch(dest, now)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dst(v: u32) -> ShardId {
        ShardId::new(v)
    }

    fn batched(cap: usize) -> SettlementBatcher {
        SettlementBatcher::new(ShardId::new(0), &SettleConfig::batched(cap))
    }

    fn blackouts(windows: &[(u64, u64)]) -> Blackouts {
        Blackouts::new(windows.iter().map(|&(from, until)| (ms(from), ms(until))))
            .expect("valid windows")
    }

    #[test]
    fn first_transfer_arms_the_timeout() {
        let mut b = batched(3);
        assert_eq!(b.submit(ms(100), dst(1), 7), Submit::Arm(ms(600)));
        assert_eq!(b.submit(ms(150), dst(1), 8), Submit::Queued);
        assert_eq!(b.pending(dst(1)), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn cap_flushes_synchronously_in_submission_order() {
        let mut b = batched(3);
        b.submit(ms(0), dst(1), 1);
        b.submit(ms(1), dst(1), 2);
        let Submit::Flushed(batch) = b.submit(ms(2), dst(1), 3) else {
            panic!("cap must flush");
        };
        assert_eq!(batch.transfers, vec![1, 2, 3]);
        assert_eq!(batch.at, ms(2));
        assert_eq!(batch.source, ShardId::new(0));
        assert_eq!(batch.dest, dst(1));
        assert!(b.is_empty());
        let s = b.stats();
        assert_eq!((s.batches, s.cap_flushes, s.txs_settled), (1, 1, 3));
    }

    #[test]
    fn timeout_event_flushes_a_partial_batch() {
        let mut b = batched(100);
        assert_eq!(b.submit(ms(0), dst(2), 5), Submit::Arm(ms(500)));
        b.submit(ms(10), dst(2), 6);
        let FlushOutcome::Flushed(batch) = b.on_flush(ms(500), dst(2)) else {
            panic!("deadline event must flush");
        };
        assert_eq!(batch.transfers, vec![5, 6]);
        assert_eq!(b.stats().timeout_flushes, 1);
        assert!(b.is_empty());
    }

    #[test]
    fn superseded_timeout_event_is_stale() {
        let mut b = batched(2);
        b.submit(ms(0), dst(1), 1); // arms ms(500)
        b.submit(ms(10), dst(1), 2); // cap flush at ms(10)
                                     // The armed timeout still fires later; it must be a no-op.
        assert_eq!(b.on_flush(ms(500), dst(1)), FlushOutcome::Stale);
        assert_eq!(b.stats().batches, 1);
        // And a flush for a never-seen destination is stale too.
        assert_eq!(b.on_flush(ms(500), dst(9)), FlushOutcome::Stale);
    }

    #[test]
    fn destinations_batch_independently() {
        let mut b = batched(2);
        assert_eq!(b.submit(ms(0), dst(1), 1), Submit::Arm(ms(500)));
        assert_eq!(b.submit(ms(0), dst(2), 2), Submit::Arm(ms(500)));
        let Submit::Flushed(batch) = b.submit(ms(5), dst(1), 3) else {
            panic!("dest 1 reached cap");
        };
        assert_eq!(batch.transfers, vec![1, 3]);
        assert_eq!(b.pending(dst(2)), 1);
    }

    #[test]
    fn cap_one_is_the_unbatched_ledger() {
        // Both a disabled config and an enabled cap-1 config flush every
        // submission immediately: one message per transfer, tx-for-tx.
        for config in [SettleConfig::disabled(), SettleConfig::batched(1)] {
            let mut b = SettlementBatcher::new(ShardId::new(3), &config);
            assert_eq!(b.batch_cap, 1);
            for (i, t) in [ms(3), ms(8), ms(9)].iter().enumerate() {
                let Submit::Flushed(batch) = b.submit(*t, dst(1), i as u64) else {
                    panic!("cap 1 must flush per submission");
                };
                assert_eq!(batch.transfers, vec![i as u64]);
                assert_eq!(batch.at, *t);
            }
            assert!(b.is_empty());
            assert_eq!(b.stats().batches, 3);
        }
    }

    #[test]
    fn blackout_defers_a_timeout_flush_to_the_heal() {
        let mut b = batched(100);
        b.set_blackouts(dst(1), blackouts(&[(400, 900)]));
        b.submit(ms(0), dst(1), 1); // arms ms(500), inside the blackout
        assert_eq!(b.on_flush(ms(500), dst(1)), FlushOutcome::Deferred(ms(900)));
        assert_eq!(b.stats().deferred_flushes, 1);
        // The old event's deadline moved: firing it again is stale.
        assert_eq!(b.on_flush(ms(500), dst(1)), FlushOutcome::Stale);
        // The re-armed event settles exactly once at the heal.
        let FlushOutcome::Flushed(batch) = b.on_flush(ms(900), dst(1)) else {
            panic!("heal-time event must flush");
        };
        assert_eq!(batch.transfers, vec![1]);
        assert_eq!(batch.at, ms(900));
        assert!(b.is_empty());
    }

    #[test]
    fn blackout_holds_a_full_batch_until_the_heal() {
        let mut b = batched(2);
        b.set_blackouts(dst(1), blackouts(&[(0, 1000)]));
        // The first transfer arms its ordinary timeout; deferral is
        // adjudicated when a flush would actually happen.
        assert_eq!(b.submit(ms(10), dst(1), 1), Submit::Arm(ms(510)));
        // Cap reached inside the blackout: no flush — the deadline moves
        // to the heal instead, superseding the timeout event.
        assert_eq!(b.submit(ms(20), dst(1), 2), Submit::Arm(ms(1000)));
        // The batch may overfill while blacked out.
        assert_eq!(b.submit(ms(30), dst(1), 3), Submit::Queued);
        assert_eq!(b.pending(dst(1)), 3);
        // The superseded timeout event fires mid-blackout: stale.
        assert_eq!(b.on_flush(ms(510), dst(1)), FlushOutcome::Stale);
        let FlushOutcome::Flushed(batch) = b.on_flush(ms(1000), dst(1)) else {
            panic!("heal event must flush");
        };
        assert_eq!(batch.transfers, vec![1, 2, 3]);
        assert_eq!(b.stats().cap_flushes, 1);
    }

    #[test]
    fn overlapping_blackouts_chain_to_the_final_heal() {
        let mut b = batched(100);
        b.set_blackouts(dst(1), blackouts(&[(100, 600), (550, 800)]));
        b.submit(ms(0), dst(1), 1); // arms ms(500)
                                    // ms(500) is inside the first window, whose heal ms(600) is inside
                                    // the second: the deferral chains straight to ms(800).
        assert_eq!(b.on_flush(ms(500), dst(1)), FlushOutcome::Deferred(ms(800)));
        let FlushOutcome::Flushed(batch) = b.on_flush(ms(800), dst(1)) else {
            panic!("final heal must flush");
        };
        assert_eq!(batch.at, ms(800));
    }

    #[test]
    fn clearing_blackouts_restores_immediate_flushing() {
        let mut b = batched(1);
        b.set_blackouts(dst(1), blackouts(&[(0, 100)]));
        assert_eq!(b.submit(ms(10), dst(1), 1), Submit::Arm(ms(100)));
        b.set_blackouts(dst(1), Blackouts::default());
        let FlushOutcome::Flushed(_) = b.on_flush(ms(100), dst(1)) else {
            panic!("cleared blackout must flush");
        };
        assert!(matches!(b.submit(ms(200), dst(1), 2), Submit::Flushed(_)));
    }

    #[test]
    fn drain_flushes_the_open_pair_and_stales_its_deadline() {
        let mut b = batched(100);
        assert_eq!(b.drain(ms(5), dst(1)), None, "nothing pending: no batch");
        b.submit(ms(0), dst(1), 1); // arms ms(500)
        b.submit(ms(10), dst(1), 2);
        let batch = b.drain(ms(50), dst(1)).expect("open pair must drain");
        assert_eq!(batch.transfers, vec![1, 2]);
        assert_eq!(batch.at, ms(50));
        assert!(b.is_empty());
        // The armed timeout event now finds a cleared deadline: stale.
        assert_eq!(b.on_flush(ms(500), dst(1)), FlushOutcome::Stale);
        let s = b.stats();
        assert_eq!((s.batches, s.timeout_flushes, s.txs_settled), (1, 1, 2));
    }

    #[test]
    fn resubmission_after_flush_starts_a_fresh_batch() {
        let mut b = batched(2);
        b.submit(ms(0), dst(1), 1);
        b.submit(ms(1), dst(1), 2); // cap flush
        assert_eq!(b.submit(ms(50), dst(1), 3), Submit::Arm(ms(550)));
        let FlushOutcome::Flushed(batch) = b.on_flush(ms(550), dst(1)) else {
            panic!("fresh batch must flush on its own deadline");
        };
        assert_eq!(batch.transfers, vec![3]);
        let s = b.stats();
        assert_eq!((s.batches, s.cap_flushes, s.timeout_flushes), (2, 1, 1));
        assert_eq!(s.txs_settled, 3);
    }
}
