//! Property tests for the settlement batcher: the invariants the driver
//! wrappers (`SettlingShardDriver`, the batched ChainSpace mode) and the
//! fault harness lean on.
//!
//! A miniature event loop (`drive`) replays an arbitrary submission
//! schedule against a [`SettlementBatcher`], honouring the batcher's
//! arming protocol exactly as the runtime does: every [`Submit::Arm`] /
//! [`FlushOutcome::Deferred`] schedules a flush event, ties between a
//! flush and a submission at the same instant fire the flush first, and
//! the loop drains scheduled events after the last submission. Over that
//! loop:
//!
//! * no transfer is lost or duplicated, for any interleaving of
//!   submissions, cap flushes, timeouts, and blackout windows;
//! * replaying the same schedule yields bit-identical batches (flush
//!   order is a pure function of the submission sequence);
//! * `batch_cap = 1` degenerates to the unbatched ledger, tx-for-tx at
//!   the submission instant;
//! * absent blackouts, no batch exceeds the cap, and no flush ever
//!   lands inside a blackout window.

use cshard_network::Blackouts;
use cshard_primitives::{ShardId, SimTime};
use cshard_settle::{Batch, FlushOutcome, SettleConfig, SettlementBatcher, Submit};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One submission: `(time, dest, transfer id)`. Ids are assigned by the
/// driver so they are unique per schedule.
type Schedule = Vec<(SimTime, ShardId, u64)>;

/// Replays `schedule` (already time-sorted) against a fresh batcher,
/// returning every flushed batch in emission order.
fn drive(
    config: &SettleConfig,
    blackouts: &[(ShardId, Vec<(SimTime, SimTime)>)],
    schedule: &Schedule,
) -> (Vec<Batch>, SettlementBatcher) {
    let mut b = SettlementBatcher::new(ShardId::new(0), config);
    for (dest, windows) in blackouts {
        let table = Blackouts::new(windows.iter().copied()).expect("non-empty windows");
        b.set_blackouts(*dest, table);
    }
    let mut flushes: BTreeSet<(SimTime, ShardId)> = BTreeSet::new();
    let mut out = Vec::new();
    let mut next = 0usize;
    loop {
        // Fire every scheduled flush due before the next submission;
        // at a tie the flush fires first (it was scheduled earlier).
        let horizon = schedule.get(next).map(|&(t, _, _)| t);
        match flushes.first().copied() {
            Some((at, dest)) if horizon.is_none_or(|h| at <= h) => {
                flushes.remove(&(at, dest));
                match b.on_flush(at, dest) {
                    FlushOutcome::Stale => {}
                    FlushOutcome::Deferred(later) => {
                        flushes.insert((later, dest));
                    }
                    FlushOutcome::Flushed(batch) => out.push(batch),
                }
            }
            _ => {
                let Some(&(now, dest, id)) = schedule.get(next) else {
                    break;
                };
                next += 1;
                match b.submit(now, dest, id) {
                    Submit::Queued => {}
                    Submit::Arm(at) => {
                        flushes.insert((at, dest));
                    }
                    Submit::Flushed(batch) => out.push(batch),
                }
            }
        }
    }
    (out, b)
}

/// Strategy: a time-sorted schedule of up to 64 transfers over 3
/// destinations, with unique ids in submission order.
fn schedules() -> impl Strategy<Value = Schedule> {
    proptest::collection::vec((0u64..5_000, 1u32..4), 1..64).prop_map(|raw| {
        let mut times: Vec<(u64, u32)> = raw;
        times.sort_unstable();
        times
            .into_iter()
            .enumerate()
            .map(|(i, (t, d))| (SimTime::from_millis(t), ShardId::new(d), i as u64))
            .collect()
    })
}

/// Strategy: up to a few blackout windows per destination, possibly
/// overlapping, spanning the schedule's time range and beyond. Windows
/// are merged per destination (`set_blackouts` replaces, not appends).
fn blackout_plans() -> impl Strategy<Value = Vec<(ShardId, Vec<(SimTime, SimTime)>)>> {
    proptest::collection::vec(
        (
            1u32..4,
            proptest::collection::vec((0u64..6_000, 1u64..4_000), 0..3),
        ),
        0..3,
    )
    .prop_map(|raw| {
        let mut by_dest: std::collections::BTreeMap<ShardId, Vec<(SimTime, SimTime)>> =
            std::collections::BTreeMap::new();
        for (d, windows) in raw {
            by_dest.entry(ShardId::new(d)).or_default().extend(
                windows.into_iter().map(|(from, len)| {
                    (SimTime::from_millis(from), SimTime::from_millis(from + len))
                }),
            );
        }
        by_dest.into_iter().collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn no_transfer_is_lost_or_duplicated(
        schedule in schedules(),
        cap in 1usize..8,
        blackouts in blackout_plans(),
    ) {
        let config = SettleConfig::batched(cap);
        let (batches, b) = drive(&config, &blackouts, &schedule);
        // Everything settled: the batcher drained and the stats agree.
        prop_assert!(b.is_empty());
        prop_assert_eq!(b.stats().txs_settled as usize, schedule.len());
        // Exactly once: flushed ids are a permutation of submitted ids.
        let mut ids: Vec<u64> = batches.iter().flat_map(|x| x.transfers.clone()).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..schedule.len() as u64).collect::<Vec<_>>());
        // And each batch is internally consistent.
        for batch in &batches {
            prop_assert_eq!(batch.source, ShardId::new(0));
            prop_assert!(!batch.transfers.is_empty());
        }
    }

    #[test]
    fn replay_is_bit_identical(
        schedule in schedules(),
        cap in 1usize..8,
        blackouts in blackout_plans(),
    ) {
        let config = SettleConfig::batched(cap);
        let (first, _) = drive(&config, &blackouts, &schedule);
        let (second, _) = drive(&config, &blackouts, &schedule);
        prop_assert_eq!(first, second);
    }

    #[test]
    fn cap_one_is_the_unbatched_ledger_tx_for_tx(schedule in schedules()) {
        let (batches, _) = drive(&SettleConfig::batched(1), &[], &schedule);
        // One batch per submission, at the submission instant, in order.
        prop_assert_eq!(batches.len(), schedule.len());
        for (batch, &(t, dest, id)) in batches.iter().zip(&schedule) {
            prop_assert_eq!(batch.at, t);
            prop_assert_eq!(batch.dest, dest);
            prop_assert_eq!(&batch.transfers, &vec![id]);
        }
        // A disabled config is the same degenerate ledger.
        let (disabled, _) = drive(&SettleConfig::disabled(), &[], &schedule);
        prop_assert_eq!(disabled, batches);
    }

    #[test]
    fn absent_blackouts_no_batch_exceeds_the_cap(
        schedule in schedules(),
        cap in 1usize..8,
    ) {
        let (batches, _) = drive(&SettleConfig::batched(cap), &[], &schedule);
        for batch in &batches {
            prop_assert!(
                batch.transfers.len() <= cap,
                "batch of {} exceeds cap {}", batch.transfers.len(), cap
            );
        }
    }

    #[test]
    fn no_flush_lands_inside_a_blackout(
        schedule in schedules(),
        cap in 1usize..8,
        blackouts in blackout_plans(),
    ) {
        let config = SettleConfig::batched(cap);
        let (batches, _) = drive(&config, &blackouts, &schedule);
        for batch in &batches {
            let blacked = blackouts
                .iter()
                .filter(|(d, _)| *d == batch.dest)
                .flat_map(|(_, ws)| ws)
                .any(|&(from, until)| from <= batch.at && batch.at < until);
            prop_assert!(
                !blacked,
                "batch to {:?} flushed at {:?} inside a blackout", batch.dest, batch.at
            );
        }
    }
}
