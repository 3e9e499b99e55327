//! Property tests for the event queue: the two invariants the shared
//! runtime harness leans on.
//!
//! * Events pop in nondecreasing time order, and events scheduled for the
//!   **same** timestamp fire in insertion (FIFO) order — this is what makes
//!   every run of a [`cshard_sim::EventQueue`]-driven simulation
//!   deterministic regardless of heap internals.
//! * `schedule_in` saturates at `SimTime::MAX` instead of overflowing, so
//!   a pathological delay near the end of representable time schedules an
//!   event "at the end of time" rather than panicking mid-run.
//!
//! The first properties stay within a few dozen events; the last one
//! drives the queue thousands deep against a reference model.

use cshard_primitives::SimTime;
use cshard_sim::EventQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pops_are_time_ordered_and_same_time_is_fifo(
        times in proptest::collection::vec(0u64..1_000, 1..64),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for pair in popped.windows(2) {
            let ((t0, i0), (t1, i1)) = (pair[0], pair[1]);
            prop_assert!(t0 <= t1, "time went backwards: {t0} then {t1}");
            if t0 == t1 {
                // Same timestamp → insertion order (seq) breaks the tie.
                prop_assert!(i0 < i1, "tie at {t0} fired {i0} after {i1}");
            }
        }
        // The popped payloads are a permutation of the scheduled ones.
        let mut ids: Vec<usize> = popped.iter().map(|&(_, i)| i).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..times.len()).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_saturates_instead_of_overflowing(
        start in 1u64..=u64::MAX,
        delay in 1u64..=u64::MAX,
    ) {
        // Advance the clock to `start`…
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(start), "warp");
        q.pop();
        prop_assert_eq!(q.now(), SimTime::from_millis(start));
        // …then ask for a delay that may shoot past u64::MAX.
        q.schedule_in(SimTime::from_millis(delay), "later");
        let (at, _) = q.pop().unwrap();
        let expected = start.checked_add(delay).map_or(SimTime::MAX, SimTime::from_millis);
        prop_assert_eq!(at, expected);
        prop_assert!(at <= SimTime::MAX);
    }

    #[test]
    fn interleaved_reschedules_stay_deterministic(
        seedlings in proptest::collection::vec((0u64..500, 0u64..100), 1..16),
    ) {
        // Two queues driven by the same schedule/pop/reschedule script
        // produce identical traces.
        let run = || {
            let mut q = EventQueue::new();
            for (i, &(t, _)) in seedlings.iter().enumerate() {
                q.schedule(SimTime::from_millis(t), i);
            }
            let mut trace = Vec::new();
            while let Some((t, i)) = q.pop() {
                trace.push((t.as_millis(), i));
                if trace.len() < 256 {
                    if let Some(&(_, redelay)) = seedlings.get(i) {
                        if redelay > 0 && trace.len() % 3 == 0 {
                            q.schedule_in(SimTime::from_millis(redelay), i);
                        }
                    }
                }
            }
            trace
        };
        prop_assert_eq!(run(), run());
    }
}

/// SplitMix64: expands one proptest-drawn seed into a long operation
/// script without asking proptest to generate (and shrink) 40 k values.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A delay drawn the way the runtime's queues see them: mostly inside a
/// narrow millisecond window (heavy ties, as ChainSpace's 2–3 s round
/// latencies give), some at the current instant, a few far in the future
/// and a rare one at the end of time.
fn draw_delay(mix: &mut Mix) -> u64 {
    match mix.below(1_000) {
        0 => u64::MAX,
        1..=10 => 1_000_000 + mix.below(1_000_000_000),
        11..=110 => 0,
        111..=510 => mix.below(4),
        _ => 2_000 + mix.below(1_001),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The queue against a reference model — a binary heap on
    /// `(time, insertion sequence)` — over 40 k interleaved operations that
    /// fill the queue thousands deep and drain it nearly dry, again and
    /// again, so every run crosses the boundary between the sorted front
    /// and the radix buckets in both directions. Every pop, `next_time`,
    /// `len` and clock reading must equal the model's.
    #[test]
    fn deep_queue_matches_a_binary_heap_model(seed in any::<u64>()) {
        const OPS: usize = 40_000;
        let mut mix = Mix(seed);
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let (mut filling, mut target) = (true, 2_000usize);
        let (mut deep_spells, mut was_deep) = (0usize, false);
        for _ in 0..OPS {
            if filling && model.len() >= target {
                filling = false;
                target = mix.below(6) as usize;
            } else if !filling && model.len() <= target {
                filling = true;
                target = 40 + mix.below(4_000) as usize;
            }
            let pop_odds = if filling { 25 } else { 75 };
            match mix.below(100) {
                r if r < pop_odds => {
                    let got = q.pop().map(|(t, e)| (t.as_millis(), e));
                    let want = model.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = want {
                        now = t;
                    }
                }
                r if r < 90 => {
                    let delay = draw_delay(&mut mix);
                    q.schedule_in(SimTime::from_millis(delay), seq);
                    model.push(Reverse((now.saturating_add(delay), seq)));
                    seq += 1;
                }
                _ => {
                    let at = now.saturating_add(draw_delay(&mut mix));
                    q.schedule(SimTime::from_millis(at), seq);
                    model.push(Reverse((at, seq)));
                    seq += 1;
                }
            }
            let want_next = model.peek().map(|Reverse((t, _))| *t);
            prop_assert_eq!(q.next_time().map(|t| t.as_millis()), want_next);
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.now().as_millis(), now);
            if model.len() > 64 {
                was_deep = true;
            } else if was_deep && model.len() <= 4 {
                was_deep = false;
                deep_spells += 1;
            }
        }
        prop_assert!(deep_spells >= 2, "only {deep_spells} deep-to-shallow crossings");
        // Whatever is left drains in model order too.
        while let Some(Reverse(want)) = model.pop() {
            prop_assert_eq!(q.pop().map(|(t, e)| (t.as_millis(), e)), Some(want));
        }
        prop_assert!(q.pop().is_none());
    }
}
