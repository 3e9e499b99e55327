//! The event queue at the heart of the simulator.
//!
//! Simulated time never rewinds (`schedule` refuses the past) and ties
//! fire in insertion order, so the queue's keys only ever grow: every
//! event scheduled is at or after the last one popped. That is the case a
//! radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, J. ACM 1990) is built for
//! — an event is filed by the highest bit in which its time differs from
//! the clock, and a pop only re-files the one bucket that holds the next
//! time — so a pop costs the same on a queue of 20 k pending events as on
//! one of 20. Queues that stay tiny (a contract shard holds one to three
//! miner ticks) never build the buckets: they keep a short sorted `Vec`.

use cshard_primitives::SimTime;
use std::collections::VecDeque;

/// Pending events the sorted front holds before the queue moves them into
/// radix buckets.
const SMALL: usize = 32;

/// A deep queue that drains to this many pending events moves back into
/// the sorted front (a quarter of [`SMALL`], so a queue hovering at the
/// boundary does not move on every operation).
const SHALLOW: usize = SMALL / 4;

/// A time-ordered event queue with deterministic tie-breaking: events pop
/// by time, and events at one time pop in the order they were scheduled.
#[derive(Debug)]
pub struct EventQueue<E> {
    now: SimTime,
    /// Pending events while the queue is shallow, latest first, with ties
    /// in reverse insertion order: the next event is `small.last()`.
    /// Empty while `deep` holds events.
    small: Vec<(SimTime, E)>,
    /// Radix buckets, built the first time the queue outgrows [`SMALL`]
    /// and kept (with their capacity) across later shallow spells.
    deep: Option<Box<Radix<E>>>,
}

/// The radix buckets relative to the queue's clock. Bucket `b` holds the
/// events whose time differs from `now` in bit `b` and in no higher bit;
/// `at_now` holds the events at `now` exactly, so it stores no times.
///
/// Within a bucket, events of one time keep their insertion order: a
/// schedule appends, and a pop re-files the lowest occupied bucket, in
/// order, into buckets that are all empty. Events of one time always share
/// a bucket (the bucket is a function of the time and the clock), so that
/// order is the queue's tie order.
#[derive(Debug)]
struct Radix<E> {
    at_now: VecDeque<E>,
    buckets: [Vec<(SimTime, E)>; 64],
    /// Earliest time in each occupied bucket: `next_time` reads it in O(1).
    mins: [SimTime; 64],
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: u64,
    len: usize,
}

impl<E> Radix<E> {
    fn new() -> Self {
        Radix {
            at_now: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [SimTime::MAX; 64],
            occupied: 0,
            len: 0,
        }
    }

    /// Files `event` at `at ≥ now`.
    fn push(&mut self, now: SimTime, at: SimTime, event: E) {
        self.len += 1;
        self.file(now, at, event);
    }

    fn file(&mut self, now: SimTime, at: SimTime, event: E) {
        let diff = at.0 ^ now.0;
        if diff == 0 {
            self.at_now.push_back(event);
            return;
        }
        let b = (63 - diff.leading_zeros()) as usize;
        let bit = 1u64 << b;
        if self.occupied & bit == 0 || at < self.mins[b] {
            self.mins[b] = at;
        }
        self.occupied |= bit;
        self.buckets[b].push((at, event));
    }

    fn next_time(&self, now: SimTime) -> Option<SimTime> {
        if !self.at_now.is_empty() {
            return Some(now);
        }
        (self.occupied != 0).then(|| self.mins[self.occupied.trailing_zeros() as usize])
    }

    /// Pops the earliest event, advancing `now` to it.
    fn pop(&mut self, now: &mut SimTime) -> Option<E> {
        if self.at_now.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            // Every bucket below `b` is empty, so re-filing `b` against its
            // own minimum moves each event strictly lower.
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            *now = self.mins[b];
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            for (at, event) in bucket.drain(..) {
                self.file(*now, at, event);
            }
            self.buckets[b] = bucket;
        }
        self.len -= 1;
        self.at_now.pop_front()
    }

    /// Moves every event into `small`'s order (latest first, ties in
    /// reverse insertion order), leaving the buckets empty.
    fn drain_into(&mut self, now: SimTime, small: &mut Vec<(SimTime, E)>) {
        small.extend(self.at_now.drain(..).map(|e| (now, e)));
        let mut occupied = self.occupied;
        while occupied != 0 {
            let b = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            small.append(&mut self.buckets[b]);
        }
        self.occupied = 0;
        self.len = 0;
        // Stable: each time's events arrive from one bucket in insertion
        // order, so sorting ascending and reversing yields `small`'s order.
        small.sort_by_key(|&(at, _)| at);
        small.reverse();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            small: Vec::new(),
            deep: None,
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The radix buckets, when they hold the queue's events.
    fn deep(&self) -> Option<&Radix<E>> {
        self.deep.as_deref().filter(|r| r.len > 0)
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics when `at` is in the past — a simulation must never rewind.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let now = self.now;
        if let Some(radix) = self.deep.as_deref_mut().filter(|r| r.len > 0) {
            radix.push(now, at, event);
        } else if self.small.len() < SMALL {
            // Pops after every pending event at a time ≤ `at` (its ties
            // included) and before the rest.
            let i = self.small.partition_point(|&(t, _)| t > at);
            self.small.insert(i, (at, event));
        } else {
            let radix = self.deep.get_or_insert_with(|| Box::new(Radix::new()));
            for (t, e) in self.small.drain(..).rev() {
                radix.push(now, t, e);
            }
            radix.push(now, at, event);
        }
    }

    /// Schedules `event` after a delay from the current time.
    ///
    /// The target time saturates at [`SimTime::MAX`] rather than
    /// overflowing, so a pathological delay (e.g. an astronomically
    /// unlucky exponential draw) schedules "at the end of time" instead
    /// of panicking mid-run.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now.saturating_add(delay), event);
    }

    /// Pops the earliest event and advances the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(radix) = self.deep.as_deref_mut().filter(|r| r.len > 0) {
            let event = radix.pop(&mut self.now)?;
            if radix.len <= SHALLOW {
                radix.drain_into(self.now, &mut self.small);
            }
            return Some((self.now, event));
        }
        let (at, event) = self.small.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.deep().map_or(self.small.len(), |r| r.len)
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peeks at the time of the next event without popping it.
    pub fn next_time(&self) -> Option<SimTime> {
        match self.deep() {
            Some(radix) => radix.next_time(self.now),
            None => self.small.last().map(|&(at, _)| at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(SimTime::from_millis(5), label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn deep_ties_fire_in_insertion_order() {
        // Far past the sorted front: the radix buckets keep the tie order.
        let mut q = EventQueue::new();
        for i in 0..1_000u32 {
            q.schedule(SimTime::from_millis(u64::from(i % 7)), i);
        }
        assert_eq!(q.len(), 1_000);
        let popped: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_millis(), e))).collect();
        let mut expected: Vec<(u64, u32)> = (0..1_000).map(|i| (u64::from(i % 7), i)).collect();
        expected.sort_unstable();
        assert_eq!(popped, expected);
        assert!(q.is_empty());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(100), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.next_time(), Some(SimTime::from_millis(100)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(100));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(50), 1u32);
        q.pop();
        q.schedule_in(SimTime::from_millis(25), 2u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(75));
        assert_eq!(e, 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(100), ());
        q.pop();
        q.schedule(SimTime::from_millis(50), ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics_when_deep() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_millis(100 + i), ());
        }
        q.pop();
        q.schedule(SimTime::from_millis(50), ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        // Drive two identical queues with the same operations; outcomes match.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.schedule(SimTime::from_millis(10), 0u32);
            q.schedule(SimTime::from_millis(10), 1u32);
            while let Some((t, e)) = q.pop() {
                out.push((t.as_millis(), e));
                if e < 4 {
                    q.schedule_in(SimTime::from_millis(5), e + 2);
                }
            }
            out
        };
        assert_eq!(run(), run());
    }
}
