//! Property tests for the shard work scheduler: the invariants the
//! runtime's two-phase harness leans on.
//!
//! * **Admission** — an admitted slot is stepped exactly once, never by
//!   two workers at once, and a skipped slot is never stepped.
//! * **Determinism** — results, errors and [`DrainStats`] are identical at
//!   1 worker, 2, 4 and one-per-core, for arbitrary admission vectors.
//!   Worker scheduling order must never leak into anything observable.
//! * **Error order** — when several slots fail, the lowest slot index wins
//!   at any thread count.
//! * **Panics** — a panicking step propagates out of the drain at any
//!   thread count instead of parking the pool forever.
//! * **The caller is a worker** — a pooled drain that admits one slot
//!   steps it on the calling thread and spawns nothing.
//! * **The pool** — helper threads are reused from drain to drain, a
//!   helper's panic reaches the caller, nested and concurrent drains
//!   neither deadlock nor leak into each other, and a helper that turns
//!   up after its drain is over steps nothing.

use cshard_sim::{DrainStats, SchedulerConfig, Turn, WorkScheduler};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// A slot with `work` pending; `stepped` records how often the scheduler
/// actually ran it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counter {
    work: u64,
    stepped: u64,
}

/// Drains `works`, admitting the slots with work; each step takes all of
/// a slot's work at once.
fn drain_counters(works: &[u64], config: SchedulerConfig) -> (Vec<Counter>, DrainStats) {
    let slots: Vec<Counter> = works
        .iter()
        .map(|&work| Counter { work, stepped: 0 })
        .collect();
    WorkScheduler::new(config)
        .drain(
            slots,
            |c: &Counter| c.work > 0,
            |_, c| {
                c.stepped += 1;
                c.work = 0;
                Ok::<_, std::convert::Infallible>(Turn::Done)
            },
        )
        .expect("infallible drain")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Admitted slots are stepped exactly once; skipped slots are never
    /// stepped; one turn per admitted slot, so `turns == scheduled`.
    #[test]
    fn admitted_slots_step_once_and_skipped_slots_are_untouched(
        works in proptest::collection::vec(0u64..6, 1..40),
        threads in 0usize..6,
    ) {
        let (out, stats) = drain_counters(&works, SchedulerConfig::new(threads));
        let busy = works.iter().filter(|&&w| w > 0).count() as u64;
        prop_assert_eq!(stats.scheduled, busy);
        prop_assert_eq!(stats.skipped, works.len() as u64 - busy);
        prop_assert_eq!(stats.turns, stats.scheduled);
        for (i, (c, &w)) in out.iter().zip(&works).enumerate() {
            prop_assert_eq!(c.work, 0, "slot {} not drained", i);
            prop_assert_eq!(c.stepped, u64::from(w > 0), "slot {} stepped a wrong number of times", i);
        }
    }

    /// The full observable surface — results and drain stats — is
    /// identical at every worker count.
    #[test]
    fn drains_are_identical_across_thread_counts(
        works in proptest::collection::vec(0u64..8, 1..32),
    ) {
        let sequential = drain_counters(&works, SchedulerConfig::sequential());
        for threads in [2usize, 4, 0] {
            let parallel = drain_counters(&works, SchedulerConfig::new(threads));
            prop_assert_eq!(&sequential, &parallel, "threads={}", threads);
        }
    }

    /// When several slots error, the lowest slot index wins — the
    /// first-input-order error, not the first error in wall-clock order —
    /// and every thread count agrees on it.
    #[test]
    fn lowest_slot_error_wins_at_any_thread_count(
        fail in proptest::collection::vec(proptest::bool::ANY, 2..24),
        forced in 0usize..24,
        threads in 0usize..6,
    ) {
        // Guarantee at least one failing slot without discarding cases.
        let mut fail = fail;
        let forced = forced % fail.len();
        fail[forced] = true;
        let run = |config: SchedulerConfig| {
            WorkScheduler::new(config)
                .drain(
                    fail.clone(),
                    |_| true,
                    |i, f| if *f { Err(i) } else { Ok(Turn::Done) },
                )
                .expect_err("some slot fails")
        };
        let expected = fail.iter().position(|&f| f).expect("one forced failure");
        prop_assert_eq!(run(SchedulerConfig::sequential()), expected);
        prop_assert_eq!(run(SchedulerConfig::new(threads)), expected);
    }
}

/// Each of 24 slots is stepped exactly once under 8 workers: never by two
/// workers at once (the entry/exit flag would trip), never twice (the
/// per-slot count would exceed one), never skipped.
#[test]
fn each_slot_steps_exactly_once_under_eight_workers() {
    const SLOTS: usize = 24;
    let in_step: Vec<AtomicBool> = (0..SLOTS).map(|_| AtomicBool::new(false)).collect();
    let total_steps = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&total_steps);
    let (out, stats) = WorkScheduler::new(SchedulerConfig::new(8))
        .drain(
            vec![0u64; SLOTS],
            |_| true,
            move |i, stepped| {
                let was = in_step[i].swap(true, Ordering::SeqCst);
                assert!(!was, "slot {i} entered by two workers at once");
                counted.fetch_add(1, Ordering::SeqCst);
                *stepped += 1;
                in_step[i].store(false, Ordering::SeqCst);
                Ok::<_, std::convert::Infallible>(Turn::Done)
            },
        )
        .expect("infallible drain");
    assert_eq!(out, vec![1; SLOTS], "every slot stepped exactly once");
    assert_eq!(total_steps.load(Ordering::SeqCst), SLOTS as u64);
    assert_eq!(stats.turns, SLOTS as u64);
    assert_eq!(stats.scheduled, SLOTS as u64);
    assert_eq!(stats.skipped, 0);
}

/// A step that panics must come out of `drain` as a panic. Before the
/// unwind guard, the pooled path never decremented `live` for the
/// panicking slot: peers parked on the condvar forever and the drain
/// never returned. The drain runs on a helper thread so a regression
/// fails this test on the timeout instead of hanging the suite.
#[test]
fn panicking_step_propagates_instead_of_hanging_the_pool() {
    for threads in [2usize, 4, 0] {
        let (done, waited) = mpsc::channel();
        std::thread::spawn(move || {
            let drained = std::panic::catch_unwind(|| {
                WorkScheduler::new(SchedulerConfig::new(threads)).drain(
                    vec![0u32; 8],
                    |_| true,
                    |i, _| {
                        if i == 0 {
                            panic!("step 0 panics");
                        }
                        Ok::<_, std::convert::Infallible>(Turn::Done)
                    },
                )
            });
            // The receiver may have timed out and gone; nothing to do then.
            let _ = done.send(drained.is_err());
        });
        let panicked = waited
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("threads={threads}: drain hung on a panicking step"));
        assert!(panicked, "threads={threads}: the panic was swallowed");
    }
}

/// The draining thread is the pool's last worker: with one admitted slot
/// of several the pool is one worker wide, which is the caller itself —
/// the step runs on the calling `ThreadId`, nothing is spawned — and the
/// stats are the ones every other thread count reports.
#[test]
fn single_admitted_slot_runs_on_the_calling_thread() {
    let run = |threads: usize| -> (Vec<(bool, Vec<ThreadId>)>, DrainStats) {
        let slots: Vec<(bool, Vec<ThreadId>)> = [false, false, true, false, false]
            .iter()
            .map(|&busy| (busy, Vec::new()))
            .collect();
        WorkScheduler::new(SchedulerConfig::new(threads))
            .drain(
                slots,
                |(busy, _)| *busy,
                |_, (_, ran_on)| {
                    ran_on.push(std::thread::current().id());
                    Ok::<_, std::convert::Infallible>(Turn::Done)
                },
            )
            .expect("infallible drain")
    };
    let me = std::thread::current().id();
    let sequential = run(1);
    assert_eq!(sequential.1.scheduled, 1);
    assert_eq!(sequential.1.skipped, 4);
    assert_eq!(sequential.1.turns, 1);
    let steps: Vec<usize> = sequential.0.iter().map(|(_, ran)| ran.len()).collect();
    assert_eq!(steps, [0, 0, 1, 0, 0]);
    assert_eq!(sequential.0[2].1, vec![me]);
    for threads in [2usize, 4, 0] {
        // Equal slots means equal `ThreadId`s: every pooled turn ran here.
        assert_eq!(run(threads), sequential, "threads={threads}");
    }
}

/// Runs `f` on a thread of its own, so a pool regression fails the test on
/// a timeout instead of hanging the suite.
fn within_30s<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (done, waited) = mpsc::channel();
    std::thread::spawn(move || {
        // The receiver may have timed out and gone; nothing to do then.
        let _ = done.send(f());
    });
    waited
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what}: hung or panicked"))
}

/// Holds a step until `parties` steps of one drain are inside it at once.
/// Each slot is claimed once and a thread runs one step at a time,
/// so this returns only when that many distinct threads work the drain.
fn rendezvous(inside: &AtomicUsize, parties: usize) {
    inside.fetch_add(1, Ordering::SeqCst);
    while inside.load(Ordering::SeqCst) < parties {
        std::thread::yield_now();
    }
}

/// A two-slot drain at `threads: 2` that provably runs on two threads,
/// each recording its id once (`ThreadId` has no order, so the distinct
/// ids are a `Vec`).
fn two_party_drain(ids: &Arc<Mutex<Vec<ThreadId>>>) {
    let (ids, inside) = (Arc::clone(ids), AtomicUsize::new(0));
    WorkScheduler::new(SchedulerConfig::new(2))
        .drain(
            vec![(); 2],
            |_| true,
            move |_, _| {
                // The guard drops before the rendezvous, or the other
                // step would wait on the lock while this one waits on it.
                {
                    let id = std::thread::current().id();
                    let mut ids = ids.lock().expect("id lock");
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                rendezvous(&inside, 2);
                Ok::<_, std::convert::Infallible>(Turn::Done)
            },
        )
        .expect("infallible drain");
}

/// The widest pool any drain in this file can ask for: the largest
/// explicit `threads` below, or the core count for `threads: 0`. The pool
/// is process-wide and the tests of this file share it.
fn widest_pool() -> usize {
    16.max(SchedulerConfig::per_core().worker_count())
}

/// Helpers are parked between drains, not minted per drain: a thousand
/// pooled drains, each provably two threads wide, meet no more thread ids
/// than the pool can hold (two, when this test runs alone). With a thread
/// spawned per drain they meet a thousand and one.
#[test]
fn pooled_drains_reuse_their_threads() {
    let seen = within_30s("1000 pooled drains", || {
        let ids = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..1000 {
            two_party_drain(&ids);
        }
        let seen = ids.lock().expect("id lock").len();
        seen
    });
    assert!(seen >= 2, "a helper took part in every drain");
    assert!(
        seen <= widest_pool(),
        "{seen} distinct threads over 1000 drains: helpers are not reused"
    );
}

/// A panic on a helper thread is the drain's panic. Both steps are held
/// until both are running, so a thread other than the caller provably has
/// a slot; that one panics. The pool must still serve the next drain.
#[test]
fn a_helpers_panic_propagates_to_the_caller() {
    let panicked = within_30s("drain with a panicking helper", || {
        let caller = std::thread::current().id();
        let inside = AtomicUsize::new(0);
        std::panic::catch_unwind(|| {
            WorkScheduler::new(SchedulerConfig::new(2)).drain(
                vec![(); 2],
                |_| true,
                move |_, _| {
                    rendezvous(&inside, 2);
                    if std::thread::current().id() != caller {
                        panic!("the helper's step panics");
                    }
                    Ok::<_, std::convert::Infallible>(Turn::Done)
                },
            )
        })
        .is_err()
    });
    assert!(panicked, "the helper's panic was swallowed");
    within_30s("drain after a helper panicked", || {
        two_party_drain(&Arc::new(Mutex::new(Vec::new())));
    });
}

/// Helpers are optional: a drain started from inside a pooled task, and
/// many threads draining at once, finish (the caller alone can always
/// finish its own job) with the sequential results and stats.
#[test]
fn nested_and_concurrent_drains_match_sequential() {
    let works: Vec<Vec<u64>> = (0..8u64)
        .map(|k| (0..12 + k).map(|i| (i * 5 + k) % 7).collect())
        .collect();
    let expected: Vec<_> = works
        .iter()
        .map(|w| drain_counters(w, SchedulerConfig::sequential()))
        .collect();

    let nested = within_30s("nested drains", {
        let works = works.clone();
        || {
            WorkScheduler::new(SchedulerConfig::new(4))
                .map(works, |_, w| drain_counters(&w, SchedulerConfig::new(2)))
        }
    });
    assert_eq!(nested, expected);

    let concurrent = within_30s("concurrent drains", move || {
        let threads: Vec<_> = works
            .into_iter()
            .map(|w| {
                std::thread::spawn(move || {
                    let first = drain_counters(&w, SchedulerConfig::new(4));
                    for _ in 0..50 {
                        assert_eq!(drain_counters(&w, SchedulerConfig::new(4)), first);
                    }
                    first
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("draining thread"))
            .collect::<Vec<_>>()
    });
    assert_eq!(concurrent, expected);
}

/// A helper that picks its ticket up after the drain is over must step
/// nothing: sixteen slots invite fifteen helpers, most of which arrive
/// late or never. Every slot is stepped exactly once — `Counter::stepped`
/// would read 2 after a second step — drain after drain.
#[test]
fn late_helpers_step_nothing() {
    let works = vec![1u64; 16];
    let expected = drain_counters(&works, SchedulerConfig::sequential());
    within_30s("back-to-back wide drains", move || {
        for _ in 0..500 {
            assert_eq!(drain_counters(&works, SchedulerConfig::new(16)), expected);
        }
    });
}
