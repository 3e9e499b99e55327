//! The shard work scheduler.
//!
//! The old `Executor` (since removed) fanned a *fixed* task set out: every shard
//! paid a task slot per phase whether or not it had queued work. This
//! scheduler replaces that with shard-granular admission, the shape
//! execution-sharding designs (Katana-style engines, Shard Scheduler) use
//! to reach thousands of shards:
//!
//! * only slots (one shard's task each) that *have work* — the caller's
//!   admission predicate — are admitted; idle shards are skipped and
//!   counted, never stepped;
//! * each admitted slot is stepped exactly once: a shard's run within one
//!   drain is one indivisible turn, because shard chains confirm disjoint
//!   transaction sets and never interact mid-phase;
//! * a worker pool sized to the machine (`threads: 0` = one worker per
//!   core) claims admitted slots through one shared cursor — the calling
//!   thread is one of the workers, so a drain over `w` workers offers its
//!   job to `w − 1` parked helper threads (see "Pool") and a drain that
//!   admits one slot offers it to none;
//! * the scheduled and skipped counts come back in [`DrainStats`], so
//!   idle-shard savings are a measured number.
//!
//! # Determinism
//!
//! The scheduler preserves the workspace's bit-identity contract the same
//! way the executor did, by construction: slots never share mutable
//! state, so a slot's trajectory is a pure function of its own inputs and
//! cannot observe which worker ran it, when, or in what interleaving.
//! Worker scheduling order decides only *wall-clock* placement. The
//! sequential path (`threads <= 1`) steps slots in index order on the
//! caller's thread and runs the *same* step code, so any thread count
//! yields bit-identical slot states — and identical [`DrainStats`], since
//! admission is evaluated once, in slot order, before any worker starts.
//!
//! # Pool
//!
//! Helper threads are process-wide and long-lived: one private static
//! pool, started by the first pooled drain, grown to the largest helper
//! count any drain has asked for (at most its admitted slots − 1, so a
//! huge `threads` cannot inflate it), never shrunk, and never touched at
//! `threads: 1`. Helpers outlive every call, so a pooled drain moves its
//! slots, step closure and error list into one `Arc`'d job (hence the
//! `'static` bounds), queues a ticket per wanted helper, and then *works
//! the job itself*. Helpers are optional — the caller alone always
//! finishes its job — so nested drains, many threads draining at once or
//! a pool busy elsewhere cannot deadlock. A helper leaves a job once the
//! cursor has passed the last admitted slot; one that turns up after the
//! drain is over steps nothing. The caller takes unclaimed tickets back.
//!
//! Parking and waking a thread costs about as much as a paper-scale
//! drain, so a helper waiting for a ticket and a caller waiting for the
//! last running slot spin for a *counted* number of iterations before
//! they park on a plain `Condvar` wait — a count, never a duration: the
//! scheduler reads no clock (ND001).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, OnceLock};

/// How a run is scheduled: the worker pool size.
///
/// This is the one configuration surface the whole workspace threads
/// through — `RuntimeConfig`, `SystemBuilder::threads`, and the bench
/// grids all consume it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Worker threads: `1` runs slots inline on the caller's thread
    /// (sequential, the default), `0` uses one worker per available core,
    /// any other value is an explicit pool size. Results are bit-identical
    /// across all settings.
    pub threads: usize,
}

impl SchedulerConfig {
    /// A scheduler over `threads` workers.
    pub fn new(threads: usize) -> Self {
        SchedulerConfig { threads }
    }

    /// The sequential scheduler (slots step inline, in index order).
    pub fn sequential() -> Self {
        SchedulerConfig::new(1)
    }

    /// One worker per available core.
    pub fn per_core() -> Self {
        SchedulerConfig::new(0)
    }

    /// The worker count this configuration resolves to (`0` → the number
    /// of available cores, asked of the OS once per process).
    pub fn worker_count(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        if self.threads == 0 {
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        } else {
            self.threads
        }
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::sequential()
    }
}

/// What a slot's step returns. Retired to its one variant: every
/// admitted slot is stepped exactly once. Kept only because the
/// benchmark harness names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Turn {
    /// The slot's work for this drain is finished.
    Done,
}

/// What one [`WorkScheduler::drain`] measured. Deliberately sim-clock-free
/// and wall-clock-free (ND001): pure scheduling arithmetic,
/// identical at any thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Slots admitted and stepped (they had work).
    pub scheduled: u64,
    /// Slots whose admission predicate was false: never stepped — the
    /// idle-shard saving, as a number.
    pub skipped: u64,
    /// Scheduled turns: always equal to `scheduled`, one turn per
    /// admitted slot. Kept only because the benchmark harness reads it.
    pub turns: u64,
}

impl DrainStats {
    fn new(scheduled: usize, skipped: usize) -> Self {
        DrainStats {
            scheduled: scheduled as u64,
            skipped: skipped as u64,
            turns: scheduled as u64,
        }
    }
}

/// Spin iterations before a waiting worker parks (see "Pool"): about one
/// park-and-wake round trip, tens of microseconds.
const SPINS: usize = 4096;

/// Spins until `ready()` or the iteration budget runs out.
fn spin_until(ready: impl Fn() -> bool) {
    for _ in 0..SPINS {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
}

/// One pooled drain, shared by the caller and the helpers it invited.
struct Job<T, E, F> {
    /// Every slot's item, taken back by the caller once the drain is over.
    slots: Vec<Mutex<Option<T>>>,
    /// The admitted slot indices, in slot order.
    admitted: Vec<usize>,
    /// The next entry of `admitted` to claim: one `fetch_add` per claim,
    /// so each admitted slot is stepped exactly once.
    cursor: AtomicUsize,
    step: F,
    /// Admitted slots not yet stepped to the end: the drain is over at
    /// zero, not when the cursor runs out (a helper may still be stepping).
    live: AtomicUsize,
    /// Where the caller parks until `live` reaches zero.
    parked: Mutex<()>,
    finished: Condvar,
    errors: Mutex<Vec<(usize, E)>>,
    /// The first panic payload any worker's step raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, E, F: Fn(usize, &mut T) -> Result<Turn, E>> Job<T, E, F> {
    fn over(&self) -> bool {
        self.live.load(Ordering::SeqCst) == 0
    }

    /// The worker loop: claim the next admitted slot and step it, until
    /// the cursor has passed the last one. A helper (`helper == true`)
    /// then leaves; the caller waits for slots still running on helpers.
    fn work(&self, helper: bool) {
        while let Some(&i) = self
            .admitted
            .get(self.cursor.fetch_add(1, Ordering::SeqCst))
        {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut item = self.slots[i].lock().expect("slot lock");
                (self.step)(i, item.as_mut().expect("slot taken mid-drain"))
            }));
            match outcome {
                Ok(Ok(Turn::Done)) => {}
                Ok(Err(e)) => self.errors.lock().expect("error lock").push((i, e)),
                // Recorded *before* the slot retires: a caller that sees
                // the drain over also sees the panic, and never hands a
                // half-stepped slot back.
                Err(payload) => {
                    let mut first = self.panic.lock().expect("panic lock");
                    first.get_or_insert(payload);
                }
            }
            // The last slot out wakes a parked caller (the lock orders the
            // wake against its failed check and wait).
            if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _parked = self.parked.lock().expect("park lock");
                self.finished.notify_all();
            }
        }
        if helper {
            return;
        }
        spin_until(|| self.over());
        let mut parked = self.parked.lock().expect("park lock");
        while !self.over() {
            parked = self.finished.wait(parked).expect("park wait");
        }
    }
}

/// A queued invitation to help with one job.
type Ticket = Arc<dyn Fn() + Send + Sync>;

/// The process-wide helper threads (see "Pool").
#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
    /// `state.tickets.len()`, mirrored so a spinning helper polls no lock.
    pending: AtomicUsize,
}

#[derive(Default)]
struct PoolState {
    tickets: VecDeque<Ticket>,
    helpers: usize,
}

static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);

impl Pool {
    /// Queues `helpers` copies of `ticket`, growing the pool to that many
    /// threads first.
    fn offer(&self, ticket: &Ticket, helpers: usize) {
        let mut state = self.state.lock().expect("pool lock");
        while state.helpers < helpers {
            // Detached on purpose: helpers live as long as the process
            // and never unwind (every step's panic is caught in `work`).
            std::thread::spawn(|| POOL.help());
            state.helpers += 1;
        }
        let copies = std::iter::repeat_n(ticket, helpers).cloned();
        state.tickets.extend(copies);
        self.pending.store(state.tickets.len(), Ordering::SeqCst);
        for _ in 0..helpers {
            self.wake.notify_one();
        }
    }

    /// Takes back the copies of `ticket` no helper claimed.
    fn withdraw(&self, ticket: &Ticket) {
        let mut state = self.state.lock().expect("pool lock");
        state.tickets.retain(|t| !Arc::ptr_eq(t, ticket));
        self.pending.store(state.tickets.len(), Ordering::SeqCst);
    }

    /// A helper thread's life: claim a ticket (spin, then park), run it.
    fn help(&self) -> ! {
        loop {
            spin_until(|| self.pending.load(Ordering::SeqCst) > 0);
            let ticket = {
                let mut state = self.state.lock().expect("pool lock");
                loop {
                    if let Some(ticket) = state.tickets.pop_front() {
                        self.pending.store(state.tickets.len(), Ordering::SeqCst);
                        break ticket;
                    }
                    state = self.wake.wait(state).expect("pool wait");
                }
            };
            ticket();
        }
    }
}

/// The shard work scheduler: admitted slots claimed once each by a fixed
/// worker pool. See the module docs for admission and the determinism
/// argument.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkScheduler {
    config: SchedulerConfig,
}

impl WorkScheduler {
    /// A scheduler with the given configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        WorkScheduler { config }
    }

    /// The configuration this scheduler runs under.
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// The resolved worker count (see [`SchedulerConfig::worker_count`]).
    pub fn workers(&self) -> usize {
        self.config.worker_count()
    }

    /// Drains every slot that has work, returning the slots (in input
    /// order) and the drain's scheduling statistics.
    ///
    /// * `admit` is evaluated once per slot, up front, in slot order: a
    ///   `true` slot is admitted; a `false` slot is counted skipped and
    ///   never stepped.
    /// * `step` runs an admitted slot's whole turn, exactly once.
    ///
    /// # Errors
    ///
    /// A step error retires the slot (no early abort: every other admitted
    /// slot still drains, exactly as the old executor ran every task
    /// before reporting) and the drain returns the erroring slot with the
    /// *lowest index* — deterministic at any thread count.
    ///
    /// # Panics
    ///
    /// A panicking `step` propagates at any thread count, whichever
    /// worker ran it: the pooled path catches it around the step, records
    /// the payload (the first wins) *before* the slot retires, drains the
    /// remaining slots, and re-raises it on the calling thread — no helper
    /// is inside a step when the panic leaves `drain`, and helper threads
    /// survive.
    pub fn drain<T, E, A, F>(
        &self,
        slots: Vec<T>,
        admit: A,
        step: F,
    ) -> Result<(Vec<T>, DrainStats), E>
    where
        T: Send + 'static,
        E: Send + 'static,
        A: Fn(&T) -> bool,
        F: Fn(usize, &mut T) -> Result<Turn, E> + Send + Sync + 'static,
    {
        let n = slots.len();
        let workers = self.workers();
        if workers <= 1 || n <= 1 {
            return Self::drain_sequential(slots, admit, step);
        }

        // Admission, in slot order.
        let admitted: Vec<usize> = (0..n).filter(|&i| admit(&slots[i])).collect();
        let stats = DrainStats::new(admitted.len(), n - admitted.len());
        // The calling thread plus `helpers` invited ones: the caller
        // works instead of parking, and one admitted slot invites nobody.
        let helpers = workers.min(admitted.len()).saturating_sub(1);
        let job = Arc::new(Job {
            slots: slots
                .into_iter()
                .map(|item| Mutex::new(Some(item)))
                .collect(),
            cursor: AtomicUsize::new(0),
            step,
            live: AtomicUsize::new(admitted.len()),
            admitted,
            parked: Mutex::new(()),
            finished: Condvar::new(),
            errors: Mutex::new(Vec::new()),
            panic: Mutex::new(None),
        });

        let ticket: Ticket = Arc::new({
            let job = Arc::clone(&job);
            move || job.work(true)
        });
        POOL.offer(&ticket, helpers);
        job.work(false);
        POOL.withdraw(&ticket);

        if let Some(payload) = job.panic.lock().expect("panic lock").take() {
            resume_unwind(payload);
        }
        let mut errors = std::mem::take(&mut *job.errors.lock().expect("error lock"));
        if let Some(lowest) = (0..errors.len()).min_by_key(|&k| errors[k].0) {
            return Err(errors.swap_remove(lowest).1);
        }
        let out = (job.slots.iter())
            .map(|slot| {
                slot.lock()
                    .expect("slot lock")
                    .take()
                    .expect("slot taken once")
            })
            .collect();
        Ok((out, stats))
    }

    /// The inline path: slots step in index order on the caller's thread,
    /// through the same admission as the pool, so the results (and the
    /// [`DrainStats`]) are bit-identical.
    fn drain_sequential<T, E, A, F>(
        mut slots: Vec<T>,
        admit: A,
        step: F,
    ) -> Result<(Vec<T>, DrainStats), E>
    where
        A: Fn(&T) -> bool,
        F: Fn(usize, &mut T) -> Result<Turn, E>,
    {
        let mut scheduled = 0;
        let mut first_error = None;
        for (i, slot) in slots.iter_mut().enumerate() {
            if !admit(slot) {
                continue;
            }
            scheduled += 1;
            // Record and keep draining the remaining slots — the pool
            // path runs every admitted slot too.
            if let Err(e) = step(i, slot) {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => {
                let stats = DrainStats::new(scheduled, slots.len() - scheduled);
                Ok((slots, stats))
            }
        }
    }

    /// Applies `task` to every item, returning results in input order —
    /// the old `Executor::run` shape, expressed as a drain where every
    /// item is one slot. Grid sweeps (independent experiment points) use
    /// this.
    ///
    /// # Panics
    /// A panicking task aborts the whole run (the panic propagates).
    pub fn map<T, R, F>(&self, items: Vec<T>, task: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        enum MapSlot<T, R> {
            Input(T),
            Output(R),
            Taken,
        }
        let slots: Vec<MapSlot<T, R>> = items.into_iter().map(MapSlot::Input).collect();
        let run = self.drain(
            slots,
            |_| true,
            move |i, slot| {
                let MapSlot::Input(item) = std::mem::replace(slot, MapSlot::Taken) else {
                    unreachable!("map slot stepped twice");
                };
                *slot = MapSlot::Output(task(i, item));
                Ok::<Turn, std::convert::Infallible>(Turn::Done)
            },
        );
        let (slots, _) = match run {
            Ok(done) => done,
            Err(never) => match never {},
        };
        slots
            .into_iter()
            .map(|slot| match slot {
                MapSlot::Output(r) => r,
                _ => unreachable!("map slot never produced"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains slots that count their steps, admitting those with `work`.
    fn drain_counters(threads: usize, work: &[u64]) -> (Vec<u64>, DrainStats) {
        let slots: Vec<(u64, u64)> = work.iter().map(|&w| (w, 0)).collect();
        let sched = WorkScheduler::new(SchedulerConfig::new(threads));
        let (slots, stats) = sched
            .drain(
                slots,
                |&(work, _)| work > 0,
                |_, (_, stepped)| {
                    *stepped += 1;
                    Ok::<Turn, std::convert::Infallible>(Turn::Done)
                },
            )
            .expect("infallible");
        (
            slots.into_iter().map(|(_, stepped)| stepped).collect(),
            stats,
        )
    }

    #[test]
    fn skipped_slots_are_never_stepped_and_counted() {
        let (stepped, stats) = drain_counters(4, &[3, 0, 1, 0, 0, 5]);
        assert_eq!(stepped, vec![1, 0, 1, 0, 0, 1]);
        assert_eq!(stats.scheduled, 3);
        assert_eq!(stats.skipped, 3);
        assert_eq!(stats.turns, 3);
    }

    #[test]
    fn stats_are_identical_across_thread_counts() {
        let work: Vec<u64> = (0..40).map(|i| i % 7).collect();
        let seq = drain_counters(1, &work);
        for threads in [2, 4, 8, 0] {
            assert_eq!(drain_counters(threads, &work), seq, "threads={threads}");
        }
    }

    #[test]
    fn first_slot_order_error_wins_at_any_thread_count() {
        for threads in [1, 4, 0] {
            let sched = WorkScheduler::new(SchedulerConfig::new(threads));
            let err = sched
                .drain(
                    vec![0u32; 16],
                    |_| true,
                    |i, _| {
                        if i % 3 == 1 {
                            Err(i)
                        } else {
                            Ok(Turn::Done)
                        }
                    },
                )
                .unwrap_err();
            assert_eq!(err, 1, "threads={threads}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let sched = WorkScheduler::new(SchedulerConfig::new(4));
        let out = sched.map((0..100).collect(), |i, x: u64| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let sched = WorkScheduler::new(SchedulerConfig::per_core());
        let empty: Vec<u32> = sched.map(Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(sched.map(vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn zero_resolves_to_machine_width() {
        assert!(SchedulerConfig::per_core().worker_count() >= 1);
        assert_eq!(SchedulerConfig::new(3).worker_count(), 3);
    }

    #[test]
    fn all_slots_idle_is_a_no_op_drain() {
        let (stepped, stats) = drain_counters(4, &[0, 0, 0, 0]);
        assert_eq!(stepped, vec![0; 4]);
        assert_eq!(stats.scheduled, 0);
        assert_eq!(stats.skipped, 4);
        assert_eq!(stats.turns, 0);
    }

    #[test]
    fn more_workers_than_slots() {
        let (stepped, stats) = drain_counters(64, &[2, 1]);
        assert_eq!(stepped, vec![1, 1]);
        assert_eq!(stats.turns, 2);
    }
}
