//! A unified stepping interface over the paper's two game dynamics.
//!
//! Both equilibrium searches — replicator dynamics for the merging game
//! (Algorithm 3) and best-reply dynamics for the selection game
//! (Algorithm 2) — share the same shape: seed state from leader-unified
//! inputs, iterate a deterministic update until a fixed point, read the
//! equilibrium off. [`GameDynamics`] names that shape so the epoch
//! pipeline can drive either game through one interface, count
//! iterations uniformly, and warm-start from a previous epoch's
//! equilibrium.
//!
//! Design constraints, in force for every implementor:
//!
//! * **Determinism** — `init` with identical inputs followed by the same
//!   call sequence produces bit-identical state. All randomness comes
//!   from the seed carried in the input; nothing reads clocks or ambient
//!   entropy (audit rules ND001/ND002).
//! * **Allocation-free after `init`** — buffers are sized during `init`
//!   (and reused across re-inits); `step` touches only pre-allocated
//!   scratch, and a re-`init` with same-or-smaller inputs allocates
//!   nothing either, so a whole selection epoch of the runtime
//!   (`ShardState::start_epoch`) runs without touching the allocator.
//!   This is what makes per-epoch replay cheap enough to run inside
//!   every miner's verification path (Sec. IV-C).
//! * **One pass per slot** — a slot of Algorithm 3 is one bulk draw of
//!   its `n · M` coin tosses and one branch-free integer pass over them;
//!   Eqs. (12)–(13) are bit counts, exact by construction (see
//!   [`ReplicatorMergeDynamics`]).
//! * **One pass per best reply** — a miner-sweep of Algorithm 2 is one
//!   O(t) *certification* over integer-encoded marginal values (see
//!   [`BestReplyDynamics`]); only a miner that actually moves pays for a
//!   selection (`select_nth_unstable`, never a full sort), and the
//!   Rosenthal potential is evaluated once, in `solution`.
//! * **Wrapper equality** — [`one_shot_merge`] and
//!   [`best_reply_equilibrium`] are thin wrappers over these dynamics
//!   and are pinned draw-for-draw equal to the pre-refactor free
//!   functions by the fuzz grid in `tests/dynamics_equivalence.rs`.
//!
//! [`one_shot_merge`]: crate::merging::one_shot_merge
//! [`best_reply_equilibrium`]: crate::selection::best_reply_equilibrium

use std::collections::BTreeMap;

use cshard_crypto::Sha256;
use cshard_primitives::Hash32;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::merging::{MergingConfig, OneShotOutcome, X_MAX, X_MIN};
use crate::selection::{potential, SelectionConfig, SelectionOutcome};

/// One deterministic equilibrium search, driven step by step.
///
/// The lifecycle is `init → step* → solution`: `init` seeds the state
/// from unified inputs, each `step` applies one update round (a slot of
/// replicator updates, or one best-reply sweep), `converged` reports
/// whether another `step` could still change the state, and `solution`
/// realizes the equilibrium. `step` on a converged game is a no-op, so
/// driving loops need no special casing.
pub trait GameDynamics {
    /// Borrowed per-game inputs handed to [`init`](Self::init).
    type Input<'a>;
    /// The realized equilibrium outcome.
    type Solution;

    /// Resets the dynamics onto fresh inputs. May allocate (buffers are
    /// grown here and reused on later inits); everything after must not.
    fn init(&mut self, input: Self::Input<'_>);

    /// Applies one update round. No-op once [`converged`](Self::converged).
    fn step(&mut self);

    /// Whether the dynamics have reached a fixed point (or the
    /// configured iteration cap).
    fn converged(&self) -> bool;

    /// Update rounds applied since the last `init`.
    fn iterations(&self) -> usize;

    /// Realizes and returns the equilibrium outcome. Idempotent: the
    /// first call may consume trailing randomness from the seeded
    /// stream (the merge game's realization draws); repeats return the
    /// memoized result.
    fn solution(&mut self) -> Self::Solution;

    /// Steps until convergence and returns the iteration count.
    fn run_to_convergence(&mut self) -> usize {
        while !self.converged() {
            self.step();
        }
        self.iterations()
    }
}

/// Reusable working buffers shared by the game dynamics.
///
/// Sized on `init`, reused across epochs: re-initializing a dynamics
/// instance with same-or-smaller inputs allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct GameScratch {
    /// One chunk of a slot's coin tosses (merge game): the next
    /// `n · chunk` `next_u64` draws of the game's stream, little-endian,
    /// subslot-major, fetched by one `fill_bytes`. At most
    /// [`SUBSLOT_CHUNK`] subslots, so `8 · n · 64` bytes however many
    /// subslots a config names.
    draws: Vec<u8>,
    /// Player i merges on a toss `u` exactly when `u >> 11` is below
    /// this ([`toss_threshold`] of its probability), fixed for the slot.
    threshold: Vec<u64>,
    /// Bit `s` set when player i merged in subslot `s` of the chunk.
    merged_mask: Vec<u64>,
    /// Subslots in which player i merged this slot.
    merge_count: Vec<u64>,
    /// Subslots in which player i merged *and* Eq. (1) held this slot.
    both_count: Vec<u64>,
    /// Per-transaction membership flags while `init` sanitizes one
    /// miner's initial set (selection game) — a dense stand-in for a
    /// hash-set, point-cleared after each miner so it never needs
    /// re-zeroing wholesale.
    member: Vec<bool>,
    /// Marginal-value keys ([`value_key`]) of every transaction as seen
    /// by the moving miner: a copy of the game's non-holder keys with
    /// the miner's own entries patched, partitioned by
    /// `select_nth_unstable`. Written only when a certification fails.
    keys: Vec<u128>,
}

impl GameScratch {
    /// A fresh, empty scratch. Buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the merge-game buffers for `n` players and slots of
    /// `subslots` subslots, so no `step` allocates.
    fn reset_merge(&mut self, n: usize, subslots: usize) {
        self.draws.clear();
        self.draws.reserve(8 * n * subslots.min(SUBSLOT_CHUNK));
        for counts in [
            &mut self.threshold,
            &mut self.merged_mask,
            &mut self.merge_count,
            &mut self.both_count,
        ] {
            counts.clear();
            counts.resize(n, 0);
        }
    }

    /// Grows the selection-game buffers to `t` transactions. `member`
    /// is kept all-false between uses by point-clearing.
    fn reset_select(&mut self, t: usize) {
        self.member.clear();
        self.member.resize(t, false);
        self.keys.clear();
        self.keys.reserve(t);
    }
}

/// Subslots scored per pass of [`ReplicatorMergeDynamics::step`]: one
/// bit each in a `u64` mask. A slot of more subslots runs in several
/// passes over consecutive draws, so any `subslots` works.
const SUBSLOT_CHUNK: usize = 64;

/// The coin toss `gen::<f64>() < x` as an integer compare: a toss `u`
/// (one `next_u64`) merges exactly when `u >> 11 < toss_threshold(x)`.
///
/// `gen::<f64>()` is `k / 2⁵³` for the 53-bit integer `k = u >> 11`, and
/// both that quotient and `x · 2⁵³` are exact (a power-of-two scaling of
/// a double in the exploration band), so `k / 2⁵³ < x` ⇔ `k < x · 2⁵³` ⇔
/// `k < ⌈x · 2⁵³⌉`. A NaN probability casts to 0 — never merges, just
/// as `u < NaN` is never true.
fn toss_threshold(x: f64) -> u64 {
    (x * (1u64 << 53) as f64).ceil() as u64
}

/// Inputs of one replicator-dynamics run (Algorithm 3).
#[derive(Clone, Copy, Debug)]
pub struct MergeInput<'a> {
    /// Transactions per small-shard player.
    pub sizes: &'a [u64],
    /// Leader-distributed initial merge probabilities, one per player.
    pub initial_probs: &'a [f64],
    /// Game tunables; validated (panicking) exactly like the wrapper.
    pub config: &'a MergingConfig,
    /// Drives every coin toss; identical seeds replay identically.
    pub seed: u64,
}

/// Replicator dynamics for the merging game, one slot per [`step`].
///
/// Each step runs `M` subslots of seeded coin tosses, scores Eq. (14)
/// utilities, and applies the discretized replicator update of Eq. (11)
/// to every player's merge probability. Convergence is the paper's
/// fixed-point criterion: no probability moved by more than the
/// tolerance. [`solution`] then plays the converged mixed strategies
/// (bounded realization draws from the same seeded stream) to produce
/// the stable shard.
///
/// # Cost of one slot
///
/// A slot is one bulk draw and one integer pass. The `n · M` tosses are
/// the next `n · M` `next_u64` values of the stream, subslot-major, so
/// one `fill_bytes` fetches them (ChaCha8's 16-block batches instead of
/// a call and a one-block refill per toss). Each toss is then a shift,
/// a subtraction of the player's [`toss_threshold`] whose sign says
/// "merges", and two branch-free accumulations: bit `s` of the player's
/// merged-mask, and the player's size or 0 into the subslot's coalition
/// size, whose test against `L` is bit `s` of one satisfied-mask.
/// Eq. (14) is never evaluated per toss; three bit counts per player
/// stand in for it.
///
/// With `sat`, `mc`, `both` the number of subslots in which Eq. (1)
/// held, player i merged, and both, the Eq. (13) and Eq. (12)
/// numerators are
///
/// ```text
/// Σ_s U_i(s)       = g · sat  − c · mc
/// Σ_s U_i(s)·a_i(s) = g · both − c · mc
/// ```
///
/// These equal the toss-by-toss `f64` sums of `g − c`, `−c`, `g` and `0`
/// bit for bit, not approximately: `g` and `c` are integer-valued
/// ([`Amount::as_f64`]), so every partial sum is an integer of
/// magnitude at most `g · M`, and [`MergingConfig::validate`] bounds
/// that by `2⁵³` — no addition in either form ever rounds. The frozen
/// toss-by-toss reference in `tests/dynamics_equivalence.rs` pins it.
///
/// [`Amount::as_f64`]: cshard_primitives::Amount::as_f64
/// [`step`]: GameDynamics::step
/// [`solution`]: GameDynamics::solution
#[derive(Clone, Debug)]
pub struct ReplicatorMergeDynamics {
    config: MergingConfig,
    rng: ChaCha8Rng,
    sizes: Vec<u64>,
    x: Vec<f64>,
    scratch: GameScratch,
    reward: f64,
    cost: f64,
    slots: usize,
    converged: bool,
    memoized: Option<OneShotOutcome>,
}

impl ReplicatorMergeDynamics {
    /// Draws played from the converged mixed strategies while realizing
    /// the stable shard (Sec. VI-C2); at the symmetric equilibrium the
    /// expected coalition hovers at the lower bound, so a bounded number
    /// of draws finds a satisfying one with overwhelming probability.
    const REALIZATION_DRAWS: usize = 64;

    /// An uninitialized dynamics; call [`GameDynamics::init`] before
    /// stepping.
    pub fn new() -> Self {
        ReplicatorMergeDynamics {
            config: MergingConfig::default(),
            rng: ChaCha8Rng::seed_from_u64(0),
            sizes: Vec::new(),
            x: Vec::new(),
            scratch: GameScratch::new(),
            reward: 0.0,
            cost: 0.0,
            slots: 0,
            converged: true,
            memoized: None,
        }
    }

    /// The current mixed strategies (clamped to the exploration band).
    pub fn probabilities(&self) -> &[f64] {
        &self.x
    }
}

impl Default for ReplicatorMergeDynamics {
    fn default() -> Self {
        Self::new()
    }
}

impl GameDynamics for ReplicatorMergeDynamics {
    type Input<'a> = MergeInput<'a>;
    type Solution = OneShotOutcome;

    fn init(&mut self, input: MergeInput<'_>) {
        debug_assert_eq!(input.config.validate(), Ok(()));
        assert_eq!(
            input.sizes.len(),
            input.initial_probs.len(),
            "one initial probability per player"
        );
        self.config = *input.config;
        self.reward = input.config.reward.as_f64();
        self.cost = input.config.cost.as_f64();
        self.rng = ChaCha8Rng::seed_from_u64(input.seed);
        self.sizes.clear();
        self.sizes.extend_from_slice(input.sizes);
        self.x.clear();
        self.x
            .extend(input.initial_probs.iter().map(|&p| p.clamp(X_MIN, X_MAX)));
        self.scratch
            .reset_merge(input.sizes.len(), input.config.subslots);
        self.slots = 0;
        self.memoized = None;
        // An empty game is trivially converged: no players, no draws.
        self.converged = input.sizes.is_empty();
        if self.converged {
            self.memoized = Some(OneShotOutcome {
                merged: vec![],
                merged_size: 0,
                satisfied: false,
                slots: 0,
                final_probs: vec![],
            });
        }
    }

    fn step(&mut self) {
        if self.converged {
            return;
        }
        self.slots += 1;
        let n = self.sizes.len();
        let m = self.config.subslots;
        let scratch = &mut self.scratch;
        for (threshold, &x) in scratch.threshold.iter_mut().zip(&self.x) {
            *threshold = toss_threshold(x);
        }
        scratch.merge_count.fill(0);
        scratch.both_count.fill(0);
        let mut satisfied_count: u64 = 0;

        let mut scored = 0;
        while scored < m {
            let chunk = (m - scored).min(SUBSLOT_CHUNK);
            // Line 3: every player tosses its coin, `chunk` subslots'
            // worth in one draw.
            scratch.draws.resize(8 * n * chunk, 0);
            self.rng.fill_bytes(&mut scratch.draws);
            scratch.merged_mask.fill(0);
            let mut satisfied_mask: u64 = 0;
            for (subslot, tosses) in scratch.draws.chunks_exact(8 * n).enumerate() {
                let mut total: u128 = 0;
                for (((toss, &threshold), &size), mask) in tosses
                    .chunks_exact(8)
                    .zip(&scratch.threshold)
                    .zip(&self.sizes)
                    .zip(scratch.merged_mask.iter_mut())
                {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(toss);
                    let toss = u64::from_le_bytes(word);
                    // All ones when the toss merges, else zero: both
                    // sides are below 2⁶³, so the subtraction's sign bit
                    // is its borrow. Spelled as a compare (`size *
                    // u64::from(toss >> 11 < threshold)`) this compiles
                    // to a branch on a coin flip.
                    let merges = ((toss >> 11).wrapping_sub(threshold) as i64 >> 63) as u64;
                    *mask |= (merges & 1) << subslot;
                    total += u128::from(size & merges);
                }
                let satisfied = total >= u128::from(self.config.lower_bound);
                satisfied_mask |= u64::from(satisfied) << subslot;
            }
            // Line 4: Eq. (14), summed over the chunk by counting bits.
            satisfied_count += u64::from(satisfied_mask.count_ones());
            for ((&mask, merge_count), both_count) in scratch
                .merged_mask
                .iter()
                .zip(scratch.merge_count.iter_mut())
                .zip(scratch.both_count.iter_mut())
            {
                *merge_count += u64::from(mask.count_ones());
                *both_count += u64::from((mask & satisfied_mask).count_ones());
            }
            scored += chunk;
        }

        // Lines 5–7: averages (12), (13) and the replicator update (11).
        let (g, c) = (self.reward, self.cost);
        let paid_all = g * satisfied_count as f64;
        let mut max_delta = 0.0f64;
        for ((x, &merge_count), &both_count) in self
            .x
            .iter_mut()
            .zip(&scratch.merge_count)
            .zip(&scratch.both_count)
        {
            let cost_paid = c * merge_count as f64;
            let avg_all = (paid_all - cost_paid) / m as f64;
            let avg_merge = if merge_count > 0 {
                (g * both_count as f64 - cost_paid) / merge_count as f64
            } else {
                // Never merged this slot: estimate the merge payoff from
                // the satisfaction frequency seen while staying. Staying
                // paid `g` exactly when (1) held, so avg_all/g estimates
                // P(satisfied) and merging would have paid that minus c.
                avg_all - c
            };
            // Normalise by g so eta is scale-free in the reward units.
            let delta = self.config.eta * ((avg_merge - avg_all) / g) * *x;
            let next = (*x + delta).clamp(X_MIN, X_MAX);
            max_delta = max_delta.max((next - *x).abs());
            *x = next;
        }
        if max_delta < self.config.tolerance || self.slots >= self.config.max_slots {
            self.converged = true;
        }
    }

    fn converged(&self) -> bool {
        self.converged
    }

    fn iterations(&self) -> usize {
        self.slots
    }

    fn solution(&mut self) -> OneShotOutcome {
        if let Some(out) = &self.memoized {
            return out.clone();
        }
        // Play the equilibrium: the stable shard is a realization of the
        // converged mixed strategies ("at some random point, all the
        // miners are at an equilibrium state … to form a stable shard",
        // Sec. VI-C2); every draw comes from the same seeded stream,
        // keeping replays identical.
        let n = self.sizes.len();
        let mut merged: Vec<usize> = Vec::new();
        let mut merged_size: u64 = 0;
        let mut satisfied = false;
        for _ in 0..Self::REALIZATION_DRAWS {
            merged.clear();
            merged_size = 0;
            for i in 0..n {
                if self.rng.gen::<f64>() < self.x[i] {
                    merged.push(i);
                    merged_size = merged_size.saturating_add(self.sizes[i]);
                }
            }
            if merged_size >= self.config.lower_bound {
                satisfied = true;
                break;
            }
        }
        let out = OneShotOutcome {
            merged,
            merged_size,
            satisfied,
            slots: self.slots,
            final_probs: self.x.clone(),
        };
        self.memoized = Some(out.clone());
        out
    }
}

/// Inputs of one best-reply run (Algorithm 2).
#[derive(Clone, Copy, Debug)]
pub struct SelectInput<'a> {
    /// Fee of every pending transaction in the shard.
    pub fees: &'a [u64],
    /// Each miner's leader-distributed initial transaction set.
    pub initial: &'a [Vec<usize>],
    /// Game tunables.
    pub config: &'a SelectionConfig,
}

/// Encodes "marginal value `fee / holders`, then transaction index" as
/// one integer whose *ascending* order is Algorithm 2's preference
/// order: best value first, ties by lower index. Marginal values are
/// non-negative finite doubles, which order exactly like their bit
/// patterns, so complementing the bits turns `total_cmp` descending
/// into integer ascending; the index in the low half makes the order
/// total — no two transactions share a key, so the best `capacity` of
/// them are a unique set.
fn value_key(fee: u64, holders: u32, j: usize) -> u128 {
    let value = fee as f64 / holders as f64;
    (u128::from(!value.to_bits()) << 64) | j as u128
}

/// The marginal value a [`value_key`] encodes, bit for bit.
fn key_value(key: u128) -> f64 {
    f64::from_bits(!((key >> 64) as u64))
}

/// The transaction index a [`value_key`] encodes.
fn key_index(key: u128) -> usize {
    (key as u64) as usize
}

/// Best-reply dynamics for the selection game, one sweep per [`step`].
///
/// Each step sweeps every miner once, moving it to its best reply under
/// Eq. (2) whenever that strictly improves its expected profit; the
/// Rosenthal potential's monotone increase (asserted per move in debug
/// builds) guarantees termination at a pure strategy Nash equilibrium.
/// The sweep that applies no move is the equilibrium certificate and
/// counts toward [`iterations`] — exactly the `rounds` the wrapper
/// reports.
///
/// # Cost of one sweep
///
/// A transaction's marginal value for a miner is `fee / (others + 1)`
/// (Eq. 2, `others` = holders besides the miner): `fee / (load + 1)` for
/// a transaction it does not hold, `fee / load` for one it does. The
/// non-holder values do not depend on the miner, so the game keeps them
/// as one vector of [`value_key`]s (`free_keys`), re-keyed only for the
/// ≤ 2·capacity transactions a move touches. Per miner the sweep then
///
/// 1. **certifies**: the held set is the best reply exactly when no
///    unheld key sorts before the worst held key — one O(t) pass of
///    integer compares, `capacity` divisions, no writes. Most
///    miner-sweeps end here (every miner of the final sweep does);
/// 2. only when that fails **selects**: `select_nth_unstable` over a
///    copy of the keys with the miner's own entries patched to their
///    held values, then sorts the `capacity` winners by index — O(t),
///    never a full sort.
///
/// [`step`]: GameDynamics::step
/// [`iterations`]: GameDynamics::iterations
#[derive(Clone, Debug)]
pub struct BestReplyDynamics {
    config: SelectionConfig,
    fees: Vec<u64>,
    capacity: usize,
    assignments: Vec<Vec<usize>>,
    load: Vec<u32>,
    /// `value_key(fees[j], load[j] + 1, j)` per transaction: what `j` is
    /// worth to a miner that does not hold it.
    free_keys: Vec<u128>,
    /// Rosenthal potential after the last move. Maintained in debug
    /// builds only, for the monotonicity assertion; release builds
    /// evaluate the potential once, in `solution`.
    phi: f64,
    rounds: usize,
    converged: bool,
    scratch: GameScratch,
}

impl BestReplyDynamics {
    /// An uninitialized dynamics; call [`GameDynamics::init`] before
    /// stepping.
    pub fn new() -> Self {
        BestReplyDynamics {
            config: SelectionConfig::default(),
            fees: Vec::new(),
            capacity: 0,
            assignments: Vec::new(),
            load: Vec::new(),
            free_keys: Vec::new(),
            phi: 0.0,
            rounds: 0,
            converged: true,
            scratch: GameScratch::new(),
        }
    }

    /// Warm-start `init`: seeds every miner's strategy from a previous
    /// equilibrium instead of leader-distributed initial sets. If the
    /// game inputs repeat, the previous equilibrium is still a Nash
    /// equilibrium, so the dynamics certify it in a single sweep and
    /// provably reproduce the identical assignment (pinned by
    /// `warm_start_from_equilibrium_certifies_in_one_sweep`).
    pub fn init_warm(&mut self, fees: &[u64], previous: &[Vec<usize>], config: &SelectionConfig) {
        self.init(SelectInput {
            fees,
            initial: previous,
            config,
        });
    }

    /// The current per-miner assignments (each sorted ascending).
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.assignments
    }

    /// Number of transactions held by at least one miner — the size of
    /// the union of the current assignments.
    pub fn covered(&self) -> usize {
        self.load.iter().filter(|&&c| c > 0).count()
    }

    /// Whether miner `i`'s held set is its best reply: no transaction it
    /// does not hold sorts before the worst one it does. The held
    /// indices are ascending, so the unheld transactions are the gaps
    /// between them and the scan needs no membership lookups.
    fn holds_best_reply(&self, i: usize) -> bool {
        let held = &self.assignments[i];
        let Some(worst) = held
            .iter()
            .map(|&j| value_key(self.fees[j], self.load[j], j))
            .max()
        else {
            return true; // an empty game: nothing to hold, nothing to gain
        };
        let mut from = 0;
        for &j in held.iter().chain(std::iter::once(&self.free_keys.len())) {
            if self.free_keys[from..j].iter().any(|&key| key < worst) {
                return false;
            }
            from = j + 1;
        }
        true
    }
}

impl Default for BestReplyDynamics {
    fn default() -> Self {
        Self::new()
    }
}

impl GameDynamics for BestReplyDynamics {
    type Input<'a> = SelectInput<'a>;
    type Solution = SelectionOutcome;

    fn init(&mut self, input: SelectInput<'_>) {
        let t = input.fees.len();
        let u = input.initial.len();
        assert!(input.config.capacity > 0, "capacity must be positive");
        self.config = *input.config;
        self.capacity = input.config.capacity.min(t);
        self.fees.clear();
        self.fees.extend_from_slice(input.fees);
        self.scratch.reset_select(t);

        // Normalise initial assignments: in-range, unique, sorted,
        // right-sized. The dense `member` flags replace a per-miner
        // hash-set; flags are point-cleared after each miner.
        self.assignments.truncate(u);
        while self.assignments.len() < u {
            self.assignments.push(Vec::with_capacity(self.capacity));
        }
        for (slot, set) in self.assignments.iter_mut().zip(input.initial) {
            slot.clear();
            slot.extend(set.iter().copied().filter(|&j| j < t));
            slot.sort_unstable();
            slot.dedup();
            slot.truncate(self.capacity);
            for &j in slot.iter() {
                self.scratch.member[j] = true;
            }
            let mut fill = 0usize;
            while slot.len() < self.capacity {
                if !self.scratch.member[fill] {
                    self.scratch.member[fill] = true;
                    slot.push(fill);
                }
                fill += 1;
            }
            for &j in slot.iter() {
                self.scratch.member[j] = false;
            }
            slot.sort_unstable();
        }

        self.load.clear();
        self.load.resize(t, 0);
        for a in &self.assignments {
            for &j in a {
                self.load[j] += 1;
            }
        }
        self.free_keys.clear();
        self.free_keys.extend(
            self.fees
                .iter()
                .zip(&self.load)
                .enumerate()
                .map(|(j, (&fee, &load))| value_key(fee, load + 1, j)),
        );
        if cfg!(debug_assertions) {
            self.phi = potential(&self.fees, &self.load);
        }
        self.rounds = 0;
        self.converged = self.rounds >= self.config.max_rounds;
    }

    fn step(&mut self) {
        if self.converged {
            return;
        }
        self.rounds += 1;
        let mut improved = false;
        // One best-reply sweep: "while some miner can get a higher
        // expected profit … pick a miner who can improve" (Algorithm 2).
        for i in 0..self.assignments.len() {
            if self.holds_best_reply(i) {
                continue;
            }
            // The miner's view of every marginal value: non-holder keys,
            // with its own transactions at `fee / load` (Eq. 2 with n_j
            // excluding the miner itself).
            let keys = &mut self.scratch.keys;
            keys.clear();
            keys.extend_from_slice(&self.free_keys);
            for &j in &self.assignments[i] {
                keys[j] = value_key(self.fees[j], self.load[j], j);
            }
            // Certification failed, so an unheld transaction exists and
            // `capacity < t`: the partition index is in range. Keys are
            // distinct, so the `capacity` smallest are a unique set no
            // matter how the unstable partition orders them; sorting the
            // winners by index fixes the summation order.
            keys.select_nth_unstable(self.capacity);
            let best = &mut keys[..self.capacity];
            best.sort_unstable_by_key(|&key| key_index(key));
            // Profit strictly improves? (Avoid churn on exact ties.)
            let old_profit: f64 = self.assignments[i]
                .iter()
                .map(|&j| self.fees[j] as f64 / self.load[j] as f64)
                .sum();
            let new_profit: f64 = best.iter().map(|&key| key_value(key)).sum();
            if new_profit <= old_profit + 1e-12 {
                continue;
            }
            // Apply the move, re-keying only what it touched.
            let moved_to = best.iter().map(|&key| key_index(key));
            for &j in &self.assignments[i] {
                self.load[j] -= 1;
            }
            for j in moved_to.clone() {
                self.load[j] += 1;
            }
            for j in self.assignments[i].iter().copied().chain(moved_to.clone()) {
                self.free_keys[j] = value_key(self.fees[j], self.load[j] + 1, j);
            }
            self.assignments[i].clear();
            self.assignments[i].extend(moved_to);
            improved = true;
            if cfg!(debug_assertions) {
                let new_phi = potential(&self.fees, &self.load);
                assert!(
                    new_phi > self.phi - 1e-9,
                    "Rosenthal potential must not decrease: {} -> {new_phi}",
                    self.phi
                );
                self.phi = new_phi;
            }
        }
        if !improved || self.rounds >= self.config.max_rounds {
            self.converged = true;
        }
    }

    fn converged(&self) -> bool {
        self.converged
    }

    fn iterations(&self) -> usize {
        self.rounds
    }

    fn solution(&mut self) -> SelectionOutcome {
        SelectionOutcome {
            assignments: self.assignments.clone(),
            load: self.load.clone(),
            rounds: self.rounds,
            potential: potential(&self.fees, &self.load),
        }
    }
}

/// Cross-epoch memo of selection equilibria, keyed by a digest of the
/// full game inputs.
///
/// Warm starts must not change what the protocol computes — only how
/// fast. The cache therefore keys on *exact* input repetition: the
/// digest covers fees, every sanitized initial set, capacity, and the
/// round cap. On a hit the stored equilibrium seeds
/// [`BestReplyDynamics::init_warm`], which certifies it in one sweep
/// and yields the bit-identical assignment the cold run would have
/// reached; on a miss the cold equilibrium is stored for next epoch.
#[derive(Clone, Debug, Default)]
pub struct SelectionWarmCache {
    entries: BTreeMap<Hash32, Vec<Vec<usize>>>,
    hits: u64,
    misses: u64,
}

impl SelectionWarmCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Digest of one selection game's complete inputs — the cache key.
    /// Versioned so a future input change cannot alias an old entry.
    pub fn key(fees: &[u64], initial: &[Vec<usize>], config: &SelectionConfig) -> Hash32 {
        let mut h = Sha256::new();
        h.update(b"selection-warm-key-v1");
        h.update((fees.len() as u64).to_be_bytes());
        for &f in fees {
            h.update(f.to_be_bytes());
        }
        h.update((initial.len() as u64).to_be_bytes());
        for set in initial {
            h.update((set.len() as u64).to_be_bytes());
            for &j in set {
                h.update((j as u64).to_be_bytes());
            }
        }
        h.update((config.capacity as u64).to_be_bytes());
        h.update((config.max_rounds as u64).to_be_bytes());
        h.finalize()
    }

    /// The cached equilibrium for `key`, counting a hit or a miss.
    pub fn lookup(&mut self, key: &Hash32) -> Option<&Vec<Vec<usize>>> {
        match self.entries.get(key) {
            Some(eq) => {
                self.hits += 1;
                Some(eq)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores the equilibrium reached under `key`'s inputs.
    pub fn store(&mut self, key: Hash32, equilibrium: Vec<Vec<usize>>) {
        self.entries.insert(key, equilibrium);
    }

    /// Lookups that found a cached equilibrium.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct game inputs cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merging::one_shot_merge;
    use crate::selection::best_reply_equilibrium;

    fn seq_initial(miners: usize, capacity: usize, t: usize) -> Vec<Vec<usize>> {
        (0..miners)
            .map(|i| {
                (0..capacity)
                    .map(|k| (i * capacity + k) % t.max(1))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn merge_dynamics_match_wrapper() {
        let sizes = vec![5u64, 7, 3, 9, 4, 6];
        let probs = vec![0.5; 6];
        let cfg = MergingConfig {
            lower_bound: 20,
            ..MergingConfig::default()
        };
        let expected = one_shot_merge(&sizes, &probs, &cfg, 42);
        let mut dynamics = ReplicatorMergeDynamics::new();
        dynamics.init(MergeInput {
            sizes: &sizes,
            initial_probs: &probs,
            config: &cfg,
            seed: 42,
        });
        let iters = dynamics.run_to_convergence();
        let got = dynamics.solution();
        assert_eq!(iters, expected.slots);
        assert_eq!(got.merged, expected.merged);
        assert_eq!(got.merged_size, expected.merged_size);
        assert_eq!(got.satisfied, expected.satisfied);
        assert_eq!(got.final_probs, expected.final_probs);
        // Solution is memoized — a second call returns the same shard
        // without consuming more of the stream.
        assert_eq!(dynamics.solution().merged, expected.merged);
    }

    #[test]
    fn merge_dynamics_reuse_buffers_across_inits() {
        let cfg = MergingConfig::default();
        let mut dynamics = ReplicatorMergeDynamics::new();
        for seed in 0..4u64 {
            let sizes = vec![6u64; 8];
            let probs = vec![0.5; 8];
            dynamics.init(MergeInput {
                sizes: &sizes,
                initial_probs: &probs,
                config: &cfg,
                seed,
            });
            dynamics.run_to_convergence();
            let via_trait = dynamics.solution();
            let via_wrapper = one_shot_merge(&sizes, &probs, &cfg, seed);
            assert_eq!(via_trait.merged, via_wrapper.merged);
            assert_eq!(via_trait.slots, via_wrapper.slots);
        }
    }

    #[test]
    fn empty_merge_game_is_converged_at_init() {
        let mut dynamics = ReplicatorMergeDynamics::new();
        dynamics.init(MergeInput {
            sizes: &[],
            initial_probs: &[],
            config: &MergingConfig::default(),
            seed: 9,
        });
        assert!(dynamics.converged());
        assert_eq!(dynamics.run_to_convergence(), 0);
        let out = dynamics.solution();
        assert!(out.merged.is_empty());
        assert!(!out.satisfied);
        assert_eq!(out.slots, 0);
    }

    #[test]
    fn best_reply_dynamics_match_wrapper() {
        let fees: Vec<u64> = (1..=50).map(|i| (i * 13) % 97 + 1).collect();
        let initial = seq_initial(6, 4, fees.len());
        let cfg = SelectionConfig {
            capacity: 4,
            max_rounds: 10_000,
        };
        let expected = best_reply_equilibrium(&fees, &initial, &cfg);
        let mut dynamics = BestReplyDynamics::new();
        dynamics.init(SelectInput {
            fees: &fees,
            initial: &initial,
            config: &cfg,
        });
        let iters = dynamics.run_to_convergence();
        let got = dynamics.solution();
        assert_eq!(iters, expected.rounds);
        assert_eq!(got.assignments, expected.assignments);
        assert_eq!(got.load, expected.load);
        assert_eq!(got.potential, expected.potential);
    }

    #[test]
    fn warm_start_from_equilibrium_certifies_in_one_sweep() {
        let fees = vec![100u64, 90, 80, 70, 60, 50, 40, 30, 20, 10];
        let cfg = SelectionConfig {
            capacity: 2,
            max_rounds: 10_000,
        };
        let cold = best_reply_equilibrium(&fees, &seq_initial(5, 2, 10), &cfg);
        assert!(cold.rounds > 1, "cold run must iterate for this test");
        let mut warm = BestReplyDynamics::new();
        warm.init_warm(&fees, &cold.assignments, &cfg);
        let rounds = warm.run_to_convergence();
        let out = warm.solution();
        // Identical equilibrium, one certification sweep.
        assert_eq!(out.assignments, cold.assignments);
        assert_eq!(rounds, 1);
    }

    #[test]
    fn empty_selection_runs_one_certification_sweep() {
        let mut dynamics = BestReplyDynamics::new();
        dynamics.init(SelectInput {
            fees: &[],
            initial: &[],
            config: &SelectionConfig {
                capacity: 3,
                max_rounds: 10_000,
            },
        });
        assert_eq!(dynamics.run_to_convergence(), 1);
        assert_eq!(dynamics.solution().assignments.len(), 0);
    }

    #[test]
    fn warm_cache_round_trip_counts_hits_and_misses() {
        let fees = vec![10u64, 20, 30, 40];
        let initial = seq_initial(2, 2, 4);
        let cfg = SelectionConfig {
            capacity: 2,
            max_rounds: 100,
        };
        let key = SelectionWarmCache::key(&fees, &initial, &cfg);
        let mut cache = SelectionWarmCache::new();
        assert!(cache.lookup(&key).is_none());
        let eq = best_reply_equilibrium(&fees, &initial, &cfg).assignments;
        cache.store(key, eq.clone());
        assert_eq!(cache.lookup(&key), Some(&eq));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        // Any input change — here the capacity — changes the key.
        let other = SelectionWarmCache::key(
            &fees,
            &initial,
            &SelectionConfig {
                capacity: 3,
                max_rounds: 100,
            },
        );
        assert_ne!(key, other);
    }
}
