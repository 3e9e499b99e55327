//! The paper's two equilibrium searches, each run by one call.
//!
//! Replicator dynamics for the merging game (Algorithm 3) and best-reply
//! dynamics for the selection game (Algorithm 2) both take leader-unified
//! inputs, iterate a deterministic update to a fixed point and read the
//! equilibrium off. Each game is one type with one `run`: it loads the
//! inputs, iterates, and leaves (or returns) the equilibrium.
//!
//! Design constraints, in force for both games:
//!
//! * **Determinism** — a `run` with identical inputs produces a
//!   bit-identical outcome. All randomness comes from the seed carried in
//!   the input; nothing reads clocks or ambient entropy (ND001/ND002).
//! * **Buffers reused across runs** — each dynamics owns the buffers its
//!   game uses and grows them on a larger input only, so a run with
//!   same-or-smaller inputs allocates nothing for its iteration and a
//!   whole selection epoch of the runtime (`EquilibriumState::start_epoch`)
//!   runs without touching the allocator. This is what makes per-epoch
//!   replay cheap enough to run inside every miner's verification path
//!   (Sec. IV-C).
//! * **One pass per slot** — a slot of Algorithm 3 is one bulk draw of
//!   its `n · M` coin tosses and one branch-free integer pass over them;
//!   Eqs. (12)–(13) are bit counts, exact by construction (see
//!   `ReplicatorMergeDynamics`).
//! * **One pass per best reply** — a miner's turn of Algorithm 2 is one
//!   branch-free O(t) *certification* over integer-encoded marginal
//!   values (see [`BestReplyDynamics`]); only a miner that actually moves
//!   pays for a selection (O(t), never a sort), and the Rosenthal
//!   potential is evaluated once, by the wrapper.
//! * **Wrapper equality** — [`one_shot_merge`], [`iterative_merge`] and
//!   [`best_reply_equilibrium`] are thin wrappers over these dynamics
//!   and are pinned draw-for-draw equal to the pre-refactor free
//!   functions by the fuzz grid in `tests/dynamics_equivalence.rs`.
//!
//! [`one_shot_merge`]: crate::merging::one_shot_merge
//! [`iterative_merge`]: crate::merging::iterative_merge
//! [`best_reply_equilibrium`]: crate::selection::best_reply_equilibrium

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::merging::{MergingConfig, OneShotOutcome, X_MAX, X_MIN};
use crate::selection::{potential, SelectionConfig, SelectionOutcome};

/// Subslots scored per pass of a slot: one bit each in a `u64` mask. A
/// slot of more subslots runs in several passes over consecutive draws,
/// so any `subslots` works.
const SUBSLOT_CHUNK: usize = 64;

/// The coin toss `gen::<f64>() < x` as an integer compare: a toss `u`
/// (one `next_u64`) merges exactly when `u >> 11 < toss_threshold(x)`.
///
/// `gen::<f64>()` is `k / 2⁵³` for the 53-bit integer `k = u >> 11`, and
/// both that quotient and `x · 2⁵³` are exact (a power-of-two scaling of
/// a double in the exploration band), so `k / 2⁵³ < x` ⇔ `k < x · 2⁵³` ⇔
/// `k < ⌈x · 2⁵³⌉`. A NaN probability casts to 0 — never merges, just
/// as `u < NaN` is never true.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "`x` is a probability, so `x · 2⁵³` lies in [0, 2⁵³]; a NaN casts to 0 on purpose"
)]
fn toss_threshold(x: f64) -> u64 {
    (x * (1u64 << 53) as f64).ceil() as u64
}

/// Replicator dynamics for the merging game, one call per game.
///
/// [`run`](Self::run) iterates slots: each runs `M` subslots of seeded
/// coin tosses, scores Eq. (14) utilities, and applies the discretized
/// replicator update of Eq. (11) to every player's merge probability.
/// Convergence is the paper's fixed-point criterion: no probability moved
/// by more than the tolerance. The run then plays the converged mixed
/// strategies (bounded realization draws from the same seeded stream) to
/// produce the stable shard.
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
#[derive(Clone, Debug, Default)]
pub(crate) struct ReplicatorMergeDynamics {
    /// Each player's mixed strategy (clamped to the exploration band).
    x: Vec<f64>,
    /// One chunk of a slot's coin tosses: the next `n · chunk` `next_u64`
    /// draws of the game's stream, little-endian, subslot-major, fetched
    /// by one `fill_bytes`. At most [`SUBSLOT_CHUNK`] subslots, so
    /// `8 · n · 64` bytes however many subslots a config names.
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
}

impl ReplicatorMergeDynamics {
    /// Draws played from the converged mixed strategies while realizing
    /// the stable shard (Sec. VI-C2); at the symmetric equilibrium the
    /// expected coalition hovers at the lower bound, so a bounded number
    /// of draws finds a satisfying one with overwhelming probability.
    const REALIZATION_DRAWS: usize = 64;

    /// Runs Algorithm 3 over `sizes` (transactions per player) from the
    /// leader's `initial_probs` (one per player, as the wrappers check):
    /// slots until the tolerance or `max_slots`, then one realization of
    /// the stable shard. `seed` drives every coin toss.
    pub(crate) fn run(
        &mut self,
        sizes: &[u64],
        initial_probs: &[f64],
        config: &MergingConfig,
        seed: u64,
    ) -> OneShotOutcome {
        debug_assert_eq!(config.validate(), Ok(()));
        debug_assert_eq!(
            sizes.len(),
            initial_probs.len(),
            "one initial probability per player"
        );
        // An empty game is trivially converged: no players, no draws.
        if sizes.is_empty() {
            return OneShotOutcome {
                merged: vec![],
                merged_size: 0,
                satisfied: false,
                slots: 0,
                final_probs: vec![],
            };
        }
        let n = sizes.len();
        self.x.clear();
        self.x
            .extend(initial_probs.iter().map(|&p| p.clamp(X_MIN, X_MAX)));
        for counts in [
            &mut self.threshold,
            &mut self.merged_mask,
            &mut self.merge_count,
            &mut self.both_count,
        ] {
            counts.clear();
            counts.resize(n, 0);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut slots = 1;
        while self.slot(sizes, config, &mut rng) >= config.tolerance && slots < config.max_slots {
            slots += 1;
        }
        self.realize(sizes, config, &mut rng, slots)
    }

    /// Plays the equilibrium: the stable shard is a realization of the
    /// converged mixed strategies ("at some random point, all the miners
    /// are at an equilibrium state … to form a stable shard", Sec.
    /// VI-C2); every draw comes from the same seeded stream, keeping
    /// replays identical.
    fn realize(
        &self,
        sizes: &[u64],
        config: &MergingConfig,
        rng: &mut ChaCha8Rng,
        slots: usize,
    ) -> OneShotOutcome {
        let mut merged: Vec<usize> = Vec::new();
        let mut merged_size: u64 = 0;
        let mut satisfied = false;
        for _ in 0..Self::REALIZATION_DRAWS {
            merged.clear();
            merged_size = 0;
            for (i, (&x, &size)) in self.x.iter().zip(sizes).enumerate() {
                if rng.gen::<f64>() < x {
                    merged.push(i);
                    merged_size = merged_size.saturating_add(size);
                }
            }
            if merged_size >= config.lower_bound {
                satisfied = true;
                break;
            }
        }
        OneShotOutcome {
            merged,
            merged_size,
            satisfied,
            slots,
            final_probs: self.x.clone(),
        }
    }

    /// One slot: `M` subslots of tosses, Eq. (14) scored by bit counts,
    /// and the replicator update (11). Returns the largest probability
    /// change.
    fn slot(&mut self, sizes: &[u64], config: &MergingConfig, rng: &mut ChaCha8Rng) -> f64 {
        let n = sizes.len();
        let m = config.subslots;
        for (threshold, &x) in self.threshold.iter_mut().zip(&self.x) {
            *threshold = toss_threshold(x);
        }
        self.merge_count.fill(0);
        self.both_count.fill(0);
        let mut satisfied_count: u64 = 0;

        let mut scored = 0;
        while scored < m {
            let chunk = (m - scored).min(SUBSLOT_CHUNK);
            // Line 3: every player tosses its coin, `chunk` subslots'
            // worth in one draw.
            self.draws.resize(8 * n * chunk, 0);
            rng.fill_bytes(&mut self.draws);
            self.merged_mask.fill(0);
            let mut satisfied_mask: u64 = 0;
            for (subslot, tosses) in self.draws.chunks_exact(8 * n).enumerate() {
                let mut total: u128 = 0;
                for (((toss, &threshold), &size), mask) in tosses
                    .chunks_exact(8)
                    .zip(&self.threshold)
                    .zip(sizes)
                    .zip(self.merged_mask.iter_mut())
                {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(toss);
                    let toss = u64::from_le_bytes(word);
                    // All ones when the toss merges, else zero: both
                    // sides are below 2⁶³, so the subtraction's sign bit
                    // is its borrow. Spelled as a compare (`size *
                    // u64::from(toss >> 11 < threshold)`) this compiles
                    // to a branch on a coin flip.
                    #[expect(
                        clippy::cast_possible_wrap,
                        clippy::cast_sign_loss,
                        reason = "the reinterpretation is the point: the borrow's sign bit spreads to a mask"
                    )]
                    let merges = ((toss >> 11).wrapping_sub(threshold) as i64 >> 63) as u64;
                    *mask |= (merges & 1) << subslot;
                    total += u128::from(size & merges);
                }
                let satisfied = total >= u128::from(config.lower_bound);
                satisfied_mask |= u64::from(satisfied) << subslot;
            }
            // Line 4: Eq. (14), summed over the chunk by counting bits.
            satisfied_count += u64::from(satisfied_mask.count_ones());
            for ((&mask, merge_count), both_count) in self
                .merged_mask
                .iter()
                .zip(self.merge_count.iter_mut())
                .zip(self.both_count.iter_mut())
            {
                *merge_count += u64::from(mask.count_ones());
                *both_count += u64::from((mask & satisfied_mask).count_ones());
            }
            scored += chunk;
        }

        // Lines 5–7: averages (12), (13) and the replicator update (11).
        let (g, c) = (config.reward.as_f64(), config.cost.as_f64());
        let paid_all = g * satisfied_count as f64;
        let mut max_delta = 0.0f64;
        for ((x, &merge_count), &both_count) in self
            .x
            .iter_mut()
            .zip(&self.merge_count)
            .zip(&self.both_count)
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
            let delta = config.eta * ((avg_merge - avg_all) / g) * *x;
            let next = (*x + delta).clamp(X_MIN, X_MAX);
            max_delta = max_delta.max((next - *x).abs());
            *x = next;
        }
        max_delta
    }
}

/// Marginal value `fee / holders` as an integer whose *ascending* order
/// is Algorithm 2's preference order, best first. Marginal values are
/// non-negative finite doubles, which order exactly like their bit
/// patterns, so complementing the bits turns `total_cmp` descending
/// into integer ascending (and `f64::from_bits(!rank)` reads the value
/// back, bit for bit). Equal ranks fall to the lower transaction index,
/// so the pair `(rank, index)` orders transactions totally and the best
/// `capacity` of them are a unique set.
fn rank(fee: u64, holders: u32) -> u64 {
    !(fee as f64 / holders as f64).to_bits()
}

/// The transaction index of a `(rank, index)` key.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the low half of a key holds a `usize` index; dropping the rank half is the point"
)]
fn key_index(key: u128) -> usize {
    (key as u64) as usize
}

/// Best-reply dynamics for the selection game, one call per game.
///
/// [`run`](Self::run) sweeps every miner once per round, moving it to its
/// best reply under Eq. (2) whenever that strictly improves its expected
/// profit; the Rosenthal potential's monotone increase (asserted per move
/// in debug builds) guarantees termination at a pure strategy Nash
/// equilibrium. The sweep that applies no move is the equilibrium
/// certificate and counts toward the sweeps `run` returns — exactly the
/// `rounds` the wrapper reports. The equilibrium stays in the instance
/// until the next `run`: read it with [`assignments`](Self::assignments)
/// and [`covered`](Self::covered).
///
/// # Cost of one sweep
///
/// A transaction's marginal value for a miner is `fee / (others + 1)`
/// (Eq. 2, `others` = holders besides the miner): `fee / (load + 1)` for
/// a transaction it does not hold, `fee / load` for one it does. The
/// non-holder values do not depend on the miner, so the game keeps them
/// as one vector of `rank`s (`free`), re-ranked only for the ≤
/// 2·capacity transactions a move touches; a miner's own move leaves its
/// view unchanged. Per miner the sweep
///
/// 1. **skips** it when no move was applied since its last turn (the
///    same view gives the same answer);
/// 2. **certifies**: with its own entries patched into `free`, the held
///    set is the best reply exactly when no other transaction sorts
///    before the worst held one — two branch-free counts;
/// 3. only when that fails **selects**: `select_smallest` over the
///    view's `(rank, index)` keys, read back in index order through a
///    bitset — O(t), never a sort.
#[derive(Clone, Debug, Default)]
pub struct BestReplyDynamics {
    assignments: Vec<Vec<usize>>,
    load: Vec<u32>,
    /// `rank(fees[j], load[j] + 1)`: what `j` is worth to a non-holder.
    free: Vec<u64>,
    /// The moving miner's view, in index order, and its keys partitioned
    /// by a failed certification.
    view: Vec<u64>,
    keys: Vec<u128>,
    /// One bit per transaction, all zero between uses: normalising an
    /// initial set and reading a best reply back in index order.
    bits: Vec<u64>,
    best: Vec<usize>,
    /// Moves applied in this run, and per miner the count after its last
    /// turn: equal counts mean its view is unchanged.
    moves: u64,
    settled: Vec<u64>,
    /// Sweeps of the last run.
    rounds: usize,
}

impl BestReplyDynamics {
    /// Runs Algorithm 2 over the pending transactions' `fees` from each
    /// miner's leader-distributed `initial` set to a pure strategy Nash
    /// equilibrium (or `max_rounds` sweeps) and returns the number of
    /// sweeps.
    ///
    /// Initial sets are normalised first: in range, unique, sorted,
    /// truncated or padded to `capacity` deterministically. A zero
    /// `capacity` leaves every set empty and runs no sweep.
    pub fn run(&mut self, fees: &[u64], initial: &[Vec<usize>], config: &SelectionConfig) -> usize {
        let (t, u) = (fees.len(), initial.len());
        let capacity = config.capacity.min(t);
        self.assignments
            .resize_with(u, || Vec::with_capacity(capacity));
        let words = t.div_ceil(64);
        self.bits.resize(words.max(self.bits.len()), 0);
        let bits = &mut self.bits[..words];
        for (slot, set) in self.assignments.iter_mut().zip(initial) {
            // Marking dedups; draining sorts and truncates.
            let in_range = set.iter().filter(|&&j| j < t);
            let mut distinct: usize = in_range.map(|&j| usize::from(mark(bits, j))).sum();
            let mut fill = 0;
            while distinct < capacity {
                distinct += usize::from(mark(bits, fill));
                fill += 1;
            }
            drain(bits, slot, capacity);
        }

        self.load.clear();
        self.load.resize(t, 0);
        for &j in self.assignments.iter().flatten() {
            self.load[j] += 1;
        }
        self.free.clear();
        self.free.extend(
            fees.iter()
                .zip(&self.load)
                .map(|(&fee, &load)| rank(fee, load + 1)),
        );
        self.moves = 0;
        self.settled.clear();
        self.settled.resize(u, u64::MAX);
        // Rosenthal potential after the last move. Maintained in debug
        // builds only, for the monotonicity assertion.
        let mut phi = if cfg!(debug_assertions) {
            potential(fees, &self.load)
        } else {
            0.0
        };
        self.rounds = 0;
        while config.capacity > 0 && self.rounds < config.max_rounds {
            self.rounds += 1;
            if !self.sweep(fees, capacity, &mut phi) {
                break;
            }
        }
        self.rounds
    }

    /// The last run's per-miner assignments (each sorted ascending).
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.assignments
    }

    /// Number of transactions held by at least one miner — the size of
    /// the union of the last run's assignments.
    pub fn covered(&self) -> usize {
        self.load.iter().filter(|&&c| c > 0).count()
    }

    /// The last run's equilibrium, with its Rosenthal potential; `fees`
    /// are the fees that run was given.
    pub(crate) fn outcome(&self, fees: &[u64]) -> SelectionOutcome {
        SelectionOutcome {
            assignments: self.assignments.clone(),
            load: self.load.clone(),
            rounds: self.rounds,
            potential: potential(fees, &self.load),
        }
    }

    /// One best-reply sweep: "while some miner can get a higher expected
    /// profit … pick a miner who can improve" (Algorithm 2). Returns
    /// whether any miner moved.
    fn sweep(&mut self, fees: &[u64], capacity: usize, phi: &mut f64) -> bool {
        let mut improved = false;
        for i in 0..self.assignments.len() {
            if self.settled[i] == self.moves {
                continue;
            }
            if self.best_reply(fees, i, capacity) {
                self.moves += 1;
                improved = true;
                if cfg!(debug_assertions) {
                    let new_phi = potential(fees, &self.load);
                    assert!(
                        new_phi > *phi - 1e-9,
                        "Rosenthal potential must not decrease: {phi} -> {new_phi}"
                    );
                    *phi = new_phi;
                }
            }
            self.settled[i] = self.moves;
        }
        improved
    }

    /// Miner `i`'s turn: certifies its held set, or moves it to its best
    /// reply when that strictly improves its profit. Returns whether it
    /// moved.
    fn best_reply(&mut self, fees: &[u64], i: usize, capacity: usize) -> bool {
        let held = &self.assignments[i];
        // The miner's view: its own transactions at `fee / load` (Eq. 2
        // with n_j excluding the miner itself).
        let view = &mut self.view;
        view.clear();
        view.extend_from_slice(&self.free);
        for &j in held {
            view[j] = rank(fees[j], self.load[j]);
        }
        // The worst held transaction: the largest rank, the last index
        // among equals. Every other held one sorts before it, so the set
        // is the best reply exactly when nothing more does.
        let Some(&worst_j) = held.iter().max_by_key(|&&j| view[j]) else {
            return false; // an empty game: nothing to hold, nothing to gain
        };
        let worst = view[worst_j];
        let before = view[..worst_j].iter().filter(|&&r| r <= worst).count();
        let after = view[worst_j + 1..].iter().filter(|&&r| r < worst).count();
        if before + after < capacity {
            return false;
        }
        // Something else beats the worst held transaction, so `capacity <
        // t`. Keys are distinct, so the `capacity` smallest are one set
        // however the partition orders them; read back in index order,
        // they fix the summation order.
        let keys = &mut self.keys;
        keys.clear();
        keys.extend(
            view.iter()
                .enumerate()
                .map(|(j, &r)| (u128::from(r) << 64) | j as u128),
        );
        select_smallest(keys, capacity);
        let bits = &mut self.bits[..view.len().div_ceil(64)];
        for &key in &keys[..capacity] {
            mark(bits, key_index(key));
        }
        drain(bits, &mut self.best, capacity);
        // Profit strictly improves? (Avoid churn on exact ties.)
        let profit = |set: &[usize]| -> f64 { set.iter().map(|&j| f64::from_bits(!view[j])).sum() };
        let (old_profit, new_profit) = (profit(held), profit(&self.best));
        if new_profit <= old_profit + 1e-12 {
            return false;
        }
        // Apply the move, re-ranking only what it touched.
        for &j in held {
            self.load[j] -= 1;
        }
        for &j in &self.best {
            self.load[j] += 1;
        }
        for &j in held.iter().chain(&self.best) {
            self.free[j] = rank(fees[j], self.load[j] + 1);
        }
        let held = &mut self.assignments[i];
        held.clear();
        held.extend_from_slice(&self.best);
        true
    }
}

/// Sets bit `j`; returns whether it was clear.
fn mark(bits: &mut [u64], j: usize) -> bool {
    let (word, bit) = (&mut bits[j / 64], 1 << (j % 64));
    let fresh = *word & bit == 0;
    *word |= bit;
    fresh
}

/// Clears `bits` into `out`: the indices of its first `limit` set bits,
/// ascending.
fn drain(bits: &mut [u64], out: &mut Vec<usize>, limit: usize) {
    out.clear();
    for (w, word) in bits.iter_mut().enumerate() {
        let mut set = std::mem::take(word);
        while set != 0 && out.len() < limit {
            out.push(64 * w + set.trailing_zeros() as usize);
            set &= set - 1;
        }
    }
}

/// Moves the `k` smallest of the distinct `keys` to `keys[..k]`, for
/// `0 < k < keys.len()`: quickselect with a branch-free partition, which
/// at `t` ≈ 40 beats `select_nth_unstable`'s data-dependent branches.
/// After `2·log₂ n` partitions the rest goes to `select_nth_unstable`,
/// whose worst case is linear.
#[expect(
    clippy::manual_swap,
    reason = "`slice::swap` in the partition makes the whole selection ≈ 1.8 × slower"
)]
fn select_smallest(keys: &mut [u128], k: usize) {
    let (mut lo, mut hi) = (0, keys.len());
    let mut budget = 2 * keys.len().ilog2();
    while lo < k && k < hi {
        let part = &mut keys[lo..hi];
        if budget == 0 {
            part.select_nth_unstable(k - lo);
            return;
        }
        budget -= 1;
        // Three distinct samples make the pivot neither the least nor the
        // greatest key, so the range shrinks; two keys may not, and run
        // out the budget.
        let (a, b, c) = (part[0], part[part.len() / 2], part[part.len() - 1]);
        let pivot = a.max(b).min(a.min(b).max(c));
        let mut less = 0;
        for i in 0..part.len() {
            let key = part[i];
            part[i] = part[less];
            part[less] = key;
            less += usize::from(key < pivot);
        }
        if lo + less <= k {
            lo += less;
        } else {
            hi = lo + less;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn merge_game(
        dynamics: &mut ReplicatorMergeDynamics,
        sizes: &[u64],
        config: &MergingConfig,
        seed: u64,
    ) -> OneShotOutcome {
        let probs: Vec<f64> = (0..sizes.len()).map(|i| 0.2 + 0.05 * i as f64).collect();
        dynamics.run(sizes, &probs, config, seed)
    }

    /// One instance run over growing, shrinking and regrowing games —
    /// player counts and slot widths both (130 subslots is three draw
    /// chunks) — leaves nothing behind: every run equals a fresh
    /// instance's field for field.
    #[test]
    fn merge_reused_instance_equals_a_fresh_one() {
        let mut reused = ReplicatorMergeDynamics::default();
        for (seed, (players, subslots)) in [(6, 24), (48, 130), (3, 5), (64, 70), (0, 24), (9, 24)]
            .into_iter()
            .enumerate()
        {
            let sizes: Vec<u64> = (0..players).map(|i| (i as u64 * 7) % 9 + 1).collect();
            let config = MergingConfig {
                lower_bound: 20,
                subslots,
                ..MergingConfig::default()
            };
            let seed = seed as u64;
            let got = merge_game(&mut reused, &sizes, &config, seed);
            let fresh = merge_game(
                &mut ReplicatorMergeDynamics::default(),
                &sizes,
                &config,
                seed,
            );
            assert_eq!(got.merged, fresh.merged, "{players} players");
            assert_eq!(got.merged_size, fresh.merged_size);
            assert_eq!(got.satisfied, fresh.satisfied);
            assert_eq!(got.slots, fresh.slots);
            assert_eq!(got.final_probs, fresh.final_probs);
        }
    }

    #[test]
    fn empty_merge_game_runs_no_slot() {
        let out = ReplicatorMergeDynamics::default().run(&[], &[], &MergingConfig::default(), 9);
        assert!(out.merged.is_empty());
        assert!(!out.satisfied);
        assert_eq!(out.slots, 0);
    }

    /// The selection game's reuse row: transactions, miners and capacity
    /// grow, shrink and regrow across runs of one instance, and each run
    /// equals a fresh instance's outcome field for field.
    #[test]
    fn best_reply_reused_instance_equals_a_fresh_one() {
        let mut reused = BestReplyDynamics::default();
        for (t, miners, capacity) in [
            (50, 6, 4),
            (300, 20, 10),
            (12, 2, 3),
            (400, 30, 8),
            (0, 0, 2),
        ] {
            let fees: Vec<u64> = (1..=t as u64).map(|i| (i * 13) % 97 + 1).collect();
            let initial = seq_initial(miners, capacity, t);
            let config = SelectionConfig {
                capacity,
                max_rounds: 10_000,
            };
            let rounds = reused.run(&fees, &initial, &config);
            let mut fresh = BestReplyDynamics::default();
            assert_eq!(rounds, fresh.run(&fees, &initial, &config), "{t} txs");
            let (got, want) = (reused.outcome(&fees), fresh.outcome(&fees));
            assert_eq!(got.assignments, want.assignments);
            assert_eq!(got.load, want.load);
            assert_eq!(got.rounds, want.rounds);
            assert_eq!(got.potential.to_bits(), want.potential.to_bits());
            assert_eq!(reused.assignments(), &got.assignments[..]);
            assert_eq!(reused.covered(), got.covered_tx_count());
        }
    }

    #[test]
    fn equilibrium_as_initial_sets_certifies_in_one_sweep() {
        let fees = vec![100u64, 90, 80, 70, 60, 50, 40, 30, 20, 10];
        let cfg = SelectionConfig {
            capacity: 2,
            max_rounds: 10_000,
        };
        let cold = best_reply_equilibrium(&fees, &seq_initial(5, 2, 10), &cfg);
        assert!(cold.rounds > 1, "cold run must iterate for this test");
        // A Nash equilibrium passed back as the initial sets is already
        // every miner's best reply.
        let mut dynamics = BestReplyDynamics::default();
        let rounds = dynamics.run(&fees, &cold.assignments, &cfg);
        // Identical equilibrium, one certification sweep.
        assert_eq!(dynamics.assignments(), &cold.assignments[..]);
        assert_eq!(rounds, 1);
    }

    /// The selection kernel against a full sort: every split of every
    /// length up to 70 over shuffled keys, and long sorted, reversed and
    /// organ-pipe inputs that exhaust the partition budget.
    #[test]
    fn select_smallest_takes_the_k_smallest() {
        let check = |keys: &[u128], k: usize| {
            let mut got = keys.to_vec();
            select_smallest(&mut got, k);
            let mut want = keys.to_vec();
            want.sort_unstable();
            let mut head = got[..k].to_vec();
            head.sort_unstable();
            assert_eq!(head, want[..k], "k = {k} of {}", keys.len());
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for n in 2..70u128 {
            let mut keys: Vec<u128> = (0..n).map(|j| ((j * 37) % 11) << 64 | j).collect();
            for i in (1..keys.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                keys.swap(i, (state >> 33) as usize % (i + 1));
            }
            for k in 1..keys.len() {
                check(&keys, k);
            }
        }
        let n = 4096u128;
        let sorted: Vec<u128> = (0..n).collect();
        let reversed: Vec<u128> = (0..n).rev().collect();
        let pipe: Vec<u128> = (0..n)
            .map(|j| if j < n / 2 { 2 * j } else { 2 * (n - j) + 1 })
            .collect();
        for keys in [sorted, reversed, pipe] {
            for k in [1, 10, 2047, 4095] {
                check(&keys, k);
            }
        }
    }

    #[test]
    fn empty_selection_runs_one_certification_sweep() {
        let mut dynamics = BestReplyDynamics::default();
        let config = SelectionConfig {
            capacity: 3,
            max_rounds: 10_000,
        };
        let rounds = dynamics.run(&[], &[], &config);
        assert_eq!(rounds, 1);
        assert_eq!(dynamics.assignments().len(), 0);
    }
}
