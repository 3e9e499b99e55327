//! Pins the game dynamics to the pre-refactor free functions, draw for
//! draw.
//!
//! `one_shot_merge` and `best_reply_equilibrium` are now one `run` each
//! of the replicator and best-reply dynamics. This test keeps
//! frozen copies of the original direct implementations (verbatim from
//! the pre-refactor `merging.rs` / `selection.rs`) as references and
//! fuzzes both games over seeded grids of ≥ 200 cases (the selection
//! game over a second grid of 320 at paper scale and on hostile fee
//! shapes), requiring every output field to match exactly — same RNG stream consumption, same
//! tie-breaks, same iteration counts. If the dynamics ever drift, the
//! golden run-report fingerprints would shift; this catches the drift at
//! the game layer with a precise counterexample seed.
//!
//! The merge game's slot is no longer the toss-by-toss loop the reference
//! keeps: it draws a slot's tosses in bulk (the generator's 16-block
//! batches from 128 draws up) and counts bits instead of summing
//! utilities. A second merge grid of 320 cases therefore runs at the
//! scale where that machinery engages — up to 64 players, slots of 1 to
//! 130 subslots, payoffs up to the `reward × subslots = 2⁵³` precision
//! bound — and `iterative_merge` is pinned against a frozen Algorithm 1
//! over the reference on stream-shaped inputs.

use std::collections::BTreeSet;

use cshard_games::merging::{
    iterative_merge, one_shot_merge, IterativeMergeOutcome, MergingConfig, OneShotOutcome,
};
use cshard_games::selection::{
    best_reply_equilibrium, potential, SelectionConfig, SelectionOutcome,
};
use cshard_primitives::Amount;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const X_MIN: f64 = 0.02;
const X_MAX: f64 = 0.98;

/// The original Algorithm 3 implementation, frozen as the reference.
fn reference_one_shot_merge(
    sizes: &[u64],
    initial_probs: &[f64],
    config: &MergingConfig,
    seed: u64,
) -> OneShotOutcome {
    assert_eq!(sizes.len(), initial_probs.len());
    let n = sizes.len();
    if n == 0 {
        return OneShotOutcome {
            merged: vec![],
            merged_size: 0,
            satisfied: false,
            slots: 0,
            final_probs: vec![],
        };
    }

    let g = config.reward.as_f64();
    let c = config.cost.as_f64();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x: Vec<f64> = initial_probs
        .iter()
        .map(|&p| p.clamp(X_MIN, X_MAX))
        .collect();

    let m = config.subslots;
    let mut slots = 0;
    let mut merged_flag = vec![false; n];
    let mut util_sum = vec![0.0f64; n];
    let mut util_merge_sum = vec![0.0f64; n];
    let mut merge_count = vec![0u32; n];

    while slots < config.max_slots {
        slots += 1;
        util_sum.iter_mut().for_each(|v| *v = 0.0);
        util_merge_sum.iter_mut().for_each(|v| *v = 0.0);
        merge_count.iter_mut().for_each(|v| *v = 0);

        for _subslot in 0..m {
            let mut total: u64 = 0;
            for i in 0..n {
                let merges = rng.gen::<f64>() < x[i];
                merged_flag[i] = merges;
                if merges {
                    total += sizes[i];
                }
            }
            let satisfied = total >= config.lower_bound;
            for i in 0..n {
                let u = match (merged_flag[i], satisfied) {
                    (true, true) => g - c,
                    (true, false) => -c,
                    (false, true) => g,
                    (false, false) => 0.0,
                };
                util_sum[i] += u;
                if merged_flag[i] {
                    util_merge_sum[i] += u;
                    merge_count[i] += 1;
                }
            }
        }

        let mut max_delta = 0.0f64;
        for i in 0..n {
            let avg_all = util_sum[i] / m as f64;
            let avg_merge = if merge_count[i] > 0 {
                util_merge_sum[i] / merge_count[i] as f64
            } else {
                avg_all - c
            };
            let delta = config.eta * ((avg_merge - avg_all) / g) * x[i];
            let next = (x[i] + delta).clamp(X_MIN, X_MAX);
            max_delta = max_delta.max((next - x[i]).abs());
            x[i] = next;
        }
        if max_delta < config.tolerance {
            break;
        }
    }

    const REALIZATION_DRAWS: usize = 64;
    let mut merged: Vec<usize> = Vec::new();
    let mut merged_size: u64 = 0;
    let mut satisfied = false;
    for _ in 0..REALIZATION_DRAWS {
        merged.clear();
        merged_size = 0;
        for i in 0..n {
            if rng.gen::<f64>() < x[i] {
                merged.push(i);
                merged_size += sizes[i];
            }
        }
        if merged_size >= config.lower_bound {
            satisfied = true;
            break;
        }
    }
    OneShotOutcome {
        satisfied,
        merged,
        merged_size,
        slots,
        final_probs: x,
    }
}

/// The original Algorithm 2 implementation, frozen as the reference.
fn reference_best_reply(
    fees: &[u64],
    initial: &[Vec<usize>],
    config: &SelectionConfig,
) -> SelectionOutcome {
    let t = fees.len();
    let u = initial.len();
    assert!(config.capacity > 0);
    let capacity = config.capacity.min(t);

    let mut assignments: Vec<Vec<usize>> = initial
        .iter()
        .map(|set| {
            let mut s: Vec<usize> = set.iter().copied().filter(|&j| j < t).collect();
            s.sort_unstable();
            s.dedup();
            s.truncate(capacity);
            let mut have: BTreeSet<usize> = s.iter().copied().collect();
            let mut fill = 0usize;
            while s.len() < capacity {
                if have.insert(fill) {
                    s.push(fill);
                }
                fill += 1;
            }
            s.sort_unstable();
            s
        })
        .collect();

    let mut load = vec![0u32; t];
    for a in &assignments {
        for &j in a {
            load[j] += 1;
        }
    }

    let mut rounds = 0;
    let mut phi = potential(fees, &load);
    while rounds < config.max_rounds {
        rounds += 1;
        let mut improved = false;
        #[allow(clippy::needless_range_loop)]
        for i in 0..u {
            let current: BTreeSet<usize> = assignments[i].iter().copied().collect();
            let mut scored: Vec<(f64, usize)> = (0..t)
                .map(|j| {
                    let others = load[j] - u32::from(current.contains(&j));
                    (fees[j] as f64 / (others + 1) as f64, j)
                })
                .collect();
            scored.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("fees are finite")
                    .then(a.1.cmp(&b.1))
            });
            let mut best: Vec<usize> = scored.iter().take(capacity).map(|&(_, j)| j).collect();
            best.sort_unstable();
            if best == assignments[i] {
                continue;
            }
            let old_profit: f64 = assignments[i]
                .iter()
                .map(|&j| fees[j] as f64 / load[j] as f64)
                .sum();
            let new_profit: f64 = best
                .iter()
                .map(|&j| {
                    let others = load[j] - u32::from(current.contains(&j));
                    fees[j] as f64 / (others + 1) as f64
                })
                .sum();
            if new_profit <= old_profit + 1e-12 {
                continue;
            }
            for &j in &assignments[i] {
                load[j] -= 1;
            }
            for &j in &best {
                load[j] += 1;
            }
            assignments[i] = best;
            improved = true;
            phi = potential(fees, &load);
        }
        if !improved {
            break;
        }
    }

    SelectionOutcome {
        assignments,
        load,
        rounds,
        potential: phi,
    }
}

/// The original Algorithm 1 loop, frozen as the reference, over the
/// frozen Algorithm 3 above.
fn reference_iterative_merge(
    sizes: &[u64],
    initial_probs: &[f64],
    config: &MergingConfig,
    seed: u64,
) -> IterativeMergeOutcome {
    assert_eq!(sizes.len(), initial_probs.len());
    let mut remaining: Vec<usize> = (0..sizes.len()).collect();
    let mut new_shards = Vec::new();
    let mut total_slots = 0;
    let mut round: u64 = 0;
    let mut retries = 0;
    const MAX_RETRIES: usize = 4;
    let mut subset_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_CAFE);

    while remaining.iter().map(|&i| sizes[i]).sum::<u64>() >= config.lower_bound {
        let round_players: Vec<usize> = {
            let mean_size = (remaining.iter().map(|&i| sizes[i]).sum::<u64>() as f64
                / remaining.len() as f64)
                .max(1.0);
            let cap = ((2.5 * config.lower_bound as f64 / mean_size).ceil() as usize)
                .clamp(2, remaining.len());
            if cap >= remaining.len() {
                remaining.clone()
            } else {
                let mut pool = remaining.clone();
                for k in 0..cap {
                    let j = k + (subset_rng.gen::<u64>() as usize) % (pool.len() - k);
                    pool.swap(k, j);
                }
                pool.truncate(cap);
                pool
            }
        };
        let round_sizes: Vec<u64> = round_players.iter().map(|&i| sizes[i]).collect();
        let round_probs: Vec<f64> = round_players.iter().map(|&i| initial_probs[i]).collect();
        let round_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let outcome = reference_one_shot_merge(&round_sizes, &round_probs, config, round_seed);
        total_slots += outcome.slots;
        round += 1;
        if outcome.satisfied {
            let shard: Vec<usize> = outcome.merged.iter().map(|&j| round_players[j]).collect();
            let shard_set: BTreeSet<usize> = shard.iter().copied().collect();
            remaining.retain(|i| !shard_set.contains(i));
            new_shards.push(shard);
            retries = 0;
        } else {
            retries += 1;
            if retries > MAX_RETRIES {
                break;
            }
        }
    }

    IterativeMergeOutcome {
        new_shards,
        leftover: remaining,
        total_slots,
    }
}

/// Every field, probabilities by bit pattern (so NaN strategies and the
/// sign of zero count too).
fn assert_merge_equal(case: u64, got: &OneShotOutcome, want: &OneShotOutcome) {
    assert_eq!(got.merged, want.merged, "case {case}: merged set differs");
    assert_eq!(got.merged_size, want.merged_size, "case {case}");
    assert_eq!(got.satisfied, want.satisfied, "case {case}");
    assert_eq!(got.slots, want.slots, "case {case}: slot count differs");
    let bits = |probs: &[f64]| probs.iter().map(|p| p.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&got.final_probs),
        bits(&want.final_probs),
        "case {case}: probabilities differ ({:?} vs {:?})",
        got.final_probs,
        want.final_probs
    );
}

#[test]
fn merge_wrapper_matches_reference_over_200_seeded_cases() {
    for case in 0..200u64 {
        let mut gen = ChaCha8Rng::seed_from_u64(0xA1B2_0000 ^ case);
        let n = 1 + (gen.gen::<u64>() % 12) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| 1 + gen.gen::<u64>() % 12).collect();
        let probs: Vec<f64> = (0..n).map(|_| gen.gen::<f64>()).collect();
        let config = MergingConfig {
            lower_bound: 5 + gen.gen::<u64>() % 30,
            eta: 0.05 + (gen.gen::<u64>() % 20) as f64 * 0.01,
            subslots: 8 + (gen.gen::<u64>() % 24) as usize,
            ..MergingConfig::default()
        };
        let seed = gen.gen::<u64>();
        let want = reference_one_shot_merge(&sizes, &probs, &config, seed);
        let got =
            one_shot_merge(&sizes, &probs, &config, seed).expect("one probability per player");
        assert_merge_equal(case, &got, &want);
    }
}

/// The scale the bulk-draw, bit-counted slot actually runs at.
///
/// * `n` up to 64 and `subslots` in {1, 8, 24, 63, 64, 65, 130}: slots of
///   1 to 8 320 draws, so runs below one 128-draw generator batch, across
///   several, and (every third case) with `n · M` within a player of a
///   multiple of 128; 63/64/65 and 130 straddle the 64-subslot mask.
/// * odd raw payoffs — `600 + 50·case` against `550`, one raw unit apart,
///   and `⌊2⁵³ / subslots⌋`, the largest reward `validate()` accepts;
/// * `lower_bound` from 1 (every subslot satisfied) to past the total
///   (never satisfied);
/// * initial probabilities that include 0, 1 and NaN;
/// * slot caps of 1..=400 that bite mid-flight.
#[test]
fn merge_wrapper_matches_reference_at_stream_scale_and_at_the_precision_bound() {
    const SUBSLOTS: [usize; 7] = [1, 8, 24, 63, 64, 65, 130];
    let (mut multi_slot, mut batched, mut satisfied) = (0u64, 0u64, 0u64);
    for case in 0..320u64 {
        let mut gen = ChaCha8Rng::seed_from_u64(0x5107_0000 ^ case);
        let mut below = |n: u64| gen.gen::<u64>() % n;
        let subslots = SUBSLOTS[case as usize % SUBSLOTS.len()];
        let n = if case % 3 == 0 {
            let draws = 128 * (1 + below(3));
            (draws.div_ceil(subslots as u64) + below(3)).clamp(2, 65) as usize - 1
        } else {
            1 + below(64) as usize
        };
        let sizes: Vec<u64> = (0..n).map(|_| 1 + below(120)).collect();
        let total: u64 = sizes.iter().sum();
        let probs: Vec<f64> = (0..n)
            .map(|_| match below(12) {
                0 => 0.0,
                1 => 1.0,
                2 => f64::NAN,
                _ => below(1 << 20) as f64 / (1 << 20) as f64,
            })
            .collect();
        let (reward, cost) = match case % 4 {
            0 => ((1 << 53) / subslots as u64, 1 + below(1 << 40)),
            1 => (2 + below(5), 1),
            _ => (600 + 50 * case, 550),
        };
        let config = MergingConfig {
            reward: Amount::from_raw(reward),
            cost: Amount::from_raw(cost),
            lower_bound: match case % 5 {
                0 => 1,
                1 => total + 1,
                _ => 1 + below(total),
            },
            eta: 0.05 + below(20) as f64 * 0.01,
            subslots,
            tolerance: if case % 3 == 1 { 1e-9 } else { 5e-3 },
            // The full 1..=400 where a slot is cheap, a tenth of it
            // where a slot is thousands of tosses.
            max_slots: 1 + below(if n * subslots > 1024 { 40 } else { 400 }) as usize,
        };
        assert_eq!(config.validate(), Ok(()), "case {case}");
        let seed = below(u64::MAX);
        let want = reference_one_shot_merge(&sizes, &probs, &config, seed);
        let got =
            one_shot_merge(&sizes, &probs, &config, seed).expect("one probability per player");
        assert_merge_equal(case, &got, &want);
        multi_slot += u64::from(want.slots > 1);
        batched += u64::from(n * subslots.min(64) >= 128 + 8);
        satisfied += u64::from(want.satisfied);
    }
    // The grid is not one of first-slot exits, word-path draws or
    // one-sided outcomes.
    assert!(
        multi_slot >= 160,
        "only {multi_slot} cases ran a second slot"
    );
    assert!(
        batched >= 160,
        "only {batched} cases reach a 128-draw batch"
    );
    assert!((80..=240).contains(&satisfied), "{satisfied} satisfied");
}

#[test]
fn iterative_merge_matches_reference_on_stream_shaped_inputs() {
    // What `MergeStage` hands Algorithm 1 on the stream workloads: a few
    // dozen small shards far under a bound of 500, several rounds each.
    let config = MergingConfig {
        lower_bound: 500,
        ..MergingConfig::default()
    };
    let mut rounds = 0usize;
    for case in 0..20u64 {
        let mut gen = ChaCha8Rng::seed_from_u64(0x17E8_0000 ^ case);
        let n = 30 + (gen.gen::<u64>() % 31) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| 1 + gen.gen::<u64>() % 150).collect();
        let probs: Vec<f64> = (0..n).map(|_| 0.25 + 0.5 * gen.gen::<f64>()).collect();
        let seed = gen.gen::<u64>();
        let want = reference_iterative_merge(&sizes, &probs, &config, seed);
        let got =
            iterative_merge(&sizes, &probs, &config, seed).expect("one probability per player");
        assert_eq!(got.new_shards, want.new_shards, "case {case}");
        assert_eq!(got.leftover, want.leftover, "case {case}");
        assert_eq!(got.total_slots, want.total_slots, "case {case}");
        rounds += want.new_shards.len();
    }
    assert!(rounds >= 40, "only {rounds} shards formed over 20 inputs");
}

#[test]
fn merge_wrapper_matches_reference_on_degenerate_shapes() {
    let cfg = MergingConfig::default();
    // Empty game, single player, all-identical sizes, extreme probs.
    let shapes: Vec<(Vec<u64>, Vec<f64>)> = vec![
        (vec![], vec![]),
        (vec![30], vec![0.9]),
        (vec![30], vec![0.0]),
        (vec![7; 9], vec![1.0; 9]),
        (vec![1; 4], vec![0.5; 4]),
    ];
    for (case, (sizes, probs)) in shapes.into_iter().enumerate() {
        for seed in [0u64, 1, u64::MAX] {
            let want = reference_one_shot_merge(&sizes, &probs, &cfg, seed);
            let got =
                one_shot_merge(&sizes, &probs, &cfg, seed).expect("one probability per player");
            assert_merge_equal(case as u64, &got, &want);
        }
    }
}

fn assert_selection_equal(case: u64, got: &SelectionOutcome, want: &SelectionOutcome) {
    assert_eq!(
        got.assignments, want.assignments,
        "case {case}: assignments differ"
    );
    assert_eq!(got.load, want.load, "case {case}: load differs");
    assert_eq!(got.rounds, want.rounds, "case {case}: rounds differ");
    assert_eq!(
        got.potential.to_bits(),
        want.potential.to_bits(),
        "case {case}: potential differs ({} vs {})",
        got.potential,
        want.potential
    );
}

#[test]
fn best_reply_wrapper_matches_reference_over_200_seeded_cases() {
    for case in 0..200u64 {
        let mut gen = ChaCha8Rng::seed_from_u64(0xC3D4_0000 ^ case);
        let t = 1 + (gen.gen::<u64>() % 40) as usize;
        let fees: Vec<u64> = (0..t).map(|_| gen.gen::<u64>() % 1000).collect();
        let miners = 1 + (gen.gen::<u64>() % 8) as usize;
        let capacity = 1 + (gen.gen::<u64>() % 6) as usize;
        // Deliberately dirty initial sets: out of range, duplicated,
        // over- and under-sized — the sanitizer must agree too.
        let initial: Vec<Vec<usize>> = (0..miners)
            .map(|_| {
                let len = (gen.gen::<u64>() % (2 * capacity as u64 + 1)) as usize;
                (0..len)
                    .map(|_| (gen.gen::<u64>() % (t as u64 + 3)) as usize)
                    .collect()
            })
            .collect();
        let config = SelectionConfig {
            capacity,
            max_rounds: 10_000,
        };
        let want = reference_best_reply(&fees, &initial, &config);
        let got = best_reply_equilibrium(&fees, &initial, &config);
        assert_selection_equal(case, &got, &want);
    }
}

/// Where a certify-or-select kernel can actually part from the full
/// sort: at the paper's scale and beyond (t ≤ 400, miners ≤ 32,
/// capacity ≤ 16), on fee shapes chosen to stress the order itself.
///
/// * `Uniform{1..=100}` fees over hundreds of transactions — heavy value
///   ties, so most decisions fall to the index tie-break;
/// * fees ≥ 2⁵³, `u64::MAX` included, and runs of consecutive integers
///   up there — distinct fees that round to the same or adjacent
///   doubles, and quotients `fee / k` that collapse further;
/// * all-zero fees — every marginal value is `+0.0`;
/// * `capacity ≥ t` — every miner holds everything, nothing is unheld;
/// * dirty initial sets (out of range, duplicated, over- and
///   under-sized) and round caps of 1..=6 that bite mid-flight.
#[test]
fn best_reply_wrapper_matches_reference_at_paper_scale_and_on_hostile_fees() {
    const TWO_53: u64 = 1 << 53;
    let mut moved = 0u64;
    for case in 0..320u64 {
        let mut gen = ChaCha8Rng::seed_from_u64(0xE5F6_0000 ^ case);
        let mut below = |n: u64| gen.gen::<u64>() % n;
        let shape = case % 8;
        let capacity = 1 + below(16) as usize;
        let t = match shape {
            // capacity ≥ t: the clamp makes every set the whole game.
            5 => 1 + below(capacity as u64) as usize,
            // Every fourth case of the others at the full 400.
            _ if case % 32 < 8 => 400,
            _ => 1 + below(400) as usize,
        };
        let miners = 1 + below(32) as usize;
        let fees: Vec<u64> = match shape {
            // Anywhere in [2⁵³, u64::MAX], with the maximum itself planted.
            2 => {
                let mut fees: Vec<u64> = (0..t)
                    .map(|_| TWO_53 + below(u64::MAX - TWO_53 + 1))
                    .collect();
                fees[below(t as u64) as usize] = u64::MAX;
                fees
            }
            // Runs of consecutive integers just above 2⁵³ and just below
            // u64::MAX: neighbours share a double, or sit one ulp apart.
            3 => {
                let run = 1 + below(24);
                (0..t as u64)
                    .map(|j| match (j / run) % 3 {
                        0 => TWO_53 + j,
                        1 => u64::MAX - j,
                        _ => TWO_53 * (2 + j / run) + j % run,
                    })
                    .collect()
            }
            4 => vec![0; t],
            // Near-zero fees: ties everywhere, zeros among them.
            7 => (0..t).map(|_| below(4)).collect(),
            _ => (0..t).map(|_| 1 + below(100)).collect(),
        };
        let initial: Vec<Vec<usize>> = (0..miners)
            .map(|m| {
                if shape % 2 == 0 {
                    // The runtime's unified stride (`start_epoch`).
                    let offset = below(t as u64) as usize;
                    (0..capacity.min(t))
                        .map(|k| (offset + k * 7 + m) % t)
                        .collect()
                } else {
                    let len = below(2 * capacity as u64 + 1) as usize;
                    (0..len).map(|_| below(t as u64 + 3) as usize).collect()
                }
            })
            .collect();
        let config = SelectionConfig {
            capacity,
            max_rounds: match shape {
                6 => 1 + below(6) as usize,
                _ => 10_000,
            },
        };
        let want = reference_best_reply(&fees, &initial, &config);
        let got = best_reply_equilibrium(&fees, &initial, &config);
        assert_selection_equal(case, &got, &want);
        moved += u64::from(want.rounds > 1);
    }
    // The grid is not a grid of first-sweep certifications.
    assert!(moved >= 160, "only {moved} of 320 cases applied a move");
}

#[test]
fn best_reply_wrapper_matches_reference_on_degenerate_shapes() {
    let cfg = SelectionConfig {
        capacity: 3,
        max_rounds: 10_000,
    };
    let cases: Vec<(Vec<u64>, Vec<Vec<usize>>)> = vec![
        (vec![], vec![]),                           // nothing at all
        (vec![1, 2], vec![]),                       // txs but no miners
        (vec![0, 0, 0, 0], vec![vec![0], vec![1]]), // all-zero fees
        (vec![5], vec![vec![0], vec![0], vec![0]]), // one tx, many miners
        (vec![9; 6], vec![vec![9, 9, 9]; 4]),       // out-of-range duplicates
    ];
    for (case, (fees, initial)) in cases.into_iter().enumerate() {
        let want = reference_best_reply(&fees, &initial, &cfg);
        let got = best_reply_equilibrium(&fees, &initial, &cfg);
        assert_selection_equal(case as u64, &got, &want);
    }
}

#[test]
fn configs_with_tight_round_caps_agree_on_truncation() {
    // When the cap bites, both implementations must stop at the same
    // sweep with the same partial state.
    let fees: Vec<u64> = (1..=60).map(|i| i * 7 % 101).collect();
    let initial: Vec<Vec<usize>> = (0..7).map(|i| vec![i, i + 1, i + 2]).collect();
    for max_rounds in 1..=6 {
        let cfg = SelectionConfig {
            capacity: 3,
            max_rounds,
        };
        let want = reference_best_reply(&fees, &initial, &cfg);
        let got = best_reply_equilibrium(&fees, &initial, &cfg);
        assert_selection_equal(max_rounds as u64, &got, &want);
    }
}

#[test]
fn reward_cost_margins_do_not_break_equivalence() {
    // Sweep the merge game's payoff margin, including near-degenerate
    // reward ≈ cost games where the dynamics drift toward "stay".
    for case in 0..24u64 {
        let config = MergingConfig {
            reward: Amount::from_raw(600 + case * 50),
            cost: Amount::from_raw(550),
            lower_bound: 10,
            ..MergingConfig::default()
        };
        let sizes = vec![9u64, 9, 9, 9];
        let probs = vec![0.5; 4];
        let want = reference_one_shot_merge(&sizes, &probs, &config, case);
        let got =
            one_shot_merge(&sizes, &probs, &config, case).expect("one probability per player");
        assert_merge_equal(case, &got, &want);
    }
}
