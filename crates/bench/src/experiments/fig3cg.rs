//! Fig. 3(c)–(g): the inter-shard merging experiments.
//!
//! Sec. VI-C: nine shards, 2–7 of them small (1–9 transactions each, drawn
//! per seed), 200 transactions total, one miner per shard at one block per
//! minute. Five views of the same sweep:
//!
//! * (c) empty blocks per shard, before vs. after our merging;
//! * (d) throughput improvement, before vs. after our merging;
//! * (e) throughput improvement, ours vs. randomized (p = ½) merging;
//! * (f) empty blocks per shard, ours vs. randomized merging;
//! * (g) new shards formed, ours vs. randomized merging.
//!
//! The merge lower bound `L` is one block's worth of transactions: a merged
//! shard that can fill a block keeps earning fees instead of packing
//! empties, which is exactly the Eq. (1) incentive condition. (The paper's
//! small shards sum to well under its Sec. VI-B1 bound of 22, so its own
//! merging experiments necessarily run with a smaller `L` too.)

use crate::experiments::default_fees;
use crate::report::{ExperimentResult, Series};
use cshard_baselines::random_merge;
use cshard_core::formation::ShardPlan;
use cshard_core::pipeline::{form, fuse};
use cshard_core::simulate_ethereum;
use cshard_core::{simulate, RuntimeConfig, ShardSpec, ShardingSystem};
use cshard_core::{throughput_improvement, RunReport};
use cshard_core::{PipelineConfig, SystemConfig};
use cshard_games::MergingConfig;
use cshard_primitives::SimTime;
use cshard_workload::Workload;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// One block's worth — the merge bound for these experiments.
const LOWER_BOUND: u64 = 10;

/// The five rendered figures.
pub struct MergeFigures {
    /// Fig. 3(c).
    pub c: ExperimentResult,
    /// Fig. 3(d).
    pub d: ExperimentResult,
    /// Fig. 3(e).
    pub e: ExperimentResult,
    /// Fig. 3(f).
    pub f: ExperimentResult,
    /// Fig. 3(g).
    pub g: ExperimentResult,
}

#[derive(Default, Clone, Copy)]
struct Avg {
    imp_before: f64,
    imp_ours: f64,
    imp_random: f64,
    empty_before: f64,
    empty_ours: f64,
    empty_random: f64,
    shards_ours: f64,
    shards_random: f64,
}

fn small_sizes(count: usize, seed: u64) -> Vec<u64> {
    // "We only inject 1 to 9 transactions into a small shard."
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD00D);
    (0..count).map(|_| rng.gen_range(1..=9u64)).collect()
}

/// Runs the randomized-merging (p = ½) variant: same formation, coin-flip
/// coalitions instead of the game.
fn run_randomized(w: &Workload, cfg: &RuntimeConfig, seed: u64) -> (RunReport, usize) {
    let plan = ShardPlan::build(&w.transactions);
    let mut groups = form(&plan, &w.fees());
    let small: Vec<usize> = (0..groups.len())
        .filter(|&i| !groups[i].0.is_max_shard() && (groups[i].1.len() as u64) < LOWER_BOUND)
        .collect();
    let sizes: Vec<u64> = small.iter().map(|&i| groups[i].1.len() as u64).collect();
    let outcome = random_merge(&sizes, LOWER_BOUND, seed).expect("positive lower bound");

    // Fuse merged groups by the system's rule: keep the lowest id.
    let member_groups: Vec<Vec<usize>> = outcome
        .new_shards
        .iter()
        .map(|players| players.iter().map(|&p| small[p]).collect())
        .collect();
    fuse(&mut groups, &member_groups);

    let specs: Vec<ShardSpec> = groups
        .into_iter()
        .map(|(shard, queue)| ShardSpec::solo_greedy(shard, queue))
        .collect();
    (
        simulate(&specs, cfg).expect("valid config"),
        outcome.new_shard_count(),
    )
}

/// Empty blocks of the shards the merge acts on: the original small shards
/// (contract ids `0..small_count` by construction) and, after merging,
/// their merged successors (which keep the lowest member id) and leftovers.
/// Normalised by the original small-shard count so before/after compare the
/// same denominator.
fn small_shard_empties(run: &RunReport, small_count: usize) -> f64 {
    let total: usize = run
        .shards
        .iter()
        .filter(|s| !s.shard.is_max_shard() && (s.shard.0 as usize) < small_count)
        .map(|s| s.empty_blocks)
        .sum();
    total as f64 / small_count as f64
}

fn measure(small_count: usize, repeats: u64) -> Avg {
    let mut acc = Avg::default();
    for seed in 0..repeats {
        let sizes = small_sizes(small_count, seed);
        let w = Workload::with_small_shards(200, 9, small_count, &sizes, default_fees(), seed);
        // Empty blocks are counted within the paper's fixed 212 s window
        // (the Sec. VI-B1 balanced-run duration).
        let rt = RuntimeConfig {
            seed,
            empty_block_window: Some(SimTime::from_secs(212)),
            ..RuntimeConfig::default()
        };
        let ethereum = simulate_ethereum(w.fees(), 1, &rt).expect("valid config");

        let before = ShardingSystem::testbed(rt.clone())
            .run(&w)
            .expect("valid config");
        let ours = ShardingSystem::new(SystemConfig {
            runtime: rt.clone(),
            pipeline: PipelineConfig {
                merging: Some(MergingConfig {
                    lower_bound: LOWER_BOUND,
                    ..MergingConfig::default()
                }),
                ..PipelineConfig::default()
            },
            epoch: seed,
        })
        .run(&w)
        .expect("valid config");
        let (random_run, random_shards) = run_randomized(&w, &rt, seed);

        acc.imp_before += throughput_improvement(&ethereum, &before.run);
        acc.imp_ours += throughput_improvement(&ethereum, &ours.run);
        acc.imp_random += throughput_improvement(&ethereum, &random_run);
        acc.empty_before += small_shard_empties(&before.run, small_count);
        acc.empty_ours += small_shard_empties(&ours.run, small_count);
        acc.empty_random += small_shard_empties(&random_run, small_count);
        acc.shards_ours += ours.merge.as_ref().map_or(0, |m| m.new_shards) as f64;
        acc.shards_random += random_shards as f64;
    }
    let n = repeats as f64;
    Avg {
        imp_before: acc.imp_before / n,
        imp_ours: acc.imp_ours / n,
        imp_random: acc.imp_random / n,
        empty_before: acc.empty_before / n,
        empty_ours: acc.empty_ours / n,
        empty_random: acc.empty_random / n,
        shards_ours: acc.shards_ours / n,
        shards_random: acc.shards_random / n,
    }
}

/// Renders the five Fig. 3(c)–(g) views of one sweep, computed once per
/// process and `quick` value: `experiments all` asks for each id in turn.
pub fn run(quick: bool) -> MergeFigures {
    static SWEEPS: [OnceLock<Vec<(usize, Avg)>>; 2] = [OnceLock::new(), OnceLock::new()];
    let repeats = if quick { 5 } else { 30 };
    let data = SWEEPS[usize::from(quick)]
        .get_or_init(|| (2..=7).map(|k| (k, measure(k, repeats))).collect());

    let series = |f: fn(&Avg) -> f64| -> Vec<(f64, f64)> {
        data.iter().map(|&(k, ref a)| (k as f64, f(a))).collect()
    };
    let mean = |f: fn(&Avg) -> f64| -> f64 {
        data.iter().map(|(_, a)| f(a)).sum::<f64>() / data.len() as f64
    };

    let empty_reduction = 1.0 - mean(|a| a.empty_ours) / mean(|a| a.empty_before).max(1e-9);
    let imp_loss = 1.0 - mean(|a| a.imp_ours) / mean(|a| a.imp_before).max(1e-9);
    // The serialization cost of merging shows at the high end of the sweep,
    // where the merged shard carries the most transactions.
    let last = data.last().map(|&(_, a)| a).unwrap_or_default();
    let imp_loss_at_max = 1.0 - last.imp_ours / last.imp_before.max(1e-9);
    let imp_gain_vs_random = mean(|a| a.imp_ours) / mean(|a| a.imp_random).max(1e-9) - 1.0;
    let empty_gain_vs_random = 1.0 - mean(|a| a.empty_ours) / mean(|a| a.empty_random).max(1e-9);
    let shard_gain = mean(|a| a.shards_ours) / mean(|a| a.shards_random).max(1e-9) - 1.0;
    let setup_note = format!(
        "9 shards, 2-7 small (1-9 txs), 200 txs, 1 blk/min, L = {LOWER_BOUND}, {repeats} seeds/point"
    );

    MergeFigures {
        c: ExperimentResult {
            id: "fig3c".into(),
            title: "Empty blocks before/after inter-shard merging".into(),
            x_label: "small shards".into(),
            y_label: "empty blocks per small shard".into(),
            series: vec![
                Series::new("before merging", series(|a| a.empty_before)),
                Series::new("after merging", series(|a| a.empty_ours)),
            ],
            notes: vec![
                setup_note.clone(),
                format!(
                    "average empty-block reduction {:.0}% (paper: 90%)",
                    empty_reduction * 100.0
                ),
                "counts cover the shards the merge acts on; absolute scale differs from the \
                 paper's ~152/shard (its quoted 1 blk/min rate cannot produce 152 blocks in \
                 212 s) — the reduction ratio is the reproduced result"
                    .into(),
            ],
        },
        d: ExperimentResult {
            id: "fig3d".into(),
            title: "Throughput improvement before/after merging".into(),
            x_label: "small shards".into(),
            y_label: "throughput improvement".into(),
            series: vec![
                Series::new("before merging", series(|a| a.imp_before)),
                Series::new("after merging", series(|a| a.imp_ours)),
            ],
            notes: vec![
                setup_note.clone(),
                format!(
                    "merging costs {:.0}% of the throughput improvement on average and \
                     {:.0}% at 7 small shards (paper: 14%); at few small shards merging \
                     can even help by shortening the max-over-shards tail",
                    imp_loss * 100.0,
                    imp_loss_at_max * 100.0
                ),
            ],
        },
        e: ExperimentResult {
            id: "fig3e".into(),
            title: "Throughput: our merging vs. randomized merging".into(),
            x_label: "small shards".into(),
            y_label: "throughput improvement".into(),
            series: vec![
                Series::new("randomized merging", series(|a| a.imp_random)),
                Series::new("our merging", series(|a| a.imp_ours)),
            ],
            notes: vec![
                setup_note.clone(),
                format!(
                    "ours improves throughput {:.0}% over the randomized baseline (paper: 11%)",
                    imp_gain_vs_random * 100.0
                ),
            ],
        },
        f: ExperimentResult {
            id: "fig3f".into(),
            title: "Empty blocks: our merging vs. randomized merging".into(),
            x_label: "small shards".into(),
            y_label: "empty blocks per small shard".into(),
            series: vec![
                Series::new("randomized merging", series(|a| a.empty_random)),
                Series::new("our merging", series(|a| a.empty_ours)),
            ],
            notes: vec![
                setup_note.clone(),
                format!(
                    "ours leaves {:.0}% fewer empty blocks than randomized merging (paper: 4%)",
                    empty_gain_vs_random * 100.0
                ),
            ],
        },
        g: ExperimentResult {
            id: "fig3g".into(),
            title: "New shards: our merging vs. randomized merging".into(),
            x_label: "small shards".into(),
            y_label: "new shards".into(),
            series: vec![
                Series::new("randomized merging", series(|a| a.shards_random)),
                Series::new("our merging", series(|a| a.shards_ours)),
            ],
            notes: vec![
                setup_note,
                format!(
                    "ours forms {:.0}% more new shards (paper: 59%)",
                    shard_gain * 100.0
                ),
            ],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_wins_on_every_headline() {
        let figs = run(true);
        // (c): merging reduces empties substantially.
        let before = figs.c.series[0].mean_y();
        let after = figs.c.series[1].mean_y();
        assert!(
            after < before * 0.55,
            "empty reduction too weak: {after:.2} vs {before:.2}"
        );
        // (e): ours ≥ random on throughput (averaged over the sweep).
        assert!(
            figs.e.series[1].mean_y() >= figs.e.series[0].mean_y() * 0.95,
            "ours {:.2} vs random {:.2}",
            figs.e.series[1].mean_y(),
            figs.e.series[0].mean_y()
        );
        // (g): ours forms at least as many shards as random.
        assert!(figs.g.series[1].mean_y() >= figs.g.series[0].mean_y());
        // (g): more small shards → more new shards for ours.
        let ours = &figs.g.series[1].points;
        assert!(ours.last().unwrap().1 >= ours.first().unwrap().1);
    }
}
