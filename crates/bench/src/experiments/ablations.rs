//! Ablations beyond the paper's own figures (DESIGN.md §8): each one
//! isolates a design choice and measures what it buys.

use crate::experiments::default_fees;
use crate::report::{ExperimentResult, Series};
use cshard_core::simulate_ethereum;
use cshard_core::throughput_improvement;
use cshard_core::{MinerAllocation, PipelineConfig, SystemConfig};
use cshard_core::{PropagationModel, RuntimeConfig, ShardingSystem};
use cshard_games::merging::optimal_new_shard_count;
use cshard_games::selection::{best_reply_equilibrium, SelectionConfig};
use cshard_games::{iterative_merge, one_shot_merge, MergingConfig};
use cshard_network::{GossipNet, LatencyModel};
use cshard_primitives::SimTime;
use cshard_security::{shard_safety, CorruptionThreshold};
use cshard_workload::{FeeDistribution, Workload};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Ablation: replicator step size η vs. convergence slots and merge
/// quality. Sec. V-B's O(M log 1/E) bound hides the η-dependence; too
/// small is slow, too large oscillates inside the clamp.
pub fn run_eta(quick: bool) -> ExperimentResult {
    let etas = [0.03f64, 0.06, 0.12, 0.24, 0.48];
    let repeats = if quick { 5 } else { 20 };
    let mut slots_pts = Vec::new();
    let mut satisfied_pts = Vec::new();
    for &eta in &etas {
        let mut slots = 0usize;
        let mut satisfied = 0usize;
        for seed in 0..repeats {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let sizes: Vec<u64> = (0..8).map(|_| rng.gen_range(1..=9)).collect();
            let cfg = MergingConfig {
                eta,
                lower_bound: 12,
                ..MergingConfig::default()
            };
            let out = one_shot_merge(&sizes, &[0.5; 8], &cfg, seed).expect("valid input");
            slots += out.slots;
            satisfied += usize::from(out.satisfied);
        }
        slots_pts.push((eta, slots as f64 / repeats as f64));
        satisfied_pts.push((eta, satisfied as f64 / repeats as f64));
    }
    ExperimentResult {
        id: "abl-eta".into(),
        title: "Ablation: merging-game step size".into(),
        x_label: "eta".into(),
        y_label: "slots to converge / success rate".into(),
        series: vec![
            Series::new("slots to converge", slots_pts),
            Series::new("satisfaction rate", satisfied_pts),
        ],
        notes: vec![
            format!("8 small shards (1-9 txs), L = 12, {repeats} seeds/point"),
            "small eta converges slowly; large eta still converges (the clamp bounds \
             oscillation) — the default 0.12 sits on the flat part of the success curve"
                .into(),
        ],
    }
}

/// Ablation: the runtime's conflict window vs. the Fig. 3(a)-style
/// improvement, plus the gossip-derived window of a real flooding network
/// for context.
pub fn run_window(quick: bool) -> ExperimentResult {
    let windows = [0u64, 15, 30, 60, 120];
    let repeats = if quick { 4 } else { 15 };
    let mut pts = Vec::new();
    for &w in &windows {
        let mut imp = 0.0;
        for seed in 0..repeats {
            let wl = Workload::uniform_contracts(200, 8, default_fees(), seed);
            let cfg = RuntimeConfig {
                seed,
                propagation: PropagationModel::Window(SimTime::from_secs(w)),
                ..RuntimeConfig::default()
            };
            let sharded = ShardingSystem::testbed(cfg.clone())
                .run(&wl)
                .expect("valid config");
            let eth = simulate_ethereum(wl.fees(), 9, &cfg).expect("valid config");
            imp += throughput_improvement(&eth, &sharded.run);
        }
        pts.push((w as f64, imp / repeats as f64));
    }
    // What a real gossip network would justify as the window.
    let gossip = GossipNet::random(100, 3, LatencyModel::wide_area(), 7);
    let coverage = gossip.full_coverage_time(0, 1);
    ExperimentResult {
        id: "abl-window".into(),
        title: "Ablation: conflict window vs. sharding advantage".into(),
        x_label: "conflict window (s)".into(),
        y_label: "improvement vs 9-miner Ethereum".into(),
        series: vec![Series::new("improvement", pts)],
        notes: vec![
            format!("9 shards vs 9-miner single chain, {repeats} seeds/point"),
            "with no window the single chain pools hash power and sharding's edge shrinks; \
             the advantage is the serialization the paper describes, not raw parallel hash \
             power"
                .into(),
            format!(
                "pure propagation over a 100-node wide-area gossip graph covers everyone in \
                 {coverage}; the 60 s default additionally models template-refresh lag"
            ),
        ],
    }
}

/// Ablation: selection-game distinct sets under different fee models —
/// reproduces the Fig. 5(b) degeneracy story at testbed scale.
pub fn run_fees(quick: bool) -> ExperimentResult {
    let miners = 9usize;
    let capacity = 10usize;
    let t = 200usize;
    let repeats = if quick { 5 } else { 20 };
    let models: [(&str, FeeDistribution); 4] = [
        ("constant", FeeDistribution::Constant(10)),
        ("uniform", FeeDistribution::Uniform { lo: 1, hi: 100 }),
        ("binomial", FeeDistribution::Binomial { n: 200 }),
        (
            "zipf",
            FeeDistribution::Zipf {
                max: 10_000,
                s: 1.4,
            },
        ),
    ];
    let mut series = Vec::new();
    for (name, model) in models {
        let mut pts = Vec::new();
        for seed in 0..repeats {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let fees: Vec<u64> = (0..t).map(|_| model.sample(&mut rng)).collect();
            let initial: Vec<Vec<usize>> = (0..miners)
                .map(|m| (0..capacity).map(|k| (m * capacity + k) % t).collect())
                .collect();
            let out = best_reply_equilibrium(
                &fees,
                &initial,
                &SelectionConfig {
                    capacity,
                    max_rounds: 10_000,
                },
            );
            pts.push((seed as f64, out.distinct_set_count() as f64));
        }
        let mean = pts.iter().map(|&(_, y)| y).sum::<f64>() / pts.len() as f64;
        series.push(Series::new(format!("{name} (mean {mean:.1})"), pts));
    }
    ExperimentResult {
        id: "abl-fees".into(),
        title: "Ablation: fee distribution vs. distinct equilibrium sets".into(),
        x_label: "seed".into(),
        y_label: "distinct sets (of 9 miners)".into(),
        series,
        notes: vec![
            format!("200 txs, 9 miners, capacity {capacity}, {repeats} seeds"),
            "spread fee mass (uniform/binomial) keeps all nine sets distinct; heavy \
             concentration (zipf) occasionally collapses them — the Fig. 5(b) mechanism"
                .into(),
        ],
    }
}

/// Ablation: the candidate-pool multiplier of Algorithm 1's per-round game
/// (our scale-free-band implementation choice) vs. merge quality.
pub fn run_pool(quick: bool) -> ExperimentResult {
    // The multiplier is baked into iterative_merge (2.5·L of expected
    // mass); emulate other pool sizes by slicing the player set before the
    // call, which is exactly what the multiplier controls.
    let n = if quick { 120 } else { 400 };
    let lower_bound = 22u64;
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=9)).collect();
    let optimal = optimal_new_shard_count(&sizes, lower_bound).expect("valid input") as f64;
    let cfg = MergingConfig {
        lower_bound,
        ..MergingConfig::default()
    };
    // Whole-population game (multiplier = ∞) vs. the bounded-pool default:
    // run one_shot repeatedly on the full remaining set, mimicking the
    // naive Algorithm 1.
    let naive = {
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut shards = 0usize;
        let mut round = 0u64;
        let mut dry = 0;
        while remaining.iter().map(|&i| sizes[i]).sum::<u64>() >= lower_bound && dry < 5 {
            let round_sizes: Vec<u64> = remaining.iter().map(|&i| sizes[i]).collect();
            let out = one_shot_merge(&round_sizes, &vec![0.5; round_sizes.len()], &cfg, round)
                .expect("valid input");
            round += 1;
            if out.satisfied {
                let members: Vec<usize> = out.merged.iter().map(|&j| remaining[j]).collect();
                let set: std::collections::BTreeSet<usize> = members.into_iter().collect();
                remaining.retain(|i| !set.contains(i));
                shards += 1;
                dry = 0;
            } else {
                dry += 1;
            }
        }
        shards as f64
    };
    let bounded = iterative_merge(&sizes, &vec![0.5; n], &cfg, 77)
        .expect("valid input")
        .new_shard_count() as f64;

    ExperimentResult {
        id: "abl-pool".into(),
        title: "Ablation: bounded candidate pool in Algorithm 1".into(),
        x_label: "variant".into(),
        y_label: "new shards (higher is better)".into(),
        series: vec![
            Series::new("optimal", vec![(0.0, optimal)]),
            Series::new("bounded pool (ours)", vec![(0.0, bounded)]),
            Series::new("whole-population game", vec![(0.0, naive)]),
        ],
        notes: vec![
            format!("{n} small shards, sizes ~U(1,9), L = {lower_bound}"),
            "playing each round among all remaining players drowns any single player's \
             marginal influence and the dynamics absorb at 'stay'; the bounded pool keeps \
             the replicator band scale-free (DESIGN.md §8)"
                .into(),
        ],
    }
}

/// Ablation: one-miner-per-shard vs. size-proportional miner allocation on
/// a skewed workload. Sec. III-B argues miners must track transaction
/// fractions ("MaxShard may contain more transactions than other shards,
/// thus more miners are required"); with the selection game giving
/// multi-miner shards parallel confirmation, proportional staffing should
/// beat flat staffing when load is skewed.
pub fn run_alloc(quick: bool) -> ExperimentResult {
    let repeats = if quick { 4 } else { 15 };
    let mut flat_pts = Vec::new();
    let mut prop_pts = Vec::new();
    for (x, zipf_s) in [(1usize, 0.2f64), (2, 0.6), (3, 1.0), (4, 1.4)] {
        let mut flat = 0.0;
        let mut proportional = 0.0;
        for seed in 0..repeats {
            let wl = Workload::heavy_tail(300, 9, zipf_s, default_fees(), seed);
            let rt = RuntimeConfig {
                seed,
                ..RuntimeConfig::default()
            };
            let eth = simulate_ethereum(wl.fees(), 1, &rt).expect("valid config");
            let total_miners = 18;
            let shard_count = {
                use cshard_core::ShardPlan;
                ShardPlan::build(&wl.transactions).active_shard_count()
            };
            let flat_run = ShardingSystem::new(SystemConfig {
                runtime: rt.clone(),
                pipeline: PipelineConfig {
                    selection: Some(1000),
                    allocation: MinerAllocation::PerShard((total_miners / shard_count).max(1)),
                    ..PipelineConfig::default()
                },
                ..SystemConfig::default()
            })
            .run(&wl)
            .expect("valid config");
            let prop_run = ShardingSystem::new(SystemConfig {
                runtime: rt.clone(),
                pipeline: PipelineConfig {
                    selection: Some(1000),
                    allocation: MinerAllocation::Proportional {
                        total: total_miners.max(shard_count),
                    },
                    ..PipelineConfig::default()
                },
                ..SystemConfig::default()
            })
            .run(&wl)
            .expect("valid config");
            flat += throughput_improvement(&eth, &flat_run.run);
            proportional += throughput_improvement(&eth, &prop_run.run);
        }
        flat_pts.push((x as f64, flat / repeats as f64));
        prop_pts.push((x as f64, proportional / repeats as f64));
    }
    let gain = prop_pts.iter().map(|&(_, y)| y).sum::<f64>()
        / flat_pts.iter().map(|&(_, y)| y).sum::<f64>()
        - 1.0;
    ExperimentResult {
        id: "abl-alloc".into(),
        title: "Ablation: flat vs size-proportional miner allocation".into(),
        x_label: "workload skew (1=mild Zipf(0.2) .. 4=heavy Zipf(1.4))".into(),
        y_label: "throughput improvement".into(),
        series: vec![
            Series::new("flat (equal per shard)", flat_pts),
            Series::new("proportional to size", prop_pts),
        ],
        notes: vec![
            format!("300 txs over 9 contracts, 18 miners total, {repeats} seeds/point"),
            format!(
                "proportional staffing yields {:+.0}% over flat staffing across the sweep — the Sec. III-B rationale, quantified",
                gain * 100.0
            ),
        ],
    }
}

/// Ablation: PoW-majority vs. BFT-third corruption thresholds for the
/// Fig. 1(d) safety question.
pub fn run_threshold(_quick: bool) -> ExperimentResult {
    let sizes: Vec<u64> = (5..=100).step_by(5).map(|n| n as u64).collect();
    let curve = |thr: CorruptionThreshold| -> Vec<(f64, f64)> {
        sizes
            .iter()
            .map(|&n| (n as f64, shard_safety(n, 0.25, thr)))
            .collect()
    };
    ExperimentResult {
        id: "abl-threshold".into(),
        title: "Ablation: corruption threshold (PoW majority vs BFT third)".into(),
        x_label: "miners in shard".into(),
        y_label: "safety at 25% adversary".into(),
        series: vec![
            Series::new("majority (>1/2)", curve(CorruptionThreshold::Majority)),
            Series::new("one-third (>1/3)", curve(CorruptionThreshold::OneThird)),
        ],
        notes: vec![
            "a BFT-sharded design (Omniledger-style) needs noticeably larger shards for \
             the same safety at the same adversary — the price of the 1/3 threshold"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_default_is_on_the_plateau() {
        let r = run_eta(true);
        let success = &r.series[1].points;
        let at_default = success.iter().find(|p| p.0 == 0.12).unwrap().1;
        assert!(at_default >= 0.8, "default eta success {at_default}");
    }

    #[test]
    fn window_matters() {
        let r = run_window(true);
        let pts = &r.series[0].points;
        let no_window = pts[0].1;
        let default = pts.iter().find(|p| p.0 == 60.0).unwrap().1;
        assert!(
            default > no_window,
            "serialization window must be what gives sharding its edge: {default:.2} vs {no_window:.2}"
        );
    }

    #[test]
    fn fee_spread_controls_distinctness() {
        let r = run_fees(true);
        let mean = |name: &str| {
            r.series
                .iter()
                .find(|s| s.name.starts_with(name))
                .unwrap()
                .mean_y()
        };
        assert!(
            mean("uniform") >= mean("zipf"),
            "{} vs {}",
            mean("uniform"),
            mean("zipf")
        );
        assert!(mean("constant") >= 8.0, "equal fees must spread fully");
    }

    #[test]
    fn bounded_pool_beats_whole_population() {
        let r = run_pool(true);
        let get = |name: &str| {
            r.series
                .iter()
                .find(|s| s.name.starts_with(name))
                .unwrap()
                .points[0]
                .1
        };
        assert!(get("bounded") > get("whole-population"));
        assert!(get("bounded") <= get("optimal") + 1e-9);
    }

    #[test]
    fn alloc_ablation_runs_and_compares() {
        let r = run_alloc(true);
        assert_eq!(r.series.len(), 2);
        for s in &r.series {
            assert_eq!(s.points.len(), 4);
            assert!(s.points.iter().all(|&(_, y)| y > 0.5));
        }
    }

    #[test]
    fn majority_threshold_dominates() {
        let r = run_threshold(true);
        for (m, t) in r.series[0].points.iter().zip(&r.series[1].points) {
            assert!(m.1 >= t.1);
        }
    }
}
