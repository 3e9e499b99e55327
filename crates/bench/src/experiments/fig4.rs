//! Fig. 4: the ChainSpace comparison.
//!
//! * (a) throughput improvement, our sharding vs. ChainSpace-style random
//!   sharding, 1–9 shards. Sec. VI-B2 unifies the confirmation speed at 76
//!   transactions per second per miner (mining difficulty 0xd79), so the
//!   runtime's block interval is `capacity / 76` seconds.
//! * (b) communication times per shard vs. the number of injected 3-input
//!   transactions: zero for the contract-centric design (every multi-input
//!   transaction lives wholly inside the MaxShard), linear for ChainSpace.
//! * (c) communication times per shard during the merging process: the
//!   constant 2 of parameter unification (submit statistics + receive the
//!   broadcast), independent of the number of small shards.

use crate::experiments::{default_fees, grid_config, grid_scheduler};
use crate::report::{ExperimentResult, Series};
use cshard_baselines::ChainspacePlacement;
use cshard_core::simulate_ethereum;
use cshard_core::system::SystemConfig;
use cshard_core::throughput_improvement;
use cshard_core::{PropagationModel, Runtime, RuntimeConfig, ShardingSystem};
use cshard_games::MergingConfig;
use cshard_network::{CommKind, LatencyModel};
use cshard_primitives::SimTime;
use cshard_workload::Workload;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Sec. VI-B2: one miner confirms 76 transactions per second. Shared
/// with the settlement grid (`experiments settle`), which runs the same
/// fig4(b)-style point under batched crosslinks.
pub(crate) fn chainspace_runtime(seed: u64, capacity: usize) -> RuntimeConfig {
    let interval = capacity as f64 / 76.0;
    RuntimeConfig {
        block_capacity: capacity,
        mean_block_interval: SimTime::from_secs_f64(interval),
        propagation: PropagationModel::Window(SimTime::from_secs_f64(interval)),
        empty_block_window: None,
        seed,
        ..RuntimeConfig::default()
    }
}

/// Fig. 4(a): throughput improvement, ours vs. ChainSpace.
pub fn run_a(quick: bool) -> ExperimentResult {
    let total = if quick { 2_400 } else { 24_000 };
    let repeats = if quick { 2 } else { 5 };
    let mut ours_pts = Vec::new();
    let mut cs_pts = Vec::new();
    for shards in 1..=9usize {
        let mut ours_imp = 0.0;
        let mut cs_imp = 0.0;
        for seed in 0..repeats {
            let cfg = chainspace_runtime(seed, 10);
            let w = Workload::uniform_contracts(total, shards - 1, default_fees(), seed);
            let ethereum = simulate_ethereum(w.fees(), 1, &cfg).expect("valid config");

            // Ours: contract-centric formation.
            let sharded = ShardingSystem::testbed(cfg.clone())
                .run(&w)
                .expect("valid config");
            ours_imp += throughput_improvement(&ethereum, &sharded.run);

            // ChainSpace: uniform random placement of the same
            // transactions, run as protocol drivers on the shared loop
            // (home-queue mining plus scheduled 2PC validation rounds;
            // the mining trajectory — and so the throughput — matches a
            // plain sharded run of the same placement).
            let placement = ChainspacePlacement::place(&w.transactions, shards, seed);
            let fees = w.fees();
            let cs_run = Runtime::builder()
                .scheduler(grid_config())
                .run(placement.drivers(&fees, &cfg, LatencyModel::wide_area()))
                .expect("well-formed drivers")
                .report;
            cs_imp += throughput_improvement(&ethereum, &cs_run);
        }
        ours_pts.push((shards as f64, ours_imp / repeats as f64));
        cs_pts.push((shards as f64, cs_imp / repeats as f64));
    }
    ExperimentResult {
        id: "fig4a".into(),
        title: "Throughput improvement: our sharding vs. ChainSpace".into(),
        x_label: "shards".into(),
        y_label: "throughput improvement".into(),
        series: vec![
            Series::new("our sharding", ours_pts),
            Series::new("ChainSpace", cs_pts),
        ],
        notes: vec![
            format!("{total} txs, 76 tx/s per miner, {repeats} seeds/point"),
            "both schemes parallelize equally well — the difference is communication \
             (Fig. 4(b)), not throughput (paper: 'not worse than ChainSpace')"
                .into(),
        ],
    }
}

/// Fig. 4(b): per-shard communication vs. number of 3-input transactions.
pub fn run_b(quick: bool) -> ExperimentResult {
    let shards = 9usize;
    let repeats = if quick { 3 } else { 20 };
    let xs: Vec<usize> = if quick {
        vec![0, 500, 1000, 2000]
    } else {
        vec![0, 4_000, 8_000, 12_000, 16_000, 20_000]
    };
    let mut ours_pts = Vec::new();
    let mut cs_pts = Vec::new();
    for &count in &xs {
        // The repeats are independently seeded runs — fan them out.
        let per_seed = grid_scheduler().map((0..repeats).collect(), move |_, seed| {
            let w = Workload::three_input(count, 3, default_fees(), seed);
            // ChainSpace: random placement, then an actual run — each 2PC
            // validation round is a scheduled event that books one
            // communication time as it fires (no post-hoc bookkeeping).
            let placement = ChainspacePlacement::place(&w.transactions, shards, seed);
            let cfg = chainspace_runtime(seed, 10);
            let fees = w.fees();
            let outcome = Runtime::builder()
                .run(placement.drivers(&fees, &cfg, LatencyModel::wide_area()))
                .expect("well-formed drivers");
            // The 2PC rounds are the only kind booked.
            let cs = outcome.comm;
            assert_eq!(cs.total(), cs.for_kind(CommKind::CrossShardValidation));

            // Ours: every 3-input tx is MaxShard-internal → zero rounds.
            let sharded = ShardingSystem::testbed(chainspace_runtime(seed, 10));
            let report = sharded.run(&w).expect("valid config");
            assert_eq!(report.comm.total(), 0);
            cs.per_shard_average(shards)
        });
        let cs_avg: f64 = per_seed.iter().sum();
        ours_pts.push((count as f64, 0.0));
        cs_pts.push((count as f64, cs_avg / repeats as f64));
    }
    ExperimentResult {
        id: "fig4b".into(),
        title: "Communication times per shard vs. 3-input transactions".into(),
        x_label: "3-input transactions".into(),
        y_label: "communication times per shard".into(),
        series: vec![
            Series::new("our sharding", ours_pts),
            Series::new("ChainSpace", cs_pts),
        ],
        notes: vec![
            format!("9 shards, {repeats} repeats/point, 2 rounds per cross-shard tx"),
            "ours stays at zero — multi-input senders classify into the MaxShard, whose \
             miners hold all required state (paper: identical result)"
                .into(),
        ],
    }
}

/// Fig. 4(c): per-shard communication during merging vs. small-shard count.
pub fn run_c(quick: bool) -> ExperimentResult {
    let total = if quick { 2_400 } else { 24_000 };
    let mut pts = Vec::new();
    for small in 0..=6usize {
        let shards = 7;
        let sizes: Vec<u64> = {
            // "We only inject 1000 transactions into a small shard" —
            // scaled to the workload size.
            let mut rng = ChaCha8Rng::seed_from_u64(small as u64);
            (0..small)
                .map(|_| (total as u64 / 24).max(1) + rng.gen_range(0..10))
                .collect()
        };
        let w = Workload::with_small_shards(total, shards, small, &sizes, default_fees(), 1);
        let report = ShardingSystem::new(SystemConfig {
            runtime: chainspace_runtime(1, 10),
            merging: Some(MergingConfig {
                // Small = under ~1/12 of the load: the injected small
                // shards (total/24 txs, mirroring the paper's 1000 of
                // 24000) qualify; the regular shards (>= total/7) do not.
                lower_bound: total as u64 / 12,
                ..MergingConfig::default()
            }),
            ..SystemConfig::default()
        })
        .run(&w)
        .expect("valid config");
        let per_shard = if small == 0 {
            0.0
        } else {
            report.comm.total() as f64 / small as f64
        };
        pts.push((small as f64, per_shard));
    }
    ExperimentResult {
        id: "fig4c".into(),
        title: "Communication times per shard during merging".into(),
        x_label: "small shards".into(),
        y_label: "communication times per shard".into(),
        series: vec![Series::new("our merging (unification)", pts)],
        notes: vec![
            format!("7 shards, {total} txs total"),
            "constant 2 per participating shard: submit the transaction count to the \
             verifiable leader, receive the unified-parameter broadcast (paper: 2)"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_schemes_are_comparable() {
        let r = run_a(true);
        let ours = &r.series[0].points;
        let cs = &r.series[1].points;
        // Both improve with shards and end within 40% of each other.
        assert!(ours[8].1 > 2.0, "ours at 9: {:.2}", ours[8].1);
        assert!(cs[8].1 > 2.0, "ChainSpace at 9: {:.2}", cs[8].1);
        let ratio = ours[8].1 / cs[8].1;
        assert!((0.6..=1.7).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn fig4b_ours_zero_chainspace_linear() {
        let r = run_b(true);
        let ours = &r.series[0].points;
        let cs = &r.series[1].points;
        assert!(ours.iter().all(|&(_, y)| y == 0.0));
        // Linear: y at the last x ≈ (last x / mid x) × y at mid x.
        let mid = cs[2];
        let last = *cs.last().unwrap();
        let expected = last.0 / mid.0 * mid.1;
        assert!(
            (last.1 - expected).abs() / expected < 0.1,
            "not linear: {last:?} vs expected {expected:.1}"
        );
        // Scale: 2 rounds per cross-shard tx over 9 shards.
        assert!((last.1 - 2.0 * last.0 / 9.0).abs() / last.1 < 0.1);
    }

    #[test]
    fn fig4c_is_constant_two() {
        let r = run_c(true);
        for &(x, y) in &r.series[0].points {
            if x == 0.0 {
                assert_eq!(y, 0.0);
            } else {
                assert!((y - 2.0).abs() < 1e-9, "at {x}: {y}");
            }
        }
    }
}
