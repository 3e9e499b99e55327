//! The settlement grid: cross-shard messages per transaction vs. the
//! `cshard-settle` batch cap.
//!
//! The fig4(b) point charges ChainSpace-style 2PC two communication
//! times per cross-shard transaction. Batched settlement replaces the
//! per-transaction rounds with one `Crosslink` message per flushed
//! batch, so the messages-per-transaction curve should fall roughly as
//! `1 / cap` until the pair count floors it (at 9 shards there are at
//! most 72 ordered `(home, dest)` pairs, so one timeout flush per pair
//! bounds the cost from below). The headline acceptance point: cap 100
//! cuts messages by at least 10× against the per-transaction baseline.

use crate::experiments::fig4::chainspace_runtime;
use crate::experiments::{default_fees, grid_config, grid_scheduler};
use crate::report::{ExperimentResult, Series};
use cshard_baselines::ChainspacePlacement;
use cshard_core::{Runtime, SettleConfig};
use cshard_network::LatencyModel;
use cshard_primitives::SimTime;
use cshard_sim::SchedulerConfig;
use cshard_workload::Workload;

const SHARDS: usize = 9;
const SEED: u64 = 5;

/// The swept batch caps; cap 1 is the degenerate one-crosslink-per-
/// transfer ledger, included so the curve anchors at the unbatched end.
const CAPS: &[usize] = &[1, 2, 5, 10, 20, 50, 100];

/// Batched settlement with a timeout well past the run's active phase,
/// so batches fill to the cap instead of draining every default 500 ms
/// mining window.
fn wide(cap: usize) -> SettleConfig {
    SettleConfig {
        timeout: SimTime::from_secs(10),
        ..SettleConfig::batched(cap)
    }
}

/// Messages per cross-shard transaction for one run of the fig4(b)-style
/// point on an explicit scheduler. `settle = None` runs the
/// per-transaction 2PC baseline (two rounds per cross-shard tx).
fn messages_per_tx_on(count: usize, settle: Option<SettleConfig>, sched: SchedulerConfig) -> f64 {
    let w = Workload::three_input(count, 3, default_fees(), SEED);
    let placement = ChainspacePlacement::place(&w.transactions, SHARDS, SEED);
    let mut cfg = chainspace_runtime(SEED, 10);
    if let Some(settle) = settle {
        cfg.settle = settle;
    }
    let fees = w.fees();
    let outcome = Runtime::builder()
        .scheduler(sched)
        .run(placement.drivers(&fees, &cfg, LatencyModel::wide_area()))
        .expect("well-formed drivers");
    let cross = placement.cross_shard_count().max(1) as f64;
    outcome.comm.total() as f64 / cross
}

/// [`messages_per_tx_on`] under the driver's `--threads` setting.
fn messages_per_tx(count: usize, settle: Option<SettleConfig>) -> f64 {
    messages_per_tx_on(count, settle, grid_config())
}

/// The `settle` experiment: per-tx 2PC baseline vs. batched crosslinks
/// over the cap sweep.
pub fn run(quick: bool) -> ExperimentResult {
    let count = if quick { 600 } else { 4_000 };
    let baseline = messages_per_tx(count, None);
    // Each cap is an independent run — fan them out on the grid.
    let batched = grid_scheduler().map(CAPS.to_vec(), move |_, cap| {
        (cap as f64, messages_per_tx(count, Some(wide(cap))))
    });
    let baseline_pts: Vec<(f64, f64)> = CAPS.iter().map(|&c| (c as f64, baseline)).collect();
    let reduction = baseline
        / batched
            .last()
            .map_or(baseline, |&(_, y)| y.max(f64::MIN_POSITIVE));
    ExperimentResult {
        id: "settle".into(),
        title: "Cross-shard messages per tx vs. settlement batch cap".into(),
        x_label: "batch cap".into(),
        y_label: "messages per cross-shard tx".into(),
        series: vec![
            Series::new("per-tx 2PC (unbatched)", baseline_pts),
            Series::new("batched crosslinks", batched),
        ],
        notes: vec![
            format!("{SHARDS} shards, {count} 3-input txs, seed {SEED}, 10 s flush timeout"),
            format!("cap 100 reduction: {reduction:.1}× (acceptance floor: 10×)"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_100_cuts_messages_at_least_ten_x() {
        let r = run(true);
        let baseline = r.series[0].points[0].1;
        let (cap, batched) = *r.series[1].points.last().unwrap();
        assert_eq!(cap, 100.0);
        assert!(
            batched * 10.0 <= baseline,
            "cap 100: {batched:.3} msgs/tx vs baseline {baseline:.3}"
        );
    }

    #[test]
    fn batched_curve_is_monotone_in_the_cap() {
        let r = run(true);
        let pts = &r.series[1].points;
        for pair in pts.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1,
                "messages/tx rose with the cap: {pair:?}"
            );
        }
        // And even cap 1 never exceeds the 2-rounds-per-tx baseline.
        assert!(pts[0].1 <= r.series[0].points[0].1 + 1e-9);
    }

    #[test]
    fn grid_points_are_thread_count_invariant() {
        for settle in [None, Some(wide(7))] {
            let one = messages_per_tx_on(300, settle, SchedulerConfig::new(1));
            let four = messages_per_tx_on(300, settle, SchedulerConfig::new(4));
            let all = messages_per_tx_on(300, settle, SchedulerConfig::new(0));
            assert_eq!(one.to_bits(), four.to_bits(), "threads 1 vs 4 ({settle:?})");
            assert_eq!(one.to_bits(), all.to_bits(), "threads 1 vs 0 ({settle:?})");
        }
    }
}
