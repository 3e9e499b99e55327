//! Fault-injection grid: measured vs. analytic corruption (Sec. IV-D)
//! plus leader-failover recovery under the VRF ranking.
//!
//! Unlike the closed-form `sec4d` experiment, this one *runs* the system:
//! real epochs with a PRF-chosen malicious enrolment, counting the
//! shard-epochs where the adversary actually holds a strict majority, and
//! real crash/failover sequences measuring recovery latency. The measured
//! corruption curve must track `1 − shard_safety(n_s, f, Majority)` at
//! the observed shard sizes within binomial sampling noise — the
//! empirical check of the paper's Eq. (3)–(6) inputs.

use crate::experiments::grid_scheduler;
use crate::report::{ExperimentResult, Series};
use cshard_faults::{measure_corruption, run_leader_faults, LeaderFaultPlan};
use cshard_primitives::SimTime;

/// Runs the faults grid. `quick` shrinks epoch counts for CI.
pub fn run(quick: bool) -> ExperimentResult {
    let (miners, epochs, txs) = if quick { (60, 12, 80) } else { (120, 60, 200) };
    let fractions: Vec<f64> = (0..=7).map(|i| 0.05 * i as f64).collect();

    // Corruption sweep: each fraction is an independent measurement, so
    // fan the grid points out (each is a pure function of its inputs).
    let measurements = grid_scheduler().map(fractions.clone(), move |_, f| {
        measure_corruption(miners, f, epochs, txs, 0xFA017)
            .unwrap_or_else(|e| panic!("corruption measurement at f={f}: {e}"))
    });
    let measured: Vec<(f64, f64)> = measurements
        .iter()
        .map(|m| (m.malicious_fraction, m.measured_corruption))
        .collect();
    let analytic: Vec<(f64, f64)> = measurements
        .iter()
        .map(|m| (m.malicious_fraction, m.analytic_corruption))
        .collect();
    let worst_sigma = measurements
        .iter()
        .filter(|m| m.sampling_sigma() > 0.0)
        .map(|m| (m.measured_corruption - m.analytic_corruption).abs() / m.sampling_sigma())
        .fold(0.0f64, f64::max);
    let within = measurements.iter().all(|m| m.within_sigmas(4.0));

    // Failover sweep: crash the top-k ranked leaders of every epoch and
    // measure recovery latency (k timeouts) against the epoch interval.
    let timeout = SimTime::from_secs(10);
    let epoch_interval = SimTime::from_secs(120);
    let depths: Vec<usize> = (0..=4).collect();
    let failover: Vec<(f64, f64)> = depths
        .iter()
        .map(|&k| {
            let mut plan = LeaderFaultPlan::healthy(6, timeout, epoch_interval);
            for e in 0..plan.epochs {
                plan.crashed_ranks.insert(e, k);
            }
            let report = run_leader_faults(24, &plan)
                .unwrap_or_else(|e| panic!("failover run at depth {k}: {e}"));
            (k as f64, report.max_recovery_latency().as_secs_f64())
        })
        .collect();
    let worst_recovery = failover.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);

    // Leadership uniformity: the malicious-leader fraction should track f.
    let leader_track: Vec<(f64, f64)> = measurements
        .iter()
        .map(|m| (m.malicious_fraction, m.measured_leader_fraction))
        .collect();

    ExperimentResult {
        id: "faults".into(),
        title: "Fault injection: empirical corruption vs. Sec. IV-D bounds, VRF failover".into(),
        x_label: "adversary fraction f (corruption) / crashed ranks k (failover)".into(),
        y_label: "corrupted shard-epoch fraction / recovery latency (s)".into(),
        series: vec![
            Series::new("measured corruption", measured),
            Series::new("analytic 1 - shard_safety (Majority)", analytic),
            Series::new("malicious leader fraction", leader_track),
            Series::new("failover recovery latency (s) vs crashed ranks", failover),
        ],
        notes: vec![
            format!(
                "measured corruption within 4 binomial sigmas of the analytic bound at every \
                 f: {within} (worst deviation {worst_sigma:.2} sigma, {miners} miners, \
                 {epochs} epochs)"
            ),
            format!(
                "worst-case failover recovery {worst_recovery:.0} s = k x {timeout} timeout; \
                 stays under the {epoch_interval} epoch interval for k <= 4 — recovery within \
                 one epoch"
            ),
            "corruption = strict malicious majority in a shard-epoch; malicious miners chosen \
             by PRF rank, independent of the VRF assignment randomness"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_tracks_the_analytic_bound() {
        let r = run(true);
        assert_eq!(r.series.len(), 4);
        assert!(
            r.notes[0].contains("every f: true"),
            "corruption bound check failed: {}",
            r.notes[0]
        );
        // Endpoint sanity: no adversary, no corruption.
        assert_eq!(r.series[0].points[0], (0.0, 0.0));
    }

    #[test]
    fn failover_latency_grows_linearly_with_depth() {
        let r = run(true);
        let failover = &r.series[3].points;
        assert_eq!(failover[0], (0.0, 0.0), "healthy epochs recover instantly");
        for w in failover.windows(2) {
            assert!(w[1].1 >= w[0].1, "latency not monotone in depth");
        }
        // Depth 4 at a 10 s timeout: 40 s, inside the 120 s epoch.
        assert!(failover[4].1 <= 120.0);
    }
}
