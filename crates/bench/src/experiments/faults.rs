//! Fault-injection grid: measured vs. analytic corruption (Sec. IV-D)
//! and the malicious-leader fraction.
//!
//! Unlike the closed-form `sec4d` experiment, this one *runs* the system:
//! real epochs with a PRF-chosen malicious enrolment, counting the
//! shard-epochs where the adversary actually holds a strict majority and
//! the epochs whose VRF-elected leader is malicious. The measured
//! corruption curve must track `1 − shard_safety(n_s, f, Majority)` at
//! the observed shard sizes within binomial sampling noise — the
//! empirical check of the paper's Eq. (3)–(6) inputs.

use crate::experiments::grid_scheduler;
use crate::report::{ExperimentResult, Series};
use cshard_core::corruption::measure_corruption;

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

    // Leadership uniformity: the malicious-leader fraction should track f.
    let leader_track: Vec<(f64, f64)> = measurements
        .iter()
        .map(|m| (m.malicious_fraction, m.measured_leader_fraction))
        .collect();

    ExperimentResult {
        id: "faults".into(),
        title: "Fault injection: empirical corruption vs. Sec. IV-D bounds".into(),
        x_label: "adversary fraction f".into(),
        y_label: "corrupted shard-epoch fraction / malicious leader fraction".into(),
        series: vec![
            Series::new("measured corruption", measured),
            Series::new("analytic 1 - shard_safety (Majority)", analytic),
            Series::new("malicious leader fraction", leader_track),
        ],
        notes: vec![
            format!(
                "measured corruption within 4 binomial sigmas of the analytic bound at every \
                 f: {within} (worst deviation {worst_sigma:.2} sigma, {miners} miners, \
                 {epochs} epochs)"
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
        assert_eq!(r.series.len(), 3);
        assert!(
            r.notes[0].contains("every f: true"),
            "corruption bound check failed: {}",
            r.notes[0]
        );
        // Endpoint sanity: no adversary, no corruption.
        assert_eq!(r.series[0].points[0], (0.0, 0.0));
    }
}
