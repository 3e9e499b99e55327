//! Empirical check of the paper's corruption analysis (Sec. IV-D).
//!
//! The analytic side (`cshard-security`) gives, per shard of size `n`
//! under an adversary controlling fraction `f` of mining power, the
//! probability that random assignment hands the adversary a strict
//! in-shard majority: `1 − shard_safety(n, f, Majority)`. This module
//! measures the same quantity *empirically*: mark `⌊f·M⌋` of `M` enrolled
//! miners malicious (chosen by PRF rank, so the choice is a pure function
//! of the seed and uncorrelated with the VRF keys that drive assignment),
//! run real epochs — [`EpochManager`] elects, the pipeline's
//! [`ClassifyStage`] classifies, [`EpochManager::assignment`] places every
//! miner — and count the shard-epochs where the malicious enrolment
//! actually holds a strict majority.
//!
//! The measured fraction must land within binomial sampling noise of the
//! analytic prediction — that is the chaos-suite assertion that ties the
//! simulator back to the paper's Eq. (3)–(6) bounds.

use crate::epoch::EpochManager;
use crate::pipeline::ClassifyStage;
use cshard_crypto::Prf;
use cshard_primitives::{Error, MinerId, ShardId};
use cshard_security::{shard_safety, CorruptionThreshold};
use cshard_workload::{FeeDistribution, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// The outcome of an empirical corruption measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct CorruptionMeasurement {
    /// Enrolled miner count `M`.
    pub miners: u32,
    /// Requested adversarial fraction `f` (the realized fraction is
    /// `⌊f·M⌋ / M`).
    pub malicious_fraction: f64,
    /// Epochs run.
    pub epochs: u64,
    /// Shard-epochs observed (shards vary per epoch with the workload).
    pub shard_epochs: usize,
    /// Shard-epochs where malicious miners held a strict majority.
    pub corrupted_shard_epochs: usize,
    /// `corrupted_shard_epochs / shard_epochs`.
    pub measured_corruption: f64,
    /// Mean over all observed shard-epochs of
    /// `1 − shard_safety(n_s, f, Majority)` at each shard's actual size
    /// `n_s` — the analytic prediction for this exact run shape.
    pub analytic_corruption: f64,
    /// Epochs whose elected leader was malicious.
    pub malicious_leader_epochs: usize,
    /// `malicious_leader_epochs / epochs` — should track the realized
    /// malicious fraction, since the VRF lottery is uniform.
    pub measured_leader_fraction: f64,
}

impl CorruptionMeasurement {
    /// The realized adversarial fraction `⌊f·M⌋ / M`.
    pub fn realized_fraction(&self) -> f64 {
        (self.malicious_fraction * f64::from(self.miners)).floor() / f64::from(self.miners)
    }

    /// Binomial standard deviation of the measured corruption estimator,
    /// `sqrt(p(1−p)/N)` at the analytic `p` — the natural tolerance unit
    /// for asserting measured ≈ analytic.
    pub fn sampling_sigma(&self) -> f64 {
        let p = self.analytic_corruption;
        if self.shard_epochs == 0 {
            return 0.0;
        }
        (p * (1.0 - p) / self.shard_epochs as f64).sqrt()
    }

    /// Whether the measured corruption is within `k` binomial sigmas of
    /// the analytic prediction (plus one quantization grain `1/N` so a
    /// prediction of exactly zero still admits zero observations).
    pub fn within_sigmas(&self, k: f64) -> bool {
        let grain = 1.0 / self.shard_epochs.max(1) as f64;
        (self.measured_corruption - self.analytic_corruption).abs()
            <= k * self.sampling_sigma() + grain
    }
}

const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 99 };

/// Picks `⌊f·M⌋` malicious miners by PRF rank over the seed — a choice
/// independent of the VRF keys that drive shard assignment, as the
/// paper's model requires (the adversary corrupts miners *before* the
/// epoch randomness is drawn).
fn malicious_set(miners: u32, fraction: f64, seed: u64) -> BTreeSet<MinerId> {
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the caller checks `fraction` lies in [0, 1], so the floor counts 0..=miners"
    )]
    let count = (fraction * f64::from(miners)).floor() as usize;
    let prf = Prf::new(seed.to_be_bytes());
    let mut ranked: Vec<(u64, u32)> = (0..miners)
        .map(|i| {
            (
                prf.eval_mod("malicious-rank-v1", u64::from(i).to_be_bytes(), u64::MAX),
                i,
            )
        })
        .collect();
    ranked.sort_unstable();
    ranked
        .into_iter()
        .take(count)
        .map(|(_, i)| MinerId::new(i))
        .collect()
}

/// Runs `epochs` real assignment epochs with `⌊f·M⌋` malicious miners and
/// measures how often a shard ends up with a malicious strict majority,
/// against the analytic `1 − shard_safety` prediction at each shard's
/// actual size. Pure function of `(miners, malicious_fraction, epochs,
/// txs_per_epoch, seed)`.
pub fn measure_corruption(
    miners: u32,
    malicious_fraction: f64,
    epochs: u64,
    txs_per_epoch: usize,
    seed: u64,
) -> Result<CorruptionMeasurement, Error> {
    if miners == 0 {
        return Err(Error::Config {
            field: "miners",
            reason: "need at least one enrolled miner".into(),
        });
    }
    if !(0.0..=1.0).contains(&malicious_fraction) {
        return Err(Error::Config {
            field: "malicious_fraction",
            reason: format!("{malicious_fraction} outside [0, 1]"),
        });
    }
    if epochs == 0 {
        return Err(Error::Config {
            field: "epochs",
            reason: "need at least one epoch".into(),
        });
    }
    let malicious = malicious_set(miners, malicious_fraction, seed);
    let realized = malicious.len() as f64 / f64::from(miners);

    let mut mgr = EpochManager::with_miner_count(miners);
    let mut stage = ClassifyStage::new();
    let mut shard_epochs = 0usize;
    let mut corrupted = 0usize;
    let mut malicious_leader_epochs = 0usize;
    let mut analytic_sum = 0.0f64;
    for step in 0..epochs {
        let batch = Workload::uniform_contracts(
            txs_per_epoch,
            5,
            FEES,
            seed ^ step.wrapping_mul(0xA5A5_5A5A),
        )
        .transactions;
        let (epoch, leader) = mgr.elect();
        let (plan, _) = stage.run(&batch);
        let assignment = mgr.assignment(epoch, leader, &plan)?;
        if malicious.contains(&leader) {
            malicious_leader_epochs += 1;
        }
        // Tally per-shard populations this epoch.
        let mut population: BTreeMap<ShardId, (u64, u64)> = BTreeMap::new();
        for (id, vrf) in mgr.miners() {
            let shard = assignment.shard_of(vrf.public_key());
            let entry = population.entry(shard).or_insert((0, 0));
            entry.0 += 1;
            if malicious.contains(&id) {
                entry.1 += 1;
            }
        }
        for (total, bad) in population.values() {
            shard_epochs += 1;
            // Strict majority corrupts a PoW shard (Sec. IV-D).
            if bad * 2 > *total {
                corrupted += 1;
            }
            analytic_sum += 1.0 - shard_safety(*total, realized, CorruptionThreshold::Majority);
        }
    }
    let measured_corruption = if shard_epochs == 0 {
        0.0
    } else {
        corrupted as f64 / shard_epochs as f64
    };
    let analytic_corruption = if shard_epochs == 0 {
        0.0
    } else {
        analytic_sum / shard_epochs as f64
    };
    Ok(CorruptionMeasurement {
        miners,
        malicious_fraction,
        epochs,
        shard_epochs,
        corrupted_shard_epochs: corrupted,
        measured_corruption,
        analytic_corruption,
        malicious_leader_epochs,
        measured_leader_fraction: malicious_leader_epochs as f64 / epochs as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_enrolment_measures_zero_corruption() {
        let m = measure_corruption(40, 0.0, 6, 80, 1).expect("valid");
        assert_eq!(m.corrupted_shard_epochs, 0);
        assert_eq!(m.measured_corruption, 0.0);
        assert_eq!(m.malicious_leader_epochs, 0);
        assert!(m.analytic_corruption.abs() < 1e-12);
        assert!(m.within_sigmas(3.0));
    }

    #[test]
    fn full_corruption_measures_one() {
        let m = measure_corruption(20, 1.0, 4, 60, 2).expect("valid");
        assert_eq!(m.corrupted_shard_epochs, m.shard_epochs);
        assert_eq!(m.measured_corruption, 1.0);
        assert_eq!(m.measured_leader_fraction, 1.0);
        assert!((m.analytic_corruption - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quarter_adversary_tracks_the_analytic_bound() {
        // Small shards (tens of miners over a handful of shards) keep the
        // analytic corruption probability non-trivial, so this exercises
        // the comparison away from both endpoints.
        let m = measure_corruption(60, 0.25, 24, 100, 3).expect("valid");
        assert!(m.shard_epochs > 24, "multiple shards per epoch expected");
        assert!(
            m.within_sigmas(4.0),
            "measured {} vs analytic {} (sigma {})",
            m.measured_corruption,
            m.analytic_corruption,
            m.sampling_sigma()
        );
        // The VRF lottery is uniform: malicious leadership tracks f.
        let expected = m.realized_fraction();
        let sigma = (expected * (1.0 - expected) / m.epochs as f64).sqrt();
        assert!(
            (m.measured_leader_fraction - expected).abs() <= 4.0 * sigma + 1.0 / m.epochs as f64,
            "leader fraction {} vs f {}",
            m.measured_leader_fraction,
            expected
        );
    }

    #[test]
    fn deterministic_across_replays() {
        let a = measure_corruption(30, 0.3, 8, 70, 9).expect("valid");
        let b = measure_corruption(30, 0.3, 8, 70, 9).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn malicious_choice_is_seed_keyed() {
        let a = malicious_set(50, 0.3, 1);
        let b = malicious_set(50, 0.3, 2);
        assert_eq!(a.len(), 15);
        assert_eq!(b.len(), 15);
        assert_ne!(a, b, "different seeds pick different miners");
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(measure_corruption(0, 0.2, 4, 50, 1).is_err());
        assert!(measure_corruption(10, 1.5, 4, 50, 1).is_err());
        assert!(measure_corruption(10, 0.2, 0, 50, 1).is_err());
    }
}
