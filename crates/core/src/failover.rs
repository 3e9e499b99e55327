//! Leader faults at the epoch layer: crashes and equivocation, recovered
//! by VRF-ranked failover.
//!
//! The paper's unification scheme (Sec. IV-C) hangs one epoch's parameters
//! off a single VRF-elected leader. This module exercises the two ways that
//! leader can fail and the deterministic recovery path of the leader
//! schedule, [`EpochManager::elect_skipping`]. Only the schedule
//! runs: which leader takes over depends on no transaction, so no
//! workload is generated or classified here.
//!
//! * **Crash** — the leader never broadcasts. After a timeout every miner
//!   advances to the next entry of the epoch's VRF ranking
//!   ([`EpochManager::leader_ranking`]); all of them replay the same ranking,
//!   so the fallback is agreed without a view-change protocol. Recovery
//!   latency is `failover_depth × timeout`.
//! * **Equivocation** — the leader broadcasts *two* conflicting parameter
//!   sets. Honest miners compare `UnifiedParameters::digest()` values; a
//!   mismatch for the same epoch is a transferable proof of misbehaviour,
//!   the leader is treated as down, and the crash path takes over.

use crate::epoch::EpochManager;
use cshard_games::{GameInputs, SelectionConfig, UnifiedParameters};
use cshard_primitives::{Error, MinerId, ShardId, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Whether two same-epoch leader broadcasts are an equivocation proof:
/// their canonical content digests differ. (Re-broadcasting the identical
/// parameters — e.g. a gossip duplicate — is not equivocation.)
pub fn equivocation_detected(a: &UnifiedParameters, b: &UnifiedParameters) -> bool {
    a.digest() != b.digest()
}

/// A schedule of leader faults over an epoch sequence.
#[derive(Clone, Debug)]
pub struct LeaderFaultPlan {
    /// How many epochs to run.
    pub epochs: u64,
    /// Broadcast timeout per failover rank: a miner waits this long for
    /// rank `k`'s parameters before advancing to rank `k + 1`.
    pub timeout: SimTime,
    /// Nominal epoch duration — recovery is "within one epoch" when
    /// `failover_depth × timeout` stays below this.
    pub epoch_interval: SimTime,
    /// Per epoch, how many of the top-ranked leaders crash (never
    /// broadcast). Missing epochs are healthy.
    pub crashed_ranks: BTreeMap<u64, usize>,
    /// Epochs whose acting primary equivocates: it broadcasts two
    /// conflicting parameter sets, is caught by digest comparison, and is
    /// treated as down on top of any crashes.
    pub equivocators: BTreeSet<u64>,
}

impl LeaderFaultPlan {
    /// A healthy plan: no crashes, no equivocation.
    pub fn healthy(epochs: u64, timeout: SimTime, epoch_interval: SimTime) -> Self {
        LeaderFaultPlan {
            epochs,
            timeout,
            epoch_interval,
            crashed_ranks: BTreeMap::new(),
            equivocators: BTreeSet::new(),
        }
    }

    /// Validates the plan: at least one epoch, a positive timeout, and an
    /// interval long enough to matter.
    pub fn validate(&self) -> Result<(), Error> {
        let bad = |reason: String| Error::Config {
            field: "leader_fault_plan",
            reason,
        };
        if self.epochs == 0 {
            return Err(bad("needs at least one epoch".into()));
        }
        if self.timeout == SimTime::ZERO {
            return Err(bad("broadcast timeout must be positive".into()));
        }
        if self.epoch_interval < self.timeout {
            return Err(bad(format!(
                "epoch interval {} shorter than one timeout {}",
                self.epoch_interval, self.timeout
            )));
        }
        Ok(())
    }
}

/// One epoch under the fault plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochFaultOutcome {
    /// Epoch number.
    pub epoch: u64,
    /// Who ended up leading.
    pub leader: MinerId,
    /// Ranks skipped before a live leader was found.
    pub failover_depth: usize,
    /// `failover_depth × timeout`: how long miners waited past the
    /// nominal broadcast before this epoch's parameters arrived.
    pub recovery_latency: SimTime,
    /// The epoch's primary was caught equivocating.
    pub equivocation_detected: bool,
    /// The failover claim verified against the public ranking (always
    /// checked; recorded so the chaos suite can assert it).
    pub failover_verified: bool,
}

/// The whole fault sequence, summarized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochFaultReport {
    /// Per-epoch outcomes, in epoch order.
    pub outcomes: Vec<EpochFaultOutcome>,
    /// Epochs that stalled entirely (every ranked leader down) before
    /// the run declared them lost and moved on.
    pub stalled_epochs: usize,
}

impl EpochFaultReport {
    /// The worst recovery latency that occurred.
    pub fn max_recovery_latency(&self) -> SimTime {
        self.outcomes
            .iter()
            .map(|o| o.recovery_latency)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// True when every epoch's parameters arrived within one epoch
    /// interval — the recovery bound the chaos suite asserts.
    pub fn recovered_within(&self, epoch_interval: SimTime) -> bool {
        self.outcomes
            .iter()
            .all(|o| o.recovery_latency < epoch_interval)
    }
}

/// Runs `plan.epochs` epochs over `miners` enrolled miners, injecting the
/// planned leader faults and recovering via VRF-ranked failover. A pure
/// function of `(miners, plan)`: the leader schedule depends on no
/// transaction, so no workload is generated.
///
/// Each epoch:
/// 1. compute the public leader ranking;
/// 2. mark the top `crashed_ranks[epoch]` entries down;
/// 3. if the epoch is in `equivocators`, let the acting primary (first
///    live rank) broadcast two conflicting parameter sets, detect the
///    digest mismatch, and mark it down too;
/// 4. elect past the down-set (`EpochManager::elect_skipping`) — every
///    miner replays the same ranking, so the resulting leader is
///    byte-agreed — and verify the failover claim against public data;
/// 5. if *no* ranked leader is live, count the epoch as stalled, heal the
///    faults (operators restart miners), and retry once.
pub fn run_leader_faults(miners: u32, plan: &LeaderFaultPlan) -> Result<EpochFaultReport, Error> {
    plan.validate()?;
    if miners == 0 {
        return Err(Error::Config {
            field: "miners",
            reason: "need at least one enrolled miner".into(),
        });
    }
    let mut mgr = EpochManager::with_miner_count(miners);
    let mut outcomes = Vec::new();
    let mut stalled_epochs = 0;
    for step in 0..plan.epochs {
        let epoch = mgr.epoch();
        let ranking = mgr.leader_ranking(epoch);
        let crash_depth = plan.crashed_ranks.get(&step).copied().unwrap_or(0);
        let mut down: BTreeSet<MinerId> = ranking.iter().take(crash_depth).copied().collect();

        // Equivocation: the acting primary signs two conflicting inputs.
        let mut equivocation = false;
        if plan.equivocators.contains(&step) {
            if let Some(&primary) = ranking.iter().find(|id| !down.contains(id)) {
                if let Some((_, vrf)) = mgr.miners().find(|&(id, _)| id == primary) {
                    let ids: Vec<MinerId> = mgr.miners().map(|(id, _)| id).collect();
                    let broadcast = |fees: Vec<u64>| {
                        UnifiedParameters::from_leader(
                            vrf,
                            epoch,
                            ids.clone(),
                            GameInputs::Select {
                                shard: ShardId::new(0),
                                fees,
                                config: SelectionConfig::default(),
                            },
                        )
                    };
                    let honest = broadcast(vec![1, 2, 3]);
                    let forked = broadcast(vec![1, 2, 4]);
                    equivocation = equivocation_detected(&honest, &forked);
                    if equivocation {
                        down.insert(primary);
                    }
                }
            }
        }

        let outcome = match mgr.elect_skipping(&down) {
            Ok((epoch, leader, failover_depth)) => EpochFaultOutcome {
                epoch,
                leader,
                failover_depth,
                recovery_latency: SimTime::from_millis(
                    plan.timeout
                        .as_millis()
                        .saturating_mul(failover_depth as u64),
                ),
                equivocation_detected: equivocation,
                failover_verified: mgr.verify_failover(epoch, &down, leader),
            },
            // Every candidate is down (the walk's only error): the epoch
            // stalls until operators restore miners; model one lost
            // interval, then elect healthy.
            Err(_) => {
                stalled_epochs += 1;
                let (epoch, leader) = mgr.elect();
                EpochFaultOutcome {
                    epoch,
                    leader,
                    failover_depth: 0,
                    recovery_latency: plan.epoch_interval,
                    equivocation_detected: equivocation,
                    failover_verified: true,
                }
            }
        };
        outcomes.push(outcome);
    }
    Ok(EpochFaultReport {
        outcomes,
        stalled_epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_plan(epochs: u64) -> LeaderFaultPlan {
        LeaderFaultPlan::healthy(epochs, SimTime::from_secs(10), SimTime::from_secs(60))
    }

    #[test]
    fn healthy_epochs_have_zero_depth_and_latency() {
        let report = run_leader_faults(12, &base_plan(5)).expect("valid");
        assert_eq!(report.outcomes.len(), 5);
        assert_eq!(report.stalled_epochs, 0);
        assert!(report.outcomes.iter().all(|o| o.failover_depth == 0));
        assert_eq!(report.max_recovery_latency(), SimTime::ZERO);
        assert!(report.outcomes.iter().all(|o| o.failover_verified));
    }

    #[test]
    fn crashed_leaders_fail_over_within_one_epoch() {
        let mut plan = base_plan(6);
        plan.crashed_ranks.insert(1, 1);
        plan.crashed_ranks.insert(3, 2);
        let report = run_leader_faults(12, &plan).expect("valid");
        assert_eq!(report.outcomes[1].failover_depth, 1);
        assert_eq!(report.outcomes[3].failover_depth, 2);
        assert_eq!(
            report.outcomes[3].recovery_latency,
            SimTime::from_secs(20),
            "depth 2 × 10 s timeout"
        );
        assert!(report.recovered_within(plan.epoch_interval));
        assert!(report.outcomes.iter().all(|o| o.failover_verified));
        // Healthy epochs are unaffected.
        assert_eq!(report.outcomes[0].failover_depth, 0);
    }

    #[test]
    fn equivocating_primary_is_demoted() {
        let mut plan = base_plan(4);
        plan.equivocators.insert(2);
        let report = run_leader_faults(10, &plan).expect("valid");
        let faulty = &report.outcomes[2];
        assert!(faulty.equivocation_detected);
        assert_eq!(faulty.failover_depth, 1, "primary demoted, rank 1 leads");
        assert!(faulty.failover_verified);
        // The healthy replay of the same epochs elects the equivocator.
        let healthy = run_leader_faults(10, &base_plan(4)).expect("valid");
        assert_ne!(healthy.outcomes[2].leader, faulty.leader);
    }

    #[test]
    fn fully_dead_ranking_counts_a_stalled_epoch() {
        let mut plan = base_plan(3);
        plan.crashed_ranks.insert(1, 4); // every one of 4 miners down
        let report = run_leader_faults(4, &plan).expect("valid");
        assert_eq!(report.stalled_epochs, 1);
        assert_eq!(
            report.outcomes.len(),
            3,
            "the epoch still completes after healing"
        );
        assert_eq!(report.outcomes[1].recovery_latency, plan.epoch_interval);
    }

    #[test]
    fn deterministic_across_replays() {
        let mut plan = base_plan(5);
        plan.crashed_ranks.insert(2, 1);
        plan.equivocators.insert(4);
        let a = run_leader_faults(9, &plan).expect("valid");
        let b = run_leader_faults(9, &plan).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn bad_plans_rejected() {
        assert!(run_leader_faults(5, &base_plan(0)).is_err());
        let mut zero_timeout = base_plan(2);
        zero_timeout.timeout = SimTime::ZERO;
        assert!(run_leader_faults(5, &zero_timeout).is_err());
        assert!(run_leader_faults(0, &base_plan(2)).is_err());
    }

    #[test]
    fn duplicate_broadcast_is_not_equivocation() {
        let leader = cshard_crypto::Vrf::from_seed(b"leader");
        let ids: Vec<MinerId> = (0..4).map(MinerId::new).collect();
        let mk = || {
            UnifiedParameters::from_leader(
                &leader,
                1,
                ids.clone(),
                GameInputs::Select {
                    shard: ShardId::new(0),
                    fees: vec![9, 9, 9],
                    config: SelectionConfig::default(),
                },
            )
        };
        assert!(!equivocation_detected(&mk(), &mk()));
    }
}
