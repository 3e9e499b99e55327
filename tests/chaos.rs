//! The chaos suite: fault injection must be surgical.
//!
//! Three contracts, end to end:
//!
//! 1. **Transparency** — a zero-fault [`FaultPlan`] is bit-invisible: the
//!    wrapped runtime reproduces the pre-fault golden fingerprints and
//!    every checked-in quick-mode experiment JSON byte-identically.
//! 2. **Recovery** — a crashed (or equivocating) epoch leader is replaced
//!    via the VRF failover ranking within one epoch interval, and the
//!    takeover verifies against public data.
//! 3. **Bounds** — the corrupted-shard fraction measured under an
//!    injected adversary stays within sampling noise of the Sec. IV-D
//!    analytic prediction.

use contractshard::prelude::*;
use std::path::Path;

/// Deterministic fee vector matching `tests/golden_fingerprints.rs`.
fn fees(n: usize, salt: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| 1 + (salt * 131 + i * 29) % 100)
        .collect()
}

/// The two `simulate`-shaped golden battery entries, run through the
/// fault harness with a zero-fault plan: the wrappers must reproduce the
/// pre-refactor fingerprints exactly (same hashes as
/// `tests/golden_fingerprints.rs` pins for the unwrapped runtime).
#[test]
fn zero_fault_plan_reproduces_the_golden_battery_fingerprints() {
    for &threads in &[1usize, 4] {
        let cfg = RuntimeConfig {
            seed: 13,
            scheduler: SchedulerConfig::new(threads),
            ..RuntimeConfig::default()
        };
        let specs: Vec<ShardSpec> = (0..9)
            .map(|s| ShardSpec::solo_greedy(ShardId::new(s), fees(12, s as u64)))
            .collect();
        let faulted =
            run_with_faults(&specs, &Traffic::default(), &cfg, &FaultPlan::none()).expect("valid");
        assert_eq!(
            faulted.run.fingerprint().to_string(),
            "0x1411acaa59d31b418e6928c8b8aa5efb86c59ea1aa22a70f345d2ebbb5977272",
            "sharded_greedy golden diverged under a zero-fault wrapper (threads={threads})"
        );
        assert!(faulted.faults.is_clean());

        let cfg = RuntimeConfig {
            seed: 14,
            scheduler: SchedulerConfig::new(threads),
            ..RuntimeConfig::default()
        };
        let specs: Vec<ShardSpec> = (0..2)
            .map(|s| ShardSpec {
                shard: ShardId::new(s),
                fees: fees(30, 14 + s as u64),
                miners: 6,
                strategy: SelectionStrategy::Equilibrium { max_rounds: 64 },
            })
            .collect();
        let faulted =
            run_with_faults(&specs, &Traffic::default(), &cfg, &FaultPlan::none()).expect("valid");
        assert_eq!(
            faulted.run.fingerprint().to_string(),
            "0x546f8363442551473becc93ae2f3bdaadcdd5d26694a51c9e4bfe7534dc6c257",
            "equilibrium golden diverged under a zero-fault wrapper (threads={threads})"
        );
    }
}

/// Every checked-in golden JSON regenerates byte-identically in quick
/// mode with the fault subsystem merged — the propagation-model rewrite
/// (Window/Latency/Partition) changed no observable schedule.
#[test]
fn all_twelve_golden_jsons_regenerate_byte_identically() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/golden");
    let mut ids: Vec<String> = std::fs::read_dir(&golden_dir)
        .expect("results/golden exists")
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_suffix(".json").map(str::to_string)
        })
        .collect();
    ids.sort();
    let mut listed = cshard_bench::experiments::GOLDEN.to_vec();
    listed.sort_unstable();
    assert_eq!(
        ids, listed,
        "results/golden/ and experiments::GOLDEN differ"
    );
    for id in &ids {
        let result = cshard_bench::experiments::run(id, true)
            .unwrap_or_else(|| panic!("golden id {id} is not a known experiment"));
        let expected = std::fs::read_to_string(golden_dir.join(format!("{id}.json")))
            .expect("golden file readable");
        assert_eq!(
            result.to_json(),
            expected,
            "{id}: quick-mode JSON diverged from results/golden/{id}.json"
        );
    }
}

/// A partition-mid-epoch plan through the shard scheduler: the run —
/// including the fault accounting — is bit-identical at 1 worker, 4
/// workers and one-per-core. Worker scheduling order must never leak into
/// results.
#[test]
fn partitioned_runs_are_identical_across_scheduler_configs() {
    let specs: Vec<ShardSpec> = (0..6u32)
        .map(|s| ShardSpec {
            shard: ShardId::new(s),
            fees: fees(80, 31 + s as u64),
            miners: 2,
            strategy: SelectionStrategy::IdenticalGreedy,
        })
        .collect();
    let plan = FaultPlan::none()
        .with_partition(
            ShardId::new(2),
            SimTime::from_secs(90),
            SimTime::from_secs(400),
        )
        .with_partition(
            ShardId::new(4),
            SimTime::from_secs(30),
            SimTime::from_secs(200),
        );
    let run_at = |scheduler: SchedulerConfig| {
        let cfg = RuntimeConfig {
            seed: 23,
            scheduler,
            ..RuntimeConfig::default()
        };
        run_with_faults(&specs, &Traffic::default(), &cfg, &plan).expect("valid faulted run")
    };
    let sequential = run_at(SchedulerConfig::sequential());
    let pooled = run_at(SchedulerConfig::new(4));
    let per_core = run_at(SchedulerConfig::per_core());
    assert_eq!(
        sequential.run.fingerprint(),
        pooled.run.fingerprint(),
        "partitioned run: sequential vs 4 workers"
    );
    assert_eq!(
        sequential.run.fingerprint(),
        per_core.run.fingerprint(),
        "partitioned run: sequential vs per-core"
    );
    assert_eq!(sequential.faults, pooled.faults);
    assert_eq!(sequential.faults, per_core.faults);
}

/// Leader crashes recover through the VRF ranking within one epoch: depth
/// k costs k broadcast timeouts, every takeover verifies from public
/// data, and the run is a pure function of its enrolment and plan.
#[test]
fn leader_crash_recovers_via_vrf_failover_within_one_epoch() {
    let mut plan = LeaderFaultPlan::healthy(8, SimTime::from_secs(10), SimTime::from_secs(120));
    plan.crashed_ranks.insert(1, 1);
    plan.crashed_ranks.insert(3, 2);
    plan.crashed_ranks.insert(5, 3);
    plan.equivocators.insert(6);
    let report = run_leader_faults(20, &plan).expect("valid plan");
    assert_eq!(report.stalled_epochs, 0);
    assert!(
        report.recovered_within(SimTime::from_secs(120)),
        "worst recovery {} exceeded the epoch interval",
        report.max_recovery_latency()
    );
    assert!(report.outcomes.iter().all(|o| o.failover_verified));
    assert_eq!(report.outcomes[3].failover_depth, 2);
    assert!(report.outcomes[6].equivocation_detected);
    assert!(
        report.outcomes[6].failover_depth >= 1,
        "equivocator demoted"
    );
    let replay = run_leader_faults(20, &plan).expect("valid plan");
    assert_eq!(report, replay);
}

/// The corrupted-shard fraction measured under a quarter adversary lands
/// within sampling noise of `1 − shard_safety(n, f, Majority)` — the
/// empirical face of the paper's Eq. (3)–(6) corruption inputs.
#[test]
fn measured_corruption_stays_within_the_papers_analytic_bounds() {
    let m = measure_corruption(60, 0.25, 20, 100, 0xBEEF).expect("valid inputs");
    assert!(m.shard_epochs > 0);
    assert!(
        m.within_sigmas(4.0),
        "measured {} vs analytic {} (sigma {}, {} shard-epochs)",
        m.measured_corruption,
        m.analytic_corruption,
        m.sampling_sigma(),
        m.shard_epochs
    );
    // Uniform VRF lottery: malicious leadership tracks the realized f.
    let f = m.realized_fraction();
    let sigma = (f * (1.0 - f) / m.epochs as f64).sqrt();
    assert!(
        (m.measured_leader_fraction - f).abs() <= 4.0 * sigma + 1.0 / m.epochs as f64,
        "leader fraction {} vs f {f}",
        m.measured_leader_fraction
    );
    // And the endpoints pin exactly.
    let honest = measure_corruption(60, 0.0, 5, 80, 1).expect("valid");
    assert_eq!(honest.measured_corruption, 0.0);
    let byzantine = measure_corruption(20, 1.0, 3, 60, 1).expect("valid");
    assert_eq!(byzantine.measured_corruption, 1.0);
}

/// Kitchen-sink fault run: crash + recovery, partition, deadline — the
/// machinery fires, the accounting matches the plan, and the run still
/// confirms its workload after healing.
#[test]
fn faulted_shards_heal_and_finish_their_workload() {
    let specs: Vec<ShardSpec> = (0..3u32)
        .map(|s| ShardSpec {
            shard: ShardId::new(s),
            fees: fees(120, s as u64),
            miners: 2,
            strategy: SelectionStrategy::IdenticalGreedy,
        })
        .collect();
    let cfg = RuntimeConfig {
        seed: 77,
        ..RuntimeConfig::default()
    };
    // Crash and recovery must land inside the shard's active lifetime: a
    // control scheduled past completion never fires (the run is over).
    let plan = FaultPlan::none()
        .with_crash(
            ShardId::new(0),
            0,
            SimTime::from_secs(60),
            Some(SimTime::from_secs(240)),
        )
        .with_partition(
            ShardId::new(1),
            SimTime::from_secs(50),
            SimTime::from_secs(300),
        );
    let run = run_with_faults(&specs, &Traffic::default(), &cfg, &plan).expect("valid");
    assert_eq!(run.faults.total_crashes(), 1);
    assert_eq!(run.faults.total_recoveries(), 1);
    assert_eq!(
        run.faults.max_recovery_latency(),
        Some(SimTime::from_secs(180)),
        "downtime = recover_at − crash_at"
    );
    assert!(
        run.faults.total_suppressed() > 0,
        "crashed miner kept mining?"
    );
    assert_eq!(run.faults.timed_out_shards(), 0);
    assert_eq!(
        run.unconfirmed_fraction(),
        0.0,
        "faults healed, workload done"
    );
}

/// The epoch layer rejects duplicate leader broadcasts as equivocation
/// only when the content differs (digest mismatch), never on gossip
/// duplicates of identical parameters.
#[test]
fn equivocation_needs_conflicting_content() {
    // Digest sensitivity is pinned in cshard-games; here just check the
    // epoch path accepts a run where the "equivocator" never conflicts.
    let plan = LeaderFaultPlan::healthy(3, SimTime::from_secs(5), SimTime::from_secs(60));
    let report = run_leader_faults(6, &plan).expect("valid");
    assert!(report.outcomes.iter().all(|o| !o.equivocation_detected));
}
