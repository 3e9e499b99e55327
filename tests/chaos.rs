//! The chaos suite: fault injection must be surgical.
//!
//! Two contracts, end to end:
//!
//! 1. **Transparency** — a zero-fault [`FaultPlan`] is bit-invisible: the
//!    wrapped runtime reproduces the pre-fault golden fingerprints and
//!    every checked-in quick-mode experiment JSON byte-identically.
//! 2. **Bounds** — the corrupted-shard fraction measured under an
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
            faulted.report.fingerprint().to_string(),
            "0x1411acaa59d31b418e6928c8b8aa5efb86c59ea1aa22a70f345d2ebbb5977272",
            "sharded_greedy golden diverged under a zero-fault wrapper (threads={threads})"
        );
        assert!(faulted
            .drivers
            .iter()
            .all(|d| d.suppressed_ticks() == 0 && d.done()));

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
            faulted.report.fingerprint().to_string(),
            "0x546f8363442551473becc93ae2f3bdaadcdd5d26694a51c9e4bfe7534dc6c257",
            "equilibrium golden diverged under a zero-fault wrapper (threads={threads})"
        );
    }
}

/// Every checked-in golden JSON regenerates byte-identically in quick
/// mode with the fault subsystem merged — the propagation-model rewrite
/// (Window/Latency/Partition) changed no observable schedule.
#[test]
fn every_golden_json_regenerates_byte_identically() {
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
        sequential.report.fingerprint(),
        pooled.report.fingerprint(),
        "partitioned run: sequential vs 4 workers"
    );
    assert_eq!(
        sequential.report.fingerprint(),
        per_core.report.fingerprint(),
        "partitioned run: sequential vs per-core"
    );
    let faults = |run: &RunOutcome<SettlingShardDriver>| -> Vec<(usize, bool)> {
        run.drivers
            .iter()
            .map(|d| (d.suppressed_ticks(), d.done()))
            .collect()
    };
    assert_eq!(faults(&sequential), faults(&pooled));
    assert_eq!(faults(&sequential), faults(&per_core));
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

/// Kitchen-sink fault run: crash + recovery and a partition — the
/// machinery fires inside the run, and the run still confirms its
/// workload after healing.
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
    // crash window past completion never happens (the run is over).
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
    assert!(
        SimTime::from_secs(240) < run.report.completion,
        "the crash window opened and healed inside the run"
    );
    assert!(
        run.drivers[0].suppressed_ticks() > 0,
        "crashed miner kept mining?"
    );
    assert!(run.drivers.iter().all(|d| d.done()), "no shard timed out");
    for shard in &run.report.shards {
        assert_eq!(
            shard.confirmed, shard.txs,
            "faults healed, workload done: {}",
            shard.shard
        );
    }
}
