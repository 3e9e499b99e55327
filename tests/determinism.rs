//! Parallel execution is bit-identical to sequential execution.
//!
//! Each shard's RNG stream is derived from `(master_seed, shard_id)` via
//! the crypto PRF, so a shard's trajectory does not depend on which thread
//! runs it, in which order, or how many other shards share the run. These
//! tests pin that property across seeds, scales and thread counts by
//! comparing full run fingerprints (see `RunReport::fingerprint`).

use contractshard::prelude::*;

const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 100 };

fn report_for(seed: u64, shards: usize, threads: usize) -> EpochRun {
    let contracts = shards - 1; // plus the MaxShard
    let w = Workload::uniform_contracts(4 * shards, contracts, FEES, seed);
    ShardingSystem::builder()
        .seed(seed)
        .threads(threads)
        .build()
        .expect("valid builder config")
        .run(&w)
        .expect("run completes")
}

#[test]
fn parallel_matches_sequential_across_seeds_and_scales() {
    for &seed in &[1u64, 42, 1337] {
        for &shards in &[9usize, 100] {
            let sequential = report_for(seed, shards, 1);
            let pooled = report_for(seed, shards, 4);
            let auto = report_for(seed, shards, 0);

            assert_eq!(
                sequential.run.fingerprint(),
                pooled.run.fingerprint(),
                "seed {seed}, {shards} shards: 1 thread vs 4 threads"
            );
            assert_eq!(
                sequential.run.fingerprint(),
                auto.run.fingerprint(),
                "seed {seed}, {shards} shards: 1 thread vs all cores"
            );

            // The fingerprint covers the deterministic fields; spot-check
            // the headline numbers directly too.
            assert_eq!(sequential.run.completion, pooled.run.completion);
            assert_eq!(sequential.run.total_blocks(), pooled.run.total_blocks());
            assert_eq!(sequential.run.total_txs(), pooled.run.total_txs());
            assert_eq!(sequential.shard_sizes, pooled.shard_sizes);
            for (s, p) in sequential.run.shards.iter().zip(&pooled.run.shards) {
                assert_eq!(s.shard, p.shard);
                assert_eq!(s.confirmed, p.confirmed);
                assert_eq!(s.blocks, p.blocks);
                assert_eq!(s.empty_blocks, p.empty_blocks);
                assert_eq!(s.completion, p.completion);
                assert_eq!(s.events_processed, p.events_processed);
            }
        }
    }
}

#[test]
fn shard_streams_do_not_depend_on_peer_shards() {
    // A shard's trajectory is a function of (seed, shard id, injected
    // transactions) only: the stream derivation never mixes in the peer
    // set, so the same spec produces the same chain whether it runs next
    // to 8 peers or 99. Run the identical first 9 specs in both systems.
    let mk_spec = |s: u32| {
        let fees: Vec<u64> = (0..20)
            .map(|i| 1 + (s as u64 * 37 + i * 13) % 100)
            .collect();
        ShardSpec::solo_greedy(ShardId::new(s), fees)
    };
    let cfg = RuntimeConfig {
        seed: 42,
        scheduler: SchedulerConfig::per_core(),
        ..RuntimeConfig::default()
    };
    let small: Vec<ShardSpec> = (0..9).map(mk_spec).collect();
    let large: Vec<ShardSpec> = (0..100).map(mk_spec).collect();
    let small_run = simulate(&small, &cfg).expect("valid config");
    let large_run = simulate(&large, &cfg).expect("valid config");
    // Block totals include the idle-drain phase, which runs until the
    // *global* completion and so legitimately differs between the two
    // systems; the confirmation trajectory itself must not.
    for (s, l) in small_run.shards.iter().zip(&large_run.shards) {
        assert_eq!(s.shard, l.shard);
        assert_eq!(
            s.completion, l.completion,
            "{} diverged across system sizes",
            s.shard
        );
        assert_eq!(s.confirmed, l.confirmed);
    }
}

/// Fault injection preserves the bit-identity contract: a faulted run is
/// a pure function of `(shards, config, plan)` — the same at any thread
/// count, and across replays — including the fault accounting itself.
#[test]
fn faulted_runs_are_bit_identical_across_thread_counts() {
    let specs: Vec<ShardSpec> = (0..6u32)
        .map(|s| ShardSpec {
            shard: ShardId::new(s),
            fees: (1..=40 + s as u64).collect(),
            miners: 2,
            strategy: SelectionStrategy::IdenticalGreedy,
        })
        .collect();
    let plan = FaultPlan::none()
        .with_crash(
            ShardId::new(0),
            1,
            SimTime::from_secs(90),
            Some(SimTime::from_secs(500)),
        )
        .with_partition(
            ShardId::new(3),
            SimTime::from_secs(40),
            SimTime::from_secs(250),
        );
    let run_at = |threads: usize| {
        let cfg = RuntimeConfig {
            seed: 99,
            scheduler: SchedulerConfig::new(threads),
            ..RuntimeConfig::default()
        };
        run_with_faults(&specs, &Traffic::default(), &cfg, &plan).expect("valid faulted run")
    };
    let sequential = run_at(1);
    let pooled = run_at(4);
    let auto = run_at(0);
    assert_eq!(
        sequential.report.fingerprint(),
        pooled.report.fingerprint(),
        "faulted run: 1 thread vs 4 threads"
    );
    assert_eq!(
        sequential.report.fingerprint(),
        auto.report.fingerprint(),
        "faulted run: 1 thread vs all cores"
    );
    let faults = |run: &RunOutcome<SettlingShardDriver>| -> Vec<(usize, bool)> {
        run.drivers
            .iter()
            .map(|d| (d.suppressed_ticks(), d.done()))
            .collect()
    };
    assert_eq!(faults(&sequential), faults(&pooled));
    assert_eq!(faults(&sequential), faults(&auto));
    // Replaying the identical `(config, plan)` reproduces everything.
    let replay = run_at(1);
    assert_eq!(sequential.report.fingerprint(), replay.report.fingerprint());
    assert_eq!(faults(&sequential), faults(&replay));
}

#[test]
fn fingerprint_reacts_to_seed_and_scale() {
    // Guard against a degenerate fingerprint: different runs must differ.
    let a = report_for(1, 9, 0);
    let b = report_for(2, 9, 0);
    let c = report_for(1, 10, 0);
    assert_ne!(a.run.fingerprint(), b.run.fingerprint(), "seed ignored");
    assert_ne!(a.run.fingerprint(), c.run.fingerprint(), "scale ignored");
}
