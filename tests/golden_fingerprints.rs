//! Golden run-report fingerprints captured *before* the event-driven
//! runtime refactor.
//!
//! Each entry pins the full `RunReport::fingerprint()` (per-shard txs,
//! confirmations, block/empty/stale counts, completion times and event
//! counts) of one representative configuration. The unified
//! `ProtocolDriver` runtime must reproduce every one of these hashes
//! byte-for-byte, at any thread count: `PropagationModel::Window` is the
//! legacy conflict-window semantics and schedules no extra events.

use contractshard::prelude::*;

/// Deterministic fee vector without touching any RNG stream.
fn fees(n: usize, salt: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| 1 + (salt * 131 + i * 29) % 100)
        .collect()
}

fn workload(txs: usize, contracts: usize, seed: u64) -> Workload {
    let dist = FeeDistribution::Uniform { lo: 1, hi: 100 };
    Workload::uniform_contracts(txs, contracts, dist, seed)
}

/// Every configuration in the battery, run at the given thread count.
fn battery(threads: usize) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();

    // Vanilla Ethereum, single miner: the Table I baseline shape.
    let cfg = RuntimeConfig {
        seed: 11,
        scheduler: SchedulerConfig::new(threads),
        ..RuntimeConfig::default()
    };
    out.push((
        "ethereum_solo",
        simulate_ethereum(fees(60, 11), 1, &cfg)
            .expect("valid config")
            .fingerprint()
            .to_string(),
    ));

    // Vanilla Ethereum, five miners: exercises the contended-stale path.
    let cfg = RuntimeConfig {
        seed: 12,
        scheduler: SchedulerConfig::new(threads),
        ..RuntimeConfig::default()
    };
    out.push((
        "ethereum_contended",
        simulate_ethereum(fees(40, 12), 5, &cfg)
            .expect("valid config")
            .fingerprint()
            .to_string(),
    ));

    // Nine independent greedy shards (the Fig. 3 sharded shape).
    let cfg = RuntimeConfig {
        seed: 13,
        scheduler: SchedulerConfig::new(threads),
        ..RuntimeConfig::default()
    };
    let specs: Vec<ShardSpec> = (0..9)
        .map(|s| ShardSpec::solo_greedy(ShardId::new(s), fees(12, s as u64)))
        .collect();
    out.push((
        "sharded_greedy",
        simulate(&specs, &cfg)
            .expect("valid config")
            .fingerprint()
            .to_string(),
    ));

    // Equilibrium selection with competing miners (Alg. 2 path).
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
    out.push((
        "equilibrium",
        simulate(&specs, &cfg)
            .expect("valid config")
            .fingerprint()
            .to_string(),
    ));

    // The end-to-end system: formation + allocation + runtime.
    let report = ShardingSystem::builder()
        .shards(9)
        .seed(15)
        .threads(threads)
        .build()
        .expect("valid config")
        .run(&workload(120, 8, 15))
        .expect("run completes");
    out.push(("system_default", report.run.fingerprint().to_string()));

    // Merging + proportional miners + capped idle drain in one run.
    let report = ShardingSystem::builder()
        .shards(12)
        .seed(16)
        .threads(threads)
        .merging(40)
        .total_miners(24)
        .empty_block_window(SimTime::from_secs(212))
        .propagation(PropagationModel::Window(SimTime::from_secs(30)))
        .build()
        .expect("valid config")
        .run(&workload(150, 11, 16))
        .expect("run completes");
    out.push(("system_merged", report.run.fingerprint().to_string()));

    out
}

/// Captured from the pre-refactor implementation (commit 943f28c).
const GOLDEN: &[(&str, &str)] = &[
    (
        "ethereum_solo",
        "0x5ce2b4367543d1fba20079263b69ca1f93b54500988e698d81efb6b71b402524",
    ),
    (
        "ethereum_contended",
        "0xb066618d80c6cb15711c378af0052504f32e26bd706a3f84c6a4c8ef68cbcedc",
    ),
    (
        "sharded_greedy",
        "0x1411acaa59d31b418e6928c8b8aa5efb86c59ea1aa22a70f345d2ebbb5977272",
    ),
    (
        "equilibrium",
        "0x546f8363442551473becc93ae2f3bdaadcdd5d26694a51c9e4bfe7534dc6c257",
    ),
    (
        "system_default",
        "0xffcf2ba81d1c1801d9477b10f6b388d23b7d00876c0d05d36e966f39473bc916",
    ),
    (
        "system_merged",
        "0xb8c0cce5161146aa5288302c0c928b70261ec648976ce4c63506c768eb5e5e66",
    ),
];

#[test]
fn fingerprints_match_pre_refactor_goldens() {
    for &threads in &[1usize, 4, 0] {
        let got = battery(threads);
        assert_eq!(got.len(), GOLDEN.len());
        for ((name, hash), (gname, ghash)) in got.iter().zip(GOLDEN) {
            assert_eq!(name, gname);
            assert_eq!(
                hash,
                ghash,
                "{name} (threads={threads}) diverged from pre-refactor golden\n\
                 all actuals: {:#?}",
                battery(threads)
            );
        }
    }
}
