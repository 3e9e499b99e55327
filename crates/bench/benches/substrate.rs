//! Substrate microbenchmarks: the primitives every experiment rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cshard_consensus::pow;
use cshard_crypto::sha256;
use cshard_ledger::{
    codec, merkle_root, Block, CallGraph, Mempool, SmartContract, State, Transaction,
};
use cshard_network::{GossipNet, LatencyModel};
use cshard_primitives::{Address, Amount, ContractId, Hash32, MinerId, ShardId, SimTime};
use cshard_workload::{FeeDistribution, Workload};
use std::hint::black_box;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 65_536] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(sha256(d)));
        });
    }
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let ids: Vec<Hash32> = (0..1000u64).map(|i| sha256(i.to_be_bytes())).collect();
    c.bench_function("merkle_root_1000", |b| {
        b.iter(|| black_box(merkle_root(&ids)));
    });
}

fn bench_pow(c: &mut Criterion) {
    let mut group = c.benchmark_group("pow_mine");
    group.sample_size(20);
    for bits in [8u32, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let mut stamp = 0u64;
            b.iter(|| {
                stamp += 1;
                let mut block = Block::assemble(
                    Hash32::ZERO,
                    1,
                    ShardId::new(0),
                    MinerId::new(0),
                    SimTime::from_millis(stamp),
                    bits,
                    vec![],
                );
                black_box(pow::mine(&mut block))
            });
        });
    }
    group.finish();
}

fn bench_state_apply(c: &mut Criterion) {
    c.bench_function("state_apply_1000_calls", |b| {
        b.iter_with_setup(
            || {
                let mut s = State::new();
                s.register_contract(SmartContract::unconditional(
                    ContractId::new(0),
                    Address::user(999),
                ));
                s.fund_user(Address::user(999), Amount::ZERO);
                let txs: Vec<Transaction> = (0..1000u64)
                    .map(|u| {
                        s.fund_user(Address::user(u), Amount::from_coins(10));
                        Transaction::call(
                            Address::user(u),
                            0,
                            ContractId::new(0),
                            Amount::from_raw(100),
                            Amount::from_raw(u % 50),
                        )
                    })
                    .collect();
                (s, txs)
            },
            |(mut s, txs)| {
                for tx in &txs {
                    s.apply_transaction(tx, Address::SYSTEM).unwrap();
                }
                black_box(s.total_balance())
            },
        );
    });
}

fn bench_mempool(c: &mut Criterion) {
    c.bench_function("mempool_greedy_select_10_of_10000", |b| {
        let mut m = Mempool::new();
        for u in 0..10_000u64 {
            m.insert(Transaction::call(
                Address::user(u),
                0,
                ContractId::new(0),
                Amount::from_raw(1),
                Amount::from_raw(u % 997),
            ));
        }
        b.iter(|| black_box(m.select_greedy(10)));
    });
}

fn bench_classifier(c: &mut Criterion) {
    // The paper's future-work item: classification cost per transaction.
    let w = Workload::uniform_contracts(5_000, 50, FeeDistribution::Uniform { lo: 1, hi: 100 }, 1);
    let mut group = c.benchmark_group("sender_classification");
    group.throughput(Throughput::Elements(w.transactions.len() as u64));
    group.bench_function("callgraph_sets", |b| {
        b.iter(|| {
            let mut g = CallGraph::new();
            let churn = g.observe_all(w.transactions.iter());
            let isolable = w
                .transactions
                .iter()
                .filter(|t| g.isolable_contract(t).is_some())
                .count();
            black_box((churn, isolable))
        });
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let w = Workload::uniform_contracts(1_000, 10, FeeDistribution::Uniform { lo: 1, hi: 100 }, 2);
    let block = Block::assemble(
        Hash32::ZERO,
        1,
        ShardId::new(0),
        MinerId::new(0),
        SimTime::from_secs(60),
        0,
        w.transactions.clone(),
    );
    let bytes = codec::encode_block(&block);
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_1000tx_block", |b| {
        b.iter(|| black_box(codec::encode_block(&block)));
    });
    group.bench_function("decode_1000tx_block", |b| {
        b.iter(|| black_box(codec::decode_block(&bytes).unwrap()));
    });
    group.finish();
}

fn bench_gossip(c: &mut Criterion) {
    let mut group = c.benchmark_group("gossip_broadcast");
    for nodes in [100usize, 1000] {
        let net = GossipNet::random(nodes, 3, LatencyModel::wide_area(), 7);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &net, |b, net| {
            let mut id = 0u64;
            b.iter(|| {
                id += 1;
                black_box(net.full_coverage_time(0, id))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_merkle,
    bench_pow,
    bench_state_apply,
    bench_mempool,
    bench_classifier,
    bench_codec,
    bench_gossip
);
criterion_main!(benches);
