# Development workflow for contractshard. `just verify` is the gate CI runs.

# Build, test, format-check, lint and doc-check the whole workspace.
verify:
    cargo fmt --check
    cargo build --release --workspace
    cargo test --workspace --no-fail-fast
    cargo test --release -p cshard-sim
    cargo test --release -p rand_chacha -p cshard-games
    cargo test --release -p cshard-runtime --test alloc
    cargo test --release -p cshard-core --test alloc
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
        --exclude rand --exclude rand_chacha --exclude proptest

# The checks no compiler lint can make (the policy and the resolver gates
# are `crates/audit/src/policy.rs`; the lint-expressible invariants are in
# clippy.toml and run under `verify`'s clippy step). Exit 1 on findings,
# each printed as `file:line: RULE message`, or on a failed gate. This is
# what CI runs.
audit:
    cargo run --release -p cshard-audit

# Quick-mode run of every golden experiment (`experiments::GOLDEN`: twelve
# paper artefacts plus the faults, sched, settle and migrate grids), diffed
# against results/golden. fig4a exercises the ChainSpace driver with
# settlement disabled: the diff pins the settle subsystem bit-invisible on
# the unbatched path.
golden:
    rm -rf /tmp/golden-smoke
    cargo run --release -p cshard-bench --bin experiments -- \
        golden --quick --json /tmp/golden-smoke
    diff -r results/golden /tmp/golden-smoke

# Fault-injection gate: the chaos suite (zero-fault transparency and
# corruption bounds; its golden loop regenerates the faults grid).
chaos:
    cargo test -q --test chaos

# The repo's benchmark (`benchmark/`, a package outside the workspace;
# workloads, metrics and the comparison protocol are in benchmark/README.md).
# One workload as the `BENCHMARK.json` driver runs it; the last stdout line
# is the JSON result.
bench workload:
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload {{workload}} --seed 11 --seconds 16 --trace 0

# What CI's "Benchmark surface" step runs: one second of every workload
# (stream, merge-heavy, placement, selection, pooled scheduler, settlement),
# output checks only (no timing): every result must be `correct` with no
# failed operation, `stream_steady` must peak under 32 MB RSS and
# `xshard_settle` under 100 MB.
bench-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    for workload in stream_steady stream_churn stream_placed paper_epochs paper_epochs_mt xshard_settle; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seconds 1 --trace 0 | tee /tmp/bench-smoke.txt
        tail -n 1 /tmp/bench-smoke.txt | grep -q '"correct":true'
        tail -n 1 /tmp/bench-smoke.txt | grep -q '"failed":0'
        # One epoch in memory, not the whole stream (≈ 22 MB vs ≈ 44 MB).
        if [ "$workload" = stream_steady ]; then
            tail -n 1 /tmp/bench-smoke.txt | python3 -c 'import json, sys; rss = json.load(sys.stdin)["metrics"]["peak_rss_mb"]["value"]; print(f"stream_steady peak_rss_mb {rss:.1f} (limit 32)"); sys.exit(rss >= 32)'
        fi
        # The input is transactions and one flat placement table, not a
        # funded genesis and a heap list per transaction (≈ 70 MB vs ≈ 146 MB).
        if [ "$workload" = xshard_settle ]; then
            tail -n 1 /tmp/bench-smoke.txt | python3 -c 'import json, sys; rss = json.load(sys.stdin)["metrics"]["peak_rss_mb"]["value"]; print(f"xshard_settle peak_rss_mb {rss:.1f} (limit 100)"); sys.exit(rss >= 100)'
        fi
    done

# Every workload, untraced then traced: all metrics, all output checks,
# benchmark/out/results.json (about 4 minutes).
bench-all:
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all

# Two results.json files, metric by metric; exit 1 on a regression.
bench-compare a b:
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        compare {{a}} {{b}}

# Fast feedback loop: tests only.
test:
    cargo test --workspace --no-fail-fast

# Undefined-behaviour check on the leaf crates (requires nightly + miri
# component; heavy statistical tests are gated off under the interpreter).
miri:
    cargo +nightly miri test -p cshard-primitives -p cshard-crypto

# Regenerate every paper figure/table (quick mode; drop --quick for full scale).
experiments:
    cargo run --release -p cshard-bench --bin experiments -- all --quick

# Sequential-vs-parallel sanity: identical results, only wall-clock differs.
determinism:
    cargo test -q --test determinism
