#!/bin/sh
# Full local CI: formatting, lints, the tier-1 build+test gate, and the
# strict-invariant instrumentation run. Mirrors .github/workflows/ci.yml.
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

# Architecture lint: the named invariant rules (vfs-bypass, lock-order,
# panic-path, metric hygiene — DESIGN.md §13) over every crate's source.
# Runs before the test gate so violations fail fast; suppress intentional
# exceptions with `// neptune-lint: allow(rule): reason`.
cargo run -q -p neptune-lint

# Tier-1 gate: release build plus the whole workspace test suite. The
# flight-recorder dump path is exported for the whole gate: any test that
# installs the panic hook (the fault sweep does) writes the last traces to
# TRACE_dump.json on failure, which CI uploads as an artifact.
NEPTUNE_TRACE_DUMP="$PWD/TRACE_dump.json"
export NEPTUNE_TRACE_DUMP
cargo build --release
cargo test --workspace

# The whole workspace suite reruns three times at high test parallelism,
# so a race between sibling tests (two tests sharing a temp dir, two
# metric-delta proofs sharing the process-global registry, the global
# flight recorder) fails loudly instead of flaking.
for run in 1 2 3; do
    cargo test --workspace -- --test-threads=16
done

# The commit-path invariant hooks only exist under this feature; run the
# neptune-ham suite with them armed so a violated invariant fails CI.
cargo test -p neptune-ham --features strict-invariants --lib

# Fault-injection sweep, second seed. The workspace run above already
# sweeps every fault kind across every I/O step of a 220-op workload at
# the default seed; this pass rotates the seed with a bounded op count so
# CI covers two workloads per run without doubling the cost. Every
# failure message prints the seed — reproduce any cell locally with:
#   NEPTUNE_FAULT_SEED=<seed> NEPTUNE_FAULT_OPS=<n> \
#       cargo test -p neptune-check --test crash_consistency <test_name>
NEPTUNE_FAULT_SEED=0x5EED5 NEPTUNE_FAULT_OPS=120 \
    cargo test -p neptune-check --test crash_consistency

# Smoke-run the read-scaling bench (cache + zero-copy reads + concurrent
# readers + lock-free reads under a foreign transaction): proves the bench
# paths work and leaves BENCH_read_scaling.json at the repo root.
# NEPTUNE_BENCH_GUARD arms the regression floors (cache speedup >= 10x;
# 8-vs-1 reader scaling >= min(cores,8)/2 x on multi-core runners — 4x on
# 8 cores now that snapshot reads removed the single-RwLock ceiling —
# batch amortization >= 1.1x on single-core ones; pipelined reads under
# an open foreign transaction >= 0.90x lockstep reads at every reader
# count — the PR 7 floor of 1.0 minus the 5% causal-tracing allowance
# from DESIGN.md §10 and smoke-run jitter, since the bench now runs with
# the tracer on; and traced-vs-untraced cost on the lock-free read path
# <= 1.15x). The measured overhead lands in the JSON under
# "tracing_overhead", alongside two exemplar traces.
NEPTUNE_BENCH_SMOKE=1 NEPTUNE_BENCH_GUARD=1 \
    NEPTUNE_BENCH_OUT="$PWD/BENCH_read_scaling.json" \
    cargo bench -p neptune-bench --bench read_scaling

# Smoke-run the history-depth bench (hierarchical skip ladder over deep
# version histories): leaves BENCH_history_depth.json at the repo root.
# NEPTUNE_BENCH_GUARD arms the sublinear-checkout floors: cold checkout at
# depth 10^5 within 4x of depth 10^3 in both wall time and mean replay
# depth on the same run, absolute mean replay depth at 10^5 <= 150 deltas
# (linear would be ~10^5), the uncached linear baseline >= 10x worse than
# the ladder, and the anchor-cache byte gauge within its per-archive
# budget under the adversarial access stride.
NEPTUNE_BENCH_SMOKE=1 NEPTUNE_BENCH_GUARD=1 \
    NEPTUNE_BENCH_OUT="$PWD/BENCH_history_depth.json" \
    cargo bench -p neptune-bench --bench history_depth

# Smoke-run the write-scaling bench (parallel commits on disjoint shards
# vs the same writers serialized behind one shard lock): leaves
# BENCH_write_scaling.json at the repo root. NEPTUNE_BENCH_GUARD arms the
# sharding floors: 8 disjoint-shard writers >= 2x the single-shard
# aggregate commit throughput on 4+ core runners (1.2x on 2-3 cores; a
# 0.6x no-regression sanity floor on single-core ones, where there is no
# parallelism to win and the guard only checks that per-shard bookkeeping
# costs noise), and neptune_ham_multiview_torn_total must stay 0 — no
# assembled cross-shard view may expose half of a two-phase commit.
NEPTUNE_BENCH_SMOKE=1 NEPTUNE_BENCH_GUARD=1 \
    NEPTUNE_BENCH_OUT="$PWD/BENCH_write_scaling.json" \
    cargo bench -p neptune-bench --bench write_scaling

# Observability smoke: scripted workload over the wire, then a Metrics RPC.
# Exits non-zero if the exposition is empty or a required family never
# moved; leaves METRICS_snapshot.prom at the repo root.
NEPTUNE_METRICS_OUT="$PWD/METRICS_snapshot.prom" \
    cargo run --example metrics_smoke

# The end-to-end benchmark package (outside the workspace): its unit
# tests, then a 3-second private_worlds smoke run. The run verifies the
# stopped store (verify_store) and reads back every acknowledged version,
# exiting non-zero on any mismatch or failed operation; its figures are
# not gated here.
cargo test --manifest-path perfbench/Cargo.toml
cargo run --release --manifest-path perfbench/Cargo.toml -- \
    --workload private_worlds --seed 1 --seconds 3 --trace 0

# Sanitizer passes — nightly-only, so they run as dedicated jobs in
# .github/workflows/ci.yml and are opt-in here (the default toolchain on
# dev machines is stable). NEPTUNE_CI_NIGHTLY=1 requires a nightly with
# the rust-src and miri components installed.
if [ "${NEPTUNE_CI_NIGHTLY:-0}" = "1" ]; then
    # ThreadSanitizer over the server's concurrency-heavy integration
    # tests (gate contention, batch pipelining, metrics under load).
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
        -p neptune-server --test server_integration --test batch_pipeline \
        --test metrics_rpc --test snapshot_reads
    # TSan over the lock-free snapshot-view property tests: concurrent
    # readers on published views racing fork/merge/rollback on the writer,
    # including the multi-shard fork/merge/destroy property test and the
    # 4-writer/4-reader cross-shard torn-view stress.
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
        -p neptune-ham --test snapshot_view
    # Miri over the pure in-memory codec and framing paths (the rest of
    # the suite does real file and socket I/O, which Miri cannot run).
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p neptune-storage --lib -- codec:: varint::
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p neptune-server --lib -- frame:: proto::
fi

echo "ci: all green"
