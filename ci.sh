#!/usr/bin/env bash
# Offline CI for the EncDBDB reproduction.
#
# Everything here runs without network access: all dependencies are path
# dependencies inside the workspace (see DESIGN.md §4), so --offline is
# safe and enforced to catch any accidental registry dependency early.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

# The `unsafe` budget is one file: the hardware GCM backend's CPU-detected
# dispatch (DESIGN.md §6). Outside it the word may appear only in a crate
# root's lint attribute, and every root keeps `forbid` except
# encdbdb-crypto's, which `deny`s so that one module can opt back in.
UNSAFE_MODULE=crates/crypto/src/gcm_x86.rs
if grep -rn unsafe src crates/*/src --include='*.rs' | grep -v -e "^$UNSAFE_MODULE:" \
    -e '/lib.rs:[0-9]*:#!\[forbid(unsafe_code)\]$' \
    -e '^crates/crypto/src/lib.rs:[0-9]*:#!\[deny(unsafe_code)\]$'; then
    echo "unsafe outside $UNSAFE_MODULE (listed above)"
    exit 1
fi
for root in src/lib.rs crates/*/src/lib.rs; do
    want=forbid
    [ "$root" = crates/crypto/src/lib.rs ] && want=deny
    if ! grep -q "^#!\[$want(unsafe_code)\]\$" "$root"; then
        echo "$root: expected #![$want(unsafe_code)]"
        exit 1
    fi
done

# The §5 head/tail layout has one owner, `encdict::dict::Segment`
# (DESIGN.md §1): a field or parameter `head: Vec<u8>` anywhere else is a
# second copy of the layout growing back.
SEGMENT_MODULE=crates/encdict/src/dict.rs
if grep -rnE '^\s*(pub(\(crate\))? )?head: Vec<u8>' src crates/*/src --include='*.rs' |
    grep -v "^$SEGMENT_MODULE:"; then
    echo "a head/tail pair outside $SEGMENT_MODULE (listed above)"
    exit 1
fi

# Non-test code lines of the three core crates (ROADMAP item 5's exit
# criterion is stated in this number), and the ten largest files.
run tools/code_lines.sh --files
run cargo build --release --offline
run cargo test -q --offline
run cargo fmt --check
run cargo clippy --all-targets --offline -- -D warnings
# Rustdoc must stay warning-free (broken intra-doc links, bad code fences).
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline
# The concurrency stress suite again, explicitly bounded: a fixed reader
# thread count and table size so CI machines of any width behave alike.
# This includes the partition stress tests (hot-shard writes + a merge on
# one shard while readers scan the others).
run env ENCDBDB_STRESS_THREADS=4 ENCDBDB_STRESS_ROWS=2000 \
    cargo test -q --offline --test concurrent_stress
# The multi-partition differential suite, bounded the same way.
run env ENCDBDB_STRESS_THREADS=4 ENCDBDB_STRESS_ROWS=2000 \
    cargo test -q --offline --test dynamic_differential
# The equi-join differential suite (all 9 ED kinds + PLAIN vs the MonetDB
# baseline, 1×4-shard combinations, proptest interleavings on both
# tables), bounded the same way.
run env ENCDBDB_STRESS_THREADS=4 ENCDBDB_STRESS_ROWS=2000 \
    cargo test -q --offline --test join_exec
# The crash-recovery fault-injection suite: the kill-point matrix (all 9
# ED kinds + PLAIN, 1- and 4-shard), corruption (bit flips, truncated WAL
# tails, swapped snapshot files) and checkpoint/fsync-batching recovery.
run env ENCDBDB_STRESS_THREADS=4 ENCDBDB_STRESS_ROWS=2000 \
    cargo test -q --offline --test crash_recovery
# What the one head/tail segment promises (DESIGN.md §1, §9, §12): it
# behaves as a list of entries whatever was pushed, frozen or drained; a
# snapshot shares the delta stores and a write copies them only while one
# does; and the bytes `persist` writes are the bytes it always wrote.
run cargo test -q --offline -p encdict --lib -- \
    segment_agrees_with_a_vec_of_entries \
    scattered_tail_order_does_not_change_entries
run cargo test -q --offline -p encdbdb --lib -- \
    a_snapshot_shares_the_delta_and_a_write_copies_it_at_most_once
run cargo test -q --offline -p encdict --test persist_roundtrip \
    serialised_dictionaries_keep_their_pinned_digests
# What the partition's four transitions (DESIGN.md §9) promise, on state
# and not only on answers: a recovered partition equals the live one field
# for field, and a failed merge changes nothing.
run cargo test -q --offline -p encdbdb --lib -- \
    recovered_partition_state_equals_live_state \
    merge_on_an_unprovisioned_enclave_changes_nothing_and_retries \
    merge_over_a_tampered_main_store_changes_nothing
# The leakage-audit suite: the ECALL ledger's observed per-kind leakage
# for all 9 ED kinds + PLAIN against the DESIGN.md §2/§10/§11 bounds.
run cargo test -q --offline --test security
# The ECALL-batching differential suite: batched scheduler vs bypass must
# be bit-identical in results AND leakage ledgers (all 9 ED kinds + PLAIN,
# proptest interleavings, forced coalescing, compaction publish mid-batch).
run env ENCDBDB_STRESS_THREADS=4 \
    cargo test -q --offline --test batching_differential
# The scheduler crash-safety regression: an injected leader panic must
# poison (not wedge) the followers, and the server must keep serving.
run cargo test -q --offline --test scheduler_poison
# The networked service layer (DESIGN.md §16): TCP-vs-in-process
# differential (results, leakage ledgers, tenant isolation, quotas,
# admission control) and the graceful-shutdown / torn-WAL proof.
run cargo test -q --offline --test net_differential
run cargo test -q --offline --test net_shutdown
# The enclave's per-call state (DESIGN.md §6, §14.2): the value cache's
# ring and index against the map and queue they replaced, over fixed seeds
# and a fixed operation count; and 10 000 calls naming bogus columns, which
# must each fail typed and hold a bounded trusted heap.
run cargo test -q --offline -p encdict --lib \
    value_cache_agrees_with_the_map_and_queue_it_replaced
run cargo test -q --offline -p encdict --test failure_injection \
    bogus_column_names_hold_bounded_trusted_memory
# The repo benchmark (BENCHMARK.json) is a workspace of its own that none
# of the above builds, so a library API change can break it silently: build
# it unmodified and smoke every workload against its oracle.
echo "==> benchmark/run.sh --quick"
QUICK="$(benchmark/run.sh --quick)"
if [ "$(grep -c '/passed_ops_share 1 ratio$' <<<"$QUICK")" -ne 5 ]; then
    echo "$QUICK"
    echo "benchmark --quick: not every workload passed all its operations"
    exit 1
fi
# Benches are excluded from `cargo test` (they are timed loops); keep them
# compiling — including the analytic-engine aggregate bench, the
# snapshot/compaction bench, the partition-layer bench and the join
# build/probe bench.
run cargo bench --no-run --offline -p encdbdb-bench
run cargo bench --no-run --offline -p encdbdb-bench --bench aggregate
run cargo bench --no-run --offline -p encdbdb-bench --bench compaction
run cargo bench --no-run --offline -p encdbdb-bench --bench partition
run cargo bench --no-run --offline -p encdbdb-bench --bench join
run cargo bench --no-run --offline -p encdbdb-bench --bench durability
run cargo bench --no-run --offline -p encdbdb-bench --bench cache
run cargo bench --no-run --offline -p encdbdb-bench --bench concurrency
run cargo bench --no-run --offline -p encdbdb-bench --bench crypto
# The concurrent-reader load generator (README "Concurrent throughput").
run cargo build --release --offline -p encdbdb-bench --bin loadgen
# The bench-trajectory emit mode: one fast bounded bench run writing
# BENCH_*.json into a temp dir, validated against the emit schema (the
# committed baselines under baselines/ are validated the same way).
BENCH_JSON_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_JSON_DIR"' EXIT
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" ENCDBDB_DURABILITY_ROWS=200 \
    cargo bench -q --offline -p encdbdb-bench --bench durability
run python3 tools/validate_bench_json.py "$BENCH_JSON_DIR"/BENCH_durability.json
# The crypto rows: PAE on the detected backend beside the portable
# fallback, and a column cipher derived beside one kept (DESIGN.md §6).
# Schema-validated only: which backend `Pae::new` picks is the CPU's
# choice, so the medians are not comparable across runners.
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" \
    cargo bench -q --offline -p encdbdb-bench --bench crypto
run python3 tools/validate_bench_json.py "$BENCH_JSON_DIR"/BENCH_crypto.json
# The value-cache rows (DESIGN.md §14.2), the aggregate stream row-bounded:
# the hit-rate ladder and the price of one hit.
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" ENCDBDB_CACHE_ROWS=6000 \
    cargo bench -q --offline -p encdbdb-bench --bench cache
run python3 tools/validate_bench_json.py "$BENCH_JSON_DIR"/BENCH_cache.json
run python3 tools/validate_bench_json.py baselines/BENCH_*.json
# The scan-kernel regression gate: a fresh av_search run (no row knobs,
# same workload as the committed baseline) compared median-to-median
# against baselines/BENCH_av_search.json. The tolerance (default 3x,
# ENCDBDB_BENCH_TOLERANCE to override) absorbs shared-runner noise while
# still catching an accidental algorithmic regression in the hot scan
# kernels.
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" \
    cargo bench -q --offline -p encdbdb-bench --bench av_search
run python3 tools/validate_bench_json.py --baseline \
    baselines/BENCH_av_search.json "$BENCH_JSON_DIR"/BENCH_av_search.json
# Regression gates for the analytic engine and the join bridge, run with
# the same bounded row knobs their committed baselines were emitted with
# (the validator skips the comparison if the env objects differ).
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" ENCDBDB_AGG_ROWS=100000 \
    cargo bench -q --offline -p encdbdb-bench --bench aggregate
run python3 tools/validate_bench_json.py --baseline \
    baselines/BENCH_aggregate.json "$BENCH_JSON_DIR"/BENCH_aggregate.json
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" ENCDBDB_JOIN_ROWS=100000 \
    cargo bench -q --offline -p encdbdb-bench --bench join
run python3 tools/validate_bench_json.py --baseline \
    baselines/BENCH_join.json "$BENCH_JSON_DIR"/BENCH_join.json
# The concurrent-throughput gate (DESIGN.md §15): a fresh 1/4/16/64
# session ladder under the simulated 500 µs enclave-transition cost,
# compared against the committed baseline AND required to show >= 2x
# batched-over-bypass queries/sec at 16 sessions.
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" ENCDBDB_SIM_TRANSITION_NS=500000 \
    cargo bench -q --offline -p encdbdb-bench --bench concurrency
run python3 tools/validate_bench_json.py --baseline \
    baselines/BENCH_concurrency.json "$BENCH_JSON_DIR"/BENCH_concurrency.json
run python3 tools/check_batching_speedup.py "$BENCH_JSON_DIR"/BENCH_concurrency.json
# The networked-throughput gate (DESIGN.md §16): the same ladder over
# real TCP connections — one thread-pooled server on an ephemeral
# loopback port, bounded sweep — required to show >= 2x queries/sec at
# 16 connections over a single connection (batched leg) and a non-zero
# ServerBusy shed count at the 64-connection rung. The committed
# baselines/BENCH_network.json is held to the same gate above via the
# baselines glob plus the --tcp check here.
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" ENCDBDB_SIM_TRANSITION_NS=500000 \
    ./target/release/loadgen --tcp --sweep --samples 3
run python3 tools/validate_bench_json.py "$BENCH_JSON_DIR"/BENCH_network.json
run python3 tools/check_batching_speedup.py --tcp "$BENCH_JSON_DIR"/BENCH_network.json
run python3 tools/check_batching_speedup.py --tcp baselines/BENCH_network.json

echo "==> CI green"
