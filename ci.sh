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

# Bytes from outside the trust boundary have one bounds-checked reader and
# one writer, `colstore::codec` (DESIGN.md §12 "Byte formats"): a second
# cursor or a second set of `put_*` helpers is a parallel path growing back.
CODEC_MODULE=crates/colstore/src/codec.rs
if grep -rnE 'fn take\(&mut self, n: usize\)|fn put_u32' src crates/*/src --include='*.rs' |
    grep -v "^$CODEC_MODULE:"; then
    echo "a byte cursor or put_* helper outside $CODEC_MODULE (listed above)"
    exit 1
fi

# The attribute-vector scan has one entry point, `avsearch::scan` (DESIGN.md
# §14.1). The old five-argument `search` and its two one-variant enums stay
# only for benchmark/src/layers.rs (not searched here): a new caller
# anywhere else is the second entry point growing back.
AVSEARCH_MODULE=crates/encdict/src/avsearch.rs
if grep -rnE 'Parallelism|SetSearchStrategy|avsearch::search\(' src crates tests examples \
    --include='*.rs' | grep -v "^$AVSEARCH_MODULE:"; then
    echo "the avsearch compatibility shim named outside $AVSEARCH_MODULE (listed above)"
    exit 1
fi

# The server reads one clock, `obs::trace::now_ns`, and times every layer by
# spans on it (DESIGN.md §13.2): an `Instant` anywhere else in the encdbdb
# crate is a hand-rolled timer growing back.
CLOCK_MODULE=crates/encdbdb/src/obs/trace.rs
if grep -rn Instant crates/encdbdb/src --include='*.rs' | grep -v "^$CLOCK_MODULE:"; then
    echo "an Instant outside $CLOCK_MODULE (listed above)"
    exit 1
fi

# Every column, encrypted or PLAIN, is one `encdict::Dictionary` main store
# and one ED9 `Dictionary` delta (DESIGN.md §1); the schema's `DictChoice`
# picks where a search and a merge run, nothing picks the storage. A PLAIN
# store type or a per-protection column enum in the server is the second
# column representation growing back.
if grep -rnE 'PlainDictionary|DeltaStore|enum (MainColumn|ColumnDelta)\b' crates/encdbdb/src \
    --include='*.rs'; then
    echo "a second column representation in crates/encdbdb/src (listed above)"
    exit 1
fi

# One differential harness, tests/harness, drives the one op stream
# (`workload::schedule`) through every execution mode, and the kind list is
# `workload::KINDS`: a schedule `enum Op` or `fn decode(`, or a copy of the
# kind literal, anywhere under tests/ is a forked runner growing back.
if grep -rnE 'enum Op\b|fn decode\(|"ED1", "ED2", "ED3"' tests; then
    echo "a schedule runner outside workload::schedule, or a copied kind list (listed above)"
    exit 1
fi

# One timing system: the repo benchmark (benchmark/, BENCHMARK.json), with
# loadgen carrying the batching gates and the `micro` binary the quoted
# micro rows (DESIGN.md §3). A criterion dependency, a [[bench]] target or a
# benches/ directory is the second system growing back.
SECOND_TIMER=$({
    find . -name Cargo.toml -not -path '*/target/*' -exec grep -l -e criterion -e '^\[\[bench\]\]' {} +
    find . -type d -name benches -not -path '*/target/*'
})
if [ -n "$SECOND_TIMER" ]; then
    echo "$SECOND_TIMER"
    echo "a criterion dependency, [[bench]] table or benches/ directory (listed above)"
    exit 1
fi

run cargo build --release --offline
# Non-test code lines of the three core crates (ROADMAP item 5's exit
# criterion is stated in this number), and the ten largest files.
run tools/code_lines.sh --files
# The trusted core: table1_summary's count of the code the enclave runs
# (ROADMAP item 14). A total above the recorded one is trusted code
# growing back; lower the bound when the count falls.
TRUSTED_MAX=2314
TRUSTED_LINE=$(./target/release/table1_summary --rows 2000 --queries 5 | grep -E '^ +TOTAL ')
echo "$TRUSTED_LINE"
TRUSTED=$(awk '{ print $2 }' <<<"$TRUSTED_LINE")
if [ -z "$TRUSTED" ] || [ "$TRUSTED" -gt "$TRUSTED_MAX" ]; then
    echo "trusted core: ${TRUSTED:-no} lines, more than $TRUSTED_MAX"
    exit 1
fi
# Every suite once, the stress, differential and crash-recovery ones
# bounded: a fixed reader thread count and table size so CI machines of any
# width behave alike.
run env ENCDBDB_STRESS_THREADS=4 ENCDBDB_STRESS_ROWS=2000 cargo test -q --offline
# The intrinsics kernels, the attribute-vector widths and the scan kernel,
# and their differential tests again, optimized: release codegen is what
# runs them in production (DESIGN.md §6, §14.1).
run cargo test --release -q --offline -p encdbdb-crypto -p encdict -p colstore
run cargo fmt --check
run cargo clippy --all-targets --offline -- -D warnings
# Rustdoc must stay warning-free (broken intra-doc links, bad code fences).
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline
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
# The concurrent-reader load generator (README "Concurrent throughput"),
# built with the workspace above, carries both batching gates.
BENCH_JSON_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_JSON_DIR"' EXIT
# The concurrent-throughput gate (DESIGN.md §15): a fresh 1/4/16/64
# session ladder under the simulated 500 µs enclave-transition cost must
# show >= 2x batched-over-bypass queries/sec at 16 sessions, and so must
# the committed baselines/BENCH_concurrency.json.
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" ENCDBDB_SIM_TRANSITION_NS=500000 \
    ./target/release/loadgen --sweep --rows 256 --queries 16 --samples 3
run python3 tools/check_batching_speedup.py "$BENCH_JSON_DIR"/BENCH_concurrency.json
run python3 tools/check_batching_speedup.py baselines/BENCH_concurrency.json
# The networked-throughput gate (DESIGN.md §16): the same ladder over
# real TCP connections — one thread-pooled server on an ephemeral
# loopback port, bounded sweep — required to show >= 2x queries/sec at
# 16 connections over a single connection (batched leg) and a non-zero
# ServerBusy shed count at the 64-connection rung, fresh and in the
# committed baselines/BENCH_network.json.
run env ENCDBDB_BENCH_JSON="$BENCH_JSON_DIR" ENCDBDB_SIM_TRANSITION_NS=500000 \
    ./target/release/loadgen --tcp --sweep --samples 3
run python3 tools/check_batching_speedup.py --tcp "$BENCH_JSON_DIR"/BENCH_network.json
run python3 tools/check_batching_speedup.py --tcp baselines/BENCH_network.json

echo "==> CI green"
