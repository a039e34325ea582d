#!/usr/bin/env bash
# Builds the benchmark package (release, offline) and runs it from the
# repo root. Arguments go to the binary unchanged:
#
#   benchmark/run.sh                      every workload, each in its own process;
#                                         prints workload/metric value unit,
#                                         writes benchmark/out/results.json
#   benchmark/run.sh --quick              the same at 2 % of the ops (smoke, < 10 s)
#   benchmark/run.sh --trace 1            the per-layer pass (+ out/trace_<workload>.json)
#   benchmark/run.sh --selfcheck N        two interleaved sets of N runs, compared;
#                                         writes benchmark/out/selfcheck.txt
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; one JSON object on the last line
#
# Build output goes to $CARGO_TARGET_DIR if set, else benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# Cargo reports on stderr, so stdout carries only the benchmark's output.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark" "$@"
