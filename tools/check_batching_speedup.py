#!/usr/bin/env python3
"""Gate on the cross-session ECALL batching speedup (DESIGN.md §15/§16).

Default mode reads a BENCH_concurrency.json emitted by
`loadgen --sweep` and asserts that at 16 concurrent sessions the
batched scheduler leg is at least MIN_SPEEDUP (default 2.0) times faster
than the bypass leg, i.e.

    median_ns(qps/16/bypass) / median_ns(qps/16/batched) >= MIN_SPEEDUP

`--tcp` mode reads a BENCH_network.json emitted by `loadgen --tcp` and
asserts the networked throughput scales: 16 TCP connections must sustain
at least MIN_SPEEDUP times the queries/sec of a single connection on the
batched leg. Wave durations are normalised by the issued query counts
(recorded in env as ENCDBDB_NET_ISSUED_<n>; a 16-connection wave issues
16x the queries of a 1-connection wave), so

    (issued_16 / median_ns(tcp_wave/16/batched))
    / (issued_1 / median_ns(tcp_wave/1/batched)) >= MIN_SPEEDUP

It also requires that admission control actually shed load at the
64-connection rung (ENCDBDB_NET_BUSY_64_batched > 0) when that point is
present, proving the ServerBusy path is exercised, not dead code.

Usage: check_batching_speedup.py [--tcp] BENCH_*.json [min_speedup]
"""

import json
import sys


def check_concurrency(path: str, doc: dict, min_speedup: float) -> int:
    medians = {b["id"]: b["median_ns"] for b in doc.get("benchmarks", [])}
    for needed in ("qps/16/batched", "qps/16/bypass"):
        if needed not in medians:
            print(f"{path}: missing benchmark id '{needed}'", file=sys.stderr)
            return 1
    ratio = medians["qps/16/bypass"] / medians["qps/16/batched"]
    if ratio < min_speedup:
        print(
            f"{path}: 16-session batched/bypass speedup {ratio:.2f}x "
            f"below required {min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    print(f"{path}: 16-session batched/bypass speedup {ratio:.2f}x (>= {min_speedup:.1f}x)")
    return 0


def check_tcp(path: str, doc: dict, min_speedup: float) -> int:
    medians = {b["id"]: b["median_ns"] for b in doc.get("benchmarks", [])}
    env = doc.get("env", {})
    for needed in ("tcp_wave/1/batched", "tcp_wave/16/batched"):
        if needed not in medians:
            print(f"{path}: missing benchmark id '{needed}'", file=sys.stderr)
            return 1
    issued_1 = float(env.get("ENCDBDB_NET_ISSUED_1", 1))
    issued_16 = float(env.get("ENCDBDB_NET_ISSUED_16", 16))
    qps_1 = issued_1 / medians["tcp_wave/1/batched"]
    qps_16 = issued_16 / medians["tcp_wave/16/batched"]
    ratio = qps_16 / qps_1
    if ratio < min_speedup:
        print(
            f"{path}: 16-connection TCP throughput only {ratio:.2f}x a single "
            f"connection, below required {min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"{path}: 16-connection TCP throughput {ratio:.2f}x a single connection "
        f"(>= {min_speedup:.1f}x)"
    )
    if "tcp_wave/64/batched" in medians:
        busy = int(env.get("ENCDBDB_NET_BUSY_64_batched", 0))
        if busy <= 0:
            print(
                f"{path}: 64-connection rung recorded no ServerBusy replies — "
                f"admission control never shed load",
                file=sys.stderr,
            )
            return 1
        print(f"{path}: 64-connection rung shed load ({busy} ServerBusy replies)")
    return 0


def main() -> int:
    argv = sys.argv[1:]
    tcp = "--tcp" in argv
    argv = [a for a in argv if a != "--tcp"]
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = argv[0]
    min_speedup = float(argv[1]) if len(argv) > 1 else 2.0

    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if tcp:
        return check_tcp(path, doc, min_speedup)
    return check_concurrency(path, doc, min_speedup)


if __name__ == "__main__":
    sys.exit(main())
