#!/usr/bin/env python
"""Measure the runtime sanitizers' overhead on the scheduler workload.

Runs the same seeded multi-session workload twice — sanitizers off,
then on (pin-leak, quota, clock, and race-sanitizer taps all live) —
and reports the wall-clock ratio.  The sanitizers read no clock and
draw no randomness, so the two runs must also produce **byte-identical
scheduler traces**: enabling checking may cost time, but it must never
change behaviour.

Exit codes: 0 on success, 1 when the traces diverge or the overhead
exceeds ``--max-overhead`` (default 3.0x — the sanitized run may take
at most 3x the plain run's wall time).

Usage::

    python scripts/sanitizer_overhead.py            # default seed 101
    python scripts/sanitizer_overhead.py 202 --max-overhead 4
"""

import argparse
import sys
import time  # noqa: SIM001 — wall-clock overhead is what this measures

sys.path.insert(0, "src")

from repro import Server, ServerConfig  # noqa: E402
from repro.engine import WorkloadScheduler  # noqa: E402

N_SESSIONS = 5
STATEMENTS = 10
TABLE_ROWS = 2000
POOL_PAGES = 24


def session_statements(k):
    def source(connection):
        for i in range(STATEMENTS):
            yield "UPDATE t SET v = v + 1 WHERE id = %d" % ((k + i) % 3)
            yield (
                "SELECT count(*), sum(v) FROM t WHERE v = %d"
                % ((i + k) % 13)
            )
            yield (
                "INSERT INTO t VALUES (%d, %d)"
                % (100_000 + 1_000 * k + i, (k * 7 + i) % 13)
            )
    return source


def run_workload(seed, sanitize):
    server = Server(ServerConfig(
        start_buffer_governor=False,
        initial_pool_pages=POOL_PAGES,
        multiprogramming_level=3,
    ), sanitize=sanitize)
    connection = server.connect()
    connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    server.load_table("t", [(i, i % 13) for i in range(TABLE_ROWS)])
    scheduler = WorkloadScheduler(server, seed=seed, switch_rate=0.5)
    for k in range(N_SESSIONS):
        scheduler.add_session("s%d" % k, session_statements(k))
    started = time.perf_counter()  # noqa: SIM001
    report = scheduler.run()
    elapsed = time.perf_counter() - started  # noqa: SIM001
    race_checks = server.races.checks if server.races is not None else 0
    return elapsed, scheduler.trace_lines(), report, race_checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", nargs="?", type=int, default=101)
    parser.add_argument(
        "--max-overhead", type=float, default=3.0,
        help="fail when sanitized wall time exceeds this multiple of "
        "the plain run (default 3.0)",
    )
    args = parser.parse_args(argv)

    # Warm-up run so both measured runs see warm bytecode and caches.
    run_workload(args.seed, sanitize=False)
    plain_s, plain_trace, plain_report, __ = run_workload(
        args.seed, sanitize=False
    )
    checked_s, checked_trace, checked_report, race_checks = run_workload(
        args.seed, sanitize=True
    )

    ratio = checked_s / plain_s if plain_s > 0 else float("inf")
    print(
        "sanitizer overhead: seed %d, %d statements, %d race checks"
        % (args.seed, plain_report["statements"], race_checks)
    )
    print(
        "  plain     %.3fs\n  sanitized %.3fs  (%.2fx)"
        % (plain_s, checked_s, ratio)
    )

    failures = []
    if checked_trace != plain_trace:
        failures.append(
            "scheduler traces diverge between sanitized and plain runs"
        )
    if checked_report != plain_report:
        failures.append("run reports diverge between sanitized and plain runs")
    if race_checks == 0:
        failures.append("race sanitizer performed no checks — taps are dead")
    if ratio > args.max_overhead:
        failures.append(
            "overhead %.2fx exceeds the %.2fx budget"
            % (ratio, args.max_overhead)
        )
    for failure in failures:
        print("FAIL %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
