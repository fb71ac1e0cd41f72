#!/usr/bin/env python
"""Benchmark regression gate for CI.

Compares a freshly generated pytest-benchmark JSON against the newest
*committed* ``BENCH_*.json`` baseline and fails (exit 1) when any gated
experiment regressed by more than the threshold.

For each gated experiment the preferred measure is the **simulated**
statement time — ``extra_info.metrics["statements.elapsed_us"]["sum"]``,
deterministic across machines because it comes off the SimClock — with
the wall-clock median as a fallback for rig-style experiments that never
build a server.  Wall medians vary across runners and between single
rounds on the *same* runner (cold-start effects swing them ±40%), so
wall comparisons use their own, much wider band (``--wall-threshold``,
default 50%) while simulated comparisons keep the tight default.

Usage::

    python scripts/bench_gate.py BENCH_PR5.json            # auto-baseline
    python scripts/bench_gate.py fresh.json --baseline BENCH_PR9.json
    python scripts/bench_gate.py fresh.json --threshold 0.20 --gate e5,e9
"""

import argparse
import glob
import json
import os
import sys

#: Experiments whose regression fails the bench job.
DEFAULT_GATED = ("e5", "e9", "e14", "e18", "e19", "e20", "e21")
DEFAULT_THRESHOLD = 0.15
#: Single-round wall medians are noisy even on one machine; only a
#: drastic regression is signal.
DEFAULT_WALL_THRESHOLD = 0.50

SIMULATED_KEY = "statements.elapsed_us"


def load_benchmarks(path):
    """Map ``test name -> (experiment token, benchmark entry)`` from a
    pytest-benchmark JSON file; the token is the ``eN``/``figN`` piece
    of the test name (``test_e9a_speedup`` -> ``e9a``)."""
    with open(path) as handle:
        data = json.load(handle)
    entries = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        for token in name.replace("test_", "").split("_"):
            if token and token[0] in "ef" and any(
                ch.isdigit() for ch in token
            ):
                entries[name] = (token, bench)
                break
    return entries


def token_matches(token, key):
    """``e9`` gates ``e9``, ``e9a``..``e9c`` but not ``e90``."""
    if token == key:
        return True
    return token.startswith(key) and token[len(key):][0].isalpha()


def measure(bench):
    """(value, kind): simulated µs when available, else wall median s."""
    metrics = bench.get("extra_info", {}).get("metrics", {})
    simulated = metrics.get(SIMULATED_KEY)
    if isinstance(simulated, dict) and simulated.get("sum", 0) > 0:
        return float(simulated["sum"]), "simulated-us"
    return float(bench["stats"]["median"]), "wall-median-s"


def find_baseline(fresh_path):
    """Newest committed ``BENCH_*.json`` that is not the fresh file."""
    root = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(root)
    candidates = sorted(
        path
        for path in glob.glob(os.path.join(repo, "BENCH_*.json"))
        if os.path.abspath(path) != os.path.abspath(fresh_path)
    )
    return candidates[-1] if candidates else None


def compare(baseline, fresh, gated, threshold, wall_threshold=None):
    """Returns (rows, failures) comparing the gated experiments."""
    if wall_threshold is None:
        wall_threshold = threshold
    rows = []
    failures = []
    for key in gated:
        names = sorted(
            name for name, (token, __) in fresh.items()
            if token_matches(token, key)
        )
        if not names:
            rows.append((key, "-", "-", "-", "missing from fresh run"))
            failures.append("%s: missing from the fresh run" % key)
            continue
        for name in names:
            label = name.replace("test_", "")
            __, fresh_bench = fresh[name]
            base_entry = baseline.get(name)
            if base_entry is None:
                rows.append((label, "-", "-", "-", "new (no baseline)"))
                continue
            __, base_bench = base_entry
            base_value, base_kind = measure(base_bench)
            fresh_value, fresh_kind = measure(fresh_bench)
            if base_kind != fresh_kind:
                # One side gained/lost the simulated metric: compare walls.
                base_value = float(base_bench["stats"]["median"])
                fresh_value = float(fresh_bench["stats"]["median"])
                base_kind = "wall-median-s"
            delta = (
                (fresh_value - base_value) / base_value if base_value else 0.0
            )
            limit = (
                wall_threshold if base_kind == "wall-median-s" else threshold
            )
            verdict = "ok"
            if delta > limit:
                verdict = "REGRESSED"
                failures.append(
                    "%s: %s %.4g -> %.4g (%+.1f%% > %.0f%% threshold)"
                    % (
                        label, base_kind, base_value, fresh_value,
                        100 * delta, 100 * limit,
                    )
                )
            rows.append(
                (label, base_kind, "%.4g" % base_value, "%.4g" % fresh_value,
                 "%+.1f%% %s" % (100 * delta, verdict))
            )
    return rows, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly generated benchmark JSON")
    parser.add_argument(
        "--baseline",
        help="committed baseline JSON (default: newest BENCH_*.json "
        "in the repo root other than the fresh file)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative regression that fails the gate (default 0.15)",
    )
    parser.add_argument(
        "--wall-threshold", type=float, default=DEFAULT_WALL_THRESHOLD,
        help="regression band for wall-median comparisons (default 0.50)",
    )
    parser.add_argument(
        "--gate", default=",".join(DEFAULT_GATED),
        help="comma-separated experiment keys to gate (default %s)"
        % ",".join(DEFAULT_GATED),
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline or find_baseline(args.fresh)
    if baseline_path is None:
        print("bench gate: no committed BENCH_*.json baseline; passing")
        return 0
    baseline = load_benchmarks(baseline_path)
    fresh = load_benchmarks(args.fresh)
    gated = [key.strip() for key in args.gate.split(",") if key.strip()]
    rows, failures = compare(
        baseline, fresh, gated, args.threshold, args.wall_threshold
    )
    print(
        "bench gate: %s (fresh) vs %s (baseline), threshold %.0f%%"
        % (args.fresh, baseline_path, 100 * args.threshold)
    )
    header = ("exp", "measure", "baseline", "fresh", "delta")
    widths = [
        max(len(str(header[i])), max(len(str(row[i])) for row in rows))
        for i in range(len(header))
    ] if rows else [len(h) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    if failures:
        print()
        for failure in failures:
            print("FAIL %s" % failure)
        return 1
    print("bench gate: all gated experiments within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
