#!/usr/bin/env python
"""Paired end-to-end comparison: a parent commit against the working tree.

Runs the repo's benchmark (the command in ``BENCHMARK.json``) on a
checkout of ``PARENT_REF`` and on the working tree *alternately* — the
side that goes first flips every pair, so a host that speeds up or slows
down over minutes hits both sides alike — and prints, per workload and
end-to-end metric, both medians, both quartile ranges and the pairs the
working tree won.  A gain is claimable (``gain`` in the last column) only
when the working tree wins at least nine tenths of the pairs, ties
counting for neither side, and the medians differ by more than the
distance between the parent's own quartiles; ``WORSE`` marks a median
that is worse than the parent's by more than the metric's bound.

Only the last line of each run (the ``{"correct", "attempted", "failed",
"metrics"}`` JSON) is read, and nothing under ``benchmarks/e2e/`` is
touched: each side runs the ``run.py`` of its own checkout.  The parent
is materialised with ``git archive`` into a temporary directory (honours
``TMPDIR``) that is removed on exit, so nothing is left in ``.git``.

Usage::

    python scripts/e2e_pairs.py HEAD --workload oltp_point
    python scripts/e2e_pairs.py HEAD~1 --pairs 10 --seconds 20 --seed 307
"""

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
ROW = "%-16s %-4s %10s %-22s %10s %-22s %8s %6s %6s  %s"


def checkout(ref, directory):
    """Materialise commit ``ref`` of this repository under ``directory``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", ref],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory)


def run_once(command, root, workload, seed, seconds):
    """One benchmark run in ``root``; the parsed last-line JSON."""
    proc = subprocess.run(
        command + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(
            "benchmark failed in %s (exit %d):\n%s"
            % (root, proc.returncode, proc.stderr[-2000:])
        )
    return json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])


def quartiles(values):
    """(q1, median, q3); a single run is all three."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(metric, parent, change):
    """One table row: medians, quartile ranges, pairs won, verdict."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gained = sign * (c_med - p_med)
    delta = (c_med - p_med) / p_med if p_med else 0.0
    if won >= 0.9 * len(parent) and gained > p_q3 - p_q1:
        verdict = "gain"
    elif p_med and -gained / p_med > metric["bound"]:
        verdict = "WORSE"
    else:
        verdict = "-"
    return ROW % (
        metric["name"], metric["unit"],
        "%.5g" % p_med, "[%.5g..%.5g]" % (p_q1, p_q3),
        "%.5g" % c_med, "[%.5g..%.5g]" % (c_q1, c_q3),
        "%+.1f%%" % (100.0 * delta),
        "%d/%d" % (won, len(parent)), "%d/%d" % (lost, len(parent)),
        verdict,
    )


def compare(command, metrics, sides, workload, args):
    """Run the pairs for one workload and print its table; whether every
    run was correct with nothing failed."""
    samples = {side: {m["name"]: [] for m in metrics} for side in sides}
    clean = True
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            report = run_once(
                command, sides[side], workload, args.seed, args.seconds
            )
            if not report["correct"] or report["failed"]:
                clean = False
                print("  !! %s: correct=%s failed=%d of %d" % (
                    side, report["correct"], report["failed"],
                    report["attempted"],
                ))
            for metric in metrics:
                samples[side][metric["name"]].append(
                    report["metrics"][metric["name"]]["value"]
                )
        print("  pair %2d (%s first): %s" % (
            pair + 1, order[0], "  ".join(
                "%s %.5g -> %.5g" % (
                    m["name"], samples["parent"][m["name"]][-1],
                    samples["change"][m["name"]][-1],
                ) for m in metrics
            ),
        ), flush=True)
    print(ROW % (
        "metric", "unit", "parent", "[q1..q3]", "change", "[q1..q3]",
        "delta", "won", "lost", "",
    ))
    for metric in metrics:
        print(summarize(
            metric, samples["parent"][metric["name"]],
            samples["change"][metric["name"]],
        ))
    return clean


def main(argv=None):
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF")
    parser.add_argument("--workload", choices=workloads,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--seed", type=int, default=301)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    clean = True
    with tempfile.TemporaryDirectory(prefix="e2e-parent-") as parent_root:
        checkout(args.parent_ref, parent_root)
        sides = {"parent": parent_root, "change": str(REPO)}
        for workload in [args.workload] if args.workload else workloads:
            print("== %s  parent=%s  seed %d  %d pairs x %g s" % (
                workload, args.parent_ref, args.seed, args.pairs,
                args.seconds,
            ), flush=True)
            clean &= compare(
                manifest["command"], manifest["end_to_end"], sides,
                workload, args,
            )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
