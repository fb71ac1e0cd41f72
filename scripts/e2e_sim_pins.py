#!/usr/bin/env python3
"""Pin the simulated clock of the four end-to-end workloads.

Runs ``benchmarks/e2e/run.py --workload W --quick --rounds 1 --seed 301``
for every workload of ``BENCHMARK.json`` and compares the run's
``sim_us_per_stmt`` with the value pinned below, to the last digit.  The
simulated clock is deterministic and the same under Python 3.10, 3.11 and
3.12, so a difference means simulated time moved.  A change that moves
it on purpose edits ``PINS`` and says why; every other change must leave
it where it is.  The run must also report ``correct``.

Usage::

    python scripts/e2e_sim_pins.py
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"

#: workload -> sim_us_per_stmt at ``--quick --rounds 1 --seed 301``.
PINS = {
    "oltp_point": 59.8,
    "join_agg": 8758.333333333334,
    "mixed_conc": 8767.352040816326,
    "replicated": 132.34795321637426,
}


def measure(workload):
    """(sim_us_per_stmt, correct) of one quick seeded round."""
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--quick",
         "--rounds", "1", "--seed", "301"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return result["metrics"]["sim_us_per_stmt"]["value"], result["correct"]


def main():
    failures = 0
    for workload, pinned in PINS.items():
        measured, correct = measure(workload)
        # Exact: the simulated clock is integer microseconds over a fixed
        # statement count, so any drift is a real change.
        ok = correct and measured == pinned
        failures += not ok
        print("%-10s sim_us_per_stmt %r (pinned %r)%s%s" % (
            workload, measured, pinned,
            "" if correct else " INCORRECT", " ok" if ok else " FAIL",
        ))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
