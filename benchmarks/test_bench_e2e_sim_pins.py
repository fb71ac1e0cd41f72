"""The end-to-end workloads' simulated clock, pinned like every experiment.

Runs ``benchmarks/e2e/run.py --workload W --quick --rounds 1 --seed 301``
for every workload of ``BENCHMARK.json`` and prints its
``sim_us_per_stmt`` and ``correct``.  The simulated clock is
deterministic, so the table is pinned in ``benchmarks/pins.txt`` like
every other: a change that moves a workload's simulated time fails here
and names the workload.
"""

import json
import os
import subprocess
import sys

from conftest import print_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "benchmarks", "e2e", "run.py")
ARGS = ["--quick", "--rounds", "1", "--seed", "301"]


def measure(workload):
    """(workload, sim_us_per_stmt, correct) of one quick seeded round."""
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload] + ARGS,
        capture_output=True, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return (workload, result["metrics"]["sim_us_per_stmt"]["value"],
            result["correct"])


def run_experiment():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    return [measure(workload) for workload in workloads]


def test_e2e_sim_pins(once):
    rows = once(run_experiment)
    print_table(
        "E2E: simulated clock per workload (run.py %s)" % " ".join(ARGS),
        ["workload", "sim_us_per_stmt", "correct"],
        rows,
    )
    assert all(correct for _, _, correct in rows)
