"""The feedback-loop experiments, pinned to the last digit.

Figure 1 (E1, E1b), E15, E17b, E18 and E19 are the experiments whose
numbers come from the self-tuning loops (buffer governor, MPL
adaptation, checkpoint governor, group-commit window).  Each experiment
function in ``benchmarks/`` is run as-is and its series compared exactly
with the values below, so a change to a loop that moves simulated
behaviour fails here rather than in a reading of the printed tables.
A change that moves one on purpose edits the pin and says why.
"""

import importlib.util
import os
import sys

import pytest

BENCHMARKS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks"
)


def load(name):
    """Import ``benchmarks/<name>.py`` with the benchmarks' own helpers."""
    previous = sys.modules.pop("conftest", None)
    sys.path.insert(0, BENCHMARKS)
    try:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(BENCHMARKS, name + ".py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(BENCHMARKS)
        sys.modules.pop("conftest", None)
        if previous is not None:
            sys.modules["conftest"] = previous


E1 = [
    (1, 0, 4, 116, 103.90234375, "grow"),
    (2, 0, 103, 16, 113.890625, "grow"),
    (3, 0, 113, 6, 114.890625, "grow"),
    (4, 0, 114, 5, 114.9921875, "grow"),
    (5, 0, 114, 5, 114.9921875, "hold-deadband"),
    (6, 0, 114, 5, 114.9921875, "hold-deadband"),
    (7, 0, 114, 5, 114.9921875, "hold-deadband"),
    (8, 0, 114, 5, 114.9921875, "hold-deadband"),
    (9, 90, 67, 0, 67.5859375, "shrink"),
    (10, 90, 51, 0, 48.578125, "shrink"),
    (11, 90, 42, 0, 38.21875, "shrink"),
    (12, 90, 35, 0, 31.515625, "shrink"),
    (13, 90, 31, 0, 26.6640625, "shrink"),
    (14, 90, 26, 3, 25.16796875, "shrink"),
    (15, 90, 25, 4, 25.01953125, "shrink"),
    (16, 90, 25, 4, 25.01953125, "hold-deadband"),
    (17, 0, 25, 94, 106.00390625, "grow"),
    (18, 0, 106, 13, 114.1015625, "grow"),
    (19, 0, 114, 5, 114.91015625, "grow"),
    (20, 0, 114, 5, 114.9921875, "grow"),
    (21, 0, 114, 5, 114.9921875, "hold-deadband"),
    (22, 0, 114, 5, 114.9921875, "hold-deadband"),
    (23, 0, 114, 5, 114.9921875, "hold-deadband"),
    (24, 0, 114, 5, 114.9921875, "hold-deadband"),
]

E1B = (
    [(m, 0, 52, 4.0, "hold-deadband") for m in range(1, 6)]
    + [(m, 40, 12, 4.0, "hold-deadband") for m in range(6, 11)]
    + [(11, 0, 52, 40.0, "grow")]
    + [(m, 0, 16, 40.0, "hold-deadband") for m in range(12, 16)]
)

E15 = [
    ("paper: damped + deadband", 40, 554.01171875, 68.57421875,
     85.41796875, 71.17578125),
    ("no damping", 40, 658.734375, 70.109375, 87.0, 70.109375),
    ("no damping, no deadband", 40, 658.734375, 70.109375, 87.0, 70.109375),
]

E17B = [
    ("hungry window 1", 8, 128),
    ("hungry window 2", 4, 256),
    ("hungry window 3", 2, 512),
    ("light window 1", 8, 128),
    ("light window 2", 8, 128),
    ("light window 3", 8, 128),
]

E18 = (
    {"mode": "fixed-interval", "checkpoints": 16, "pages_flushed": 74,
     "polls": 15, "idle_ckpts": 0, "max_estimate_us": 0, "rows": 480},
    {"mode": "adaptive", "checkpoints": 7, "pages_flushed": 42,
     "polls": 17, "idle_ckpts": 6, "max_estimate_us": 7380900,
     "rows": 480},
)


def _e19(mpl, mode, forces, committed, elapsed_us, max_batch,
         mean_latency_us):
    return {
        "mpl": mpl, "mode": mode, "forces": forces, "committed": committed,
        "forces_per_commit": forces / committed, "elapsed_us": elapsed_us,
        "commits_per_sec": committed / (elapsed_us / 1e6),
        "max_batch": max_batch, "mean_latency_us": mean_latency_us,
    }


E19 = [
    _e19(1, "force-per-commit", 24, 24, 6010, 1, 250.41666666666666),
    _e19(1, "grouped", 24, 24, 6010, 1, 250.41666666666666),
    _e19(4, "force-per-commit", 96, 96, 12850, 1, 133.85416666666666),
    _e19(4, "grouped", 25, 96, 6105, 4, 133.85416666666666),
    _e19(16, "force-per-commit", 384, 384, 40210, 1, 104.71354166666667),
    _e19(16, "grouped", 49, 384, 8385, 8, 144.54427083333334),
]

CASES = {
    "E1": ("test_bench_fig1_feedback_control", "run_experiment", E1),
    "E1b": ("test_bench_fig1_feedback_control", "run_ce_experiment", E1B),
    "E15": ("test_bench_e15_damping_ablation", "run_experiment", E15),
    "E17b": ("test_bench_e17_reorganize_ablation",
             "run_adaptive_mpl_experiment", E17B),
    "E18": ("test_bench_e18_checkpoint_governor", "run_experiment", E18),
    "E19": ("test_bench_e19_group_commit", "run_experiment", E19),
}


@pytest.mark.no_sanitize
@pytest.mark.parametrize("experiment", sorted(CASES))
def test_loop_experiment_series_is_pinned(experiment, monkeypatch):
    # The experiments run fault-free whatever the lane's REPRO_FAULTS.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    module_name, function, expected = CASES[experiment]
    module = load(module_name)
    assert getattr(module, function)() == expected
