"""The soak driver (``scripts/soak.py``) in tier-1: the CI lanes' seed-101
lines are pinned, a divergence between a cell's two runs fails the lane
by key, and the metamorphic cell function is deterministic."""

import importlib.util
import itertools
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scripts", "soak.py"
)
_spec = importlib.util.spec_from_file_location("soak", _PATH)
soak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(soak)

EXPECTED = {
    "concurrency": [
        "seed 101: 80 statements, 0 absorbed errors, 241 switches, "
        "30 faults injected, 61 commits in 40 batches, trace 13094 bytes "
        "[ok]",
        "hot-row seed 101: 48 statements, 23 lock waits, 0 deadlocks, "
        "3 faults injected, trace 4375 bytes [ok]",
        "concurrency soak: 1 seeds, all deterministic",
    ],
    "replication": [
        "clean seed 101: 24 acked, 0 survivors, 35 frames shipped, "
        "0 ship retries, links replica-1 sent=35 drop=2 part=0/replica-2 "
        "sent=30 drop=2 part=2, failover 41493 us, trace 3902 bytes [ok]",
        "crash seed 101: 6 acked, 3 survivors, 26 frames shipped, "
        "0 ship retries, links replica-1 sent=26 drop=2 part=0/replica-2 "
        "sent=26 drop=2 part=1, failover 27373 us, trace 871 bytes [ok]",
        "replication soak: 1 seeds, all deterministic",
    ],
}


@pytest.mark.parametrize("lane", sorted(EXPECTED))
def test_lane_prints_the_pinned_seed_101_lines(lane, capsys):
    assert soak.main([lane, "101"]) == 0
    assert capsys.readouterr().out.splitlines() == EXPECTED[lane]


def test_divergence_between_the_two_runs_fails_and_names_the_key(
        capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
    runs = itertools.count()
    planted = soak.Cell(
        "planted seed %d",
        lambda seed: {"same": seed, "drifts": next(runs), "servers": []},
        lambda snapshot: [],
        "ran%(status)s",
    )
    monkeypatch.setitem(soak.LANES, "planted", ([planted], "unreachable"))
    assert soak.main(["planted", "7"]) == 1
    out = capsys.readouterr().out
    assert "planted seed 7: ran [FAIL]" in out
    assert "FAIL planted seed 7: 'drifts' differs between runs" in out
    assert "'same'" not in out and "unreachable" not in out
    assert sorted(os.listdir(tmp_path)) == [
        "divergence-planted-seed-7-drifts-run1.log",
        "divergence-planted-seed-7-drifts-run2.log",
    ]


def test_unknown_lane_is_a_usage_error(capsys):
    assert soak.main(["nonesuch"]) == 2
    assert "usage" in capsys.readouterr().out


def test_metamorphic_cell_is_deterministic_and_index_consistent():
    cell = soak.Cell(
        "seed %d", lambda seed: soak.run_metamorphic(seed, 0, 120),
        None, None,
    )
    first, first_problems = soak.run_cell(cell, 101)
    second, second_problems = soak.run_cell(cell, 101)
    assert first["log"] == second["log"]
    assert first == second
    assert first["violations"] == [] and first["artifacts"] == {}
    assert first_problems == second_problems == []
