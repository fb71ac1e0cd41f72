"""Guard for the one hash join (DESIGN.md §7, "Parallel cores"): every
hash join, serial or parallel, runs through ``HashJoinOp``.  Under
``repro/exec/`` only ``operators.HashJoinOp`` defines both a build and a
probe method, and the parallel pipeline that kept a second hash join —
its stages, its replay of the joined rows and the executor's hook for
that replay — is defined nowhere under ``src/``."""

import ast
import pathlib

import repro
from tests.analysis.test_one_charge_path import definitions

SRC = pathlib.Path(repro.__file__).parent

#: The parallel pipeline and its engine glue, gone.
GONE = {
    "JoinStage", "BloomStage", "BloomFilter", "FilterStage",
    "GroupByStage", "ParallelPipeline", "PipelineStats", "MERGE_ENTRY_US",
    "execute_parallel", "_make_stage", "_flatten", "_Replay",
    "materialized",
}
#: Gone from ``exec/`` (the row store's page-frame ``_materialize`` is
#: another thing).
GONE_FROM_EXEC = {"_materialize"}


def hash_joins(source):
    """The classes in ``source`` with both a build and a probe method
    (leading underscores aside)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            methods = {
                item.name.lstrip("_") for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            if {"build", "probe"} <= methods:
                found.add(node.name)
    return found


def test_hash_join_op_is_the_one_hash_join_under_exec():
    found = set()
    for path in (SRC / "exec").rglob("*.py"):
        found |= {(path.stem, name) for name in hash_joins(path.read_text())}
    # Equality, not subset: the guard must notice its own target moving.
    assert found == {("operators", "HashJoinOp")}


def test_the_parallel_pipeline_is_gone():
    for path in SRC.rglob("*.py"):
        assert not definitions(path.read_text()) & GONE, path
    for path in (SRC / "exec").rglob("*.py"):
        assert not definitions(path.read_text()) & GONE_FROM_EXEC, path


def test_the_guard_sees_a_planted_second_join():
    planted = (
        "class JoinStage:\n"
        "    def build(self, pool):\n"
        "        self.table = {}\n"
        "    def probe(self, row):\n"
        "        return self.table.get(row)\n"
        "class Executor:\n"
        "    def __init__(self):\n"
        "        self.materialized = {}\n"
        "def _materialize(executor, plan, ctx):\n"
        "    pass\n"
    )
    assert hash_joins(planted) == {"JoinStage"}
    assert definitions(planted) & GONE == {"JoinStage", "materialized"}
    assert definitions(planted) & GONE_FROM_EXEC == {"_materialize"}
    assert hash_joins(
        "class Join:\n"
        "    def _build(self, ctx):\n"
        "        pass\n"
        "    def _probe(self, ctx):\n"
        "        pass\n"
    ) == {"Join"}
    # A probe alone (the index-NL join's) is not a hash join.
    assert hash_joins(
        "class IndexNLJoinOp:\n"
        "    def probe(self, ctx, layout, row):\n"
        "        pass\n"
    ) == set()
