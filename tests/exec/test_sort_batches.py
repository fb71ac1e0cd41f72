"""The batch-at-a-time sort against the row path it replaced.

``RowPathSortOp`` below is ``SortOp`` as it stood before it took whole
batches: an environment dict per absorbed row, one
``_OrderedValue.__lt__`` call per comparison, spilled runs of
environments whose sort keys the merge evaluates again on every row read
back, and ``BatchBuilder`` fed a row at a time.  It lives here as the
reference (as the row-at-a-time join does in
``test_hash_join_columnar.py``): the engine's operator must produce the
same batches, show the same clock at every pull, spill write and yield,
and write the same spilled runs, row for row, as this one.
"""

import heapq
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.common.errors import ExecutionError
from repro.exec import MemoryGovernor, aggregates as aggregates_module
from repro.exec.aggregates import SortOp, _OrderedValue
from repro.exec.executor import ExecutionContext
from repro.exec.spill import WorkMemory
from repro.optimizer.costmodel import CPU_ROW_BATCH_US, CPU_SORT_FACTOR_BATCH_US
from repro.sql import ast
from repro.storage import FlashDisk, Volume
from tests.exec.env_reference import (
    env_of,
    env_rows,
    evaluate,
    rows_to_batches,
)
from tests.exec.stubs import StubChild, chunked, column


# --------------------------------------------------------------------- #
# the reference: the row-at-a-time sort
# --------------------------------------------------------------------- #

class RowPathSortOp(SortOp):
    """Environments in, ``_OrderedValue`` keys, ``BatchBuilder`` out."""

    def execute_batches(self, ctx):
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size, self)
        self._current = []
        self._runs = []
        try:
            for batch in self.child.execute_batches(ctx):
                ctx.charge(batch.count * CPU_SORT_FACTOR_BATCH_US * 4)
                for env in env_rows(batch):
                    self._absorb(env)
            self._merging = True
            yield from rows_to_batches(self._merge_emit(ctx), ctx.batch_rows)
        finally:
            self._memory.release_all()

    def _merge_emit(self, ctx):
        key_of = self._key_function(ctx)
        current = self._current
        current.sort(key=key_of)
        runs = self._runs
        if not runs:
            for env in current:
                yield env
            return

        def tagged(envs, index):
            return ((key_of(env), index, env) for env in envs)

        streams = [
            tagged(self._read_run(run), index)
            for index, run in enumerate(runs)
        ]
        streams.append(tagged(current, len(runs)))
        for __, __i, env in heapq.merge(*streams):
            ctx.charge(CPU_ROW_BATCH_US)
            yield env

    def _spill_run(self, ctx, rows):
        rows.sort(key=self._key_function(ctx))
        run = aggregates_module.SpillFile(
            ctx.temp_file, 80, ctx.pool.page_size,
            yield_hook=getattr(ctx, "yield_hook", None),
        )
        for env in rows:
            run.append(env)
        run.finish_writing()
        return run

    @staticmethod
    def _read_run(run):
        yield from run.read_all()

    def _key_function(self, ctx):
        keys = self.sort_keys
        params = ctx.params

        def key_of(env):
            return tuple(
                _OrderedValue(evaluate(expr, env, params), ascending)
                for expr, ascending in keys
            )

        return key_of


# --------------------------------------------------------------------- #
# a rig that shows both operators the same world
# --------------------------------------------------------------------- #

QID = 1


#: Sort key expressions over ``(a INT, b INT-or-DOUBLE, s VARCHAR)``; the
#: last divides by a column that can be 0, so it can raise.
KEYS = [
    column(QID, 0),
    column(QID, 1),
    column(QID, 2),
    ast.BinaryOp("+", column(QID, 0), column(QID, 1)),
    ast.BinaryOp("/", ast.Literal(6), column(QID, 0)),
]


def run_sort(operator_class, case):
    """Everything one operator lets the rest of the engine observe."""
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000, page_size=512))
    temp = volume.create_file("temp")
    pool = BufferPool(temp, capacity_pages=8)
    governor = MemoryGovernor(
        pool, 4096, multiprogramming_level=case["mpl"], clock=clock
    )
    task = governor.begin_task()
    trace = []
    ctx = ExecutionContext(
        pool, temp, None, clock, task, batch_rows=case["batch_rows"],
        yield_hook=lambda: trace.append(
            ("spill-write", clock.now, ctx.carry_ps[0])
        ),
    )
    runs = []

    class RecordingSpillFile(aggregates_module.SpillFile):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.written = []
            runs.append(self.written)

        def append(self, row):
            # The reference spills environments, the engine entries
            # ``(keys..., flat row, layout)``: compared as environments.
            env = row if isinstance(row, dict) else env_of(row[-1], row[-2])
            self.written.append(repr(env))
            super().append(row)

    child = StubChild(
        "pull", chunked(QID, case["rows"], case["chunk"], case["extra_every"]),
        trace, case["relinquish_before"],
    )
    sort = operator_class(
        child, [(KEYS[index], ascending) for index, ascending in case["keys"]]
    )
    child.owner = sort
    try:
        with mock.patch.object(
            aggregates_module, "SpillFile", RecordingSpillFile
        ):
            for batch in sort.execute_batches(ctx):
                rows = env_rows(batch)
                trace.append((
                    "yield", clock.now, ctx.carry_ps[0], batch.count,
                    batch.layout, rows, repr(rows),
                ))
    except ExecutionError as error:
        return ("raised", type(error))
    return (
        trace, runs, sort.runs_spilled, clock.now, ctx.carry_ps[0],
        task.used_pages, volume.disk.reads, volume.disk.writes,
    )


VALUES = st.one_of(st.none(), st.integers(-2, 2))
#: ``1`` and ``1.0`` and ``True`` tie: which comes first is arrival order.
MIXED = st.one_of(st.none(), st.sampled_from([0, 1, 1.0, True, 2, 0.5]))
STRINGS = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b"]))


@st.composite
def sort_cases(draw):
    n_rows = draw(st.integers(0, 150))
    return {
        "rows": [
            (draw(VALUES), draw(MIXED), draw(STRINGS))
            for __ in range(n_rows)
        ],
        "keys": draw(st.lists(
            st.tuples(st.integers(0, len(KEYS) - 1), st.booleans()),
            min_size=1, max_size=3,
        )),
        "chunk": draw(st.integers(1, 40)),
        "extra_every": draw(st.sampled_from([0, 0, 2, 3])),
        "batch_rows": draw(st.sampled_from([1, 3, 7, 256])),
        # 8 pool pages of 512 bytes / mpl, 80 bytes a row: 6 to 51 rows
        # a run.
        "mpl": draw(st.sampled_from([1, 2, 8])),
        "relinquish_before": draw(st.sampled_from([(), (), (1,), (2, 3)])),
    }


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(sort_cases())
def test_batched_sort_equals_the_row_path(case):
    """Same batches (count, layout, rows, in order), the same clock and
    carried picoseconds at every pull, spill write and yield, the same
    spilled runs row for row, and the same error type when a key
    raises — over ties, NULLs, DESC keys, several keys, shape changes,
    soft-limit spills and governor reclaims."""
    assert run_sort(SortOp, case) == run_sort(RowPathSortOp, case)


def test_desc_puts_null_last_and_keeps_ties_in_arrival_order():
    rows = [(1, None, "x"), (2, 1, "y"), (3, 1.0, "z"), (4, None, "w")]
    case = {
        "rows": rows, "keys": [(1, False)], "chunk": 4, "extra_every": 0,
        "batch_rows": 256, "mpl": 1, "relinquish_before": (),
    }
    result = run_sort(SortOp, case)
    assert result == run_sort(RowPathSortOp, case)
    yielded = [step for step in result[0] if step[0] == "yield"]
    assert [env[QID][0] for env in yielded[0][5]] == [2, 3, 1, 4]


def test_spilled_runs_merge_on_their_stored_keys():
    """A 6-row soft limit spills 120 rows as many runs; the merge orders
    them by the key values the runs hold, as the reference orders them
    by keys evaluated again on every environment read back."""
    rows = [(i % 5, [None, 1, 1.0, True, 2][i % 5], "ab"[i % 2])
            for i in range(120)]
    case = {
        "rows": rows, "keys": [(0, False), (1, True)], "chunk": 9,
        "extra_every": 3, "batch_rows": 7, "mpl": 8,
        "relinquish_before": (2,),
    }
    result = run_sort(SortOp, case)
    assert result == run_sort(RowPathSortOp, case)
    assert result[2] > 10  # runs spilled
