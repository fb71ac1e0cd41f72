"""The per-group fold of ``HashGroupByOp`` against the per-row fold it
replaced.

``RowAtATimeGroupByOp`` below is the hash group-by as it stood before
argument values waited per group: a dict probe and one
``AggState.accumulate_value`` call per row per aggregate, group creation,
the soft-limit check and the fallback interleaved row by row — and its
groups leaving as ``{GROUP_ENV: row}`` environments, re-packed by
``BatchBuilder``.  It lives here as the reference (as the row-at-a-time
join does in ``test_hash_join_columnar.py``): the engine's operator must
produce the same batches, write the same fallback rows, note the same
events and show the same clock at every pull and every yield as this
one.
"""

import functools
import operator
import random
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.exec import MemoryGovernor, aggregates as aggregates_module
from repro.exec.aggregates import (
    PENDING_ROWS,
    AggState,
    HashGroupByOp,
    _TempGroupStore,
)
from repro.exec.executor import ExecutionContext
from repro.exec.expr import evaluate_batch
from repro.exec.spill import WorkMemory
from repro.optimizer.costmodel import CPU_HASH_BUILD_BATCH_US, CPU_ROW_BATCH_US
from repro.sql import ast
from repro.sql.binder import GROUP_ENV
from repro.storage import FlashDisk, Volume
from tests.exec.env_reference import env_rows, rows_to_batches
from tests.exec.stubs import StubChild, chunked, column


# --------------------------------------------------------------------- #
# the reference: the row-at-a-time fold
# --------------------------------------------------------------------- #

class RowAtATimeGroupByOp(HashGroupByOp):
    """Per row: probe the group dict, create the group (soft-limit check
    first, fallback if it trips), one ``accumulate_value`` per aggregate."""

    def execute_batches(self, ctx):
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size, self)
        self._groups = {}
        # Keyed by tuples whatever the key count: the inherited fallback
        # and emit helpers then take the keys as they are.
        self._single_key = False
        group_bytes = 32 + 24 * len(self.aggregates)
        try:
            for batch in self.child.execute_batches(ctx):
                ctx.charge(batch.count * CPU_HASH_BUILD_BATCH_US)
                key_columns = [
                    evaluate_batch(expr, batch, ctx.params)
                    for expr, __, __t in self.group_keys
                ]
                value_columns = [
                    [None] * batch.count if call.name == "COUNT" and call.star
                    else evaluate_batch(call.args[0], batch, ctx.params)
                    for call in self.aggregates
                ]
                no_values = [()] * batch.count
                keys = zip(*key_columns) if key_columns else no_values
                rows = zip(*value_columns) if value_columns else no_values
                for key, values in zip(keys, rows):
                    if self.fallback_engaged:
                        self._fallback_accumulate(key, values)
                        continue
                    states = self._groups.get(key)
                    if states is None:
                        if not self._memory.reserve(group_bytes):
                            self._engage_fallback()
                            self._fallback_accumulate(key, values)
                            continue
                        states = [AggState(call) for call in self.aggregates]
                        self._groups[key] = states
                    for state, value in zip(states, values):
                        state.accumulate_value(value)
            self._emitting = True
            yield from rows_to_batches(self._emit(ctx), ctx.batch_rows)
        finally:
            self._memory.release_all()
            if self._fallback is not None:
                self._fallback.free()

    def _emit(self, ctx):
        emitted = False
        if self.fallback_engaged:
            for key, serialized in self._fallback.scan():
                states = [AggState(call) for call in self.aggregates]
                for state, partial in zip(states, serialized):
                    state.merge_serialized(partial)
                emitted = True
                ctx.charge(CPU_ROW_BATCH_US)
                yield {GROUP_ENV: key + tuple(s.finalize() for s in states)}
        else:
            for key, states in self._groups.items():
                emitted = True
                ctx.charge(CPU_ROW_BATCH_US)
                yield {GROUP_ENV: key + tuple(s.finalize() for s in states)}
        if not emitted and not self.group_keys:
            states = [AggState(call) for call in self.aggregates]
            yield {GROUP_ENV: tuple(s.finalize() for s in states)}

    def _engage_fallback(self):
        self.fallback_engaged = True
        self._ctx.note("group_by_fallback")
        self._fallback = _TempGroupStore(
            self._ctx, len(self.group_keys), len(self.aggregates)
        )
        for key, states in self._groups.items():
            self._fallback.insert(key, [s.serialize() for s in states])
            self.fallback_rows_written += 1
        self._groups = {}
        self._memory.release_all()


# --------------------------------------------------------------------- #
# a rig that shows both operators the same world
# --------------------------------------------------------------------- #

KEY_QID = 1


def run_group_by(operator_class, case):
    """Everything one operator lets the rest of the engine observe."""
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    temp = volume.create_file("temp")
    pool = BufferPool(temp, capacity_pages=8)
    governor = MemoryGovernor(pool, 4096, multiprogramming_level=case["mpl"],
                              clock=clock)
    task = governor.begin_task()
    ctx = ExecutionContext(
        pool, temp, None, clock, task, batch_rows=case["batch_rows"]
    )
    trace = []
    child = StubChild(
        "pull", chunked(KEY_QID, case["rows"], case["batch_rows"]), trace,
        case["relinquish_before"],
    )
    group_keys = [(column(KEY_QID, 0), "k", "INT")] if case["grouped"] else []
    aggregates = [
        ast.FunctionCall(name, [] if star else [column(KEY_QID, argument)],
                         distinct=distinct, star=star)
        for name, star, distinct, argument in case["aggregates"]
    ]
    group_by = operator_class(child, group_keys, aggregates)
    child.owner = group_by
    # A smaller pending bound folds each group several times.
    with mock.patch.object(
        aggregates_module, "PENDING_ROWS", case.get("pending_rows", PENDING_ROWS)
    ):
        for batch in group_by.execute_batches(ctx):
            trace.append((
                "yield", clock.now, ctx.carry_ps[0], batch.count, batch.layout,
                [repr(env[GROUP_ENV]) for env in env_rows(batch)],
            ))
    return (
        trace, group_by.fallback_engaged, group_by.fallback_rows_written,
        dict(ctx.notes), clock.now, ctx.carry_ps[0], task.used_pages,
        volume.disk.reads, volume.disk.writes,
    )


#: (name, star, distinct): every aggregate the fold knows, each with and
#: without DISTINCT.
AGGREGATES = [("COUNT", True, False)] + [
    (name, False, distinct)
    for name in ("COUNT", "SUM", "AVG", "MIN", "MAX")
    for distinct in (False, True)
]

#: Argument columns: c1 INT, c2 DOUBLE, c3 INT and DOUBLE mixed — the
#: mixed one holds ``1`` and ``1.0``, so which of two equal MIN / MAX
#: values survives decides the result's type.
INTS = st.one_of(st.none(), st.integers(-3, 5))
DOUBLES = st.one_of(
    st.none(), st.sampled_from([0.1, 0.5, -2.25, 1e16, -1e16, 3.0, 1.0])
)
MIXED = st.one_of(st.none(), st.sampled_from([1, 1.0, 2, 2.0, 0, 0.0, -1]))


@st.composite
def group_by_cases(draw):
    rows_per_group = draw(st.sampled_from([None, 1, 5, 40, 500]))
    grouped = rows_per_group is not None
    n_rows = draw(st.integers(0, 1200 if grouped else 600))
    if grouped:
        n_groups = max(1, -(-n_rows // rows_per_group))
        # One group's key is NULL; keys are interleaved, not sorted; with
        # float keys, ``1`` and ``1.0`` name one group.
        keys = [None if g == 0 else g for g in range(n_groups)]
        key_of = [keys[i % n_groups] for i in range(n_rows)]
        rng = random.Random(draw(st.integers(0, 2**16)))
        rng.shuffle(key_of)
        if draw(st.booleans()):
            key_of = [
                float(key) if key is not None and rng.random() < 0.5 else key
                for key in key_of
            ]
    else:
        key_of = [0] * n_rows
    rows = [
        (key, draw(INTS), draw(DOUBLES), draw(MIXED)) for key in key_of
    ] if n_rows <= 64 else _bulk_rows(draw, key_of)
    chosen = draw(st.lists(
        st.tuples(st.sampled_from(AGGREGATES), st.integers(1, 3)),
        min_size=0, max_size=5,
    ))
    return {
        "grouped": grouped,
        "rows": rows,
        "aggregates": [
            (name, star, distinct, argument)
            for (name, star, distinct), argument in chosen
        ],
        "batch_rows": draw(st.sampled_from([1, 7, 256])),
        # 8 pool pages / mpl: an 8- or a 1-page soft limit — 4,096-byte
        # pages hold 26 to 128 groups, so the second trips mid-batch.
        "mpl": draw(st.sampled_from([1, 8, 8])),
        "relinquish_before": draw(st.sampled_from([(), (), (1,), (2, 3)])),
        "pending_rows": draw(st.sampled_from([PENDING_ROWS, 3, 50])),
    }


def _bulk_rows(draw, key_of):
    """Many rows from a few drawn values (drawing each one is slow)."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    ints = [None, -3, 0, 1, 2, 5]
    doubles = [None, 0.1, 0.5, -2.25, 1e16, -1e16, 3.0]
    mixed = [None, 1, 1.0, 2, 2.0, 0, 0.0]
    return [
        (key, rng.choice(ints), rng.choice(doubles), rng.choice(mixed))
        for key in key_of
    ]


@settings(
    max_examples=250, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(group_by_cases())
def test_per_group_fold_equals_the_row_fold(case):
    """The same output rows (by ``repr``, so ``1`` and ``1.0`` differ),
    fallback rows, notes and temp-file I/O, and the same clock at every
    pull, yield and relinquish."""
    assert (
        run_group_by(HashGroupByOp, case)
        == run_group_by(RowAtATimeGroupByOp, case)
    )


LEFT_TO_RIGHT_ZERO = [0.1] * 10 + [1e16, 1.0, -1e16]


@pytest.mark.parametrize("batch_rows", [1, 7, 256])
def test_double_sum_adds_left_to_right(batch_rows):
    """``LEFT_TO_RIGHT_ZERO`` adds to 0.0 left to right (as does 3.11's
    ``sum()``) but to 2.0 under 3.12's compensated ``sum()``: the group's
    SUM and AVG must be the left-to-right ones."""
    assert functools.reduce(operator.add, LEFT_TO_RIGHT_ZERO) == 0.0
    rows = [(7, None, value, None) for value in LEFT_TO_RIGHT_ZERO * 20]
    case = {
        "grouped": True, "rows": rows, "batch_rows": batch_rows, "mpl": 8,
        "relinquish_before": (),
        "aggregates": [("SUM", False, False, 2), ("AVG", False, False, 2)],
    }
    result = run_group_by(HashGroupByOp, case)
    assert result == run_group_by(RowAtATimeGroupByOp, case)
    assert result[0][-1][-1] == [repr((7, 0.0, 0.0))]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(AGGREGATES),
    st.lists(st.one_of(INTS, DOUBLES, MIXED), max_size=40),
    st.lists(st.integers(0, 40), max_size=4),
)
def test_fold_equals_accumulate_value_per_value(aggregate, values, cuts):
    """``fold(values)`` over any split of a sequence leaves the state that
    ``accumulate_value`` one value at a time leaves: the same serialized
    state and the same result, types included."""
    name, star, distinct = aggregate
    call = ast.FunctionCall(
        name, [] if star else [column(KEY_QID, 1)], distinct=distinct, star=star
    )
    one_at_a_time, folded = AggState(call), AggState(call)
    for value in values:
        one_at_a_time.accumulate_value(value)
    bounds = [0] + sorted(cuts) + [len(values)]
    for start, end in zip(bounds, bounds[1:]):
        folded.fold(values[start:end])
    assert repr(folded.serialize()) == repr(one_at_a_time.serialize())
    assert repr(folded.finalize()) == repr(one_at_a_time.finalize())


@pytest.mark.parametrize("name", ["MIN", "MAX"])
@pytest.mark.parametrize("values", [
    [1, 1.0], [1.0, 1], [2, 0, 0.0, 2.0], [0.0, 2.0, 0, 2],
])
def test_equal_extremes_keep_the_earliest(name, values):
    """``1`` and ``1.0`` are equal; the first one seen is the extreme,
    whether the tie is inside one fold or across two."""
    call = ast.FunctionCall(name, [column(KEY_QID, 1)])
    extreme = min(values) if name == "MIN" else max(values)
    expected = next(value for value in values if value == extreme)
    for cut in range(len(values) + 1):
        state = AggState(call)
        state.fold(values[:cut])
        state.fold(values[cut:])
        assert repr(state.finalize()) == repr(expected)


def _path_spy(case):
    """The engine's operator on ``case``, recording how many rows each
    batch deferred and sent row at a time, in order."""
    calls = []

    class Spied(HashGroupByOp):
        def _defer(self, keys, pending):
            calls.append(("defer", len(keys)))
            return super()._defer(keys, pending)

        def _accumulate_rows(self, keys, rows, group_bytes):
            calls.append(("rows", len(keys)))
            return super()._accumulate_rows(keys, rows, group_bytes)

    return run_group_by(Spied, case), calls


#: 60 groups of 40 rows, interleaved: every 256-row batch holds about 60
#: keys (dense), and 152 bytes a group fill the one-page soft limit after
#: 26 groups.
DENSE_ROWS = [
    (i % 60, i, i / 8, 1 if i % 3 else 1.0) for i in range(2_400)
]
FIVE_AGGREGATES = [
    ("COUNT", True, False, 1), ("SUM", False, False, 2),
    ("MIN", False, False, 3), ("MAX", False, True, 3),
    ("AVG", False, False, 1),
]


def test_soft_limit_trips_mid_batch_on_the_deferred_path():
    """The 27th group's first row engages the fallback in the middle of
    the first batch: the rows before it wait and are folded before the
    groups are serialized, it and the rest go row at a time, and
    everything observable equals the row fold."""
    case = {
        "grouped": True, "rows": DENSE_ROWS, "batch_rows": 256, "mpl": 8,
        "relinquish_before": (), "aggregates": FIVE_AGGREGATES,
    }
    result, calls = _path_spy(case)
    assert result == run_group_by(RowAtATimeGroupByOp, case)
    assert result[1] and result[2] == 60  # fallback engaged, 60 groups
    assert calls[:2] == [("defer", 26), ("rows", 230)]


NAN = float("nan")
#: One group key, keyed by the value: ``1``, ``1.0`` and ``True`` are one
#: group named by the first seen, one NaN object is one group (a dict
#: matches it by identity) and a second NaN another, NULL is one group.
ODD_KEYS = [1, 1.0, True, NAN, None, float("nan"), NAN, True, None, 1.0]


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("batch_rows", [1, 4, 256])
def test_one_key_groups_by_value(batch_rows, fallback):
    """Keyed by the bare value, the one-key group-by makes the groups the
    tuple-keyed row fold makes.  With ``fallback``, 30 int groups come
    first and the 27th fills the one-page soft limit — mid-batch at 256
    rows a batch — so the odd keys go to the temp table as 1-tuples."""
    keys = ODD_KEYS * 3
    if fallback:
        keys = list(range(100, 130)) + keys
    case = {
        "grouped": True, "batch_rows": batch_rows, "mpl": 8,
        "relinquish_before": (), "aggregates": FIVE_AGGREGATES,
        "rows": [(key, i, i / 2, 1) for i, key in enumerate(keys)],
    }
    result = run_group_by(HashGroupByOp, case)
    assert result == run_group_by(RowAtATimeGroupByOp, case)
    assert result[1] == fallback
    if not fallback:
        emitted = [row for step in result[0] if step[0] == "yield"
                   for row in step[5]]
        assert [row.split(",")[0] for row in emitted] == [
            "(1", "(nan", "(None", "(nan"
        ]


def test_relinquish_between_batches_folds_pending_rows_first():
    """The governor asks for memory back before the third pull: two
    batches' worth of pending rows are folded into their groups before
    those are written to the temp table."""
    case = {
        "grouped": True, "rows": DENSE_ROWS[:1_200], "batch_rows": 256,
        "mpl": 1, "relinquish_before": (2,),
        "aggregates": FIVE_AGGREGATES,
    }
    result, calls = _path_spy(case)
    assert result == run_group_by(RowAtATimeGroupByOp, case)
    relinquished = [step for step in result[0] if step[0] == "relinquished"]
    assert relinquished[0][1] > 0 and result[2] == 60
    assert calls[:3] == [("defer", 256), ("defer", 256), ("rows", 256)]


#: Shapes whose aggregates take no argument: pending rows are counted
#: per group, not listed.
COUNTING_SHAPES = {
    "count-star": [("COUNT", True, False, 1)],
    "count-star-twice": [("COUNT", True, False, 1), ("COUNT", True, False, 2)],
    "no-aggregate": [],
}


@pytest.mark.parametrize("grouped, shape", [
    (True, "count-star"), (True, "count-star-twice"), (True, "no-aggregate"),
    (False, "count-star"), (False, "count-star-twice"),
])
@pytest.mark.parametrize("batch_rows, mpl, relinquish_before, pending_rows", [
    (256, 8, (), PENDING_ROWS),
    (7, 8, (), 3),
    (1, 1, (), PENDING_ROWS),
    (256, 1, (2,), 50),
    (256, 8, (3,), PENDING_ROWS),
])
def test_counting_only_equals_the_row_fold(
    grouped, shape, batch_rows, mpl, relinquish_before, pending_rows,
):
    """COUNT(*) only, or no aggregate at all, grouped (60 keys, NULL,
    ``1`` and ``1.0`` among them) or scalar: the same rows, fallback,
    notes and clock as the row fold, whatever the batch size, soft limit,
    relinquish point and pending bound."""
    keys = [None if i % 60 == 0 else i % 60 for i in range(1_200)]
    keys = [1.0 if key == 1 and i % 2 else key for i, key in enumerate(keys)]
    case = {
        "grouped": grouped, "batch_rows": batch_rows, "mpl": mpl,
        "relinquish_before": relinquish_before, "pending_rows": pending_rows,
        "aggregates": COUNTING_SHAPES[shape],
        "rows": [(key, i, i / 8, None) for i, key in enumerate(keys)],
    }
    assert (
        run_group_by(HashGroupByOp, case)
        == run_group_by(RowAtATimeGroupByOp, case)
    )


# --------------------------------------------------------------------- #
# the per-row calls are gone: pinned by a count, not a timer
# --------------------------------------------------------------------- #

def _python_calls(fn):
    """Python-level calls ``fn()`` makes (a generator counts once per
    resumption); builtins are not counted."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_calls_grow_with_groups_and_batches_not_rows():
    """40 groups over 2,048 rows make about as many Python calls as over
    256 rows: the seven extra batches cost their per-batch calls, not a
    call per row per aggregate (the row fold made 2 x 1,792 more)."""
    assert 2_048 < PENDING_ROWS
    measured = {}
    for n_rows in (256, 2_048):
        case = {
            "grouped": True, "batch_rows": 256, "mpl": 8,
            "relinquish_before": (),
            "rows": [(i % 40, i, i / 4, None) for i in range(n_rows)],
            "aggregates": [("COUNT", True, False, 1),
                           ("SUM", False, False, 1)],
        }
        measured[n_rows] = _python_calls(
            lambda: run_group_by(HashGroupByOp, case)
        )
    assert measured[2_048] - measured[256] < 7 * 40, measured
