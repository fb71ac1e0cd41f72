"""A hash GROUP BY over a hash join's pieces against the same operator
reading the join's rows.

``HashGroupByOp`` folds a batch the join emitted as pieces straight from
them (``_PieceFold``) when the batch qualifies.  The reference is the
same operator with ``Batch.pieces`` answering None, so every batch goes
the row path: the engine's operator must produce the same rows (by
``repr``, in order), note the same events, write the same fallback rows
and temp pages, hold the same work memory and show the same clock at
every pull, yield and relinquish, raise the same error, and leave the
same EXPLAIN ANALYZE actuals.
"""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.exec import MemoryGovernor
from repro.exec.aggregates import HashGroupByOp, _PieceFold
from repro.exec.batch import Batch
from repro.exec.executor import ExecutionContext
from repro.exec.instrument import InstrumentedOp, OperatorStats
from repro.exec.operators import HashJoinOp
from repro.sql import ast
from repro.sql.binder import Quantifier
from repro.storage import FlashDisk, Volume
from tests.exec.stubs import (
    StubChild,
    StubQuantifier,
    chunked,
    column,
    conjunct,
)

PROBE_QID, BUILD_QID = 1, 2
#: Both sides' rows: ``(g, k, i, f, b, s)`` — the join key, a group key
#: column, INT, DOUBLE (with integral values too, so a batch can hold
#: only ints after one that held floats), BOOLEAN and VARCHAR.
G, K, I, F, B, S = range(6)
TYPES = ["INT", "INT", "INT", "DOUBLE", "BOOLEAN", "VARCHAR"]


def typed_column(qid, index):
    """A column of either side, of its type in :data:`TYPES`."""
    return column(qid, index, TYPES[index])


EQUI = conjunct(ast.BinaryOp("=", column(PROBE_QID, G), column(BUILD_QID, G)))
RESIDUALS = [
    conjunct(ast.BinaryOp("<", column(PROBE_QID, I), column(BUILD_QID, I))),
    conjunct(ast.IsNull(column(BUILD_QID, I), negated=True)),
]


#: Argument shapes: a column of one side, an expression of one side, or
#: an expression of both (never folded from pieces).
def argument(shape, side, index):
    qid = PROBE_QID if side == "probe" else BUILD_QID
    if shape == "column":
        return typed_column(qid, index)
    if shape == "plus":
        return ast.BinaryOp("+", typed_column(qid, index), ast.Literal(1))
    return ast.BinaryOp(
        "+", typed_column(PROBE_QID, index), typed_column(BUILD_QID, index)
    )


KEY_SHAPES = {
    "none": [],
    "probe": [(PROBE_QID, K)],
    "probe2": [(PROBE_QID, K), (PROBE_QID, B)],
    "build": [(BUILD_QID, K)],
    "build2": [(BUILD_QID, K), (BUILD_QID, I)],
    "both": [(PROBE_QID, K), (BUILD_QID, K)],
}


def run(case, pieces=True):
    """Everything the group-by over the join lets the engine observe, and
    how many batches folded from pieces."""
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    temp = volume.create_file("temp")
    pool = BufferPool(temp, capacity_pages=32)
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
    probe = StubChild(
        "probe", chunked(PROBE_QID, case["probe"], case["probe_chunk"]),
        trace, case["relinquish_before"],
    )
    build = StubChild(
        "build", chunked(BUILD_QID, case["build"], 50), trace,
    )
    join = HashJoinOp(
        probe, build, case["join_type"],
        [EQUI] + [RESIDUALS[i] for i in case["residual"]],
        [column(BUILD_QID, G)], [column(PROBE_QID, G)],
        [StubQuantifier(BUILD_QID, 6)],
    )
    group_by = HashGroupByOp(
        InstrumentedOp(join, OperatorStats("join")),
        [(typed_column(qid, index), "k%d" % n, TYPES[index])
         for n, (qid, index) in enumerate(case["keys"])],
        [
            ast.FunctionCall(
                name, [] if star else [argument(*arg)],
                distinct=distinct, star=star,
            )
            for name, star, distinct, arg in case["aggregates"]
        ],
    )
    probe.owner = group_by
    top = InstrumentedOp(group_by, OperatorStats("group"))
    folded = []
    apply = _PieceFold.apply

    def counting_apply(fold, folding):
        folded.append(len(folding[1]))
        return apply(fold, folding)

    patches = [mock.patch.object(_PieceFold, "apply", counting_apply)]
    if not pieces:
        patches.append(mock.patch.object(Batch, "pieces", lambda batch: None))
    with patches[0]:
        if not pieces:
            patches[1].start()
        try:
            for batch in top.execute_batches(ctx):
                trace.append((
                    "yield", clock.now, ctx.carry_ps[0], task.used_pages,
                    batch.count, batch.layout,
                    [repr(row) for row in batch.flat_rows()],
                ))
        except Exception as error:
            trace.append(("raised", type(error).__name__, str(error)))
        finally:
            if not pieces:
                patches[1].stop()
    actuals = [
        (stats.rows_out, stats.batches, stats.elapsed_us,
         stats.pages_touched, stats.spill_events, stats.adaptive_events)
        for stats in (top.stats, group_by.child.stats)
    ]
    return (
        trace, actuals, group_by.fallback_engaged,
        group_by.fallback_rows_written, dict(ctx.notes), clock.now,
        ctx.carry_ps[0], task.used_pages, volume.disk.reads,
        volume.disk.writes, join.partitions_evicted, join.probe_rows_spilled,
    ), len(folded)


INTS = [None, -3, 0, 1, 2, 5, 7, 10**12]
DOUBLES = [None, 0.1, 0.5, 1e16, -1e16, 1, 1.0, 2, 3.0]
BOOLS = [None, True, False]
STRINGS = [None, "a", "b", "c"]


def side_rows(rng, join_keys, count, groups, types):
    """``count`` rows over ``join_keys``; the group key column ``k`` takes
    ``groups`` values and NULL.  With ``types`` "ints" the DOUBLE column
    holds ints and NULLs only, so every INT or DOUBLE argument can fold
    from pieces."""
    rows = []
    arguments = INTS if types == "ints" else DOUBLES
    for __ in range(count):
        rows.append((
            rng.choice(join_keys),
            None if rng.random() < 0.05 else rng.randrange(groups),
            rng.choice(INTS),
            rng.choice(arguments),
            rng.choice(BOOLS),
            rng.choice(STRINGS),
        ))
    return rows


AGGREGATE_NAMES = ["COUNT*", "COUNT", "SUM", "AVG", "MIN", "MAX"]


@st.composite
def cases(draw):
    """Three cases in four are *plain* — an INNER join without a
    residual at fan-out 32 or 100 in batches of 7 or 256 rows, 24 probe
    rows or more, INT or DOUBLE arguments of one side, no DISTINCT, a
    soft limit of 8 pages or more and few enough groups that most
    batches bring no new one — so that most of them fold from pieces;
    the others draw every dimension freely."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    plain = draw(st.sampled_from([True, True, True, False]))

    def pick(free, plain_options):
        return draw(st.sampled_from(plain_options if plain else free))

    join_type = pick([
        Quantifier.INNER, Quantifier.INNER, Quantifier.LEFT,
        Quantifier.SEMI, Quantifier.ANTI,
    ], [Quantifier.INNER])
    one_sided = join_type in (Quantifier.SEMI, Quantifier.ANTI)
    n_join_keys = draw(st.integers(1, 4))
    fan_out = pick([32, 100, 1, 3], [32, 100])
    keys = KEY_SHAPES[pick(
        ["build", "probe", "none", "build2", "probe2", "both"],
        ["build", "probe", "none", "build2", "probe2"],
    )]
    # Probe-side keys: every piece brings its own.
    groups = pick(
        [1, 3, 40, 200], [1, 3] if (PROBE_QID, K) in keys else [3, 40]
    )
    types = pick(["ints", "mixed"], ["ints", "ints", "mixed"])
    build = []
    for join_key in range(n_join_keys):
        build += side_rows(rng, [join_key], fan_out, groups, types)
    build += side_rows(rng, [None], draw(st.integers(0, 2)), groups, types)
    rng.shuffle(build)
    probe = side_rows(
        rng, [None] + list(range(n_join_keys + 1)),
        draw(st.integers(24 if plain else 0, 60)),
        groups, types,
    )
    aggregates = []
    for __ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(AGGREGATE_NAMES))
        if name == "COUNT*":
            aggregates.append(("COUNT", True, False, None))
            continue
        index = pick([I, I, F, B, S], [I, I, F])
        shape = pick(["column", "plus", "both"], ["column", "plus"])
        if shape == "plus" and index == S:
            shape = "column"
        aggregates.append((
            name, False, pick([False, False, False, True], [False]),
            (shape, draw(st.sampled_from(["probe", "build"])), index),
        ))
    if one_sided:
        # A semi / anti join's rows carry the probe side only.
        keys = [(PROBE_QID, index) for __, index in keys][:1]
        aggregates = [
            (name, star, distinct,
             arg if arg is None else ("column", "probe", arg[2]))
            for name, star, distinct, arg in aggregates
        ]
    return {
        "join_type": join_type,
        "residual": pick([[], [], [0], [1]], [[]]),
        "probe": probe,
        "build": build,
        "probe_chunk": draw(st.sampled_from([64, 5, 1])),
        "keys": keys,
        "aggregates": aggregates,
        "batch_rows": pick([256, 7, 1], [256, 7]),
        # 32 pool pages / mpl: a 1- to 32-page soft limit shared with the
        # join's build; a 4,096-byte page holds 26 to 128 groups.
        "mpl": pick([1, 4, 8, 16, 32], [1, 4]),
        "relinquish_before": draw(st.sampled_from([(), (), (1,), (3,), (6,)])),
    }


def test_piece_fold_equals_the_row_path():
    """Drawn joins, keys, aggregates, value types, fan-outs, batch sizes,
    soft limits and relinquish points: everything observable equals the
    row path's, and a floor of the cases fold some batch from pieces."""
    outcomes = []

    @settings(
        max_examples=settings.default.max_examples, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(cases())
    @example(_string_sum_case())
    def check(case):
        engine, folded = run(case)
        reference, never = run(case, pieces=False)
        assert never == 0
        assert engine == reference
        outcomes.append(folded)

    check()
    assert sum(1 for folded in outcomes if folded) * 5 >= len(outcomes), (
        outcomes
    )


def _j_case(**changes):
    """A ``J``-shaped case (keys on the build side, COUNT(*) and a SUM of
    a probe-side expression) at fan-out 32."""
    rng = random.Random(5)
    build = []
    for join_key in range(8):
        build += [
            (join_key, rng.randrange(40), rng.randrange(100), 1, True, "a")
            for __ in range(32)
        ]
    probe = [
        (rng.randrange(8), rng.randrange(5), rng.randrange(1_000), 1, False,
         "b")
        for __ in range(120)
    ]
    case = {
        "join_type": Quantifier.INNER, "residual": [], "probe": probe,
        "build": build, "probe_chunk": 64, "keys": [(BUILD_QID, K)],
        "aggregates": [
            ("COUNT", True, False, None),
            ("SUM", False, False, ("plus", "probe", I)),
            ("MIN", False, False, ("column", "build", I)),
            ("MAX", False, False, ("column", "probe", I)),
            ("AVG", False, False, ("column", "build", I)),
        ],
        "batch_rows": 256, "mpl": 1, "relinquish_before": (),
    }
    case.update(changes)
    return case


def _string_sum_case():
    """A SUM of a VARCHAR probe column in batches of 7: the row path's
    pending strings raise when they fold.  Only later probe rows hold
    NULL there, and a piece fold of theirs would fold the pending rows
    first, so the error would come before the probe input is drained."""
    probe = [
        (join_key, 0, i, f, b, "a" if n < 3 else None)
        for n, (join_key, __, i, f, b, __s) in enumerate(_j_case()["probe"])
    ]
    return _j_case(
        probe=probe, batch_rows=7, probe_chunk=1, keys=[(PROBE_QID, K)],
        aggregates=[
            ("COUNT", True, False, None),
            ("SUM", False, False, ("column", "probe", S)),
        ],
    )


def test_j_shape_folds_from_pieces():
    """The benchmark's join + GROUP BY shape: all but the first batches
    fold from pieces, with keys on either side, whole pieces or cut."""
    for keys in ([(BUILD_QID, K)], [(PROBE_QID, K)], []):
        for batch_rows in (256, 100):
            case = _j_case(keys=keys, batch_rows=batch_rows)
            engine, folded = run(case)
            assert engine == run(case, pieces=False)[0]
            assert folded >= 120 * 32 // batch_rows - 4, (keys, folded)


def test_fallback_after_pieces_folded():
    """Every second batch brings a new probe-side group until the soft
    limit trips: the batches in between fold from pieces, and their
    partials are in the groups the fallback writes out."""
    rng = random.Random(11)
    probe = [(rng.randrange(8), n // 2, n, 1, False, "b") for n in range(480)]
    case = _j_case(keys=[(PROBE_QID, K)], probe=probe, mpl=2, batch_rows=32,
                   probe_chunk=8)
    engine, folded = run(case)
    assert engine == run(case, pieces=False)[0]
    assert engine[2] and folded > 100  # the fallback engaged after folds


def test_relinquish_after_pieces_folded():
    """The governor asks for memory back mid-probe: the pending partials
    are distributed into the groups before they go to the temp table."""
    case = _j_case(relinquish_before=(1,), probe_chunk=64, batch_rows=32)
    engine, folded = run(case)
    assert engine == run(case, pieces=False)[0]
    assert engine[2] and folded > 0


@pytest.mark.parametrize("mpl, evicted", [(4, 1), (8, 4)])
def test_the_join_evicts_before_the_group_by_degrades(mpl, evicted):
    """The join's build leaves the task at its 8- or 4-page soft limit.
    The group-by's first group crosses it: the walk passes over the
    group-by (the caller, holding nothing) and asks the join below it,
    which evicts partitions; the groups stay in memory."""
    case = _j_case(keys=[(PROBE_QID, K)], mpl=mpl, batch_rows=32)
    engine, folded = run(case)
    assert engine == run(case, pieces=False)[0]
    fallback_engaged, partitions_evicted = engine[2], engine[10]
    assert not fallback_engaged
    assert partitions_evicted == evicted
    assert folded > 100


@pytest.mark.parametrize("first, then, rows, name, folds", [
    # From the first float on, SUM adds left to right on the row path:
    # 0.1 times 32 is not 32 additions of 0.1.
    (1, 0.1, 40, "SUM", True),
    # A SUM that folded a float never folds from pieces again: (1e16 + 1)
    # + 1 is 1e16, 1e16 + 2 is not.
    (1e16, 1, 40, "SUM", False),
    # The row path's pending values fold before the next piece partial:
    # ``True`` was first, so it stays the MIN and the MAX of its groups.
    (True, 1, 8, "MIN", True),
    (True, 1, 8, "MAX", True),
])
def test_row_path_values_keep_their_order(first, then, rows, name, folds):
    """A probe-side argument is ``first`` in the first ``rows`` probe
    rows and ``then`` after: batches of ints fold from pieces, and every
    value the row path folds keeps its place in row order."""
    probe = [
        (join_key, k, i, first if n < rows else then, b, s)
        for n, (join_key, k, i, __, b, s) in enumerate(_j_case()["probe"])
    ]
    case = _j_case(probe=probe, aggregates=[
        ("COUNT", True, False, None),
        (name, False, False, ("column", "probe", F)),
    ])
    engine, folded = run(case)
    assert engine == run(case, pieces=False)[0]
    assert bool(folded) == folds
