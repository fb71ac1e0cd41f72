"""The column-major hash-join emit against the row path it replaced.

``RowPathHashJoinOp`` below is the hash join as it stood before the probe
went column-major — environment dicts in the build table, one generator
resumption and one ``{**left, **right}`` per joined row, one
``ctx.charge`` per emitted row, re-packed through ``BatchBuilder``.  It
lives here as the reference (as ``ScanningGClockPolicy`` does for the
buffer pool): the engine's operator must produce the same batches, and
show the same clock wherever anything else could read it, as this one.
"""

import collections
import random
import sys
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.common.errors import ExecutionError
from repro.common.hashing import stable_hash
from repro.exec import MemoryGovernor, aggregates as aggregates_module
from repro.exec import operators as operators_module
from repro.exec.executor import ExecutionContext
from repro.exec.expr import evaluate_batch
from repro.exec.operators import HASH_PARTITIONS, HashJoinOp
from repro.exec.spill import SpillableBuffer, SpillFile
from repro.optimizer.costmodel import (
    CPU_HASH_BUILD_BATCH_US,
    CPU_HASH_PROBE_BATCH_US,
    CPU_HASH_PROBE_US,
    CPU_ROW_BATCH_US,
    CPU_ROW_US,
)
from repro.sql import ast
from repro.sql.binder import Quantifier
from repro.storage import FlashDisk, Volume
from tests.exec.env_reference import (
    BatchBuilder,
    env_at,
    env_row_bytes,
    env_rows,
    evaluate_predicate,
    null_extend,
)
from tests.exec.stubs import (
    StubChild,
    StubQuantifier,
    chunked,
    column,
    conjunct,
)
from tests.exec.test_adaptive import make_server


# --------------------------------------------------------------------- #
# the reference: the row-at-a-time hash join
# --------------------------------------------------------------------- #

class RowPathHashJoinOp(HashJoinOp):
    """Build table of environment dicts, ``_emit_matches`` + BatchBuilder
    probe, a ``ctx.charge`` per emitted row.  Only the partition function
    is the engine's (salt-independent) one."""

    def _partition_of(self, key):
        return (
            stable_hash(key) if None in key else self._hash_key(key)
        ) % HASH_PARTITIONS

    def _evict_largest(self):
        candidates = [
            index
            for index in range(HASH_PARTITIONS)
            if self._partitions[index] is not None and self._partitions[index]
        ]
        if not candidates:
            return 0
        largest = max(
            candidates,
            key=lambda index: sum(
                len(rows) for rows in self._partitions[index].values()
            ),
        )
        return self._evict_partition(largest)

    relinquish_memory = _evict_largest

    def _evict_partition(self, index):
        partition = self._partitions[index]
        spill = SpillFile(
            self._ctx.temp_file, self._row_bytes, self._ctx.pool.page_size,
            yield_hook=self._ctx.yield_hook,
        )
        evicted_bytes = 0
        for key, rows in partition.items():
            for env in rows:
                spill.append((key, env))
                evicted_bytes += self._row_bytes
        spill.finish_writing()
        self._spills[index] = spill
        self._partitions[index] = None
        before = self._memory.pages_held
        self._memory.remove(evicted_bytes)
        self.partitions_evicted += 1
        return before - self._memory.pages_held

    def _build(self, ctx):
        for batch in self.right.execute_batches(ctx):
            ctx.charge(batch.count * CPU_HASH_BUILD_BATCH_US)
            key_columns = [
                evaluate_batch(expr, batch, ctx.params)
                for expr in self.build_keys
            ]
            for position in range(batch.count):
                self.build_row_count += 1
                env = env_at(batch, position)
                self._row_bytes = max(self._row_bytes, env_row_bytes(env))
                key = tuple(column[position] for column in key_columns)
                index = self._partition_of(key)
                if self._partitions[index] is None:
                    self._spills[index].append((key, env))
                    continue
                if not self._memory.reserve(self._row_bytes):
                    self._evict_largest()
                    if self._partitions[index] is not None:
                        self._memory.add(self._row_bytes)
                partition = self._partitions[index]
                if partition is None:
                    self._spills[index].append((key, env))
                else:
                    partition.setdefault(key, []).append(env)

    def _probe(self, ctx):
        probe_spills = [None] * HASH_PARTITIONS
        builder = BatchBuilder(ctx.batch_rows)
        for batch in self.left.execute_batches(ctx):
            ctx.charge(batch.count * CPU_HASH_PROBE_BATCH_US)
            key_columns = [
                evaluate_batch(expr, batch, ctx.params)
                for expr in self.probe_keys
            ]
            for position in range(batch.count):
                key = tuple(column[position] for column in key_columns)
                index = self._partition_of(key)
                if self._partitions[index] is None:
                    if probe_spills[index] is None:
                        probe_spills[index] = SpillFile(
                            ctx.temp_file, self._row_bytes,
                            ctx.pool.page_size, yield_hook=ctx.yield_hook,
                        )
                    probe_spills[index].append(
                        (key, env_at(batch, position))
                    )
                    self.probe_rows_spilled += 1
                    continue
                for out_env in self._emit_matches(
                    ctx, env_at(batch, position), key,
                    self._partitions[index], row_cost=CPU_ROW_BATCH_US,
                ):
                    done = builder.add(out_env)
                    if done is not None:
                        yield done
        for index in range(HASH_PARTITIONS):
            probe_spill = probe_spills[index]
            if probe_spill is None:
                if self._spills[index] is not None:
                    self._spills[index].free()
                continue
            build_table = {}
            if self._spills[index] is not None:
                for key, env in self._spills[index].read_all():
                    build_table.setdefault(key, []).append(env)
                self._spills[index].free()
            for key, left_env in probe_spill.read_all():
                ctx.charge(CPU_HASH_PROBE_US)
                for out_env in self._emit_matches(
                    ctx, left_env, key, build_table
                ):
                    done = builder.add(out_env)
                    if done is not None:
                        yield done
            probe_spill.free()
        tail = builder.finish()
        if tail is not None:
            yield tail

    def _emit_matches(self, ctx, left_env, key, table, row_cost=CPU_ROW_US):
        rows = table.get(key)
        matched = False
        if rows and all(value is not None for value in key):
            for right_env in rows:
                merged = {**left_env, **right_env}
                if self.residual and not all(
                    evaluate_predicate(c.expr, merged, ctx.params)
                    for c in self.residual
                ):
                    continue
                matched = True
                if self.join_type == Quantifier.SEMI:
                    yield left_env
                    return
                if self.join_type == Quantifier.ANTI:
                    break
                ctx.charge(row_cost)
                yield merged
        if not matched:
            if self.join_type == Quantifier.ANTI:
                yield left_env
            elif self.join_type == Quantifier.LEFT:
                yield null_extend(left_env, self.right_quantifiers)


# --------------------------------------------------------------------- #
# a rig that shows both operators the same world and records what each
# lets the world see
# --------------------------------------------------------------------- #

LEFT_QID, RIGHT_QID = 1, 2

EQUI = conjunct(ast.BinaryOp("=", column(LEFT_QID, 0), column(RIGHT_QID, 0)))
#: Residuals over ``left(k, v)`` and ``right(k, w)``; the last divides by
#: a column that can be 0, so it can raise.
RESIDUALS = [
    conjunct(ast.BinaryOp("<", column(LEFT_QID, 1), column(RIGHT_QID, 1))),
    conjunct(ast.IsNull(column(RIGHT_QID, 1), negated=True)),
    conjunct(ast.BinaryOp(
        ">=",
        ast.BinaryOp("/", ast.Literal(6), column(RIGHT_QID, 1)),
        column(LEFT_QID, 1),
    )),
]


def consume(batch, plan):
    """What a consumer reads from ``batch``: ``"rows"``, or the columns
    at the flat positions ``plan`` (modulo the width), in that order,
    through :meth:`Batch.column`."""
    if plan == "rows":
        return env_rows(batch)
    width = sum(width for __, __o, width in batch.layout)
    values = []
    for position in plan:
        position %= width
        for key, offset, span in batch.layout:
            if offset <= position < offset + span:
                values.append(list(batch.column(key, position - offset)))
    return values


def run_join(operator_class, case):
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
    # Spill files fire the yield hook before each page write: the point
    # where a sibling session could run and read the clock.
    ctx = ExecutionContext(
        pool, temp, None, clock, task, batch_rows=case["batch_rows"],
        yield_hook=lambda: trace.append(
            ("spill-write", clock.now, ctx.carry_ps[0])
        ),
    )
    conjuncts = [EQUI] + [RESIDUALS[i] for i in case["residual"]]
    operator = operator_class(
        StubChild(
            "left",
            chunked(LEFT_QID, case["left"], case["left_chunk"],
                    case["extra_every"], columnar=True),
            trace,
        ),
        StubChild(
            "right", chunked(RIGHT_QID, case["right"], case["right_chunk"]),
            trace,
        ),
        case["join_type"], conjuncts,
        [column(RIGHT_QID, 0)], [column(LEFT_QID, 0)],
        [StubQuantifier(RIGHT_QID, case["null_width"])],
    )
    evict = operator._evict_partition

    def recording_evict(index):
        trace.append(("evict", index, clock.now, ctx.carry_ps[0]))
        return evict(index)

    operator._evict_partition = recording_evict
    pressure = None
    yielded = []
    reads = case["reads"]
    try:
        for number, batch in enumerate(operator.execute_batches(ctx), 1):
            yielded.append(batch)
            before, after = reads[number % len(reads)]
            trace.append((
                "yield", clock.now, ctx.carry_ps[0], batch.count, batch.layout,
                consume(batch, before),
            ))
            # A consumer below the join that takes work memory: the task
            # reclaims it from the join, evicting partitions between
            # output batches.
            if case["pressure_every"] and number % case["pressure_every"] == 0:
                pressure = pressure or SpillableBuffer(ctx, depth=2)
                wanted = case["pressure_pages"] * pool.page_size
                if not pressure.memory.reserve(wanted):
                    pressure.memory.add(wanted)
            trace.append(("read", consume(batch, after)))
    except ExecutionError as error:
        return ("raised", type(error))
    finally:
        if pressure is not None:
            pressure.free()
    # Every batch still reads the same once the join is done with it.
    trace.append(("after", [env_rows(batch) for batch in yielded]))
    return (
        trace, clock.now, ctx.carry_ps[0],
        operator.partitions_evicted, operator.probe_rows_spilled,
        operator.switched_to_alternate, operator.build_row_count,
        volume.disk.writes, volume.disk.reads, task.used_pages,
    )


KEYS = [None, 0, 1, 2, 3]
VALUES = st.one_of(st.none(), st.integers(0, 4))


@st.composite
def keyed_rows(draw, max_per_key):
    """``(key, value)`` rows: per key (NULL included) zero to
    ``max_per_key`` duplicates, the keys interleaved."""
    per_key = [
        [(key, value) for value in draw(
            st.lists(VALUES, max_size=max_per_key)
        )]
        for key in KEYS
    ]
    rows = []
    for position in range(max_per_key):
        rows.extend(
            group[position] for group in per_key if position < len(group)
        )
    return rows


read_plans = st.one_of(
    st.just("rows"), st.lists(st.integers(0, 7), max_size=4),
)


@st.composite
def join_cases(draw):
    return {
        "join_type": draw(st.sampled_from([
            Quantifier.INNER, Quantifier.LEFT, Quantifier.SEMI,
            Quantifier.ANTI,
        ])),
        "residual": draw(st.lists(
            st.integers(0, len(RESIDUALS) - 1), max_size=2, unique=True
        )),
        # Fan-out 0 to 40: one key's matches cross batch boundaries.
        "left": draw(keyed_rows(8)),
        "right": draw(keyed_rows(40)),
        "left_chunk": draw(st.integers(1, 9)),
        "right_chunk": draw(st.integers(1, 40)),
        "extra_every": draw(st.sampled_from([0, 0, 2, 3])),
        "batch_rows": draw(st.sampled_from([1, 3, 256])),
        # 8 pool pages / mpl: a 1-, 2- or 8-page soft limit; 8 rows a page.
        "mpl": draw(st.sampled_from([1, 4, 8])),
        "pressure_every": draw(st.sampled_from([0, 0, 1, 2, 5])),
        "pressure_pages": draw(st.integers(1, 2)),
        # A NULL-extended row as wide as a matched one (the engine's
        # case), or wider — then it cannot share a batch with them.
        "null_width": draw(st.sampled_from([2, 2, 3])),
        # Per output batch (cycled): what the consumer reads before the
        # pressure, and after — nothing, some columns or whole rows.
        "reads": draw(st.lists(
            st.tuples(read_plans, read_plans), min_size=1, max_size=4,
        )),
    }


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(join_cases())
def test_columnar_emit_equals_the_row_path(case):
    """Same batches (count, layout, in order) holding the same values for
    whatever the consumer reads — columns in a drawn order, whole rows
    or nothing — before and after a pressure eviction and once the join
    is done; the same clock and carried picoseconds at every yield and
    every pull from either child, the same evictions, spilled probe rows
    and temp-file I/O; and when the residual raises in one, it raises
    the same error type in the other."""
    assert run_join(HashJoinOp, case) == run_join(RowPathHashJoinOp, case)


# --------------------------------------------------------------------- #
# the per-row work is gone: pinned by a count, not a timer
# --------------------------------------------------------------------- #

def _executor_calls(fn):
    """Python-level calls (a generator counts once per resumption) that
    ``fn()`` makes in the join operators', the batch module's and the
    execution context's frames, and how many of them enter ``charge`` —
    a cost measure that reads no clock."""
    files = ("exec/operators.py", "exec/batch.py", "exec/executor.py")
    calls = {"frames": 0, "charges": 0}

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(files):
            calls["frames"] += 1
            if frame.f_code.co_name == "charge":
                calls["charges"] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


#: Frames one output batch may cost beyond the first: the cut and its
#: column source, the group-by's two lazy column reads, the drain and
#: its ``charge`` — 19 when this was written.
FRAMES_PER_OUTPUT_BATCH = 24


def test_join_cost_follows_input_rows_not_joined_rows():
    """256 x 256 input rows joined at fan-out 1 and at fan-out 32 (32x the
    joined rows, 32 output batches instead of one).  In the join's, the
    batch's and the execution context's frames: fewer calls than probe
    rows at fan-out 1 — no call per probe row; at most a fixed number of
    extra calls per extra output batch at fan-out 32 — none per joined
    row; and ``charge`` entered per batch.  A
    per-joined-row generator hop, dict merge or clock call adds about
    8,000 calls."""
    measured = {}
    for fan_out in (1, 32):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT)")
        conn.execute("CREATE TABLE u (id INT PRIMARY KEY, g INT, z INT)")
        groups = 256 // fan_out
        server.load_table("t", [(i, i % groups, i % 5) for i in range(256)])
        server.load_table("u", [(i, i % groups, i) for i in range(256)])
        sql = ("SELECT t.x, COUNT(*), SUM(u.z) FROM t JOIN u ON t.g = u.g "
               "GROUP BY t.x")
        assert "HashJoin" in conn.execute(sql).explain()
        results = []
        measured[fan_out] = _executor_calls(
            lambda: results.append(conn.execute(sql))
        )
        assert sum(row[1] for row in results[0].rows) == 256 * fan_out
    assert measured[1]["frames"] < 256
    assert (
        measured[32]["frames"] - measured[1]["frames"]
        <= FRAMES_PER_OUTPUT_BATCH * 31
    )
    # A charge per batch and operator (8,192 joined rows are 32 batches);
    # the row path entered ``charge`` 8,234 times here.
    assert measured[32]["charges"] < 4 * 32 + 40


J_TEMPLATE = ("SELECT t.x, COUNT(*), SUM(u.z + %d) FROM t JOIN u "
              "ON t.g = u.g GROUP BY t.x")
J_ROWS, J_GROUPS = 4_000, 125


def _join_agg_connection():
    """A connection to a ``JoinAgg(301)``-shaped server after its
    warm-up: 4,000 build rows in 125 lists of 32, 4,000 probe rows."""
    rng = random.Random(301)
    t = [(i, i % J_GROUPS, rng.randrange(40), rng.randrange(1_000))
         for i in range(J_ROWS)]
    u = [(i, i % J_GROUPS, rng.randrange(1_000)) for i in range(J_ROWS)]
    server = make_server()
    conn = server.connect()
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT, y INT)")
    conn.execute("CREATE TABLE u (id INT PRIMARY KEY, g INT, z INT)")
    conn.execute("CREATE PROCEDURE g_report(c) AS SELECT g, COUNT(*), SUM(y) "
                 "FROM t WHERE x = c GROUP BY g ORDER BY g")
    server.load_table("t", t)
    server.load_table("u", u)
    for warm_up in (
        J_TEMPLATE % 0, J_TEMPLATE % 1, "CALL g_report(16)",
        "CALL g_report(17)",
        "SELECT id, y FROM t WHERE y > 900 ORDER BY y, id LIMIT 20",
        "SELECT id, y FROM t WHERE y > 901 ORDER BY y, id LIMIT 20",
    ):
        conn.execute(warm_up)
    return conn


def test_explain_analyze_attribution_is_unchanged():
    """The benchmark's J statement on a ``JoinAgg(301)``-shaped server
    after its warm-up: per-operator actuals are what the row-at-a-time
    join printed, so moving the emit charge from per row to per batch
    shifted no microsecond between operators and no batch boundary."""
    conn = _join_agg_connection()
    text = conn.execute(J_TEMPLATE % 3).explain(analyze=True)
    lines = text.splitlines()
    join_line = next(line for line in lines if "HashJoin" in line)
    group_line = next(line for line in lines if "HashGroupBy" in line)
    assert "HashJoin(inner" in join_line
    for expected in ("actual rows=128000", "elapsed=9300us",
                     "batches=500 rows_per_batch=256.0"):
        assert expected in join_line, join_line
    for expected in ("rows_in=128000", "elapsed=25302us"):
        assert expected in group_line, group_line


def test_group_by_evaluates_input_rows_not_joined_rows():
    """The J statement's group-by evaluates its key and its argument over
    the probe rows and the build lists (4,000 values each, plus the
    batches that create groups), not over the 128,000 joined rows: the
    joined batches fold from the join's pieces."""
    conn = _join_agg_connection()
    counted = collections.Counter()
    evaluate = aggregates_module.evaluate_batch

    def counting(expr, batch, params=None):
        values = evaluate(expr, batch, params)
        counted[repr(expr)] += len(values)
        return values

    with mock.patch.object(aggregates_module, "evaluate_batch", counting):
        rows = conn.execute(J_TEMPLATE % 3).rows
    assert sum(row[1] for row in rows) == 128_000
    key, argument = "ColumnRef(t.x", "BinaryOp('+', ColumnRef(u.z"
    for prefix in (key, argument):
        [evaluated] = [n for expr, n in counted.items()
                       if expr.startswith(prefix)]
        assert evaluated <= J_ROWS + 4 * 256, counted


def test_transposed_build_lists_do_not_outlive_their_batch():
    """A residual filters each probe row's candidates into a list of its
    own; reading it transposes it.  Each column source holds its
    transpositions for its own batch only: none holds more than one entry
    per build key (10 here; a join-wide cache held 2,000)."""
    server = make_server()
    conn = server.connect()
    for name in ("a", "b"):
        conn.execute("CREATE TABLE %s (id INT PRIMARY KEY, x INT, y INT)"
                     % name)
        server.load_table(
            name, [(i, i % 10, (i * 7919) % 2000) for i in range(2000)]
        )
    sources = []
    init = operators_module._Pieces.__init__

    def recording_init(source, *args):
        init(source, *args)
        sources.append(source)

    with mock.patch.object(operators_module._Pieces, "__init__",
                           recording_init):
        rows = conn.execute(
            "SELECT COUNT(*) FROM a, b WHERE a.x = b.x AND b.y > a.y "
            "AND b.y < a.y + 500"
        ).rows
    assert rows[0][0] > 0
    assert sources
    assert max(len(source.transposed) for source in sources) <= 10
