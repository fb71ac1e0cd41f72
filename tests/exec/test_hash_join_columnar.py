"""The column-major hash-join emit against the row path it replaced.

``RowPathHashJoinOp`` below is the hash join as it stood before the probe
went column-major — environment dicts in the build table, one generator
resumption and one ``{**left, **right}`` per joined row, one
``ctx.charge`` per emitted row, re-packed through ``BatchBuilder``.  It
lives here as the reference (as ``ScanningGClockPolicy`` does for the
buffer pool): the engine's operator must produce the same batches, and
show the same clock wherever anything else could read it, as this one.
"""

import random
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.common.errors import ExecutionError
from repro.common.hashing import stable_hash
from repro.exec import MemoryGovernor
from repro.exec.batch import Batch, BatchBuilder
from repro.exec.executor import ExecutionContext
from repro.exec.expr import evaluate_batch, evaluate_predicate
from repro.exec.operators import (
    HASH_PARTITIONS,
    HashJoinOp,
    Operator,
    null_extend,
)
from repro.exec.spill import SpillFile, env_row_bytes
from repro.optimizer.costmodel import (
    CPU_HASH_BUILD_BATCH_US,
    CPU_HASH_PROBE_BATCH_US,
    CPU_HASH_PROBE_US,
    CPU_ROW_BATCH_US,
    CPU_ROW_US,
)
from repro.sql import ast
from repro.sql.binder import Conjunct, Quantifier
from repro.storage import FlashDisk, Volume
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

    def relinquish_memory(self):
        if not self._partitions:
            return 0
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
                env = batch.env_at(position)
                self._row_bytes = max(self._row_bytes, env_row_bytes(env))
                key = tuple(column[position] for column in key_columns)
                index = self._partition_of(key)
                if self._partitions[index] is None:
                    self._spills[index].append((key, env))
                    continue
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
                        (key, batch.env_at(position))
                    )
                    self.probe_rows_spilled += 1
                    continue
                for out_env in self._emit_matches(
                    ctx, batch.env_at(position), key,
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

LEFT_QID, RIGHT_QID, EXTRA_QID = 1, 2, 7


def column(qid, index, type_name="INT"):
    ref = ast.ColumnRef(None, "c%d" % index)
    ref.quantifier_id, ref.column_index, ref.type_name = qid, index, type_name
    return ref


def conjunct(expr):
    return Conjunct(expr, {LEFT_QID, RIGHT_QID})


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


class StubQuantifier:
    def __init__(self, qid, n_columns):
        self.id = qid
        self.columns = [None] * n_columns


class StubChild(Operator):
    """Yields prepared batches; each pull records the clock as the join
    left it, then moves it the way a scan's page fetch would."""

    def __init__(self, name, batches, trace):
        self.name, self.batches, self.trace = name, batches, trace

    def execute_batches(self, ctx):
        for batch in self.batches:
            self.trace.append((self.name, ctx.clock.now, ctx._fraction))
            ctx.clock.advance(3)
            ctx.charge(0.3)
            yield batch
        self.trace.append((self.name + "-end", ctx.clock.now, ctx._fraction))


def chunked(qid, rows, size, extra_every=0):
    """``rows`` as batches of ``size``; every ``extra_every``-th batch
    carries a second quantifier, so the probe input changes shape."""
    batches = []
    for number, start in enumerate(range(0, len(rows), size)):
        batch = Batch.from_rows(qid, rows[start:start + size])
        if extra_every and number % extra_every == 0:
            width = len(batch.columns)
            batch = Batch(
                batch.layout + ((EXTRA_QID, width, 1),),
                batch.columns + [[number] * batch.count],
                batch.count,
            )
        batches.append(batch)
    return batches


def run_join(operator_class, case):
    """Everything one operator lets the rest of the engine observe."""
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000, page_size=512))
    temp = volume.create_file("temp")
    pool = BufferPool(temp, capacity_pages=8)
    governor = MemoryGovernor(
        pool, 4096, multiprogramming_level=case["mpl"]
    )
    task = governor.begin_task()
    trace = []
    # Spill files fire the yield hook before each page write: the point
    # where a sibling session could run and read the clock.
    ctx = ExecutionContext(
        pool, temp, None, clock, task, batch_rows=case["batch_rows"],
        yield_hook=lambda: trace.append(
            ("spill-write", clock.now, ctx._fraction)
        ),
    )
    conjuncts = [EQUI] + [RESIDUALS[i] for i in case["residual"]]
    operator = operator_class(
        StubChild(
            "left",
            chunked(LEFT_QID, case["left"], case["left_chunk"],
                    case["extra_every"]),
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
        trace.append(("evict", index, clock.now, ctx._fraction))
        return evict(index)

    operator._evict_partition = recording_evict
    held = 0
    try:
        for number, batch in enumerate(operator.execute_batches(ctx), 1):
            trace.append((
                "yield", clock.now, ctx._fraction, batch.count, batch.layout,
                list(batch.rows()),
            ))
            # A consumer that takes work memory: the task reclaims it
            # from the join, evicting partitions between output batches.
            if case["pressure_every"] and number % case["pressure_every"] == 0:
                task.allocate(case["pressure_pages"])
                held += case["pressure_pages"]
    except ExecutionError as error:
        return ("raised", type(error))
    finally:
        task.release(held)
    return (
        trace, clock.now, ctx._fraction,
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
    }


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(join_cases())
def test_columnar_emit_equals_the_row_path(case):
    """Same batches (count, layout, rows, in order), the same clock and
    carried fraction at every yield and every pull from either child, the
    same evictions, spilled probe rows and temp-file I/O; and when the
    residual raises in one, it raises the same error type in the other."""
    assert run_join(HashJoinOp, case) == run_join(RowPathHashJoinOp, case)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 700),
    st.sampled_from([0.0625, 0.075, 0.125, 0.5, 1.0]),
    st.lists(
        st.sampled_from([0.0625, 0.075, 0.3, 0.6, 2.4]), max_size=20
    ),
)
def test_charge_rows_equals_that_many_charges(count, unit, history):
    """``charge_rows(n, unit)`` leaves ``clock.now`` and the carried
    fraction bit-identical to ``n`` calls of ``charge(unit)``, from
    whatever fraction earlier charges left behind."""
    contexts = []
    for __ in range(2):
        ctx = ExecutionContext(None, None, None, SimClock(), None)
        for amount in history:
            ctx.charge(amount)
        contexts.append(ctx)
    batched, rowwise = contexts
    batched.charge_rows(count, unit)
    for __ in range(count):
        rowwise.charge(unit)
    assert batched.clock.now == rowwise.clock.now
    assert batched._fraction == rowwise._fraction


# --------------------------------------------------------------------- #
# the per-row work is gone: pinned by a count, not a timer
# --------------------------------------------------------------------- #

def _executor_calls(fn):
    """Python-level calls (a generator counts once per resumption) that
    ``fn()`` makes in the join operators', the batch module's and the
    execution context's frames, and how many of them enter ``charge`` /
    ``charge_rows`` — a cost measure that reads no clock."""
    files = ("exec/operators.py", "exec/batch.py", "exec/executor.py")
    calls = {"frames": 0, "charges": 0}

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(files):
            calls["frames"] += 1
            if frame.f_code.co_name in ("charge", "charge_rows"):
                calls["charges"] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_join_cost_follows_input_rows_not_joined_rows():
    """256 x 256 input rows joined at fan-out 1 and at fan-out 32 (32x the
    joined rows) make about the same number of calls in the join's, the
    batch's and the execution context's frames, and ``charge`` /
    ``charge_rows`` are entered per batch — a per-joined-row generator
    hop, dict merge or clock call multiplies either count by ~32."""
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
    assert measured[32]["frames"] < 2 * measured[1]["frames"]
    # A charge per batch and operator (8,192 joined rows are 32 batches);
    # the row path entered ``charge`` 8,234 times here.
    assert measured[32]["charges"] < 4 * 32 + 40


def test_explain_analyze_attribution_is_unchanged():
    """The benchmark's J statement on a ``JoinAgg(301)``-shaped server
    after its warm-up: per-operator actuals are what the row-at-a-time
    join printed, so moving the emit charge from per row to per batch
    shifted no microsecond between operators and no batch boundary."""
    rng = random.Random(301)
    rows, groups = 4_000, 125
    t = [(i, i % groups, rng.randrange(40), rng.randrange(1_000))
         for i in range(rows)]
    u = [(i, i % groups, rng.randrange(1_000)) for i in range(rows)]
    server = make_server()
    conn = server.connect()
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT, y INT)")
    conn.execute("CREATE TABLE u (id INT PRIMARY KEY, g INT, z INT)")
    conn.execute("CREATE PROCEDURE g_report(c) AS SELECT g, COUNT(*), SUM(y) "
                 "FROM t WHERE x = c GROUP BY g ORDER BY g")
    server.load_table("t", t)
    server.load_table("u", u)
    template = ("SELECT t.x, COUNT(*), SUM(u.z + %d) FROM t JOIN u "
                "ON t.g = u.g GROUP BY t.x")
    for warm_up in (
        template % 0, template % 1, "CALL g_report(16)", "CALL g_report(17)",
        "SELECT id, y FROM t WHERE y > 900 ORDER BY y, id LIMIT 20",
        "SELECT id, y FROM t WHERE y > 901 ORDER BY y, id LIMIT 20",
    ):
        conn.execute(warm_up)
    text = conn.execute(template % 3).explain(analyze=True)
    lines = text.splitlines()
    join_line = next(line for line in lines if "HashJoin" in line)
    group_line = next(line for line in lines if "HashGroupBy" in line)
    assert "HashJoin(inner" in join_line
    for expected in ("actual rows=128000", "elapsed=9299us",
                     "batches=500 rows_per_batch=256.0"):
        assert expected in join_line, join_line
    for expected in ("rows_in=128000", "elapsed=25302us"):
        assert expected in group_line, group_line
