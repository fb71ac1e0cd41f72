"""The flat-row join emitters against the environment-row ones they
replaced.

Below Project a row is a flat value tuple under its batch's layout.  The
nested-loop join, the index nested-loop join and the hash join's
index-nested-loops alternate once traded environment dicts (``{qid:
row_tuple}``) and re-packed them with ``BatchBuilder``.  Those implementations live here as the references:
the engine's operators must produce the same batches (boundaries,
layouts, rows by ``repr``) and show the same clock at every pull, spill
write and yield.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.common.errors import ExecutionError
from repro.exec import MemoryGovernor
from repro.exec.executor import ExecutionContext
from repro.exec.operators import (
    HASH_PARTITIONS,
    HashJoinOp,
    IndexNLJoinOp,
    NLJoinOp,
    index_rows,
)
from repro.exec.spill import SpillableBuffer, WorkMemory
from repro.optimizer.costmodel import (
    CPU_PREDICATE_US,
    CPU_ROW_US,
    INDEX_NODE_US,
)
from repro.sql import ast
from repro.sql.binder import Quantifier
from repro.storage import FlashDisk, Volume
from tests.exec.env_reference import (
    env_of,
    env_rows,
    evaluate,
    evaluate_predicate,
    null_extend,
    rows_to_batches,
)
from tests.exec.stubs import (
    EXTRA_QID,
    StubChild,
    StubQuantifier,
    chunked,
    column,
    conjunct,
)
from tests.exec.test_adaptive import make_server


# --------------------------------------------------------------------- #
# the references: environment rows, re-packed a row at a time
# --------------------------------------------------------------------- #

class EnvNLJoinOp(NLJoinOp):
    """Environments in the inner buffer, a ``{**left, **right}`` per
    pair, ``null_extend`` for LEFT, ``BatchBuilder`` out."""

    def __init__(self, left, right, join_type, conjuncts,
                 right_quantifiers):
        super().__init__(left, right, join_type, conjuncts,
                         right_quantifiers)
        self.right_quantifiers = right_quantifiers

    def execute_batches(self, ctx):
        inner = SpillableBuffer(ctx, self.depth)
        try:
            for batch in self.right.execute_batches(ctx):
                for env in env_rows(batch):
                    inner.append(env)
            inner.seal()
            self.inner_spilled = inner.spilled
            yield from rows_to_batches(
                self._joined(ctx, inner), ctx.batch_rows
            )
        finally:
            inner.free()

    def _joined(self, ctx, inner):
        for batch in self.left.execute_batches(ctx):
            for left_env in env_rows(batch):
                matched = False
                for right_env in inner.scan():
                    ctx.charge(
                        CPU_ROW_US + len(self.conjuncts) * CPU_PREDICATE_US
                    )
                    merged = {**left_env, **right_env}
                    if all(
                        evaluate_predicate(c.expr, merged, ctx.params)
                        for c in self.conjuncts
                    ):
                        matched = True
                        if self.join_type == Quantifier.SEMI:
                            yield left_env
                            break
                        if self.join_type == Quantifier.ANTI:
                            break
                        yield merged
                if not matched:
                    if self.join_type == Quantifier.ANTI:
                        yield left_env
                    elif self.join_type == Quantifier.LEFT:
                        yield null_extend(left_env, self.right_quantifiers)


class EnvIndexNLJoinOp(IndexNLJoinOp):
    """One probe per outer environment, ``{**left, qid: row}`` per
    match, ``BatchBuilder`` out."""

    def execute_batches(self, ctx):
        return rows_to_batches(self._joined(ctx), ctx.batch_rows)

    def _joined(self, ctx):
        for batch in self.left.execute_batches(ctx):
            for left_env in env_rows(batch):
                yield from self.probe(ctx, left_env)

    def probe(self, ctx, left_env):
        btree = self.index_schema.btree
        qid = self.quantifier.id
        values = tuple(
            evaluate(expr, left_env, ctx.params) for expr in self.probe_keys
        )
        ctx.charge(btree.height * INDEX_NODE_US)
        matched = False
        if all(value is not None for value in values):
            for row in index_rows(
                ctx, self.quantifier.schema.storage, self.index_schema,
                btree.prefix_scan(values), (values, values, True, True),
                CPU_ROW_US,
            ):
                merged = {**left_env, qid: row}
                keep = all(
                    evaluate_predicate(c.expr, merged, ctx.params)
                    for c in self.local_conjuncts
                ) and all(
                    evaluate_predicate(c.expr, merged, ctx.params)
                    for c in self.conjuncts
                )
                if not keep:
                    continue
                matched = True
                if self.join_type == Quantifier.SEMI:
                    yield left_env
                    return
                if self.join_type == Quantifier.ANTI:
                    break
                yield merged
        if not matched:
            if self.join_type == Quantifier.ANTI:
                yield left_env
            elif self.join_type == Quantifier.LEFT:
                yield null_extend(left_env, [self.quantifier])


class EnvAlternateHashJoinOp(HashJoinOp):
    """The switch to the index-NL alternate feeding it one environment
    per build row (the alternate is an :class:`EnvIndexNLJoinOp`)."""

    def execute_batches(self, ctx):
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size, self)
        self._partitions = [dict() for __ in range(HASH_PARTITIONS)]
        self._partition_rows = [0] * HASH_PARTITIONS
        self._spills = [None] * HASH_PARTITIONS
        try:
            self._build(ctx)
            # The rig's threshold always admits the switch.
            self.switched_to_alternate = True
            ctx.note("hash_join_switched")
            yield from rows_to_batches(
                self._execute_alternate(ctx), ctx.batch_rows
            )
        finally:
            self._memory.release_all()
            for spill in self._spills:
                if spill is not None:
                    spill.free()

    def _execute_alternate(self, ctx):
        layout = self._right_layout
        if self.join_type == Quantifier.SEMI:
            seen_keys = set()
            for key, row in self._all_build_rows():
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                yield from self.alternate.probe(ctx, env_of(layout, row))
        else:
            for __, row in self._all_build_rows():
                yield from self.alternate.probe(ctx, env_of(layout, row))


# --------------------------------------------------------------------- #
# a rig that shows both operators the same world
# --------------------------------------------------------------------- #

LEFT_QID, RIGHT_QID = 1, 2

#: Join predicates over ``left(k, v)`` and ``right(k, w)``; the last
#: divides by a column that can be 0, so it can raise.
PREDICATES = [
    conjunct(ast.BinaryOp("=", column(LEFT_QID, 0), column(RIGHT_QID, 0))),
    conjunct(ast.BinaryOp("<", column(LEFT_QID, 1), column(RIGHT_QID, 1))),
    conjunct(ast.IsNull(column(RIGHT_QID, 1), negated=True)),
    conjunct(ast.BinaryOp(
        ">=",
        ast.BinaryOp("/", ast.Literal(6), column(RIGHT_QID, 1)),
        column(LEFT_QID, 1),
    )),
]

JOIN_TYPES = [
    Quantifier.INNER, Quantifier.LEFT, Quantifier.SEMI, Quantifier.ANTI,
]


def drain(operator, ctx, trace):
    """Run ``operator``, recording each batch it yields; an
    ``ExecutionError`` is recorded by its type."""
    try:
        for batch in operator.execute_batches(ctx):
            rows = env_rows(batch)
            trace.append((
                "yield", ctx.clock.now, ctx.carry_ps[0], batch.count,
                batch.layout, repr(rows),
            ))
    except ExecutionError as error:
        trace.append(("raised", type(error)))
    return trace


KEYS = st.one_of(st.none(), st.integers(0, 3))
VALUES = st.one_of(st.none(), st.integers(0, 3))


@st.composite
def nl_cases(draw):
    pairs = st.tuples(KEYS, VALUES)
    return {
        "left": draw(st.lists(pairs, max_size=30)),
        "right": draw(st.lists(pairs, max_size=30)),
        "join_type": draw(st.sampled_from(JOIN_TYPES)),
        "predicates": draw(st.lists(
            st.integers(0, len(PREDICATES) - 1), max_size=3
        )),
        "left_chunk": draw(st.integers(1, 12)),
        "right_chunk": draw(st.integers(1, 12)),
        "extra_every": draw(st.sampled_from([0, 0, 2, 3])),
        "right_extra_every": draw(st.sampled_from([0, 0, 2])),
        "batch_rows": draw(st.sampled_from([1, 3, 7, 256])),
        # 8 pool pages of 512 bytes / mpl, 64 bytes an inner row: the
        # inner spills past 64, 32 or 8 rows.
        "mpl": draw(st.sampled_from([1, 2, 8])),
    }


def run_nl_join(operator_class, case):
    """Everything an NL join lets the rest of the engine observe."""
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
    right_quantifiers = [StubQuantifier(RIGHT_QID, 2)]
    if case["right_extra_every"]:
        right_quantifiers.append(StubQuantifier(RIGHT_QID + EXTRA_QID, 1))
    operator = operator_class(
        StubChild("left", chunked(
            LEFT_QID, case["left"], case["left_chunk"], case["extra_every"],
        ), trace),
        StubChild("right", chunked(
            RIGHT_QID, case["right"], case["right_chunk"],
            case["right_extra_every"],
        ), trace),
        case["join_type"], [PREDICATES[i] for i in case["predicates"]],
        right_quantifiers,
    )
    drain(operator, ctx, trace)
    return (
        trace, clock.now, ctx.carry_ps[0], operator.inner_spilled,
        volume.disk.writes, volume.disk.reads, task.used_pages,
    )


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(nl_cases())
def test_nl_join_equals_the_environment_path(case):
    """INNER / LEFT / SEMI / ANTI, spilled and in-memory inners, layout
    changes on either side, predicates that raise: the same batches and
    the same clock at every pull, spill write and yield."""
    assert run_nl_join(NLJoinOp, case) == run_nl_join(EnvNLJoinOp, case)


def test_nl_join_cases_reach_a_spilled_inner_and_a_layout_change():
    case = {
        "left": [(k % 4, k % 3) for k in range(20)],
        "right": [(k % 4, k % 5) for k in range(40)],
        "join_type": Quantifier.LEFT, "predicates": [0, 1],
        "left_chunk": 6, "right_chunk": 7, "extra_every": 2,
        "right_extra_every": 2, "batch_rows": 7, "mpl": 8,
    }
    result = run_nl_join(NLJoinOp, case)
    assert result == run_nl_join(EnvNLJoinOp, case)
    assert result[3]  # the inner spilled
    layouts = {step[4] for step in result[0] if step[0] == "yield"}
    assert len(layouts) > 1


# --------------------------------------------------------------------- #
# index nested loops, and the hash join's switch to them
# --------------------------------------------------------------------- #

def indexed_world(n_rows, pool_pages, mpl):
    """A server with ``t(id INT PRIMARY KEY, g INT, v INT)`` indexed on
    ``g``; returns (server, quantifier over t, {index name: index})."""
    server = make_server(pool_pages=pool_pages, mpl=mpl)
    conn = server.connect()
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)")
    conn.execute("CREATE INDEX t_g ON t (g)")
    for i in range(n_rows):
        conn.execute("INSERT INTO t VALUES (%d, %s, %d)" % (
            i, "NULL" if i % 7 == 3 else str(i % 5), i % 4,
        ))
    table = server.catalog.table("t")
    quantifier = Quantifier(RIGHT_QID, "t", Quantifier.BASE)
    quantifier.schema = table
    quantifier.columns = table.column_types
    indexes = {
        name: server.catalog.index(name) for name in ("pk_t", "t_g")
    }
    return server, quantifier, indexes


def server_ctx(server, batch_rows, trace):
    task = server.memory_governor.begin_task()
    ctx = ExecutionContext(
        server.pool, server.temp_file, None, server.clock, task,
        batch_rows=batch_rows,
        yield_hook=lambda: trace.append(
            ("spill-write", server.clock.now, ctx.carry_ps[0])
        ),
    )
    return ctx


def t_column(index):
    ref = ast.ColumnRef(None, "c%d" % index)
    ref.quantifier_id, ref.column_index, ref.type_name = (
        RIGHT_QID, index, "INT"
    )
    return ref


#: Conjuncts over ``left(k, v)`` and ``t(id, g, v)`` past the probe key.
INDEX_PREDICATES = [
    conjunct(ast.BinaryOp("<=", column(LEFT_QID, 1), t_column(2))),
    conjunct(ast.IsNull(t_column(1), negated=True)),
    conjunct(ast.BinaryOp(
        ">", ast.BinaryOp("/", ast.Literal(6), t_column(2)), ast.Literal(1),
    )),
]


@st.composite
def index_cases(draw):
    return {
        "left": draw(st.lists(
            st.tuples(st.one_of(st.none(), st.integers(0, 9)), VALUES),
            max_size=25,
        )),
        "index": draw(st.sampled_from(["pk_t", "t_g"])),
        "join_type": draw(st.sampled_from(JOIN_TYPES)),
        "local": draw(st.lists(st.integers(0, 2), max_size=1)),
        "predicates": draw(st.lists(st.integers(0, 2), max_size=2)),
        "left_chunk": draw(st.integers(1, 9)),
        "extra_every": draw(st.sampled_from([0, 0, 2])),
        "batch_rows": draw(st.sampled_from([1, 4, 256])),
    }


def index_join(operator_class, case, quantifier, indexes, left):
    index_conjuncts = [INDEX_PREDICATES[i] for i in case["predicates"]]
    local = [INDEX_PREDICATES[i] for i in case["local"]]
    return operator_class(
        left, quantifier, indexes[case["index"]], [column(LEFT_QID, 0)],
        case["join_type"], index_conjuncts, local,
    )


def run_index_nl_join(operator_class, case):
    server, quantifier, indexes = indexed_world(40, 2048, 4)
    trace = []
    ctx = server_ctx(server, case["batch_rows"], trace)
    left = StubChild("left", chunked(
        LEFT_QID, case["left"], case["left_chunk"], case["extra_every"],
    ), trace)
    operator = index_join(operator_class, case, quantifier, indexes, left)
    drain(operator, ctx, trace)
    return trace, server.clock.now, ctx.carry_ps[0]


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(index_cases())
def test_index_nl_join_equals_the_environment_path(case):
    """Unique and non-unique probes, NULL probe keys, every join type,
    local and join conjuncts, outer layout changes."""
    assert (
        run_index_nl_join(IndexNLJoinOp, case)
        == run_index_nl_join(EnvIndexNLJoinOp, case)
    )


def run_alternate(join_class, alternate_class, case):
    """A hash join that always switches to its index-NL alternate: the
    build rows (``left`` here, keyed on column 0) become the outer
    input.  A tight pool spills build partitions first."""
    server, quantifier, indexes = indexed_world(
        40, case["pool_pages"], case["mpl"]
    )
    trace = []
    ctx = server_ctx(server, case["batch_rows"], trace)
    build = StubChild("build", chunked(
        LEFT_QID, case["left"], case["left_chunk"],
    ), trace)
    probe = StubChild("probe", [], trace)
    alternate = index_join(
        alternate_class, dict(case, join_type=Quantifier.INNER),
        quantifier, indexes, None,
    )
    operator = join_class(
        probe, build, case["join_type"], [], [column(LEFT_QID, 0)],
        [column(LEFT_QID, 0)], [quantifier],
        alternate=alternate, alternate_threshold=10_000,
    )
    drain(operator, ctx, trace)
    return (
        trace, server.clock.now, ctx.carry_ps[0],
        operator.switched_to_alternate, operator.partitions_evicted,
    )


@st.composite
def alternate_cases(draw):
    case = draw(index_cases())
    case["join_type"] = draw(st.sampled_from(
        [Quantifier.INNER, Quantifier.SEMI]
    ))
    # A 64-row soft limit: a build side repeated up to 8 times evicts
    # partitions to the temp file before the switch reads them back.
    case["pool_pages"], case["mpl"] = draw(st.sampled_from(
        [(2048, 4), (64, 64)]
    ))
    case["left"] = case["left"] * draw(st.integers(1, 8))
    return case


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(alternate_cases())
def test_hash_join_alternate_equals_the_environment_path(case):
    """INNER and SEMI (one probe per distinct key) switches, with and
    without evicted build partitions."""
    assert run_alternate(HashJoinOp, IndexNLJoinOp, case) == run_alternate(
        EnvAlternateHashJoinOp, EnvIndexNLJoinOp, case
    )


def test_alternate_cases_reach_evicted_build_partitions():
    case = {
        "left": [(k % 10, k % 4) for k in range(150)], "index": "t_g",
        "join_type": Quantifier.SEMI, "local": [], "predicates": [0],
        "left_chunk": 4, "extra_every": 0, "batch_rows": 4,
        "pool_pages": 64, "mpl": 64,
    }
    result = run_alternate(HashJoinOp, IndexNLJoinOp, case)
    assert result == run_alternate(
        EnvAlternateHashJoinOp, EnvIndexNLJoinOp, case
    )
    assert result[3] and result[4]  # switched, after evicting
    assert any(step[0] == "spill-write" for step in result[0])
