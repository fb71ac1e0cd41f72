"""The prepared-statement cache against the front end it replaced.

:class:`ReferenceServer` keeps the uncached path: every statement is
parsed by ``parse_statement`` and bound by a fresh ``Binder`` each time
it runs, its literals stay literals, and the optimizer estimates every
conjunct again for each index option, re-taking the histogram's total at
every step.  A seeded testgen corpus (DML, TLP and NoREC queries, their
plan variants, procedure calls, DDL moving the catalog generation, and
repeated texts) runs on a cached server and a reference server in
lockstep, each generated statement followed by two texts of its shape
with other literals (negative, 0, a float with an exponent, a string
with ``''``, the empty string, a value outside every histogram); after
every statement rows, output columns and types, rowcount, error type,
plan signature, estimated cost, optimizer nodes visited, the statement
count, the simulated clock and every column histogram must agree.
"""

import random

import pytest

from repro import Server, ServerConfig, StatementOverrides
from repro.engine import WorkloadScheduler
from repro.engine.statements import CAPACITY, Prepared, StatementCache
from repro.optimizer.costmodel import CPU_ROW_US
from repro.optimizer.enumeration import QuantifierInfo
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.plancache import plan_signature
from repro.optimizer.plans import sarg_for
from repro.optimizer.selectivity import (
    DEFAULT_EQ,
    DEFAULT_LIKE,
    DEFAULT_RANGE,
    SelectivityEstimator,
    _unrecognised_default,
)
from repro.sql import Binder, ast, parse_statement
from repro.sql.binder import Quantifier
from repro.sql.lexer import SHAPE_FLOAT, SHAPE_INT, SHAPE_STRING
from repro.sql.predicates import (
    CMP,
    IN,
    LIKE,
    NO_VALUE,
    NULL,
    column_predicate,
    range_bounds,
    static_value,
)
from repro.testgen.oracles import NOREC_VARIANTS
from repro.testgen.queries import QueryGenerator
from repro.testgen.schema import SchemaGenerator, random_dml
from tests.sql.test_literal_shape import relit

# --------------------------------------------------------------------- #
# the reference: the uncached front end and the per-index estimates
# --------------------------------------------------------------------- #


class FreshFrontEnd:
    """Parse and bind every statement afresh (the uncached path)."""

    def __init__(self, catalog):
        self.catalog = catalog

    def prepare(self, sql, procedure_params=None, lift=True):
        tree = parse_statement(sql)
        if not isinstance(tree, (
            ast.SelectStatement, ast.InsertStatement, ast.UpdateStatement,
            ast.DeleteStatement,
        )):
            return Prepared(tree)
        binder = Binder(self.catalog, procedure_params=procedure_params)
        try:
            bound = binder.bind(tree)
        except Exception as exc:
            return Prepared(tree, error=exc)
        return Prepared(tree, bound, binder=binder)


class ReferenceEstimator(SelectivityEstimator):
    """Every estimate re-reads the histogram and re-takes its total."""

    def local_selectivity(self, expr, quantifier):
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "AND":
                return (
                    self.local_selectivity(expr.left, quantifier)
                    * self.local_selectivity(expr.right, quantifier)
                )
            if expr.op == "OR":
                left = self.local_selectivity(expr.left, quantifier)
                right = self.local_selectivity(expr.right, quantifier)
                return min(1.0, left + right - left * right)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return max(0.0, 1.0 - self.local_selectivity(expr.operand, quantifier))
        predicate = column_predicate(expr, quantifier.id)
        if predicate is None:
            return _unrecognised_default(expr)
        values = [static_value(operand) for operand in predicate.operands]
        column = predicate.column
        kind = predicate.kind
        if kind == CMP and predicate.op == "=":
            return self._reference_equality(quantifier, column, values[0])
        if kind == CMP and predicate.op == "<>":
            return max(0.0, 1.0 - self._reference_eq(
                quantifier, column, values[0]
            ))
        histogram = self._histogram(quantifier, column.column_index)
        if histogram is not None and histogram.total_count() <= 0:
            histogram = None
        if kind == NULL:
            if histogram is not None:
                fraction = histogram.estimate_null()
            else:
                fraction = DEFAULT_EQ if self._nullable(quantifier, column) else 0.0
            return (1.0 - fraction) if predicate.negated else fraction
        if kind == IN:
            fraction = min(1.0, sum(
                (self._reference_eq(quantifier, column, value)
                 for value in values),
                0.0,
            ))
        elif kind == LIKE:
            if not isinstance(values[0], str):
                return DEFAULT_LIKE
            fraction = self._like(quantifier, column, histogram, values[0])
        elif histogram is None or any(value is NO_VALUE for value in values):
            fraction = DEFAULT_RANGE
        else:
            fraction = histogram.estimate_range(*range_bounds(predicate, values))
        return max(0.0, 1.0 - fraction) if predicate.negated else fraction

    def _reference_equality(self, quantifier, column, value):
        if value is not NO_VALUE:
            string_estimate = self._string_predicate(
                quantifier, column.column_index, "=", value
            )
            if string_estimate is not None:
                return string_estimate
            histogram = self._histogram(quantifier, column.column_index)
            if histogram is None or histogram.total_count() <= 0:
                index_estimate = self._index_eq(quantifier, column.column_index)
                if index_estimate is not None:
                    return index_estimate
        return self._reference_eq(quantifier, column, value)

    def _reference_eq(self, quantifier, column, value):
        histogram = self._histogram(quantifier, column.column_index)
        if value is NO_VALUE:
            return histogram.density() if histogram is not None else DEFAULT_EQ
        if histogram is not None and histogram.total_count() > 0:
            return histogram.estimate_eq(value)
        return DEFAULT_EQ


class ReferenceOptimizer(Optimizer):
    """Each index option re-estimates its sarg and residual conjuncts."""

    def _quantifier_info(self, quantifier, block):
        info = QuantifierInfo()
        single_refs = [
            conjunct
            for conjunct in block.conjuncts
            if conjunct.refs == frozenset({quantifier.id})
        ]
        if quantifier.join_type == Quantifier.LEFT:
            info.post_join_conjuncts = single_refs
            info.local_conjuncts = []
        else:
            info.local_conjuncts = single_refs
        local_selectivity = 1.0
        for conjunct in info.local_conjuncts:
            local_selectivity *= self.estimator.local_selectivity(
                conjunct.expr, quantifier
            )
        if quantifier.kind == Quantifier.BASE:
            self._base_info(quantifier, info, local_selectivity)
        elif quantifier.kind == Quantifier.PROCEDURE:
            stats = quantifier.procedure.stats
            if stats is not None:
                cpu, cardinality = stats.estimate(None)
            else:
                cpu, cardinality = 1000.0, 100.0
            info.base_rows = max(1.0, cardinality)
            info.filtered_rows = max(1.0, cardinality * local_selectivity)
            info.seq_scan_cost = cpu + info.base_rows * CPU_ROW_US
            info.repeat_scan_cost = info.base_rows * CPU_ROW_US
            info.access_kind = "procedure"
            info.sub_plan = self._optimize_block(quantifier.block)[0]
        elif quantifier.kind == Quantifier.RECURSIVE_REF:
            info.base_rows = 64.0
            info.filtered_rows = max(1.0, info.base_rows * local_selectivity)
            info.seq_scan_cost = info.base_rows * CPU_ROW_US
            info.repeat_scan_cost = info.seq_scan_cost
            info.access_kind = "recursive"
        else:
            sub_plan, sub_cost, __ = self._optimize_block(quantifier.block)
            info.sub_plan = sub_plan
            info.base_rows = max(1.0, sub_plan.est_rows)
            info.filtered_rows = max(1.0, info.base_rows * local_selectivity)
            info.row_bytes = 16 + 8 * max(1, len(quantifier.columns))
            info.seq_scan_cost = sub_cost + info.base_rows * CPU_ROW_US
            info.repeat_scan_cost = info.base_rows * CPU_ROW_US
            info.access_kind = "derived"
        return info

    def _sargable_option(self, quantifier, info, index_schema, resident):
        table = quantifier.schema
        leading_index = table.column_index(index_schema.column_names[0])
        sarg = None
        sarg_conjunct = None
        for conjunct in info.local_conjuncts:
            sarg = sarg_for(conjunct.column, leading_index)
            if sarg is not None:
                sarg_conjunct = conjunct
                break
        if sarg is None:
            return None
        selectivity = self.estimator.local_selectivity(
            sarg_conjunct.expr, quantifier
        )
        matching = max(1.0, info.base_rows * selectivity)
        btree = index_schema.btree
        cost = self.cost_model.index_scan(
            btree.height,
            btree.stats.leaf_page_count,
            info.table_pages,
            matching,
            info.clustering.get(index_schema.name, 0.5),
            resident,
            n_residual_predicates=max(0, len(info.local_conjuncts) - 1),
        )
        residual_selectivity = 1.0
        for conjunct in info.local_conjuncts:
            if conjunct is not sarg_conjunct:
                residual_selectivity *= self.estimator.local_selectivity(
                    conjunct.expr, quantifier
                )
        rows = max(1.0, matching * residual_selectivity)
        return (index_schema, sarg, cost, rows)


class ReferenceServer(Server):
    """A server on the uncached front end and the per-index estimates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.statements = FreshFrontEnd(self.catalog)

    def _make_estimator(self, slots=None):
        return ReferenceEstimator(self.stats, self.catalog, slots)

    def make_optimizer(self, use_indexes=True, slots=None):
        optimizer = super().make_optimizer(use_indexes=use_indexes, slots=slots)
        optimizer.__class__ = ReferenceOptimizer
        return optimizer


def config():
    return ServerConfig(start_buffer_governor=False, initial_pool_pages=256)


def histograms(server):
    """Every column histogram the statistics hold, as plain values."""
    return {
        key: (
            stats.histogram.bucket_view(), stats.histogram.singleton_view(),
            stats.histogram.null_count, stats.histogram.distinct_nonsingleton,
            stats.histogram.feedback_updates,
        )
        for key, stats in server.stats._columns.items()
        if stats.histogram is not None
    }


def outcome(connection, sql, overrides=None, params=None):
    """Everything one statement must leave identical on both servers."""
    server = connection.server
    try:
        result = connection.execute(sql, params, overrides=overrides)
    except Exception as exc:  # noqa: BLE001 — the error type is compared
        return ("error", type(exc).__name__, str(exc),
                server.statements_executed, server.clock.now,
                histograms(server))
    planned = result.plan_result
    return (
        # ``columns`` holds each output column's name and type.
        result.rows, result.columns, result.rowcount,
        plan_signature(planned) if planned is not None else None,
        planned.plan.est_cost_us
        if planned is not None and planned.plan is not None else None,
        planned.stats.nodes_visited
        if planned is not None and planned.stats is not None else None,
        server.statements_executed,
        server.clock.now,
        histograms(server),
    )


class Lockstep:
    """A cached and a reference connection fed the same statements."""

    def __init__(self):
        self.cached = Server(config()).connect()
        self.reference = ReferenceServer(config()).connect()
        self.statements = 0

    def run(self, sql, overrides=None):
        got = outcome(self.cached, sql, overrides)
        want = outcome(self.reference, sql, overrides)
        assert got == want, "statement %d differs: %s" % (self.statements, sql)
        self.statements += 1
        return got


# --------------------------------------------------------------------- #
# the corpus in lockstep
# --------------------------------------------------------------------- #

OVERRIDES = [None] + [overrides for __, overrides in NOREC_VARIANTS] + [
    StatementOverrides(use_plan_cache=True),
]


#: Other literals of each kind for a text's variants (an int after a
#: ``-`` is a negative; 1000000007 lies outside every histogram).
VARIANT_LITERALS = {
    SHAPE_INT: ["0", "1000000007", "3", "12"],
    SHAPE_FLOAT: ["1.5e1", "0.0", "2.5E-1"],
    SHAPE_STRING: ["''", "'it''s'", "'x%'"],
}


def corpus(schema_seed, slots):
    """A seeded statement stream: (sql, overrides) pairs, about half of
    them repeats of an earlier text; each new text is followed by two
    variants of its shape."""
    schema = SchemaGenerator(schema_seed).generate()
    rng = random.Random("statement-cache:%d" % schema_seed)
    for sql in schema.ddl_statements():
        yield sql, None
    for sql in schema.load_statements(rng):
        yield sql, None
    for table in schema.tables:
        ints = table.columns_of_type("INT")
        column = ints[0].name if ints else "pk"
        yield (
            "CREATE PROCEDURE count_%s(x) AS SELECT COUNT(*) FROM %s "
            "WHERE %s = x" % (table.name, table.name, column)
        ), None
    queries = QueryGenerator(rng, schema)
    seen = []
    for slot in range(slots):
        roll = rng.random()
        if seen and roll < 0.5:
            yield rng.choice(seen), rng.choice(OVERRIDES)
            continue
        table = rng.choice(schema.tables)
        if roll < 0.62:
            texts = [random_dml(rng, table)]
        elif roll < 0.7:
            texts = ["CALL count_%s(%d)" % (table.name, rng.randrange(-5, 20))]
        elif roll < 0.72:
            # DDL mid-stream: moves the catalog generation.
            column = rng.choice(table.all_column_names())
            name = "ix_slot%d" % slot
            texts = ["CREATE INDEX %s ON %s (%s)" % (name, table.name, column)]
            if rng.random() < 0.5:
                texts.append("DROP INDEX %s" % name)
        elif roll < 0.86:
            query = queries.tlp_query()
            texts = [query.sql()] + list(query.tlp_sqls())
        else:
            texts = [queries.norec_query().sql()]
        for sql in texts:
            seen.append(sql)
            yield sql, rng.choice(OVERRIDES)
            if not sql.startswith(("CREATE", "DROP")):
                for __ in range(2):
                    yield relit(sql, rng, VARIANT_LITERALS), rng.choice(OVERRIDES)


@pytest.mark.parametrize("schema_seed", [1, 2, 3])
def test_corpus_matches_the_uncached_front_end(schema_seed, monkeypatch):
    shared = []
    prepare = StatementCache.prepare

    def recording(self, *args, **kwargs):
        prepared = prepare(self, *args, **kwargs)
        shared.append(prepared.values is not None)
        return prepared

    monkeypatch.setattr(StatementCache, "prepare", recording)
    lockstep = Lockstep()
    for sql, overrides in corpus(schema_seed, slots=400):
        lockstep.run(sql, overrides)
    cached = lockstep.cached.server
    snapshot = cached.metrics.snapshot()
    # The corpus exercised the cache, misses and hits both, and most
    # statements ran on a form their shape shares.
    assert snapshot["statements.cache_hits"] > 500
    assert snapshot["statements.cache_misses"] > 300
    assert sum(shared) > 1000
    assert len(cached.statements) <= CAPACITY


def test_scheduled_sessions_sharing_texts_match_the_reference():
    texts = [
        "SELECT v FROM kv WHERE k = %d",
        "UPDATE kv SET v = v + 1 WHERE k = %d",
        "SELECT COUNT(*) FROM kv WHERE v > %d",
    ]

    def session(name):
        def source(connection):
            for i in range(24):
                yield texts[i % 3] % (i % 5)
        return name, source

    traces, hits = [], []
    for server_class in (Server, ReferenceServer):
        server = server_class(config())
        connection = server.connect()
        connection.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        server.load_table("kv", [(i, i % 7) for i in range(200)])
        scheduler = WorkloadScheduler(server, seed=7, switch_rate=0.5)
        for name in ("s0", "s1"):
            scheduler.add_session(*session(name))
        report = scheduler.run()
        traces.append((
            scheduler.trace_lines(), report["statements"],
            report["statement_errors"], server.clock.now,
            connection.execute("SELECT k, v FROM kv ORDER BY k").rows,
        ))
        hits.append(server.metrics.snapshot()["statements.cache_hits"])
    assert traces[0] == traces[1]
    # The two sessions' 48 statements (15 texts) share 3 shapes.
    assert hits[0] == 48 - 3


def test_recreated_table_with_reordered_columns_rebinds():
    lockstep = Lockstep()
    lockstep.run("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(8))")
    lockstep.run("INSERT INTO t VALUES (1, 'x')")
    select = "SELECT a, b FROM t WHERE a = 1"
    assert lockstep.run(select)[0] == [(1, "x")]
    lockstep.run(select)
    lockstep.run("DROP TABLE t")
    lockstep.run("CREATE TABLE t (b VARCHAR(8), a INT PRIMARY KEY)")
    lockstep.run("INSERT INTO t VALUES ('y', 1)")
    assert lockstep.run(select)[0] == [(1, "y")]
    assert lockstep.run("SELECT * FROM t")[0] == [("y", 1)]


def test_create_index_then_a_cached_select_uses_it():
    lockstep = Lockstep()
    lockstep.run("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    for i in range(300):
        lockstep.run("INSERT INTO t VALUES (%d, %d)" % (i, i % 50))
    select = "SELECT a FROM t WHERE b = 7"
    before = lockstep.run(select)
    lockstep.run(select)
    lockstep.run("CREATE INDEX tb ON t (b)")
    after = lockstep.run(select)
    assert "tb" in after[3] and "tb" not in before[3]
    assert sorted(after[0]) == sorted(before[0])


def test_with_recursive_binds_fresh_every_time(monkeypatch):
    """The executor re-binds a recursive arm through the statement's own
    binder: each execution's arms get the quantifier ids a fresh bind
    would give them."""
    arm_qids = []
    bind_recursive_arm = Binder.bind_recursive_arm

    def recording(self, bound_cte):
        block = bind_recursive_arm(self, bound_cte)
        arm_qids.append([quantifier.id for quantifier in block.quantifiers])
        return block

    monkeypatch.setattr(Binder, "bind_recursive_arm", recording)
    sql = (
        "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
        "SELECT n + 1 FROM r WHERE n < 5) SELECT n FROM r"
    )
    lockstep = Lockstep()
    runs = []
    for __ in range(2):
        for connection in (lockstep.cached, lockstep.reference):
            arm_qids.clear()
            rows = outcome(connection, sql)[0]
            runs.append((rows, list(arm_qids)))
    assert runs[0][0] == [(1,), (2,), (3,), (4,), (5,)]
    assert runs[0][1]  # the arm was bound at run time
    assert runs[0] == runs[1] == runs[2] == runs[3]
    assert len(lockstep.cached.server.statements) == 0


def test_hits_and_misses_are_counted():
    connection = Server(config()).connect()
    connection.execute("CREATE TABLE t (a INT PRIMARY KEY)")
    for __ in range(3):
        connection.execute("SELECT a FROM t WHERE a = 1")
    snapshot = connection.server.metrics.snapshot()
    # CREATE TABLE moved the generation; the SELECT missed once.
    assert snapshot["statements.cache_misses"] == 2
    assert snapshot["statements.cache_hits"] == 2


def test_a_bind_error_counts_the_statement_and_is_not_cached():
    lockstep = Lockstep()
    for __ in range(2):
        error = lockstep.run("SELECT x FROM missing")
        assert error[0] == "error"
    assert len(lockstep.cached.server.statements) == 0
    parse_error = lockstep.run("SELEKT 1")
    assert parse_error[0] == "error"
    # A parse error is not counted as executed; a bind error is.
    assert parse_error[3] == error[3] == 2


def test_the_capacity_bounds_the_cache():
    connection = Server(config()).connect()
    connection.execute("CREATE TABLE t (a INT PRIMARY KEY)")
    # Each alias makes another shape (a new literal alone would not).
    for i in range(CAPACITY + 10):
        connection.execute("SELECT a AS c%d FROM t WHERE a = %d" % (i, i))
    assert len(connection.server.statements) == CAPACITY


# --------------------------------------------------------------------- #
# which texts share a shape
# --------------------------------------------------------------------- #

#: Texts that keep their exact-text key, with the reason.
TEXT_KEYED = [
    ("SELECT a FROM t WHERE b = 1 LIMIT 5", "LIMIT reads its literal"),
    ("SELECT a FROM t WHERE b = 1 AND DATE '2020-01-02' IS NOT NULL",
     "DATE reads its string"),
    ("SET OPTION optimizer_quota = 50", "not a query or DML"),
    ("SELECT a FROM t WHERE b = ? AND a > 1", "a ? parameter"),
    ("CALL by_b(3)", "not a query or DML"),
    ("WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
     "WHERE n < 5) SELECT n FROM r", "a recursive CTE"),
    ("SELECT b + 1, COUNT(*) FROM t GROUP BY b + 1",
     "a select item matches GROUP BY through a literal"),
    ("SELECT 1, COUNT(*) FROM t GROUP BY 1",
     "a select item matches GROUP BY through a literal"),
]

#: Texts that share their shape's form.
SHAPED = [
    "SELECT a FROM t WHERE b = 1",
    "SELECT a FROM t WHERE b IN (1, 2) AND 'x' LIKE 'x%'",
    "SELECT b, COUNT(*) FROM t WHERE a > 0 GROUP BY b HAVING COUNT(*) > 1",
    "SELECT a * 2.5e0 FROM t WHERE a = -3",
    "INSERT INTO t VALUES (9, 9)",
    "UPDATE t SET b = b + 1 WHERE a = 1",
    "DELETE FROM t WHERE a = 7",
]


def shape_server():
    lockstep = Lockstep()
    lockstep.run("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    lockstep.run("INSERT INTO t VALUES (1, 1), (2, 1), (3, 2)")
    lockstep.run("CREATE PROCEDURE by_b(x) AS SELECT a FROM t WHERE b = x")
    return lockstep


@pytest.mark.parametrize("sql, reason", TEXT_KEYED)
def test_texts_that_keep_the_text_key(sql, reason):
    lockstep = shape_server()
    statements = lockstep.cached.server.statements
    params = [1] if "?" in sql else None
    for __ in range(2):
        got = outcome(lockstep.cached, sql, params=params)
        assert got == outcome(lockstep.reference, sql, params=params)
        assert got[0] != "error", reason
    assert statements.prepare(sql).values is None, reason


@pytest.mark.parametrize("sql", SHAPED)
def test_texts_that_share_a_shape(sql):
    lockstep = shape_server()
    statements = lockstep.cached.server.statements
    lockstep.run(sql)
    assert statements.prepare(sql).values is not None
    # A caller's own parameters keep the text key.
    assert statements.prepare(sql, lift=False).values is None


def test_group_by_through_a_literal_binds_each_text_as_itself():
    lockstep = shape_server()
    same = lockstep.run("SELECT b + 1, COUNT(*) FROM t GROUP BY b + 1")
    assert sorted(same[0]) == [(2, 2), (3, 1)]
    differ = lockstep.run("SELECT b + 1, COUNT(*) FROM t GROUP BY b + 2")
    assert differ[:2] == ("error", "SqlTypeError")


def test_a_user_parameter_stays_unknown_to_the_estimator():
    """The estimator reads a lifted slot as its literal, and a ``?`` as
    an unknown constant whatever the statement's slots are: the magic
    number without statistics, the column's density for an equality."""
    server = Server(config())
    connection = server.connect()
    connection.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    connection.execute("CREATE TABLE u (a INT PRIMARY KEY, c INT)")
    server.load_table("t", [(i, 0 if i % 2 else i % 40) for i in range(400)])

    def selectivity(prepared, slots):
        block = prepared.bound
        conjunct = block.conjuncts[0]
        estimator = server.make_optimizer(slots=slots).estimator
        return estimator.conjunct_selectivity(
            conjunct, block.quantifier(conjunct.column.column.quantifier_id)
        )

    def literal(sql):
        tree = parse_statement(sql)
        return Prepared(tree, Binder(server.catalog).bind(tree))

    def user(sql):
        return server.statements.prepare(sql, lift=False)

    lifted_eq = server.statements.prepare("SELECT a FROM t WHERE b = 0")
    lifted_range = server.statements.prepare("SELECT a FROM t WHERE b >= 10")
    for lifted, sql in (
        (lifted_eq, "SELECT a FROM t WHERE b = 0"),
        (lifted_range, "SELECT a FROM t WHERE b >= 10"),
    ):
        assert lifted.values is not None
        estimate = selectivity(lifted, lifted.values)
        assert estimate == selectivity(literal(sql), None)
        assert estimate not in (DEFAULT_EQ, DEFAULT_RANGE)
    for slots in (None, lifted_eq.values, lifted_range.values):
        assert selectivity(user("SELECT a FROM u WHERE c = ?"), slots) == (
            DEFAULT_EQ
        )
        assert selectivity(user("SELECT a FROM t WHERE b > ?"), slots) == (
            DEFAULT_RANGE
        )
        density = server.stats.histogram("t", 1).density()
        assert selectivity(user("SELECT a FROM t WHERE b = ?"), slots) == (
            density
        )
        assert density != selectivity(lifted_eq, lifted_eq.values)
