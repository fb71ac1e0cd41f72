"""The four readers of a column predicate agree where they should.

``repro.sql.predicates.column_predicate`` recognises ``column <shape>
operands`` once; the selectivity estimator, the sarg builder, the scan's
statistics feedback and the Index Consultant read that record and differ
only in their *operand policy*.  Three guards:

* a table of shapes with, per reader, what it does with each — written
  from the behaviour of the four hand-matched readers this module
  replaced (the one deliberate difference is marked);
* a hypothesis property: ``local_selectivity`` equals the replaced
  estimator, kept below as :class:`ReferenceEstimator`;
* a source guard: one flip table, no shape matching outside the
  recognizer.
"""

import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Server, ServerConfig
from repro.exec.operators import classify_predicate
from repro.optimizer.plans import sarg_for
from repro.optimizer.selectivity import (
    DEFAULT_EQ,
    DEFAULT_GENERIC,
    DEFAULT_LIKE,
    DEFAULT_RANGE,
    SelectivityEstimator,
    _like_prefix,
    _string_default,
)
from repro.profiling.consultant import _sargable_column
from repro.sql import Binder, ast, parse_statement
from repro.sql.predicates import column_predicate

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
COLUMNS = ("k", "a", "b", "name")


@pytest.fixture(scope="module")
def server():
    """Read-only: every test binds and estimates, none executes."""
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    conn.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT, name VARCHAR(20))"
    )
    conn.execute("CREATE TABLE u (k INT PRIMARY KEY, z INT)")
    server.load_table("t", [
        (i, None if i % 10 == 0 else i % 7, i % 3, "w%02d" % (i % 25))
        for i in range(200)
    ])
    server.load_table("u", [(i, i) for i in range(10)])
    return server


def where(server, predicate, tables="t"):
    block = Binder(server.catalog).bind(parse_statement(
        "SELECT * FROM %s WHERE %s" % (tables, predicate)
    ))
    [conjunct] = block.conjuncts
    return block, conjunct


def operand(expr):
    """A sarg operand as the table below spells it."""
    return "?" if isinstance(expr, ast.Parameter) else expr.value


# --------------------------------------------------------------------- #
# (i) the shapes, and what each reader makes of them
# --------------------------------------------------------------------- #

def hist(column):
    return lambda server: server.stats.histogram("t", COLUMNS.index(column))


def eq(column, value):
    return lambda s: hist(column)(s).estimate_eq(value)


def rng(column, *bounds):
    return lambda s: hist(column)(s).estimate_range(*bounds)


def density(column):
    return lambda s: hist(column)(s).density()


def const(value):
    return lambda s: value


def complement(source):
    return lambda s: max(0.0, 1.0 - source(s))


def total(*sources):
    return lambda s: min(1.0, sum((source(s) for source in sources), 0.0))


# predicate, params, recognised (kind, op, column, negated) | None,
# estimate source, sarg | None, feedback tuple | None, consultant | None
SHAPES = [
    ("k = 5", None, ("cmp", "=", "k", False), eq("k", 5),
     {"eq": [5]}, ("eq", 0, 5), (0, "eq")),
    ("5 = k", None, ("cmp", "=", "k", False), eq("k", 5),
     {"eq": [5]}, ("eq", 0, 5), (0, "eq")),
    # Column on the right: read through the one flip table.
    ("5 < k", None, ("cmp", ">", "k", False), rng("k", 5, None, False, True),
     {"low": 5, "low_inclusive": False},
     ("range", 0, (5, None, False, True)), (0, "range")),
    ("k < 7", None, ("cmp", "<", "k", False), rng("k", None, 7, True, False),
     {"high": 7, "high_inclusive": False},
     ("range", 0, (None, 7, True, False)), (0, "range")),
    ("k <= 7", None, ("cmp", "<=", "k", False), rng("k", None, 7, True, True),
     {"high": 7, "high_inclusive": True},
     ("range", 0, (None, 7, True, True)), (0, "range")),
    ("k >= 7", None, ("cmp", ">=", "k", False), rng("k", 7, None, True, True),
     {"low": 7, "low_inclusive": True},
     ("range", 0, (7, None, True, True)), (0, "range")),
    # ``-5`` is UnaryOp(-, Literal): estimable and learnable, not sargable.
    ("k > -5", None, ("cmp", ">", "k", False),
     rng("k", -5, None, False, True),
     None, ("range", 0, (-5, None, False, True)), None),
    # Parameters: unknown to the estimator, sargable, resolved by feedback.
    ("k = ?", None, ("cmp", "=", "k", False), density("k"),
     {"eq": ["?"]}, None, (0, "eq")),
    ("k = ?", (5,), ("cmp", "=", "k", False), density("k"),
     {"eq": ["?"]}, ("eq", 0, 5), (0, "eq")),
    ("k > ?", (5,), ("cmp", ">", "k", False), const(DEFAULT_RANGE),
     {"low": "?", "low_inclusive": False},
     ("range", 0, (5, None, False, True)), (0, "range")),
    ("k = -?", (5,), ("cmp", "=", "k", False), density("k"),
     None, ("eq", 0, -5), None),
    # A NULL operand is a value to the estimator and the sarg (the scan
    # matches nothing) and teaches the histogram nothing.
    ("k = NULL", None, ("cmp", "=", "k", False), eq("k", None),
     {"eq": [None]}, None, (0, "eq")),
    ("k < NULL", None, ("cmp", "<", "k", False),
     rng("k", None, None, True, False),
     {"high": None, "high_inclusive": False}, None, (0, "range")),
    ("k BETWEEN 2 AND 8", None, ("between", None, "k", False),
     rng("k", 2, 8, True, True),
     {"low": 2, "low_inclusive": True, "high": 8, "high_inclusive": True},
     ("range", 0, (2, 8, True, True)), (0, "range")),
    ("k NOT BETWEEN 2 AND 8", None, ("between", None, "k", True),
     complement(rng("k", 2, 8, True, True)), None, None, None),
    ("k BETWEEN ? AND ?", (2, 8), ("between", None, "k", False),
     const(DEFAULT_RANGE),
     {"low": "?", "low_inclusive": True, "high": "?", "high_inclusive": True},
     ("range", 0, (2, 8, True, True)), (0, "range")),
    # The one place this module moved a reader: the consultant used to
    # accept *any* BETWEEN operands (these two read (0, "range")) and so
    # asked for indexes the sarg builder could never use.
    ("k BETWEEN -2 AND 8", None, ("between", None, "k", False),
     rng("k", -2, 8, True, True),
     None, ("range", 0, (-2, 8, True, True)), None),
    ("k BETWEEN a AND 8", None, ("between", None, "k", False),
     const(DEFAULT_RANGE), None, None, None),
    ("k BETWEEN 2 AND NULL", None, ("between", None, "k", False),
     rng("k", 2, None, True, True),
     {"low": 2, "low_inclusive": True, "high": None, "high_inclusive": True},
     None, (0, "range")),
    ("a IS NULL", None, ("null", None, "a", False),
     lambda s: hist("a")(s).estimate_null(),
     None, ("null", 1, None), None),
    ("a IS NOT NULL", None, ("null", None, "a", True),
     lambda s: 1.0 - hist("a")(s).estimate_null(), None, None, None),
    ("name LIKE 'w1%'", None, ("like", None, "name", False),
     lambda s: hist("name")(s).estimate_like_prefix("w1"),
     None, ("like", 3, "w1%"), None),
    ("name NOT LIKE 'w1%'", None, ("like", None, "name", True),
     complement(lambda s: hist("name")(s).estimate_like_prefix("w1")),
     None, None, None),
    # An unknown pattern is worth the default, negated or not.
    ("name LIKE ?", ("w1%",), ("like", None, "name", False),
     const(DEFAULT_LIKE), None, ("like", 3, "w1%"), None),
    ("name NOT LIKE ?", ("w1%",), ("like", None, "name", True),
     const(DEFAULT_LIKE), None, None, None),
    ("name = 'w03'", None, ("cmp", "=", "name", False), eq("name", "w03"),
     {"eq": ["w03"]}, ("eq", 3, "w03"), (3, "eq")),
    ("k IN (1, 2, 3)", None, ("in", None, "k", False),
     total(eq("k", 1), eq("k", 2), eq("k", 3)), None, None, None),
    ("k IN (1, NULL)", None, ("in", None, "k", False),
     total(eq("k", 1), eq("k", None)), None, None, None),
    ("k NOT IN (1, 2)", None, ("in", None, "k", True),
     complement(total(eq("k", 1), eq("k", 2))), None, None, None),
    ("k <> 3", None, ("cmp", "<>", "k", False), complement(eq("k", 3)),
     None, None, None),
    ("k = a + 1", None, ("cmp", "=", "k", False), density("k"),
     None, None, None),
    # Not a predicate on a column: each shape keeps its own default.
    ("LENGTH(name) BETWEEN 1 AND 5", None, None, const(DEFAULT_RANGE),
     None, None, None),
    ("LENGTH(name) = 3", None, None, const(DEFAULT_EQ), None, None, None),
    ("LENGTH(name) < 3", None, None, const(DEFAULT_RANGE), None, None, None),
    ("LENGTH(name) IS NOT NULL", None, None, const(DEFAULT_EQ),
     None, None, None),
    ("LENGTH(name) NOT LIKE '3'", None, None, const(DEFAULT_LIKE),
     None, None, None),
    ("LENGTH(name) IN (1, 2, 3)", None, None, const(min(1.0, DEFAULT_EQ * 3)),
     None, None, None),
    ("a + 1 = 5", None, None, const(DEFAULT_EQ), None, None, None),
    ("a = b", None, None, const(DEFAULT_EQ), None, None, None),
    ("a < b", None, None, const(DEFAULT_RANGE), None, None, None),
    ("a + b", None, None, const(DEFAULT_GENERIC), None, None, None),
    # AND / OR / NOT are the estimator's to descend; no other reader does.
    ("NOT (k = 5)", None, None, complement(eq("k", 5)), None, None, None),
    ("k = 5 OR k = 7", None, None,
     lambda s: eq("k", 5)(s) + eq("k", 7)(s) - eq("k", 5)(s) * eq("k", 7)(s),
     None, None, None),
]


@pytest.mark.parametrize(
    "predicate,params,recognised,estimate,sarg,feedback,consultant", SHAPES,
    ids=["%s%s" % (s[0], " %r" % (s[1],) if s[1] else "") for s in SHAPES],
)
def test_every_reader_of_a_shape(server, predicate, params, recognised,
                                 estimate, sarg, feedback, consultant):
    block, conjunct = where(server, predicate)
    [quantifier] = block.quantifiers
    reading = conjunct.column
    if recognised is None:
        assert reading is None
    else:
        kind, op, column, negated = recognised
        assert (reading.kind, reading.op, reading.negated) == (kind, op, negated)
        assert reading.column.quantifier_id == quantifier.id
        assert reading.column.column_index == COLUMNS.index(column)

    estimator = server.make_optimizer().estimator
    assert estimator.local_selectivity(conjunct.expr, quantifier) == (
        estimate(server)
    )

    built = sarg_for(reading)
    if built is not None:
        built = {
            key: [operand(e) for e in value] if key == "eq"
            else operand(value) if key in ("low", "high") else value
            for key, value in built.items()
        }
    assert built == sarg
    # The optimizer asks per index, for the index's leading column only.
    for index, __ in enumerate(COLUMNS):
        leads = reading is not None and reading.column.column_index == index
        assert (sarg_for(reading, index) is not None) == (
            sarg is not None and leads
        )

    assert classify_predicate(reading, params) == feedback
    assert _sargable_column(reading) == consultant


def test_sargable_conjuncts_reach_the_plan_and_the_consultant(server):
    """End to end: the option the optimizer costs carries the sarg, and the
    consultant's spec names the same column."""
    from repro.profiling import IndexConsultant

    block, __ = where(server, "5 < k")
    [quantifier] = block.quantifiers
    info = server.make_optimizer()._quantifier_info(quantifier, block)
    [(index_schema, sarg, __, __)] = info.index_access_options
    assert index_schema.column_names == ("k",)
    assert set(sarg) == {"low", "low_inclusive"} and not sarg["low_inclusive"]
    specs = IndexConsultant(server)._generate_specs(
        where(server, "a > 5")[0]
    )
    assert [(s.table_name, s.column_names) for s in specs] == [("t", ("a",))]


def test_a_column_of_another_quantifier_is_not_this_quantifiers(server):
    block, conjunct = where(server, "u.z = 5", tables="t, u")
    t, u = block.quantifiers
    assert conjunct.column.column.quantifier_id == u.id
    assert column_predicate(conjunct.expr, t.id) is None
    estimator = server.make_optimizer().estimator
    assert estimator.local_selectivity(conjunct.expr, t) == DEFAULT_EQ
    # A conjunct over two quantifiers is Conjunct.equi's, or nobody's.
    __, join = where(server, "t.a = u.z", tables="t, u")
    assert join.column is None and join.equi is not None
    __, join = where(server, "t.a < u.z", tables="t, u")
    assert join.column is None and join.equi is None


# --------------------------------------------------------------------- #
# (ii) the estimator this module replaced, as the reference
# --------------------------------------------------------------------- #

class _Unknown:
    pass


_UNKNOWN = _Unknown()


def _literal_value(expr):
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _literal_value(expr.operand)
        if inner is not _UNKNOWN and inner is not None:
            return -inner
    return _UNKNOWN


def _column_vs_value(maybe_column, maybe_value, quantifier):
    if (
        isinstance(maybe_column, ast.ColumnRef)
        and maybe_column.bound
        and maybe_column.quantifier_id == quantifier.id
        and not isinstance(maybe_value, ast.ColumnRef)
    ):
        return maybe_column, _literal_value(maybe_value)
    return None, None


class ReferenceEstimator(SelectivityEstimator):
    """``local_selectivity`` as it was: five hand-matched shapes, each with
    its own column test, over the statistics helpers still in use."""

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
            if expr.op in ("=", "<>", "<", "<=", ">", ">="):
                return self._comparison(expr, quantifier)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return max(0.0, 1.0 - self.local_selectivity(expr.operand, quantifier))
        if isinstance(expr, ast.IsNull):
            return self._is_null(expr, quantifier)
        if isinstance(expr, ast.Between):
            return self._between(expr, quantifier)
        if isinstance(expr, ast.InList):
            return self._in_list(expr, quantifier)
        if isinstance(expr, ast.Like):
            return self._like(expr, quantifier)
        return DEFAULT_GENERIC

    def _comparison(self, expr, quantifier):
        column, value = _column_vs_value(expr.left, expr.right, quantifier)
        flipped = False
        if column is None:
            column, value = _column_vs_value(expr.right, expr.left, quantifier)
            flipped = True
        if column is None:
            return DEFAULT_EQ if expr.op == "=" else DEFAULT_RANGE
        histogram = self._histogram(quantifier, column.column_index)
        op = expr.op
        if flipped:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if op == "=":
            if value is _UNKNOWN:
                return histogram.density() if histogram is not None else DEFAULT_EQ
            string_estimate = self._string_predicate(
                quantifier, column.column_index, "=", value
            )
            if string_estimate is not None:
                return string_estimate
            if histogram is not None and histogram.total_count() > 0:
                return histogram.estimate_eq(value)
            index_estimate = self._index_eq(quantifier, column.column_index)
            if index_estimate is not None:
                return index_estimate
            return DEFAULT_EQ
        if op == "<>":
            return max(0.0, 1.0 - self._eq_estimate(quantifier, column, value))
        if value is _UNKNOWN or histogram is None or histogram.total_count() == 0:
            return DEFAULT_RANGE
        if op == "<":
            return histogram.estimate_range(high=value, high_inclusive=False)
        if op == "<=":
            return histogram.estimate_range(high=value)
        if op == ">":
            return histogram.estimate_range(low=value, low_inclusive=False)
        return histogram.estimate_range(low=value)

    def _eq_estimate(self, quantifier, column, value):
        histogram = self._histogram(quantifier, column.column_index)
        if value is _UNKNOWN:
            return histogram.density() if histogram is not None else DEFAULT_EQ
        if histogram is not None and histogram.total_count() > 0:
            return histogram.estimate_eq(value)
        return DEFAULT_EQ

    def _is_null(self, expr, quantifier):
        if not isinstance(expr.operand, ast.ColumnRef):
            return DEFAULT_EQ
        histogram = self._histogram(quantifier, expr.operand.column_index)
        if histogram is not None and histogram.total_count() > 0:
            fraction = histogram.estimate_null()
        else:
            fraction = 0.0 if not self._nullable(quantifier, expr.operand) else DEFAULT_EQ
        return (1.0 - fraction) if expr.negated else fraction

    def _between(self, expr, quantifier):
        if not isinstance(expr.operand, ast.ColumnRef):
            return DEFAULT_RANGE
        low = _literal_value(expr.low)
        high = _literal_value(expr.high)
        histogram = self._histogram(quantifier, expr.operand.column_index)
        if (
            low is _UNKNOWN or high is _UNKNOWN
            or histogram is None or histogram.total_count() == 0
        ):
            fraction = DEFAULT_RANGE
        else:
            fraction = histogram.estimate_range(low, high)
        return max(0.0, 1.0 - fraction) if expr.negated else fraction

    def _in_list(self, expr, quantifier):
        if not isinstance(expr.operand, ast.ColumnRef):
            return min(1.0, DEFAULT_EQ * max(1, len(expr.items)))
        total = 0.0
        for item in expr.items:
            value = _literal_value(item)
            total += self._eq_estimate(quantifier, expr.operand, value)
        fraction = min(1.0, total)
        return max(0.0, 1.0 - fraction) if expr.negated else fraction

    def _like(self, expr, quantifier):
        if not isinstance(expr.operand, ast.ColumnRef):
            return DEFAULT_LIKE
        pattern = _literal_value(expr.pattern)
        if pattern is _UNKNOWN or not isinstance(pattern, str):
            return DEFAULT_LIKE
        fraction = None
        string_stats = self._string_stats(quantifier, expr.operand.column_index)
        if string_stats is not None:
            fraction = string_stats.estimate_like(pattern)
        if fraction is None or fraction == _string_default():
            prefix = _like_prefix(pattern)
            if prefix:
                histogram = self._histogram(quantifier, expr.operand.column_index)
                if histogram is not None and histogram.total_count() > 0:
                    fraction = histogram.estimate_like_prefix(prefix)
        if fraction is None:
            fraction = DEFAULT_LIKE
        return max(0.0, 1.0 - fraction) if expr.negated else fraction


INT_COLUMNS = st.sampled_from(["k", "a", "b", "x"])
INT_VALUES = st.one_of(
    st.integers(-6, 210).map(str), st.sampled_from(["?", "NULL", "-?", "a + 1"])
)
WORDS = st.one_of(
    st.sampled_from(["'w03'", "'w1%'", "'%3'", "'w_1'", "'zz'", "''", "?", "NULL"])
)
COMPARISONS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
NOT = st.sampled_from(["", "NOT "])


def _leaves():
    numeric_operand = st.one_of(
        INT_COLUMNS, INT_COLUMNS.map(lambda c: "%s + 1" % c),
        st.just("LENGTH(name)"),
    )
    return st.one_of(
        st.tuples(numeric_operand, COMPARISONS, st.one_of(INT_VALUES, INT_COLUMNS))
        .map(" ".join),
        st.tuples(INT_VALUES, COMPARISONS, INT_COLUMNS).map(" ".join),
        st.tuples(numeric_operand, NOT, INT_VALUES, INT_VALUES).map(
            lambda t: "%s %sBETWEEN %s AND %s" % t
        ),
        st.tuples(numeric_operand, NOT, st.lists(INT_VALUES, min_size=1, max_size=4))
        .map(lambda t: "%s %sIN (%s)" % (t[0], t[1], ", ".join(t[2]))),
        st.tuples(st.sampled_from(["k", "a", "x", "name", "LENGTH(name)"]), NOT)
        .map(lambda t: "%s IS %sNULL" % t),
        st.tuples(st.sampled_from(["name", "LENGTH(name)"]), NOT, WORDS).map(
            lambda t: "%s %sLIKE %s" % t
        ),
        st.tuples(st.just("name"), COMPARISONS, WORDS).map(" ".join),
        st.tuples(st.just("name"), NOT, st.lists(WORDS, min_size=1, max_size=3))
        .map(lambda t: "%s %sIN (%s)" % (t[0], t[1], ", ".join(t[2]))),
    )


PREDICATES = st.recursive(
    _leaves(),
    lambda inner: st.one_of(
        inner.map(lambda p: "NOT (%s)" % p),
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
            lambda t: "(%s) %s (%s)" % t
        ),
    ),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def estimators():
    """A loaded table (histograms on every column, x DOUBLE with NULLs)
    beside an empty one (no statistics: every default path)."""
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    for table in ("loaded", "empty"):
        conn.execute(
            "CREATE TABLE %s (k INT PRIMARY KEY, a INT, b INT NOT NULL, "
            "x DOUBLE, name VARCHAR(20))" % (table,)
        )
    server.load_table("loaded", [
        (i, None if i % 10 == 0 else i % 7, i % 3,
         None if i % 4 == 0 else i / 2.0, "w%02d" % (i % 25))
        for i in range(200)
    ])
    current = server.make_optimizer().estimator
    return server, current, ReferenceEstimator(current.stats, current.catalog)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(predicate=PREDICATES, table=st.sampled_from(["loaded", "empty"]))
def test_local_selectivity_equals_the_replaced_estimator(
    estimators, predicate, table
):
    server, current, reference = estimators
    block = Binder(server.catalog).bind(parse_statement(
        "SELECT * FROM %s WHERE %s" % (table, predicate)
    ))
    [quantifier] = block.quantifiers
    for conjunct in block.conjuncts:
        assert current.local_selectivity(conjunct.expr, quantifier) == (
            reference.local_selectivity(conjunct.expr, quantifier)
        ), predicate


# --------------------------------------------------------------------- #
# (iii) one flip table, one place that matches shapes
# --------------------------------------------------------------------- #

def test_one_flip_table_and_no_shape_matching_outside_the_recognizer():
    flips = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if '"<": ">"' in path.read_text()
    ]
    assert flips == ["sql/predicates.py"]
    shape_test = re.compile(
        r"isinstance\([^)]*\b(?:ast\.)?(?:Between|Like|IsNull|InList)\b"
    )
    readers = (
        sorted((SRC / "optimizer").glob("*.py"))
        + sorted((SRC / "profiling").glob("*.py"))
        + [SRC / "exec" / "operators.py"]
    )
    offenders = [
        "%s:%d" % (path.relative_to(SRC).as_posix(), number)
        for path in readers
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if shape_test.search(line)
    ]
    # exec/expr.py (the evaluator) and sql/binder.py keep theirs.
    assert offenders == []
