"""``evaluate_batch``, the engine's one evaluator, against the scalar
row-at-a-time evaluator kept as the reference (``env_reference``).

For generated expression trees over generated batches (NULLs in every
column, INT / DOUBLE / VARCHAR values) the batch evaluator returns, row
for row, exactly what the scalar evaluator returns for that row's
environment — and raises iff the scalar evaluator raises on some row,
with an error type one of those rows raises.  The batches come both
column-backed and row-backed (columns built on first read), and the
trees include arithmetic, negation and BETWEEN over VARCHAR operands,
which both evaluators must refuse with an ``ExecutionError``.

The short-circuit forms get trees whose skipped side raises (``1 / 0``,
``x / 0``, VARCHAR arithmetic): AND / OR with a raising right side, IN
lists with raising items, and CASE with raising conditions, results and
defaults.  The scalar evaluator never reaches that side for the rows the
other side decides, so the batch evaluator's masks must not either.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.exec.batch import Batch
from repro.exec.expr import evaluate_batch, evaluate_predicate_batch
from repro.sql import ast
from tests.exec.env_reference import env_rows, evaluate, evaluate_predicate

# The nested strategies below spell each other out in their reprs, which
# hypothesis builds when a recursive one reaches its size limit.
pytestmark = pytest.mark.filterwarnings(
    "ignore:Generating overly large repr"
)

#: Quantifier 0 has columns (INT, DOUBLE, VARCHAR), quantifier 1 (INT).
LAYOUT = ((0, 0, 3), (1, 3, 1))

ints = st.one_of(st.none(), st.integers(-3, 3))
doubles = st.one_of(st.none(), st.integers(-6, 6).map(lambda n: n / 2.0))
strings = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "ba", "abba"]))


@st.composite
def batches(draw):
    count = draw(st.integers(0, 12))
    columns = [
        draw(st.lists(values, min_size=count, max_size=count))
        for values in (ints, doubles, strings, ints)
    ]
    if draw(st.booleans()):
        return Batch.from_flat_rows(LAYOUT, list(zip(*columns)))
    return Batch.from_columns(LAYOUT, columns, count)


def lit(value):
    return ast.Literal(value)


def col(qid, index):
    ref = ast.ColumnRef(None, "c%d_%d" % (qid, index))
    ref.quantifier_id = qid
    ref.column_index = index
    return ref


def call(name):
    return lambda *args: ast.FunctionCall(name, list(args))


def binary(ops, operands):
    return st.builds(ast.BinaryOp, st.sampled_from(ops), operands, operands)


string_exprs = st.recursive(
    st.one_of(st.just(col(0, 2)), strings.map(lit)),
    lambda inner: st.one_of(
        binary(["||"], inner),
        st.builds(call("COALESCE"), inner, inner),
    ),
    max_leaves=3,
)

numeric_exprs = st.recursive(
    st.one_of(
        st.sampled_from([col(0, 0), col(0, 1), col(1, 0)]),
        ints.map(lit),
        doubles.map(lit),
    ),
    lambda inner: st.one_of(
        binary(["+", "-", "*", "/"], inner),  # "/" divides by zero
        st.builds(ast.UnaryOp, st.just("-"), inner),
        st.builds(call("ABS"), inner),
        st.builds(call("COALESCE"), inner, inner),
        st.builds(call("LENGTH"), st.one_of(inner, string_exprs)),
    ),
    max_leaves=5,
)

COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]
ARITHMETIC = ["+", "-", "*", "/"]
negated = st.booleans()

#: Arithmetic and negation with a VARCHAR operand: a typed error on
#: every row where no operand is NULL (``'a' * 2`` used to be ``'aa'``).
mistyped_exprs = st.one_of(
    st.builds(
        ast.BinaryOp, st.sampled_from(ARITHMETIC), string_exprs,
        st.one_of(numeric_exprs, string_exprs),
    ),
    st.builds(
        ast.BinaryOp, st.sampled_from(ARITHMETIC), numeric_exprs,
        string_exprs,
    ),
    st.builds(ast.UnaryOp, st.just("-"), string_exprs),
)

boolean_exprs = st.recursive(
    st.one_of(
        binary(COMPARISONS, numeric_exprs),
        binary(COMPARISONS, string_exprs),
        # INT against VARCHAR: the ordering operators cannot compare.
        st.builds(
            ast.BinaryOp, st.sampled_from(COMPARISONS),
            numeric_exprs, string_exprs,
        ),
        st.builds(
            ast.Between, numeric_exprs, numeric_exprs, numeric_exprs, negated
        ),
        # A VARCHAR against INT bounds cannot compare.
        st.builds(
            ast.Between, st.one_of(numeric_exprs, string_exprs),
            st.one_of(numeric_exprs, string_exprs), numeric_exprs, negated,
        ),
        st.builds(
            ast.InList, numeric_exprs,
            st.lists(numeric_exprs, min_size=1, max_size=3), negated,
        ),
        st.builds(
            ast.InList, string_exprs,
            st.lists(string_exprs, min_size=1, max_size=3), negated,
        ),
        st.builds(
            ast.Like, string_exprs,
            st.sampled_from(["%", "a%", "%b_", "_", "ab", ""]).map(lit),
            negated,
        ),
        st.builds(
            ast.IsNull, st.one_of(numeric_exprs, string_exprs), negated
        ),
    ),
    lambda inner: st.one_of(
        binary(["AND", "OR"], inner),
        st.builds(ast.UnaryOp, st.just("NOT"), inner),
    ),
    max_leaves=4,
)

#: Raise on every row (``1 / 0``) or on every row where an operand is
#: not NULL (``x / 0``, VARCHAR arithmetic).
raising_exprs = st.one_of(
    st.just(ast.BinaryOp("/", lit(1), lit(0))),
    st.builds(ast.BinaryOp, st.just("/"), numeric_exprs, st.just(lit(0))),
    mistyped_exprs,
)

raising_predicates = st.builds(
    ast.BinaryOp, st.sampled_from(COMPARISONS), raising_exprs, numeric_exprs
)

#: AND / OR whose right side raises where it is evaluated.
guarded_predicates = st.builds(
    ast.BinaryOp, st.sampled_from(["AND", "OR"]), boolean_exprs,
    raising_predicates,
)

#: IN lists with raising items, reached only by the rows no earlier item
#: matched.
guarded_in_lists = st.builds(
    ast.InList, numeric_exprs,
    st.lists(st.one_of(numeric_exprs, raising_exprs), min_size=1,
             max_size=3),
    negated,
)


def cases(conditions, results):
    return st.builds(
        ast.CaseExpr,
        st.lists(st.tuples(conditions, results), min_size=1, max_size=3),
        st.one_of(st.none(), results),
    )


#: CASE with raising conditions, results and defaults.
case_exprs = cases(
    st.one_of(boolean_exprs, raising_predicates),
    st.one_of(numeric_exprs, raising_exprs),
)

#: The guarded forms as predicates, nested in AND / OR / NOT and in
#: comparisons, so masks nest inside masks.
predicates = st.recursive(
    st.one_of(
        boolean_exprs,
        guarded_predicates,
        guarded_in_lists,
        cases(
            st.one_of(boolean_exprs, raising_predicates),
            st.one_of(boolean_exprs, raising_predicates),
        ),
        st.builds(
            ast.BinaryOp, st.sampled_from(COMPARISONS), case_exprs,
            numeric_exprs,
        ),
    ),
    lambda inner: st.one_of(
        binary(["AND", "OR"], inner),
        st.builds(ast.UnaryOp, st.just("NOT"), inner),
    ),
    max_leaves=3,
)

expressions = st.one_of(
    numeric_exprs, string_exprs, boolean_exprs, mistyped_exprs,
    case_exprs, predicates,
)


def typed(values):
    """``True == 1`` and ``1 == 1.0`` in Python; a result column must
    match in type as well as value."""
    return [(type(value), value) for value in values]


def check_matches_rows(scalar, vectorized, expr, batch):
    expected, row_errors = [], set()
    for env in env_rows(batch):
        try:
            expected.append(scalar(expr, env))
        except Exception as error:  # noqa: BLE001 — any type, compared below
            row_errors.add(type(error))
    # Every failure these trees can hit is a typed statement error.
    assert all(issubclass(error, ExecutionError) for error in row_errors)
    try:
        actual = vectorized(expr, batch)
    except Exception as error:  # noqa: BLE001
        assert type(error) in row_errors, (error, row_errors)
        return
    assert not row_errors
    assert typed(actual) == typed(expected)


def plus_one(expr):
    return ast.BinaryOp("+", expr, lit(1))


C, S = col(0, 0), col(0, 2)

#: Row A: ``C = 1``, ``S = 'a'`` (``S + 1`` raises); row B: ``C = 2``,
#: ``S`` NULL.  Each example below reaches ``S + 1`` for row B only, so a
#: batch that evaluates it for row A raises where no row does.
MIXED = Batch.from_columns(
    LAYOUT, [[1, 2], [0.5, None], ["a", None], [1, 2]], 2
)


@settings(max_examples=400, deadline=None)
@given(expressions, batches())
@example(
    # IN stops at its first match: the poisoned item is never reached.
    ast.InList(col(1, 0), [lit(1), ast.BinaryOp("/", lit(1), lit(0))]),
    Batch.from_columns(LAYOUT, [[0], [0.5], ["a"], [1]], 1),
)
@example(
    # Row A matches the first item; only row B reaches the second.
    ast.InList(C, [lit(1), plus_one(S)]), MIXED,
)
@example(
    # Row A's left side is FALSE: only row B evaluates the right side.
    ast.BinaryOp(
        "AND", ast.BinaryOp("=", C, lit(2)),
        ast.BinaryOp("=", plus_one(S), lit(2)),
    ),
    MIXED,
)
@example(
    # Row A's left side is TRUE: only row B evaluates the right side.
    ast.BinaryOp(
        "OR", ast.BinaryOp("=", C, lit(1)),
        ast.BinaryOp("=", plus_one(S), lit(2)),
    ),
    MIXED,
)
@example(
    # Row A takes the first branch: only row B evaluates the second
    # condition and the default.
    ast.CaseExpr(
        [
            (ast.BinaryOp("=", C, lit(1)), lit(10)),
            (ast.BinaryOp("=", plus_one(S), lit(1)), lit(20)),
        ],
        ast.BinaryOp("-", S, lit(1)),
    ),
    MIXED,
)
@example(
    # Only row B takes the branch whose result is evaluated.
    ast.CaseExpr([(ast.BinaryOp("=", C, lit(2)), plus_one(S))], C),
    MIXED,
)
def test_evaluate_batch_matches_evaluate_row_for_row(expr, batch):
    check_matches_rows(evaluate, evaluate_batch, expr, batch)


@settings(max_examples=400, deadline=None)
@given(predicates, batches())
def test_predicate_mask_matches_evaluate_predicate(expr, batch):
    check_matches_rows(
        evaluate_predicate, evaluate_predicate_batch, expr, batch
    )
