"""``evaluate`` is the reference semantics; ``evaluate_batch`` must match it.

For generated expression trees over generated batches (NULLs in every
column, INT / DOUBLE / VARCHAR values) the vectorized evaluator returns,
row for row, exactly what the scalar evaluator returns for that row's
environment — and raises iff the scalar evaluator raises on some row,
with an error type one of those rows raises.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exec.batch import Batch
from repro.exec.expr import (
    evaluate,
    evaluate_batch,
    evaluate_predicate,
    evaluate_predicate_batch,
)
from repro.sql import ast

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
negated = st.booleans()

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

expressions = st.one_of(numeric_exprs, string_exprs, boolean_exprs)


def typed(values):
    """``True == 1`` and ``1 == 1.0`` in Python; a result column must
    match in type as well as value."""
    return [(type(value), value) for value in values]


def check_matches_rows(scalar, vectorized, expr, batch):
    expected, row_errors = [], set()
    for env in batch.rows():
        try:
            expected.append(scalar(expr, env))
        except Exception as error:  # noqa: BLE001 — any type, compared below
            row_errors.add(type(error))
    try:
        actual = vectorized(expr, batch)
    except Exception as error:  # noqa: BLE001
        assert type(error) in row_errors, (error, row_errors)
        return
    assert not row_errors
    assert typed(actual) == typed(expected)


@settings(max_examples=400, deadline=None)
@given(expressions, batches())
@example(
    # IN stops at its first match: the poisoned item is never reached.
    ast.InList(col(1, 0), [lit(1), ast.BinaryOp("/", lit(1), lit(0))]),
    Batch.from_columns(LAYOUT, [[0], [0.5], ["a"], [1]], 1),
)
def test_evaluate_batch_matches_evaluate_row_for_row(expr, batch):
    check_matches_rows(evaluate, evaluate_batch, expr, batch)


@settings(max_examples=400, deadline=None)
@given(boolean_exprs, batches())
def test_predicate_mask_matches_evaluate_predicate(expr, batch):
    check_matches_rows(
        evaluate_predicate, evaluate_predicate_batch, expr, batch
    )
