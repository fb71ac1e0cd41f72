"""Unit tests for expression evaluation (three-valued logic, LIKE, etc.),
one row at a time through the engine's evaluator."""

import re

import pytest

from repro import Server, ServerConfig
from repro.common.errors import ExecutionError, ReproError
from repro.exec import evaluate_batch, evaluate_predicate_batch
from repro.exec.expr import like_match
from repro.sql import ast
from repro.sql.binder import GROUP_ENV, GroupRef
from tests.exec.env_reference import from_envs


def evaluate_one(expr, env, params=None):
    """``expr`` over the one row ``env`` (``{key: row tuple}``)."""
    return evaluate_batch(expr, from_envs([env]), params)[0]


def predicate_one(expr, env, params=None):
    return evaluate_predicate_batch(expr, from_envs([env]), params)[0]


def lit(value):
    return ast.Literal(value)


def col(qid, index):
    ref = ast.ColumnRef(None, "c%d" % index)
    ref.quantifier_id = qid
    ref.column_index = index
    ref.type_name = "INT"
    return ref


class TestBasics:
    def test_literal(self):
        assert evaluate_one(lit(5), {}) == 5

    def test_column(self):
        assert evaluate_one(col(0, 1), {0: (10, 20)}) == 20

    def test_missing_quantifier_raises(self):
        with pytest.raises(ExecutionError):
            evaluate_one(col(3, 0), {0: (1,)})

    def test_group_ref(self):
        ref = GroupRef(1, "INT", "x")
        assert evaluate_one(ref, {GROUP_ENV: (7, 8)}) == 8

    def test_group_ref_outside_grouping(self):
        with pytest.raises(ExecutionError):
            evaluate_one(GroupRef(0, "INT", "x"), {})

    def test_parameters_positional_and_named(self):
        assert evaluate_one(ast.Parameter(ordinal=1), {}, params=[5, 6]) == 6
        assert evaluate_one(ast.Parameter(name="p"), {}, params={"p": 9}) == 9

    def test_missing_parameter(self):
        with pytest.raises(ExecutionError):
            evaluate_one(ast.Parameter(ordinal=0), {}, params=None)


class TestArithmetic:
    def test_operators(self):
        env = {}
        assert evaluate_one(ast.BinaryOp("+", lit(2), lit(3)), env) == 5
        assert evaluate_one(ast.BinaryOp("-", lit(2), lit(3)), env) == -1
        assert evaluate_one(ast.BinaryOp("*", lit(2), lit(3)), env) == 6
        assert evaluate_one(ast.BinaryOp("/", lit(7), lit(2)), env) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate_one(ast.BinaryOp("/", lit(1), lit(0)), {})

    def test_null_propagates(self):
        assert evaluate_one(ast.BinaryOp("+", lit(None), lit(3)), {}) is None

    def test_concat(self):
        assert evaluate_one(ast.BinaryOp("||", lit("a"), lit("b")), {}) == "ab"

    def test_unary_minus(self):
        assert evaluate_one(ast.UnaryOp("-", lit(5)), {}) == -5
        assert evaluate_one(ast.UnaryOp("-", lit(None)), {}) is None


class TestThreeValuedLogic:
    def test_comparison_with_null_is_unknown(self):
        assert evaluate_one(ast.BinaryOp("=", lit(None), lit(1)), {}) is None
        assert evaluate_one(ast.BinaryOp("<", lit(None), lit(1)), {}) is None

    def test_and_kleene(self):
        assert evaluate_one(
            ast.BinaryOp("AND", lit(False), lit(None)), {}
        ) is False
        assert evaluate_one(
            ast.BinaryOp("AND", lit(True), lit(None)), {}
        ) is None
        assert evaluate_one(
            ast.BinaryOp("AND", lit(True), lit(True)), {}
        ) is True

    def test_or_kleene(self):
        assert evaluate_one(ast.BinaryOp("OR", lit(True), lit(None)), {}) is True
        assert evaluate_one(ast.BinaryOp("OR", lit(False), lit(None)), {}) is None
        assert evaluate_one(ast.BinaryOp("OR", lit(False), lit(False)), {}) is False

    def test_not_unknown(self):
        assert evaluate_one(ast.UnaryOp("NOT", lit(None)), {}) is None

    def test_predicate_treats_unknown_as_false(self):
        assert predicate_one(ast.BinaryOp("=", lit(None), lit(1)), {}) is False

    def test_incompatible_comparison_raises(self):
        with pytest.raises(ExecutionError):
            evaluate_one(ast.BinaryOp("<", lit("text"), lit(5)), {})


class TestPredicates:
    def test_is_null(self):
        assert evaluate_one(ast.IsNull(lit(None)), {}) is True
        assert evaluate_one(ast.IsNull(lit(1)), {}) is False
        assert evaluate_one(ast.IsNull(lit(1), negated=True), {}) is True

    def test_between(self):
        assert evaluate_one(ast.Between(lit(5), lit(1), lit(10)), {}) is True
        assert evaluate_one(ast.Between(lit(0), lit(1), lit(10)), {}) is False
        assert evaluate_one(
            ast.Between(lit(5), lit(1), lit(10), negated=True), {}
        ) is False
        assert evaluate_one(ast.Between(lit(None), lit(1), lit(2)), {}) is None

    def test_in_list(self):
        assert evaluate_one(ast.InList(lit(2), [lit(1), lit(2)]), {}) is True
        assert evaluate_one(ast.InList(lit(9), [lit(1), lit(2)]), {}) is False

    def test_in_list_null_semantics(self):
        # 9 IN (1, NULL) is unknown; 1 IN (1, NULL) is true.
        assert evaluate_one(ast.InList(lit(9), [lit(1), lit(None)]), {}) is None
        assert evaluate_one(ast.InList(lit(1), [lit(1), lit(None)]), {}) is True
        # NOT IN with NULL in the list is never true.
        assert evaluate_one(
            ast.InList(lit(9), [lit(1), lit(None)], negated=True), {}
        ) is None

    def test_case(self):
        expr = ast.CaseExpr(
            [(ast.BinaryOp("=", lit(1), lit(2)), lit("a")),
             (ast.BinaryOp("=", lit(1), lit(1)), lit("b"))],
            lit("z"),
        )
        assert evaluate_one(expr, {}) == "b"

    def test_case_default(self):
        expr = ast.CaseExpr([(lit(False), lit("a"))], None)
        assert evaluate_one(expr, {}) is None


class TestLike:
    def test_percent(self):
        assert like_match("hello world", "%world")
        assert like_match("hello world", "hello%")
        assert like_match("hello world", "%lo wo%")
        assert not like_match("hello", "%world%")

    def test_underscore(self):
        assert like_match("cat", "c_t")
        assert not like_match("cart", "c_t")

    def test_exact(self):
        assert like_match("abc", "abc")
        assert not like_match("abc", "ab")

    def test_regex_chars_escaped(self):
        assert like_match("a.c", "a.c")
        assert not like_match("abc", "a.c")

    def test_like_node_with_null(self):
        assert evaluate_one(ast.Like(lit(None), lit("%x%")), {}) is None

    def test_not_like(self):
        assert evaluate_one(ast.Like(lit("abc"), lit("z%"), negated=True), {}) is True


class TestScalarFunctions:
    def test_abs_length_case_functions(self):
        assert evaluate_one(ast.FunctionCall("ABS", [lit(-5)]), {}) == 5
        assert evaluate_one(ast.FunctionCall("LENGTH", [lit("abcd")]), {}) == 4
        assert evaluate_one(ast.FunctionCall("LOWER", [lit("AbC")]), {}) == "abc"
        assert evaluate_one(ast.FunctionCall("UPPER", [lit("AbC")]), {}) == "ABC"

    def test_coalesce(self):
        assert evaluate_one(
            ast.FunctionCall("COALESCE", [lit(None), lit(None), lit(3)]), {}
        ) == 3

    def test_null_in(self):
        assert evaluate_one(ast.FunctionCall("ABS", [lit(None)]), {}) is None

    def test_aggregate_outside_grouping_raises(self):
        with pytest.raises(ExecutionError):
            evaluate_one(ast.FunctionCall("SUM", [lit(1)]), {})

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            evaluate_one(ast.FunctionCall("FROB", [lit(1)]), {})


class TestVarcharOperands:
    """Arithmetic takes numbers: a VARCHAR operand is a typed statement
    error naming the operator and the types, in the evaluator over one
    row or many and in SUM / AVG alike — never a builtins ``TypeError``
    or a string answer (``'a' * 2`` was ``'aa'``, ``SUM`` concatenated)."""

    @pytest.fixture
    def conn(self):
        from repro import Server, ServerConfig

        server = Server(ServerConfig(start_buffer_governor=False))
        conn = server.connect()
        conn.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(10), d DOUBLE)"
        )
        conn.execute("INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', NULL)")
        return conn

    @pytest.mark.parametrize("sql, message", [
        ("SELECT name + 1 FROM t", "cannot apply + to 'str' and 'int'"),
        ("SELECT name * 2 FROM t", "cannot apply * to 'str' and 'int'"),
        ("SELECT 1 - name FROM t", "cannot apply - to 'int' and 'str'"),
        ("SELECT name / 2 FROM t", "cannot apply / to 'str' and 'int'"),
        ("SELECT -name FROM t", "cannot negate 'str'"),
        ("SELECT id FROM t WHERE name BETWEEN 1 AND 2",
         "cannot compare 'int' with 'str'"),
        ("SELECT SUM(name) FROM t", "cannot SUM 'str' values"),
        ("SELECT AVG(name) FROM t", "cannot AVG 'str' values"),
        ("SELECT id, SUM(name) FROM t GROUP BY id", "cannot SUM 'str' values"),
    ])
    def test_statement_raises_a_typed_error(self, conn, sql, message):
        with pytest.raises(ExecutionError, match=re.escape(message)):
            conn.execute(sql)

    def test_numbers_and_concatenation_still_compute(self, conn):
        assert conn.execute(
            "SELECT id, d * 2, -d, name || 1 FROM t ORDER BY id"
        ).rows == [(1, 3.0, -1.5, "a1"), (2, None, None, "b1")]
        assert conn.execute("SELECT SUM(d), AVG(id) FROM t").rows == [
            (1.5, 1.5)
        ]

    def test_row_evaluator_names_the_operator(self):
        with pytest.raises(ExecutionError, match="cannot apply"):
            evaluate_one(ast.BinaryOp("+", lit("a"), lit("b")), {})
        with pytest.raises(ExecutionError, match="cannot negate"):
            evaluate_one(ast.UnaryOp("-", lit("a")), {})
        with pytest.raises(ExecutionError, match="cannot compare"):
            evaluate_one(ast.Between(lit("a"), lit(1), lit(2), False), {})


# Each scalar function over a column of each type (and a NULL literal)
# gives a value or a typed engine error, never a builtin exception.
SCALAR_FUNCTIONS = ["ABS", "LENGTH", "LOWER", "UPPER", "COALESCE"]
ARGUMENTS = {"INT": "i", "DOUBLE": "d", "VARCHAR": "s", "BOOLEAN": "b",
             "NULL": "NULL"}


@pytest.fixture(scope="module")
def typed_conn():
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    conn.execute(
        "CREATE TABLE typed (i INT PRIMARY KEY, d DOUBLE, s VARCHAR(10),"
        " b BOOLEAN)"
    )
    conn.execute("INSERT INTO typed VALUES (-3, -2.5, 'Ab', TRUE)")
    return conn


@pytest.mark.parametrize("argument", sorted(ARGUMENTS))
@pytest.mark.parametrize("function", SCALAR_FUNCTIONS)
def test_scalar_function_gives_a_value_or_a_typed_error(
        typed_conn, function, argument):
    sql = "SELECT %s(%s) FROM typed" % (function, ARGUMENTS[argument])
    if (function, argument) == ("ABS", "VARCHAR"):
        with pytest.raises(ExecutionError, match="cannot ABS 'str' values"):
            typed_conn.execute(sql)
        return
    try:
        rows = typed_conn.execute(sql).rows
    except ReproError:
        return
    assert len(rows) == 1
