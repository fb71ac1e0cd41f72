"""Unit tests for the SQL parser."""

import datetime

import pytest

from repro.common.errors import SqlParseError
from repro.sql import ast, parse_statement


class TestSelect:
    def test_minimal(self):
        stmt = parse_statement("SELECT a FROM t")
        assert isinstance(stmt, ast.SelectStatement)
        assert len(stmt.select_items) == 1
        assert isinstance(stmt.from_tables[0], ast.BaseTable)

    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert isinstance(stmt.select_items[0][0], ast.Star)

    def test_qualified_star(self):
        stmt = parse_statement("SELECT t.* FROM t")
        assert stmt.select_items[0][0].table_alias == "t"

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t AS u")
        assert stmt.select_items[0][1] == "x"
        assert stmt.select_items[1][1] == "y"
        assert stmt.from_tables[0].alias == "u"

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_where_group_having_order_limit(self):
        stmt = parse_statement(
            "SELECT a, COUNT(*) FROM t WHERE b > 5 GROUP BY a "
            "HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 10"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0][1] is False  # DESC
        assert stmt.limit == 10

    def test_comma_joins(self):
        stmt = parse_statement("SELECT * FROM a, b, c")
        assert len(stmt.from_tables) == 3

    def test_explicit_inner_join(self):
        stmt = parse_statement("SELECT * FROM a JOIN b ON a.x = b.y")
        join = stmt.from_tables[0]
        assert isinstance(join, ast.JoinExpr)
        assert join.join_type == ast.JoinExpr.INNER
        assert join.condition is not None

    def test_left_outer_join(self):
        stmt = parse_statement(
            "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y"
        )
        assert stmt.from_tables[0].join_type == ast.JoinExpr.LEFT

    def test_left_join_shorthand(self):
        stmt = parse_statement("SELECT * FROM a LEFT JOIN b ON a.x = b.y")
        assert stmt.from_tables[0].join_type == ast.JoinExpr.LEFT

    def test_cross_join(self):
        stmt = parse_statement("SELECT * FROM a CROSS JOIN b")
        assert stmt.from_tables[0].join_type == ast.JoinExpr.CROSS

    def test_chained_joins(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        )
        outer = stmt.from_tables[0]
        assert isinstance(outer.left, ast.JoinExpr)

    def test_derived_table(self):
        stmt = parse_statement("SELECT * FROM (SELECT a FROM t) AS d")
        derived = stmt.from_tables[0]
        assert isinstance(derived, ast.DerivedTable)
        assert derived.alias == "d"

    def test_procedure_in_from(self):
        stmt = parse_statement("SELECT * FROM get_orders(42) AS o")
        proc = stmt.from_tables[0]
        assert isinstance(proc, ast.ProcedureTable)
        assert proc.name == "get_orders"
        assert len(proc.args) == 1

    def test_with_recursive(self):
        stmt = parse_statement(
            "WITH RECURSIVE r(n) AS ("
            "SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 5"
            ") SELECT n FROM r"
        )
        assert stmt.with_recursive is not None
        assert stmt.with_recursive.column_names == ("n",)


class TestExpressions:
    def where(self, text):
        return parse_statement("SELECT a FROM t WHERE " + text).where

    def test_precedence_or_and(self):
        expr = self.where("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        expr = self.where("NOT a = 1")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "NOT"

    def test_arithmetic_precedence(self):
        expr = self.where("a = 1 + 2 * 3")
        assert expr.right.op == "+"
        assert expr.right.right.op == "*"

    def test_comparisons_normalized(self):
        assert self.where("a != 1").op == "<>"

    def test_is_null(self):
        expr = self.where("a IS NULL")
        assert isinstance(expr, ast.IsNull) and not expr.negated
        assert self.where("a IS NOT NULL").negated

    def test_like(self):
        expr = self.where("name LIKE '%smith%'")
        assert isinstance(expr, ast.Like)
        assert self.where("name NOT LIKE 'x%'").negated

    def test_between(self):
        expr = self.where("a BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between)

    def test_in_list(self):
        expr = self.where("a IN (1, 2, 3)")
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 3

    def test_in_subquery(self):
        expr = self.where("a IN (SELECT b FROM u)")
        assert isinstance(expr, ast.InSubquery)
        assert self.where("a NOT IN (SELECT b FROM u)").negated

    def test_exists(self):
        expr = self.where("EXISTS (SELECT 1 FROM u WHERE u.x = t.a)")
        assert isinstance(expr, ast.Exists)

    def test_case(self):
        expr = parse_statement(
            "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END FROM t"
        ).select_items[0][0]
        assert isinstance(expr, ast.CaseExpr)
        assert len(expr.branches) == 1
        assert expr.default is not None

    def test_aggregates(self):
        stmt = parse_statement("SELECT COUNT(*), SUM(a), AVG(b) FROM t")
        count = stmt.select_items[0][0]
        assert count.star
        assert stmt.select_items[1][0].name == "SUM"

    def test_count_distinct(self):
        expr = parse_statement("SELECT COUNT(DISTINCT a) FROM t").select_items[0][0]
        assert expr.distinct

    def test_literals(self):
        stmt = parse_statement(
            "SELECT 1, 2.5, 'text', NULL, TRUE, FALSE, DATE '2007-01-15'"
        )
        values = [item[0].value for item in stmt.select_items]
        assert values == [1, 2.5, "text", None, True, False, datetime.date(2007, 1, 15)]

    def test_parameters(self):
        stmt = parse_statement("SELECT a FROM t WHERE b = ? AND c = ?")
        params = []

        def walk(e):
            if isinstance(e, ast.Parameter):
                params.append(e.ordinal)
            for attr in ("left", "right", "operand"):
                child = getattr(e, attr, None)
                if child is not None:
                    walk(child)

        walk(stmt.where)
        assert params == [0, 1]

    def test_unary_minus(self):
        expr = self.where("a = -5")
        assert isinstance(expr.right, ast.UnaryOp)

    def test_scalar_subquery_rejected(self):
        with pytest.raises(SqlParseError):
            parse_statement("SELECT (SELECT 1) FROM t")

    def test_concat(self):
        expr = parse_statement("SELECT a || b FROM t").select_items[0][0]
        assert expr.op == "||"


class TestDml:
    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.column_names == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_all_columns(self):
        stmt = parse_statement("INSERT INTO t VALUES (1, 2)")
        assert stmt.column_names is None

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT a FROM u")
        assert stmt.select is not None

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE id = 5")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a < 0")
        assert stmt.table_name == "t"


class TestDdl:
    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE emp ("
            "id INT PRIMARY KEY, name VARCHAR(50) NOT NULL, dept INT, "
            "FOREIGN KEY (dept) REFERENCES dept (id))"
        )
        assert stmt.name == "emp"
        assert stmt.primary_key == ["id"]
        assert stmt.columns[1].length == 50
        assert stmt.columns[1].not_null
        assert stmt.foreign_keys[0].ref_table == "dept"

    def test_create_table_composite_pk(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))"
        )
        assert stmt.primary_key == ["a", "b"]

    def test_create_index(self):
        stmt = parse_statement("CREATE INDEX i ON t (a, b)")
        assert stmt.column_names == ["a", "b"]
        assert not stmt.unique

    def test_create_unique_index(self):
        assert parse_statement("CREATE UNIQUE INDEX i ON t (a)").unique

    def test_create_statistics(self):
        stmt = parse_statement("CREATE STATISTICS t (a, b)")
        assert stmt.table_name == "t"
        assert stmt.column_names == ["a", "b"]

    def test_calibrate(self):
        assert isinstance(
            parse_statement("CALIBRATE DATABASE"), ast.CalibrateStatement
        )

    def test_create_procedure(self):
        stmt = parse_statement(
            "CREATE PROCEDURE hot_items(threshold) AS "
            "SELECT id FROM items WHERE sales > threshold"
        )
        assert stmt.name == "hot_items"
        assert stmt.parameters == ["threshold"]

    def test_drop(self):
        assert parse_statement("DROP TABLE t").name == "t"
        assert parse_statement("DROP INDEX i").name == "i"

    def test_call(self):
        stmt = parse_statement("CALL proc(1, 'x')")
        assert stmt.name == "proc"
        assert len(stmt.args) == 2

    def test_set_option(self):
        stmt = parse_statement("SET OPTION optimization_goal = 'first-row'")
        assert stmt.name == "optimization_goal"
        assert stmt.value == "first-row"

    def test_transactions(self):
        assert isinstance(parse_statement("BEGIN"), ast.BeginStatement)
        assert isinstance(parse_statement("COMMIT"), ast.CommitStatement)
        assert isinstance(parse_statement("ROLLBACK"), ast.RollbackStatement)


class TestErrors:
    def test_trailing_garbage(self):
        with pytest.raises(SqlParseError):
            parse_statement("SELECT a FROM t extra stuff here ,")

    def test_missing_from_table(self):
        with pytest.raises(SqlParseError):
            parse_statement("SELECT a FROM")

    def test_bad_statement(self):
        with pytest.raises(SqlParseError):
            parse_statement("FROBNICATE everything")

    def test_not_without_predicate(self):
        with pytest.raises(SqlParseError):
            parse_statement("SELECT a FROM t WHERE a NOT 5")

    def test_semicolon_allowed(self):
        parse_statement("SELECT 1;")

    @pytest.mark.parametrize("sql, position", [
        ("SELECT 1e FROM t", 7),
        ("SELECT 1e+ FROM t", 7),
        ("SELECT a FROM t WHERE a = ²", 26),
        ("SELECT a FROM t LIMIT 1.5", 22),
        ("SELECT a FROM t LIMIT 2.0", 22),
    ])
    def test_malformed_numbers_are_parse_errors_with_a_position(
            self, sql, position):
        """An exponent without digits, a superscript digit and a
        non-integer LIMIT used to surface ``ValueError`` / ``TypeError``
        from ``float()``, ``int()`` and the LIMIT slice."""
        with pytest.raises(SqlParseError) as raised:
            parse_statement(sql)
        assert raised.value.position == position

    def test_error_at_a_literal_reports_where_it_starts(self):
        with pytest.raises(SqlParseError) as raised:
            parse_statement("SELECT a FROM t WHERE 'x' 'y'")
        assert raised.value.position == 26
