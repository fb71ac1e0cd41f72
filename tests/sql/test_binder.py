"""Unit tests for the binder."""

import pytest

from repro.catalog import Catalog, Column, ProcedureSchema, TableSchema
from repro.common.errors import CatalogError, SqlTypeError
from repro.sql import Binder, parse_statement
from repro.sql.binder import (
    BoundDelete,
    BoundInsert,
    BoundUpdate,
    GroupRef,
    Quantifier,
)


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table(TableSchema(
        "emp",
        [
            Column("id", "INT", nullable=False),
            Column("name", "VARCHAR"),
            Column("dept_id", "INT"),
            Column("salary", "DOUBLE"),
        ],
        primary_key=("id",),
    ))
    cat.add_table(TableSchema(
        "dept",
        [Column("id", "INT", nullable=False), Column("dname", "VARCHAR")],
        primary_key=("id",),
    ))
    cat.add_procedure(ProcedureSchema(
        "high_earners", ("threshold",),
        "SELECT id, name FROM emp WHERE salary > 100000",
    ))
    return cat


def bind(catalog, sql):
    return Binder(catalog).bind(parse_statement(sql))


class TestBasicBinding:
    def test_column_resolution(self, catalog):
        block = bind(catalog, "SELECT name FROM emp")
        expr = block.select_items[0][0]
        assert expr.bound
        assert expr.column_index == 1
        assert expr.type_name == "VARCHAR"

    def test_qualified_column(self, catalog):
        block = bind(catalog, "SELECT e.salary FROM emp e")
        assert block.select_items[0][0].column_index == 3

    def test_unknown_column_rejected(self, catalog):
        with pytest.raises(SqlTypeError):
            bind(catalog, "SELECT bogus FROM emp")

    def test_unknown_table_rejected(self, catalog):
        with pytest.raises(CatalogError):
            bind(catalog, "SELECT a FROM ghost")

    def test_ambiguous_column_rejected(self, catalog):
        with pytest.raises(SqlTypeError):
            bind(catalog, "SELECT id FROM emp, dept")

    def test_duplicate_alias_rejected(self, catalog):
        with pytest.raises(SqlTypeError):
            bind(catalog, "SELECT 1 FROM emp e, dept e")

    def test_star_expansion(self, catalog):
        block = bind(catalog, "SELECT * FROM emp")
        assert [name for __, name, __t in block.select_items] == [
            "id", "name", "dept_id", "salary",
        ]

    def test_qualified_star(self, catalog):
        block = bind(catalog, "SELECT d.* FROM emp e, dept d")
        assert len(block.select_items) == 2

    def test_output_types(self, catalog):
        block = bind(catalog, "SELECT salary * 2 AS double_pay FROM emp")
        assert block.select_items[0][1] == "double_pay"
        assert block.select_items[0][2] == "DOUBLE"


class TestConjuncts:
    def test_where_split_on_and(self, catalog):
        block = bind(
            catalog,
            "SELECT 1 FROM emp WHERE salary > 10 AND dept_id = 3 AND name = 'x'",
        )
        assert len(block.conjuncts) == 3
        assert all(not c.is_join for c in block.conjuncts)

    def test_join_conjunct_refs(self, catalog):
        block = bind(
            catalog,
            "SELECT 1 FROM emp e, dept d WHERE e.dept_id = d.id",
        )
        join = block.conjuncts[0]
        assert join.is_join
        assert join.equi is not None

    def test_inner_join_on_becomes_conjunct(self, catalog):
        block = bind(
            catalog,
            "SELECT 1 FROM emp e JOIN dept d ON e.dept_id = d.id",
        )
        assert len(block.conjuncts) == 1
        assert block.conjuncts[0].is_join

    def test_or_stays_single_conjunct(self, catalog):
        block = bind(
            catalog, "SELECT 1 FROM emp WHERE salary > 10 OR dept_id = 3"
        )
        assert len(block.conjuncts) == 1


class TestOuterJoins:
    def test_left_join_constraints(self, catalog):
        block = bind(
            catalog,
            "SELECT 1 FROM emp e LEFT OUTER JOIN dept d ON e.dept_id = d.id",
        )
        dept_q = block.quantifiers[1]
        emp_q = block.quantifiers[0]
        assert dept_q.join_type == Quantifier.LEFT
        assert emp_q.id in dept_q.required_predecessors
        assert len(dept_q.on_conjuncts) == 1
        assert len(block.conjuncts) == 0  # ON stays attached, not WHERE


class TestSubqueryUnnesting:
    def test_in_subquery_becomes_semi_join(self, catalog):
        block = bind(
            catalog,
            "SELECT name FROM emp WHERE dept_id IN (SELECT id FROM dept)",
        )
        assert len(block.quantifiers) == 2
        semi = block.quantifiers[1]
        assert semi.join_type == Quantifier.SEMI
        assert semi.kind == Quantifier.DERIVED
        assert len(semi.on_conjuncts) == 1
        assert semi.on_conjuncts[0].equi is not None

    def test_not_in_becomes_anti_join(self, catalog):
        block = bind(
            catalog,
            "SELECT name FROM emp WHERE dept_id NOT IN (SELECT id FROM dept)",
        )
        assert block.quantifiers[1].join_type == Quantifier.ANTI

    def test_correlated_exists(self, catalog):
        block = bind(
            catalog,
            "SELECT dname FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dept_id = d.id)",
        )
        semi = block.quantifiers[1]
        assert semi.join_type == Quantifier.SEMI
        # The correlated predicate was lifted to the semi-join.
        assert len(semi.on_conjuncts) == 1
        lifted = semi.on_conjuncts[0]
        assert block.quantifiers[0].id in lifted.refs
        assert semi.id in lifted.refs

    @pytest.mark.parametrize("predicate", [
        "CASE WHEN e.salary > 2 THEN e.dept_id ELSE -1 END = d.id",
        "CASE WHEN e.salary > d.id THEN 1 ELSE 0 END = 1",
        "COALESCE(e.dept_id, -1) = d.id",
        "e.dept_id BETWEEN d.id AND d.id",
        "e.dept_id IN (d.id, 0)",
    ])
    def test_lifted_conjunct_reads_inner_columns_through_the_semi_join(
        self, catalog, predicate
    ):
        """Whatever node the subquery's own column sits in (CASE used to
        be skipped by one of four hand-copied child lists), the lifted
        conjunct must name only the outer and the semi-join quantifier."""
        block = bind(
            catalog,
            "SELECT dname FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE %s)" % (predicate,),
        )
        outer, semi = block.quantifiers
        [lifted] = semi.on_conjuncts
        assert lifted.refs == {outer.id, semi.id}

    def test_uncorrelated_exists_rejected(self, catalog):
        with pytest.raises(SqlTypeError):
            bind(catalog, "SELECT 1 FROM dept WHERE EXISTS (SELECT 1 FROM emp)")

    def test_in_subquery_with_local_filter(self, catalog):
        block = bind(
            catalog,
            "SELECT name FROM emp WHERE dept_id IN "
            "(SELECT id FROM dept WHERE dname LIKE 'R%')",
        )
        semi = block.quantifiers[1]
        # The local LIKE filter stays inside the subquery block.
        assert len(semi.block.conjuncts) == 1

    def test_semi_join_invisible_to_star(self, catalog):
        block = bind(
            catalog,
            "SELECT * FROM emp WHERE dept_id IN (SELECT id FROM dept)",
        )
        assert len(block.select_items) == 4  # only emp's columns


class TestAggregation:
    def test_group_by_rewrites_to_group_refs(self, catalog):
        block = bind(
            catalog,
            "SELECT dept_id, COUNT(*), AVG(salary) FROM emp GROUP BY dept_id",
        )
        assert len(block.group_keys) == 1
        assert len(block.aggregates) == 2
        for expr, __, __t in block.select_items:
            assert isinstance(expr, GroupRef)
        indexes = [expr.index for expr, __, __t in block.select_items]
        assert indexes == [0, 1, 2]

    def test_aggregate_without_group_by(self, catalog):
        block = bind(catalog, "SELECT COUNT(*) FROM emp")
        assert block.is_aggregate
        assert block.group_keys == []

    def test_non_grouped_column_rejected(self, catalog):
        with pytest.raises(SqlTypeError):
            bind(catalog, "SELECT name, COUNT(*) FROM emp GROUP BY dept_id")

    def test_having_bound_over_group_refs(self, catalog):
        block = bind(
            catalog,
            "SELECT dept_id FROM emp GROUP BY dept_id HAVING COUNT(*) > 5",
        )
        assert len(block.having_conjuncts) == 1

    def test_having_without_group_rejected(self, catalog):
        with pytest.raises(SqlTypeError):
            bind(catalog, "SELECT id FROM emp HAVING id > 5")

    def test_order_by_aggregate(self, catalog):
        block = bind(
            catalog,
            "SELECT dept_id FROM emp GROUP BY dept_id ORDER BY SUM(salary) DESC",
        )
        expr, ascending = block.order_by[0]
        assert isinstance(expr, GroupRef)
        assert ascending is False


class TestDerivedAndProcedures:
    def test_derived_table(self, catalog):
        block = bind(
            catalog,
            "SELECT top.name FROM (SELECT name FROM emp WHERE salary > 10) AS top",
        )
        derived = block.quantifiers[0]
        assert derived.kind == Quantifier.DERIVED
        assert derived.columns == [("name", "VARCHAR")]

    def test_procedure_table(self, catalog):
        block = bind(
            catalog, "SELECT h.name FROM high_earners(100000) AS h"
        )
        proc = block.quantifiers[0]
        assert proc.kind == Quantifier.PROCEDURE
        assert proc.procedure.name == "high_earners"
        assert len(proc.procedure_args) == 1

    def test_recursive_cte(self, catalog):
        block = bind(
            catalog,
            "WITH RECURSIVE seq(n) AS ("
            "SELECT 1 UNION ALL SELECT n + 1 FROM seq WHERE n < 10"
            ") SELECT n FROM seq",
        )
        assert block.with_recursive is not None
        assert block.quantifiers[0].kind == Quantifier.RECURSIVE_REF


class TestDmlBinding:
    def test_insert(self, catalog):
        bound = bind(catalog, "INSERT INTO emp (id, name) VALUES (1, 'ann')")
        assert isinstance(bound, BoundInsert)
        assert bound.column_indexes == [0, 1]

    def test_insert_arity_mismatch(self, catalog):
        with pytest.raises(SqlTypeError):
            bind(catalog, "INSERT INTO emp (id, name) VALUES (1)")

    def test_insert_select(self, catalog):
        bound = bind(catalog, "INSERT INTO dept (id, dname) SELECT id, name FROM emp")
        assert bound.select_block is not None

    def test_update(self, catalog):
        bound = bind(catalog, "UPDATE emp SET salary = salary * 1.1 WHERE dept_id = 2")
        assert isinstance(bound, BoundUpdate)
        assert bound.assignments[0][0] == 3
        assert len(bound.conjuncts) == 1

    def test_delete(self, catalog):
        bound = bind(catalog, "DELETE FROM emp WHERE salary < 0")
        assert isinstance(bound, BoundDelete)
        assert bound.table.name == "emp"
