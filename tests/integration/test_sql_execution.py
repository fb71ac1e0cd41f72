"""End-to-end SQL correctness tests through the full engine stack."""

import pytest

from repro import Server, ServerConfig
from repro.common.errors import ExecutionError, ReproError
from tests.conftest import assert_indexes_match_heap


@pytest.fixture
def conn():
    server = Server(ServerConfig(start_buffer_governor=False))
    connection = server.connect()
    connection.execute(
        "CREATE TABLE dept (id INT PRIMARY KEY, dname VARCHAR(30), budget DOUBLE)"
    )
    connection.execute(
        "CREATE TABLE emp ("
        "id INT PRIMARY KEY, name VARCHAR(30), dept_id INT, salary DOUBLE, "
        "hired DATE, FOREIGN KEY (dept_id) REFERENCES dept (id))"
    )
    connection.execute(
        "INSERT INTO dept VALUES "
        "(1, 'engineering', 1000.0), (2, 'sales', 500.0), (3, 'empty', 10.0)"
    )
    connection.execute(
        "INSERT INTO emp VALUES "
        "(1, 'ann', 1, 120.0, DATE '2001-05-01'), "
        "(2, 'bob', 1, 100.0, DATE '2002-06-01'), "
        "(3, 'cher', 2, 90.0, DATE '2003-07-01'), "
        "(4, 'dan', 2, 80.0, DATE '2004-08-01'), "
        "(5, 'eve', NULL, 70.0, NULL)"
    )
    yield connection
    connection.close()


def rows(result):
    return sorted(result.rows)


class TestBasicSelect:
    def test_select_star(self, conn):
        assert len(conn.execute("SELECT * FROM emp")) == 5

    def test_projection(self, conn):
        result = conn.execute("SELECT name, salary FROM emp WHERE id = 3")
        assert result.rows == [("cher", 90.0)]

    def test_where_range(self, conn):
        result = conn.execute("SELECT name FROM emp WHERE salary >= 100")
        assert rows(result) == [("ann",), ("bob",)]

    def test_between(self, conn):
        result = conn.execute("SELECT name FROM emp WHERE salary BETWEEN 80 AND 90")
        assert rows(result) == [("cher",), ("dan",)]

    def test_in_list(self, conn):
        result = conn.execute("SELECT name FROM emp WHERE id IN (1, 4)")
        assert rows(result) == [("ann",), ("dan",)]

    def test_like(self, conn):
        result = conn.execute("SELECT name FROM emp WHERE name LIKE '%a%'")
        assert rows(result) == [("ann",), ("dan",)]

    def test_is_null(self, conn):
        result = conn.execute("SELECT name FROM emp WHERE dept_id IS NULL")
        assert result.rows == [("eve",)]

    def test_is_not_null(self, conn):
        assert len(conn.execute("SELECT 1 FROM emp WHERE dept_id IS NOT NULL")) == 4

    def test_null_comparison_excludes(self, conn):
        # eve's NULL dept_id matches neither = 1 nor <> 1.
        eq = conn.execute("SELECT 1 FROM emp WHERE dept_id = 1")
        ne = conn.execute("SELECT 1 FROM emp WHERE dept_id <> 1")
        assert len(eq) + len(ne) == 4

    def test_arithmetic(self, conn):
        result = conn.execute("SELECT salary * 2 + 1 FROM emp WHERE id = 1")
        assert result.rows == [(241.0,)]

    def test_date_compare(self, conn):
        result = conn.execute(
            "SELECT name FROM emp WHERE hired < DATE '2003-01-01'"
        )
        assert rows(result) == [("ann",), ("bob",)]

    def test_order_by(self, conn):
        result = conn.execute("SELECT name FROM emp ORDER BY salary DESC")
        assert result.rows == [("ann",), ("bob",), ("cher",), ("dan",), ("eve",)]

    def test_order_by_nulls(self, conn):
        result = conn.execute("SELECT name FROM emp ORDER BY hired")
        assert result.rows[0] == ("eve",)  # NULLs first ascending

    def test_limit(self, conn):
        result = conn.execute("SELECT name FROM emp ORDER BY id LIMIT 2")
        assert result.rows == [("ann",), ("bob",)]

    def test_distinct(self, conn):
        result = conn.execute("SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL")
        assert rows(result) == [(1,), (2,)]

    def test_select_without_from(self, conn):
        assert conn.execute("SELECT 1 + 2").rows == [(3,)]

    def test_case_expression(self, conn):
        result = conn.execute(
            "SELECT name, CASE WHEN salary >= 100 THEN 'high' ELSE 'low' END "
            "FROM emp WHERE id <= 2 ORDER BY id"
        )
        assert result.rows == [("ann", "high"), ("bob", "high")]

    def test_parameters(self, conn):
        result = conn.execute("SELECT name FROM emp WHERE id = ?", params=[4])
        assert result.rows == [("dan",)]

    def test_column_metadata(self, conn):
        result = conn.execute("SELECT name, salary FROM emp")
        assert result.columns == [("name", "VARCHAR"), ("salary", "DOUBLE")]


class TestJoins:
    def test_inner_join(self, conn):
        result = conn.execute(
            "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept_id = d.id "
            "WHERE d.dname = 'sales'"
        )
        assert rows(result) == [("cher", "sales"), ("dan", "sales")]

    def test_comma_join(self, conn):
        result = conn.execute(
            "SELECT e.name FROM emp e, dept d "
            "WHERE e.dept_id = d.id AND d.budget > 600"
        )
        assert rows(result) == [("ann",), ("bob",)]

    def test_left_outer_join(self, conn):
        result = conn.execute(
            "SELECT e.name, d.dname FROM emp e "
            "LEFT OUTER JOIN dept d ON e.dept_id = d.id"
        )
        assert len(result) == 5
        by_name = dict(result.rows)
        assert by_name["eve"] is None

    def test_left_join_preserves_unmatched_dept(self, conn):
        result = conn.execute(
            "SELECT d.dname, e.name FROM dept d "
            "LEFT JOIN emp e ON e.dept_id = d.id"
        )
        names = {row[0] for row in result.rows}
        assert "empty" in names
        assert len(result) == 5  # 4 matched + 1 null-extended

    def test_three_way_join(self, conn):
        conn.execute("CREATE TABLE loc (dept_id INT, city VARCHAR(20))")
        conn.execute("INSERT INTO loc VALUES (1, 'waterloo'), (2, 'dublin')")
        result = conn.execute(
            "SELECT e.name, l.city FROM emp e "
            "JOIN dept d ON e.dept_id = d.id "
            "JOIN loc l ON l.dept_id = d.id WHERE e.salary > 100"
        )
        assert result.rows == [("ann", "waterloo")]

    def test_cross_join(self, conn):
        result = conn.execute("SELECT 1 FROM dept CROSS JOIN dept d2")
        assert len(result) == 9

    def test_self_join(self, conn):
        result = conn.execute(
            "SELECT a.name, b.name FROM emp a, emp b "
            "WHERE a.dept_id = b.dept_id AND a.id < b.id"
        )
        assert rows(result) == [("ann", "bob"), ("cher", "dan")]


class TestSubqueries:
    def test_in_subquery(self, conn):
        result = conn.execute(
            "SELECT name FROM emp WHERE dept_id IN "
            "(SELECT id FROM dept WHERE budget > 600)"
        )
        assert rows(result) == [("ann",), ("bob",)]

    def test_not_in_subquery(self, conn):
        result = conn.execute(
            "SELECT name FROM emp WHERE dept_id NOT IN "
            "(SELECT id FROM dept WHERE budget > 600)"
        )
        # NULL dept_id: NULL NOT IN (...) is unknown -> excluded... but our
        # anti-join emits rows with no match; eve has no match on the key.
        assert ("cher",) in result.rows and ("dan",) in result.rows

    def test_exists_correlated(self, conn):
        result = conn.execute(
            "SELECT dname FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dept_id = d.id)"
        )
        assert rows(result) == [("engineering",), ("sales",)]

    def test_not_exists(self, conn):
        result = conn.execute(
            "SELECT dname FROM dept d WHERE NOT EXISTS "
            "(SELECT 1 FROM emp e WHERE e.dept_id = d.id)"
        )
        assert result.rows == [("empty",)]

    @pytest.mark.parametrize("sql", [
        "SELECT t.id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE "
        "CASE WHEN u.z > 2 THEN u.g ELSE -1 END = t.g)",
        "SELECT t.id FROM t WHERE t.g IN (SELECT u.g FROM u WHERE "
        "CASE WHEN u.z > t.id THEN 1 ELSE 0 END = 1)",
    ])
    def test_correlated_column_inside_case(self, conn, sql):
        """Both raised "no join strategy found": the lifted conjunct still
        named the subquery's inner quantifier."""
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT)")
        conn.execute("CREATE TABLE u (id INT PRIMARY KEY, g INT, z INT)")
        for i in range(6):
            conn.execute("INSERT INTO t VALUES (?, ?)", params=(i, i % 3))
            conn.execute("INSERT INTO u VALUES (?, ?, ?)", params=(i, i % 2, i))
        assert rows(conn.execute(sql)) == [(0,), (1,), (3,), (4,)]

    def test_derived_table(self, conn):
        result = conn.execute(
            "SELECT t.name FROM "
            "(SELECT name, salary FROM emp WHERE salary > 85) AS t "
            "WHERE t.salary < 110"
        )
        assert rows(result) == [("bob",), ("cher",)]


class TestAggregation:
    def test_count_star(self, conn):
        assert conn.execute("SELECT COUNT(*) FROM emp").rows == [(5,)]

    def test_count_column_skips_nulls(self, conn):
        assert conn.execute("SELECT COUNT(dept_id) FROM emp").rows == [(4,)]

    def test_count_distinct(self, conn):
        assert conn.execute("SELECT COUNT(DISTINCT dept_id) FROM emp").rows == [(2,)]

    def test_sum_avg_min_max(self, conn):
        result = conn.execute(
            "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp"
        )
        assert result.rows == [(460.0, 92.0, 70.0, 120.0)]

    def test_group_by(self, conn):
        result = conn.execute(
            "SELECT dept_id, COUNT(*), SUM(salary) FROM emp "
            "WHERE dept_id IS NOT NULL GROUP BY dept_id ORDER BY dept_id"
        )
        assert result.rows == [(1, 2, 220.0), (2, 2, 170.0)]

    def test_group_by_having(self, conn):
        result = conn.execute(
            "SELECT dept_id FROM emp GROUP BY dept_id HAVING AVG(salary) > 100"
        )
        assert result.rows == [(1,)]

    def test_aggregate_empty_input(self, conn):
        result = conn.execute("SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 99")
        assert result.rows == [(0, None)]

    def test_group_by_expression_key(self, conn):
        result = conn.execute(
            "SELECT salary / 100, COUNT(*) FROM emp GROUP BY salary / 100 "
            "ORDER BY salary / 100"
        )
        assert len(result.rows) == 5  # every salary/100 key is distinct
        assert result.rows[0] == (0.7, 1)

    def test_aggregate_with_join(self, conn):
        result = conn.execute(
            "SELECT d.dname, COUNT(*) FROM emp e JOIN dept d "
            "ON e.dept_id = d.id GROUP BY d.dname ORDER BY d.dname"
        )
        assert result.rows == [("engineering", 2), ("sales", 2)]


class TestRecursive:
    def test_recursive_sequence(self, conn):
        result = conn.execute(
            "WITH RECURSIVE seq(n) AS ("
            "SELECT 1 UNION ALL SELECT n + 1 FROM seq WHERE n < 5"
            ") SELECT n FROM seq ORDER BY n"
        )
        assert result.rows == [(1,), (2,), (3,), (4,), (5,)]
        assert result.notes.get("recursive_iterations", 0) >= 4

    def test_recursive_hierarchy(self, conn):
        conn.execute("CREATE TABLE mgr (emp_id INT, boss_id INT)")
        conn.execute(
            "INSERT INTO mgr VALUES (2, 1), (3, 1), (4, 2), (5, 4)"
        )
        result = conn.execute(
            "WITH RECURSIVE chain(emp_id) AS ("
            "SELECT emp_id FROM mgr WHERE boss_id = 1 "
            "UNION ALL "
            "SELECT m.emp_id FROM mgr m, chain c WHERE m.boss_id = c.emp_id"
            ") SELECT emp_id FROM chain ORDER BY emp_id"
        )
        assert result.rows == [(2,), (3,), (4,), (5,)]


class TestDml:
    def test_update(self, conn):
        count = conn.execute("UPDATE emp SET salary = salary + 10 WHERE dept_id = 2")
        assert count.rowcount == 2
        result = conn.execute("SELECT salary FROM emp WHERE id = 3")
        assert result.rows == [(100.0,)]

    def test_delete(self, conn):
        assert conn.execute("DELETE FROM emp WHERE salary < 80").rowcount == 1
        assert conn.execute("SELECT COUNT(*) FROM emp").rows == [(4,)]

    def test_insert_select(self, conn):
        conn.execute("CREATE TABLE rich (id INT, name VARCHAR(30))")
        conn.execute(
            "INSERT INTO rich SELECT id, name FROM emp WHERE salary > 95"
        )
        assert len(conn.execute("SELECT * FROM rich")) == 2

    def test_update_via_pk_index_bypasses_optimizer(self, conn):
        conn.execute("UPDATE emp SET salary = 999 WHERE id = 1")
        assert conn.last_plan.bypassed
        assert conn.execute("SELECT salary FROM emp WHERE id = 1").rows == [(999.0,)]

    def test_unique_violation(self, conn):
        with pytest.raises(ExecutionError):
            conn.execute("INSERT INTO emp VALUES (1, 'dup', 1, 1.0, NULL)")

    @pytest.mark.parametrize("explicit_txn", [False, True])
    def test_failed_key_changing_update_leaves_no_trace(
        self, conn, explicit_txn
    ):
        """The uniqueness check runs before any mutation: nothing is
        logged for a rejected row, so nothing could undo it afterwards."""
        server = conn.server
        before = rows(conn.execute("SELECT * FROM emp"))
        if explicit_txn:
            conn.execute("BEGIN")
        with pytest.raises(ExecutionError):
            conn.execute("UPDATE emp SET id = 2 WHERE id = 1")
        if explicit_txn:
            conn.execute("COMMIT")

        def check():
            assert rows(conn.execute("SELECT * FROM emp")) == before
            by_old = conn.execute("SELECT name FROM emp WHERE id = 1")
            by_new = conn.execute("SELECT name FROM emp WHERE id = 2")
            assert (by_old.rows, by_new.rows) == ([("ann",)], [("bob",)])
            assert_indexes_match_heap(server)

        check()
        server.simulate_crash_and_recover()
        check()

    def test_not_null_violation(self, conn):
        with pytest.raises(ReproError):
            conn.execute("INSERT INTO dept VALUES (NULL, 'x', 0.0)")

    def test_index_maintained_by_dml(self, conn):
        conn.execute("CREATE INDEX emp_salary ON emp (salary)")
        conn.execute("UPDATE emp SET salary = 5000 WHERE id = 2")
        result = conn.execute("SELECT name FROM emp WHERE salary = 5000")
        assert result.rows == [("bob",)]


class TestTransactions:
    def test_commit_persists(self, conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO dept VALUES (9, 'ops', 1.0)")
        conn.execute("COMMIT")
        assert len(conn.execute("SELECT 1 FROM dept WHERE id = 9")) == 1

    def test_rollback_insert(self, conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO dept VALUES (9, 'ops', 1.0)")
        conn.execute("ROLLBACK")
        assert len(conn.execute("SELECT 1 FROM dept WHERE id = 9")) == 0

    def test_rollback_update(self, conn):
        conn.execute("BEGIN")
        conn.execute("UPDATE emp SET salary = 0 WHERE id = 1")
        conn.execute("ROLLBACK")
        assert conn.execute("SELECT salary FROM emp WHERE id = 1").rows == [(120.0,)]

    def test_rollback_delete_restores_rows(self, conn):
        conn.execute("BEGIN")
        conn.execute("DELETE FROM emp WHERE dept_id = 1")
        conn.execute("ROLLBACK")
        assert conn.execute("SELECT COUNT(*) FROM emp").rows == [(5,)]

    def test_rollback_restores_index_consistency(self, conn):
        conn.execute("BEGIN")
        conn.execute("DELETE FROM emp WHERE id = 1")
        conn.execute("ROLLBACK")
        result = conn.execute("SELECT name FROM emp WHERE id = 1")
        assert result.rows == [("ann",)]
        assert_indexes_match_heap(conn.server)


class TestProcedures:
    def test_create_and_call(self, conn):
        conn.execute(
            "CREATE PROCEDURE high_paid(threshold) AS "
            "SELECT name FROM emp WHERE salary > threshold"
        )
        result = conn.execute("CALL high_paid(95)")
        assert rows(result) == [("ann",), ("bob",)]

    def test_procedure_in_from(self, conn):
        conn.execute(
            "CREATE PROCEDURE eng_emps() AS "
            "SELECT id, name FROM emp WHERE dept_id = 1"
        )
        result = conn.execute("SELECT p.name FROM eng_emps() AS p")
        assert rows(result) == [("ann",), ("bob",)]

    def test_procedure_stats_recorded(self, conn):
        conn.execute(
            "CREATE PROCEDURE everyone() AS SELECT id, name FROM emp"
        )
        conn.execute("SELECT p.name FROM everyone() AS p")
        stats = conn.server.stats.procedure_stats("everyone")
        assert stats.invocations == 1
        __, cardinality = stats.estimate()
        assert cardinality == 5

    def test_call_populates_plan_cache(self, conn):
        conn.execute(
            "CREATE PROCEDURE count_emp() AS SELECT COUNT(*) FROM emp"
        )
        for __ in range(5):
            conn.execute("CALL count_emp()")
        assert conn.plan_cache.is_cached("proc:count_emp")


class TestLifecycle:
    def test_server_autostarts_and_stops(self):
        server = Server(ServerConfig(start_buffer_governor=False))
        assert not server.running
        conn = server.connect()
        assert server.running
        conn.close()
        assert not server.running  # last connection closed

    def test_closed_connection_rejects(self):
        server = Server(ServerConfig(start_buffer_governor=False))
        conn = server.connect()
        conn.close()
        with pytest.raises(ExecutionError):
            conn.execute("SELECT 1")

    def test_multiple_connections(self):
        server = Server(ServerConfig(start_buffer_governor=False))
        a = server.connect()
        b = server.connect()
        a.close()
        assert server.running
        b.close()
        assert not server.running


class TestExplain:
    def test_plan_available(self, conn):
        result = conn.execute(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id"
        )
        explained = result.explain()
        assert "Join" in explained or "Scan" in explained

    def test_time_advances_with_work(self, conn):
        before = conn.server.clock.now
        conn.execute("SELECT * FROM emp, dept")
        assert conn.server.clock.now > before
