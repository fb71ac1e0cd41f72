"""Tests for engine-integrated intra-query parallelism
(SET OPTION max_query_tasks, Section 4.4)."""

import pytest

from repro import Server, ServerConfig
from repro.buffer import GovernorConfig
from repro.common import MiB
from repro.optimizer import plans as p


@pytest.fixture
def conn():
    server = Server(ServerConfig(start_buffer_governor=False,
                                 initial_pool_pages=2048))
    connection = server.connect()
    connection.execute(
        "CREATE TABLE customer (id INT PRIMARY KEY, region VARCHAR(10))"
    )
    connection.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, cust_id INT, amount INT)"
    )
    server.load_table(
        "customer", [(i, "r%d" % (i % 4)) for i in range(500)]
    )
    server.load_table(
        "orders", [(i, i % 500, i % 100) for i in range(5000)]
    )
    return connection

JOIN_SQL = (
    "SELECT COUNT(*) FROM customer c JOIN orders o ON o.cust_id = c.id"
)


class TestEngineParallelism:
    def test_serial_by_default(self, conn):
        result = conn.execute(JOIN_SQL)
        assert "parallel_workers" not in result.notes
        assert result.rows == [(5000,)]

    def test_parallel_when_option_set(self, conn):
        conn.execute("SET OPTION max_query_tasks = 4")
        result = conn.execute(JOIN_SQL)
        assert result.notes.get("parallel_workers") == 4
        assert result.rows == [(5000,)]

    def test_parallel_matches_serial_answers(self, conn):
        queries = [
            JOIN_SQL,
            "SELECT c.region, COUNT(*) FROM customer c "
            "JOIN orders o ON o.cust_id = c.id GROUP BY c.region "
            "ORDER BY c.region",
            "SELECT c.region, SUM(o.amount) FROM customer c "
            "JOIN orders o ON o.cust_id = c.id "
            "GROUP BY c.region HAVING COUNT(*) > 100 ORDER BY c.region",
        ]
        serial = [conn.execute(sql).rows for sql in queries]
        conn.execute("SET OPTION max_query_tasks = 8")
        parallel = []
        for sql in queries:
            result = conn.execute(sql)
            assert result.notes.get("parallel_workers") == 8
            parallel.append(result.rows)
        assert serial == parallel

    def test_parallel_wall_clock_below_serial(self, conn):
        server = conn.server

        def timed(sql):
            start = server.clock.now
            conn.execute(sql)
            return server.clock.now - start

        serial_us = timed(JOIN_SQL)
        conn.execute("SET OPTION max_query_tasks = 8")
        parallel_us = timed(JOIN_SQL)
        assert parallel_us < serial_us

    def test_ineligible_shapes_fall_back(self, conn):
        conn.execute("SET OPTION max_query_tasks = 4")
        # A LEFT JOIN core is not parallel-eligible: serial fallback.
        result = conn.execute(
            "SELECT COUNT(*) FROM customer c LEFT JOIN orders o "
            "ON o.cust_id = c.id"
        )
        assert "parallel_workers" not in result.notes
        assert result.rows == [(5000,)]

    def test_single_table_falls_back(self, conn):
        conn.execute("SET OPTION max_query_tasks = 4")
        result = conn.execute("SELECT COUNT(*) FROM orders")
        assert "parallel_workers" not in result.notes
        assert result.rows == [(5000,)]

    def test_filters_still_apply(self, conn):
        conn.execute("SET OPTION max_query_tasks = 4")
        serial = conn.execute(
            "SELECT COUNT(*) FROM customer c JOIN orders o "
            "ON o.cust_id = c.id WHERE o.amount < 10 AND c.region = 'r1'"
        )
        assert serial.rows[0][0] > 0
        # Recompute by hand: amount<10 -> ids 0..9 mod 100; region r1 ->
        # cust ids = 1 mod 4.  Both joins filter multiplicatively.
        expected = sum(
            1 for i in range(5000)
            if i % 100 < 10 and (i % 500) % 4 == 1
        )
        assert serial.rows == [(expected,)]

    def test_explain_analyze_reports_the_serial_part(self, conn):
        conn.execute("SET OPTION max_query_tasks = 4")
        result = conn.execute(
            "SELECT c.region, COUNT(*) FROM customer c "
            "JOIN orders o ON o.cust_id = c.id GROUP BY c.region "
            "ORDER BY c.region"
        )
        assert result.notes.get("parallel_workers") == 4
        actual = {}
        for node in result.plan_result.plan.walk():
            if isinstance(node, (p.ProjectPlan, p.SortPlan,
                                 p.HashGroupByPlan)):
                actual[type(node)] = result.exec_stats.lookup(node).rows_out
        assert actual == {p.ProjectPlan: 4, p.SortPlan: 4, p.HashGroupByPlan: 4}
        rendered = result.explain(analyze=True)
        for line in rendered.splitlines():
            if line.lstrip().startswith(("Project", "Sort", "HashGroupBy")):
                assert "[actual rows=4 " in line, rendered

    def test_group_by_fallback_counts_a_spill(self):
        server = Server(ServerConfig(
            start_buffer_governor=False, initial_pool_pages=128,
            multiprogramming_level=16,
            governor=GovernorConfig(upper_bound_bytes=64 * MiB),
        ))
        connection = server.connect()
        connection.execute("CREATE TABLE a (id INT PRIMARY KEY, g INT)")
        connection.execute("CREATE TABLE b (id INT PRIMARY KEY, w INT)")
        server.load_table("a", [(i, i % 600) for i in range(1200)])
        server.load_table("b", [(i, i % 7) for i in range(1200)])
        connection.execute("SET OPTION max_query_tasks = 4")
        before = server.metrics.snapshot().get("exec.spill_events", 0)
        result = connection.execute(
            "SELECT a.g, COUNT(*) FROM a JOIN b ON b.id = a.id GROUP BY a.g"
        )
        assert result.notes.get("parallel_workers") == 4
        assert result.notes.get("group_by_fallback") == 1
        assert len(result.rows) == 600
        after = server.metrics.snapshot().get("exec.spill_events", 0)
        assert after == before + 1
