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
        """The group-by fallback above a parallel core counts its spill,
        beside the spills of the governed join below it: as many as the
        serial plan takes."""
        spills = []
        for tasks in (1, 4):
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
            connection.execute("SET OPTION max_query_tasks = %d" % tasks)
            before = server.metrics.snapshot().get("exec.spill_events", 0)
            result = connection.execute(
                "SELECT a.g, COUNT(*) FROM a JOIN b ON b.id = a.id "
                "GROUP BY a.g"
            )
            assert result.notes.get("parallel_workers") == (
                4 if tasks > 1 else None
            )
            assert result.notes.get("group_by_fallback") == 1
            assert len(result.rows) == 600
            plan = result.plan_result.plan
            group_by = next(
                node for node in plan.walk()
                if isinstance(node, p.HashGroupByPlan)
            )
            assert result.exec_stats.lookup(group_by).spill_events == 1
            after = server.metrics.snapshot().get("exec.spill_events", 0)
            assert after == before + sum(
                result.exec_stats.lookup(node).spill_events
                for node in plan.walk()
            )
            spills.append(after - before)
        assert spills[0] == spills[1] > 1


def null_key_tables(tasks):
    """``a`` and ``b``, 20 rows each, some ``k`` NULL: 80 pairs join on
    equal non-NULL keys, and 4 x 5 more would pair NULL with NULL."""
    server = Server(ServerConfig(start_buffer_governor=False))
    connection = server.connect()
    connection.execute("CREATE TABLE a (id INT PRIMARY KEY, k INT)")
    connection.execute("CREATE TABLE b (id INT PRIMARY KEY, k INT)")
    server.load_table(
        "a", [(i, None if i % 5 == 0 else i % 2) for i in range(20)]
    )
    server.load_table(
        "b", [(i, None if i % 4 == 0 else i % 3) for i in range(20)]
    )
    connection.execute("SET OPTION max_query_tasks = %d" % tasks)
    return connection


def test_null_keys_never_join_in_parallel():
    counts = []
    for tasks in (1, 4):
        result = null_key_tables(tasks).execute(
            "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k"
        )
        assert result.notes.get("parallel_workers") == (
            4 if tasks > 1 else None
        )
        counts.append(result.rows)
    assert counts == [[(80,)], [(80,)]]


def pressured_join(scale, tasks):
    """The EXPLAIN ANALYZE fixture (a ~2-page per-task soft limit) at
    ``scale`` x its rows: ``(rows, spill events, soft-limit hits,
    simulated µs)`` of its three-way join."""
    server = Server(ServerConfig(
        initial_pool_pages=128, multiprogramming_level=64,
        start_buffer_governor=False,
    ))
    connection = server.connect()
    connection.execute("CREATE TABLE r (id INT, b INT, PRIMARY KEY (id))")
    connection.execute(
        "CREATE TABLE s (id INT, b INT, c INT, PRIMARY KEY (id))"
    )
    connection.execute(
        "CREATE TABLE t (id INT, c INT, d INT, PRIMARY KEY (id))"
    )
    server.load_table("r", [(i, i % 100) for i in range(300 * scale)])
    server.load_table(
        "s", [(i, i % 100, i % 50) for i in range(200 * scale)]
    )
    server.load_table("t", [(i, i % 50, i) for i in range(100 * scale)])
    connection.execute("SET OPTION max_query_tasks = %d" % tasks)
    before = server.metrics.snapshot()
    start = server.clock.now
    result = connection.execute(
        "SELECT r.id, s.id, t.d FROM r, s, t "
        "WHERE r.b = s.b AND s.c = t.c"
    )
    elapsed = server.clock.now - start
    after = server.metrics.snapshot()
    assert result.notes.get("parallel_workers") == (
        tasks if tasks > 1 else None
    )

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    return (
        len(result.rows), delta("exec.spill_events"),
        delta("memgov.soft_limit_hits"), elapsed,
    )


@pytest.mark.parametrize("scale", [1, 10])
def test_parallel_core_is_governed_like_the_serial_plan(scale):
    """Under the soft limit the serial plan spills at, the parallel
    core's hash tables are accounted and spill the same; and its CPU
    shares 4 workers, so it is no more than 4x faster."""
    rows, spills, hits, serial_us = pressured_join(scale, 1)
    assert spills > 0 and hits > 0
    parallel = pressured_join(scale, 4)
    assert parallel[:3] == (rows, spills, hits)
    assert serial_us / 4 <= parallel[3] < serial_us
