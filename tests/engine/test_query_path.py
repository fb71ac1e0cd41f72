"""One way to run a query block: SELECT, CALL, cursors, INSERT…SELECT
sources and recursive-union arms share one bind → charged optimize →
open path, and one instrumented operator builder."""

import repro.engine.server as server_module
from repro import Server, ServerConfig
from repro.buffer import GovernorConfig
from repro.common import MiB
from repro.optimizer.costmodel import OPTIMIZER_NODE_US
from repro.optimizer.optimizer import Optimizer

JOIN_GROUP_SQL = (
    "SELECT c.region, COUNT(*) FROM customer c "
    "JOIN orders o ON o.cust_id = c.id GROUP BY c.region"
)

#: (statement, columns of an INSERT…SELECT target for its output)
STATEMENTS = [
    (
        JOIN_GROUP_SQL + " ORDER BY c.region",
        "region VARCHAR(10), n INT",
    ),
    (
        "SELECT o.id, c.region FROM customer c JOIN orders o "
        "ON o.cust_id = c.id WHERE o.amount < 5 ORDER BY o.id",
        "id INT, region VARCHAR(10)",
    ),
    (
        "SELECT c.region, SUM(o.amount) FROM customer c "
        "JOIN orders o ON o.cust_id = c.id "
        "GROUP BY c.region HAVING COUNT(*) > 100 ORDER BY c.region",
        "region VARCHAR(10), total INT",
    ),
    (
        "SELECT DISTINCT o.amount FROM orders o WHERE o.amount > 90 "
        "ORDER BY o.amount",
        "amount INT",
    ),
]


def join_server():
    server = Server(ServerConfig(start_buffer_governor=False,
                                 initial_pool_pages=2048))
    conn = server.connect()
    conn.execute(
        "CREATE TABLE customer (id INT PRIMARY KEY, region VARCHAR(10))"
    )
    conn.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, cust_id INT, amount INT)"
    )
    server.load_table("customer", [(i, "r%d" % (i % 4)) for i in range(500)])
    server.load_table(
        "orders", [(i, i % 500, i % 100) for i in range(3000)]
    )
    return conn


def small_memory_server():
    """Soft limit of 8 pages: a 600-group GROUP BY falls back."""
    server = Server(ServerConfig(
        start_buffer_governor=False, initial_pool_pages=128,
        multiprogramming_level=16,
        governor=GovernorConfig(upper_bound_bytes=64 * MiB),
    ))
    conn = server.connect()
    conn.execute("CREATE TABLE t (k INT, v DOUBLE)")
    server.load_table("t", [(i % 600, float(i)) for i in range(3000)])
    return conn


def spill_events(conn):
    return conn.server.metrics.snapshot().get("exec.spill_events", 0)


def test_every_path_returns_the_same_rows():
    conn = join_server()
    expected = [conn.execute(sql).rows for sql, __ in STATEMENTS]
    assert all(expected)
    for tasks in (1, 4):
        conn.execute("SET OPTION max_query_tasks = %d" % tasks)
        for number, ((sql, columns), rows) in enumerate(
            zip(STATEMENTS, expected)
        ):
            name = "q%d_%d" % (number, tasks)
            assert conn.execute(sql).rows == rows
            cursor = conn.open_cursor(sql)
            assert cursor.fetchall() == rows
            cursor.close()
            conn.execute("CREATE PROCEDURE %s() AS %s" % (name, sql))
            assert conn.execute("CALL %s()" % name).rows == rows
            conn.execute("CREATE TABLE %s (%s)" % (name, columns))
            inserted = conn.execute("INSERT INTO %s %s" % (name, sql))
            assert inserted.rowcount == len(rows)
            read_back = conn.execute("SELECT * FROM %s" % name).rows
            assert sorted(read_back) == sorted(rows)


def test_cursors_and_insert_select_take_the_parallel_path():
    conn = join_server()
    conn.execute("SET OPTION max_query_tasks = 4")
    conn.execute("CREATE TABLE g (region VARCHAR(10), n INT)")

    def parallel_queries():
        return conn.server.metrics.snapshot().get("exec.parallel_queries", 0)

    cursor = conn.open_cursor(JOIN_GROUP_SQL)
    cursor.fetchall()
    cursor.close()
    assert parallel_queries() == 1
    conn.execute("INSERT INTO g " + JOIN_GROUP_SQL)
    assert parallel_queries() == 2


def test_cursor_costs_what_execute_costs():
    elapsed = []
    for use_cursor in (False, True):
        conn = join_server()
        clock = conn.server.clock
        start = clock.now
        if use_cursor:
            cursor = conn.open_cursor(JOIN_GROUP_SQL)
            rows = cursor.fetchall()
            cursor.close()
        else:
            rows = conn.execute(JOIN_GROUP_SQL).rows
        assert len(rows) == 4
        elapsed.append(clock.now - start)
    assert elapsed[0] == elapsed[1]


def test_insert_select_counts_its_group_by_fallback():
    conn = small_memory_server()
    group_sql = "SELECT k, COUNT(*) FROM t GROUP BY k"
    before = spill_events(conn)
    result = conn.execute(group_sql)
    assert result.notes.get("group_by_fallback") == 1
    assert spill_events(conn) == before + 1
    conn.execute("CREATE TABLE agg (k INT, n INT)")
    before = spill_events(conn)
    conn.execute("INSERT INTO agg " + group_sql)
    assert spill_events(conn) == before + 1
    assert sorted(conn.execute("SELECT * FROM agg").rows) == sorted(
        result.rows
    )


def test_insert_select_source_pays_its_optimization(monkeypatch):
    """Zeroing the per-node charge makes the statement faster by exactly
    the source's ``nodes_visited × OPTIMIZER_NODE_US``."""
    elapsed = []
    for node_us in (OPTIMIZER_NODE_US, 0):
        monkeypatch.setattr(server_module, "OPTIMIZER_NODE_US", node_us)
        conn = join_server()
        conn.execute("CREATE TABLE g (region VARCHAR(10), n INT)")
        metrics = conn.server.metrics
        nodes = metrics.snapshot().get("optimizer.nodes_visited", 0)
        start = conn.server.clock.now
        conn.execute("INSERT INTO g " + JOIN_GROUP_SQL)
        elapsed.append(conn.server.clock.now - start)
        nodes = metrics.snapshot().get("optimizer.nodes_visited", 0) - nodes
    assert nodes > 0
    assert elapsed[0] - elapsed[1] == int(nodes * OPTIMIZER_NODE_US)


RECURSIVE_SQL = (
    "WITH RECURSIVE seq(n) AS ("
    "SELECT 1 UNION ALL SELECT n + 1 FROM seq WHERE n < 8"
    ") SELECT COUNT(*) FROM seq"
)


def test_each_recursive_arm_optimization_is_charged(monkeypatch):
    """With the per-node charge zeroed the statement is faster by exactly
    every optimization's ``nodes_visited × OPTIMIZER_NODE_US``: the
    outer block's, and the arm's on every iteration."""
    visited = []
    optimize_select = Optimizer.optimize_select

    def recording(self, block, quota=None):
        result = optimize_select(self, block, quota)
        if result.stats is not None:
            visited.append(result.stats.nodes_visited)
        return result

    monkeypatch.setattr(Optimizer, "optimize_select", recording)
    elapsed = []
    for node_us in (OPTIMIZER_NODE_US, 0):
        monkeypatch.setattr(server_module, "OPTIMIZER_NODE_US", node_us)
        visited.clear()
        server = Server(ServerConfig(start_buffer_governor=False))
        conn = server.connect()
        start = server.clock.now
        result = conn.execute(RECURSIVE_SQL)
        elapsed.append(server.clock.now - start)
        assert result.rows == [(8,)]
    iterations = result.notes["recursive_iterations"]
    # The outer block plus one arm per iteration (the FROM-less base
    # block visits no search node).
    assert len(visited) == 1 + iterations
    charged = sum(int(nodes * OPTIMIZER_NODE_US) for nodes in visited)
    assert charged > int(visited[0] * OPTIMIZER_NODE_US)
    assert elapsed[0] - elapsed[1] == charged
