"""Engine-level tests for the adaptive execution behaviours (Section 4.3)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import Server, ServerConfig
from repro.buffer import GovernorConfig
from repro.common import MiB
from repro.exec.operators import HashJoinOp


def make_server(pool_pages=2048, mpl=4):
    config = ServerConfig(
        start_buffer_governor=False,
        initial_pool_pages=pool_pages,
        multiprogramming_level=mpl,
        governor=GovernorConfig(upper_bound_bytes=64 * MiB),
    )
    return Server(config)


def load_join_tables(conn, n_orders=3000, n_customers=200):
    conn.execute(
        "CREATE TABLE customer (id INT PRIMARY KEY, region VARCHAR(10))"
    )
    conn.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, cust_id INT, amount DOUBLE)"
    )
    conn.server.load_table(
        "customer",
        [(i, "region%d" % (i % 5)) for i in range(n_customers)],
    )
    conn.server.load_table(
        "orders",
        [(i, i % n_customers, float(i % 97)) for i in range(n_orders)],
    )


class TestHashJoinAdaptivity:
    def test_alternate_switch_on_small_build(self):
        """Optimizer expects many build rows (density of a parameterized
        predicate over a 3-value column); reality delivers one; the hash
        join switches to its index-NL alternate and never scans the probe
        side."""
        server = make_server()
        conn = server.connect()
        conn.execute(
            "CREATE TABLE customer (id INT PRIMARY KEY, region VARCHAR(10))"
        )
        conn.execute("CREATE TABLE orders (id INT, cust_id INT, amount INT)")
        server.load_table(
            "customer", [(i, "region%d" % (i % 5)) for i in range(20000)]
        )
        rows = [(i, i % 20000, i % 3) for i in range(50000)]
        rows.append((50001, 7, 999))  # the needle: one row with amount 999
        server.load_table("orders", rows)
        result = conn.execute(
            "SELECT c.region FROM customer c JOIN orders o "
            "ON o.cust_id = c.id WHERE o.amount = ?",
            params=[999],
        )
        assert result.notes.get("hash_join_switched") == 1
        assert result.rows == [("region2",)]  # customer 7 -> region 7 % 5
        # The plan really was a hash join with the alternate attached.
        assert "alt=indexNL" in result.explain()

    def test_no_switch_when_estimate_was_right(self):
        server = make_server()
        conn = server.connect()
        conn.execute(
            "CREATE TABLE customer (id INT PRIMARY KEY, region VARCHAR(10))"
        )
        conn.execute("CREATE TABLE orders (id INT, cust_id INT, amount INT)")
        server.load_table(
            "customer", [(i, "region%d" % (i % 5)) for i in range(20000)]
        )
        server.load_table(
            "orders", [(i, i % 20000, i % 3) for i in range(50000)]
        )
        result = conn.execute(
            "SELECT COUNT(*) FROM customer c JOIN orders o "
            "ON o.cust_id = c.id WHERE o.amount = ?",
            params=[1],
        )
        assert "hash_join_switched" not in result.notes
        assert result.rows[0][0] > 10_000

    def test_partition_eviction_under_memory_pressure(self):
        """A build input far beyond the soft limit evicts partitions but
        still joins correctly."""
        server = make_server(pool_pages=256, mpl=8)  # soft limit: 32 pages
        conn = server.connect()
        load_join_tables(conn, n_orders=8000, n_customers=50)
        result = conn.execute(
            "SELECT COUNT(*) FROM customer c JOIN orders o ON o.cust_id = c.id"
        )
        assert result.rows == [(8000,)]

    def test_spilled_join_charges_temp_io(self):
        server = make_server(pool_pages=256, mpl=8)
        conn = server.connect()
        load_join_tables(conn, n_orders=8000, n_customers=50)
        writes_before = server.disk.writes
        conn.execute(
            "SELECT COUNT(*) FROM customer c JOIN orders o ON o.cust_id = c.id"
        )
        assert server.disk.writes > writes_before


    def test_eviction_picks_the_partition_with_the_most_rows(self, monkeypatch):
        """The victim comes from per-partition row counts kept at insert
        and eviction, and is the one a walk over every build row picks:
        the sequence of evicted partitions and the statement's simulated
        time are those of the row-counting scan this replaced."""
        evicted = []
        evict = HashJoinOp._evict_partition

        def recording_evict(operator, index):
            rows = [
                sum(len(matches) for matches in partition.values())
                if partition else 0
                for partition in operator._partitions
            ]
            assert rows == operator._partition_rows
            assert rows[index] == max(rows) and rows.index(max(rows)) == index
            evicted.append(index)
            return evict(operator, index)

        monkeypatch.setattr(HashJoinOp, "_evict_partition", recording_evict)
        server = make_server(pool_pages=256, mpl=8)  # soft limit: 32 pages
        conn = server.connect()
        conn.execute("CREATE TABLE a (id INT PRIMARY KEY, k INT, w INT)")
        conn.execute("CREATE TABLE b (id INT PRIMARY KEY, k INT, amount INT)")
        server.load_table("a", [(i, i % 700, i) for i in range(6000)])
        server.load_table("b", [(i, i % 900, i % 97) for i in range(6000)])
        started = server.clock.now
        result = conn.execute(
            "SELECT COUNT(*), SUM(b.amount) FROM a JOIN b ON a.k = b.k"
        )
        assert result.rows == [(41200, 1974278)]
        assert evicted == [0, 2, 7, 4, 5, 3]
        # The aggregate above the join keeps its one group in memory (the
        # build's reclaim once pushed it into its temp table: 2,410,589).
        assert "group_by_fallback" not in result.notes
        if server.fault_plan is None:  # injected I/O retries take time
            assert server.clock.now - started == 1_999_985

    def test_partition_placement_ignores_the_hash_salt(self):
        """Which partition a VARCHAR (or NULL) key lands in — so which
        partitions spill, and the statement's simulated time — is the
        same in every process: ``hash()`` of a ``str`` is salted per
        process and ``hash(None)`` is an address before Python 3.12."""
        script = (
            "from repro import Server, ServerConfig\n"
            "server = Server(ServerConfig(initial_pool_pages=64, "
            "multiprogramming_level=8, start_buffer_governor=False))\n"
            "conn = server.connect()\n"
            "conn.execute('CREATE TABLE a (id INT PRIMARY KEY, "
            "name VARCHAR(12))')\n"
            "conn.execute('CREATE TABLE b (id INT PRIMARY KEY, "
            "name VARCHAR(12), amount INT)')\n"
            "name = lambda i, m: None if i % 11 == 0 else 'n%05d' % (i % m)\n"
            "server.load_table('a', [(i, name(i, 170)) "
            "for i in range(1500)])\n"
            "server.load_table('b', [(i, name(i, 230), i % 97) "
            "for i in range(1500)])\n"
            "result = conn.execute('SELECT COUNT(*), SUM(b.amount) FROM a "
            "LEFT JOIN b ON a.name = b.name')\n"
            "spills = server.metrics.snapshot()['exec.spill_events']\n"
            "print(result.rows, spills > 0, server.clock.now, "
            "server.disk.writes)\n"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for salt in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=salt, PYTHONPATH=str(src))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            ).stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("[(8447, 390356)] True ")


class TestGroupByFallback:
    def test_low_memory_fallback_correctness(self):
        """Millions of groups under a tiny quota: the indexed-temp-table
        fallback must produce exactly the hash-aggregation answer."""
        big = make_server(pool_pages=4096, mpl=2)
        small = make_server(pool_pages=128, mpl=16)  # soft limit: 8 pages
        answers = []
        for server in (big, small):
            conn = server.connect()
            conn.execute("CREATE TABLE t (k INT, v DOUBLE)")
            server.load_table(
                "t", [(i % 600, float(i)) for i in range(3000)]
            )
            result = conn.execute(
                "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k ORDER BY k"
            )
            answers.append(result.rows)
            if server is small:
                assert result.notes.get("group_by_fallback", 0) >= 1
        assert answers[0] == answers[1]

    def test_no_fallback_with_ample_memory(self):
        server = make_server(pool_pages=4096, mpl=2)
        conn = server.connect()
        conn.execute("CREATE TABLE t (k INT, v DOUBLE)")
        server.load_table("t", [(i % 10, float(i)) for i in range(500)])
        result = conn.execute("SELECT k, COUNT(*) FROM t GROUP BY k")
        assert "group_by_fallback" not in result.notes


class TestSortSpill:
    def test_external_sort_matches_in_memory(self):
        big = make_server(pool_pages=4096, mpl=2)
        small = make_server(pool_pages=128, mpl=16)
        answers = []
        for server in (big, small):
            conn = server.connect()
            conn.execute("CREATE TABLE t (k INT, v VARCHAR(10))")
            server.load_table(
                "t", [((i * 7919) % 5000, "v%d" % i) for i in range(5000)]
            )
            result = conn.execute("SELECT k FROM t ORDER BY k")
            answers.append(result.rows)
        assert answers[0] == answers[1]
        assert answers[0] == sorted(answers[0])

    def test_equal_keys_across_spilled_runs(self):
        """Keys tie across spilled runs: the merge orders them by run,
        exactly as the in-memory sort orders equal keys."""
        answers = []
        for server in (make_server(pool_pages=2048, mpl=2),
                       make_server(pool_pages=128, mpl=16)):
            conn = server.connect()
            conn.execute("CREATE TABLE t (k INT, v INT)")
            server.load_table("t", [((i * 7919) % 200, i) for i in range(2000)])
            result = conn.execute("SELECT k, v FROM t ORDER BY k")
            answers.append(result.rows)
            sort = result.exec_stats.lookup(result.plan_result.plan.child)
            spilled_runs = sort.spill_events
        assert spilled_runs >= 2
        assert answers[0] == answers[1]


class TestMemoryGovernorIntegration:
    def test_concurrent_tasks_shrink_hard_limit(self):
        server = make_server()
        governor = server.memory_governor
        t1 = governor.begin_task()
        limit_alone = t1.hard_limit_pages
        t2 = governor.begin_task()
        assert t1.hard_limit_pages < limit_alone
        governor.end_task(t1)
        governor.end_task(t2)

    def test_statement_killed_past_hard_limit(self):
        """A statement whose working set exceeds the hard limit is
        terminated with an error (paper: hard limit semantics)."""
        from repro.common.errors import MemoryQuotaExceededError

        server = make_server(pool_pages=64, mpl=1)
        server.memory_governor.max_pool_pages = 8  # pathological ceiling
        conn = server.connect()
        conn.execute("CREATE TABLE t (k INT, v VARCHAR(10))")
        server.load_table("t", [(i, "v%d" % i) for i in range(5000)])
        with pytest.raises(MemoryQuotaExceededError):
            conn.execute("SELECT DISTINCT k FROM t ORDER BY k")


class TestRecursiveUnionAdaptivity:
    def test_arm_replanned_each_iteration(self):
        server = make_server()
        conn = server.connect()
        result = conn.execute(
            "WITH RECURSIVE seq(n) AS ("
            "SELECT 1 UNION ALL SELECT n + 1 FROM seq WHERE n < 8"
            ") SELECT COUNT(*) FROM seq"
        )
        assert result.rows == [(8,)]
        assert result.notes["recursive_iterations"] == 8
