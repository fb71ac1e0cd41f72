"""Cluster-level log shipping: standby reads, lag, archive-and-restore.

These tests drive the :class:`ReplicatedCluster` without a workload
scheduler — DML runs on the primary connection, ``sync()`` pumps the
stream, and the replicas are inspected directly.
"""

from repro.engine.server import ServerConfig
from repro.faults.plan import FaultPlan, FaultRates
from repro.replication import ReplicatedCluster, ReplicationConfig
from tests.conftest import pages_fetched

SCHEMA = ["CREATE TABLE t (id INT PRIMARY KEY, v INT)"]
ROWS = [(i, i * 10) for i in range(10)]


def make_cluster(n_replicas=1, seed=3, sync_ack=True, **rates):
    plan = FaultPlan(seed, rates=FaultRates(**rates))
    config = ServerConfig(
        replication=ReplicationConfig(
            n_replicas=n_replicas, sync_ack=sync_ack
        ),
        fault_plan=plan,
        start_buffer_governor=False,
        start_checkpoint_governor=False,
    )
    cluster = ReplicatedCluster(config)
    cluster.execute_schema(SCHEMA)
    cluster.load_table("t", ROWS)
    return cluster


def replica_rows(replica, sql="SELECT id, v FROM t"):
    conn = replica.server.connect()
    try:
        return sorted(conn.execute(sql).rows)
    finally:
        conn.close()


class TestShipping:
    def test_dml_ships_and_replica_serves_snapshot_reads(self):
        cluster = make_cluster()
        conn = cluster.connect()
        conn.execute("UPDATE t SET v = 999 WHERE id = 3")
        conn.execute("INSERT INTO t VALUES (100, 1)")
        cluster.sync()
        replica = cluster.replicas[0]
        rows = dict(replica_rows(replica))
        assert rows[3] == 999
        assert rows[100] == 1
        assert replica.applied_lsn == replica.received_lsn
        assert replica.lag_lsn() == 0

    def test_standby_plans_no_index_and_matches_the_primary(self):
        """A standby's B-trees are never maintained by heap-only redo, so
        its plans use none: no index scan, no index-NL join and no
        hash-join alternate, which would probe the empty ``i_k``."""
        cluster = make_cluster()
        cluster.execute_schema([
            "CREATE TABLE o (id INT PRIMARY KEY, k INT)",
            "CREATE TABLE i (id INT PRIMARY KEY, k INT, v INT)",
            "CREATE INDEX i_k ON i (k)",
        ])
        cluster.load_table("o", [(n, n) for n in range(3)])
        cluster.load_table("i", [(n, n % 500, n) for n in range(4000)])
        conn = cluster.connect()
        conn.execute("UPDATE t SET v = 5 WHERE id = 5")
        conn.execute("DELETE FROM i WHERE id = 500")
        cluster.sync()
        replica = cluster.replicas[0]
        standby = replica.server.connect()
        for sql in (
            "SELECT o.id, i.v FROM o, i WHERE o.k = i.k",
            "SELECT i.id, i.v FROM i WHERE i.k IN (SELECT o.k FROM o)",
            "SELECT v FROM t WHERE id = 5",
            "SELECT v FROM i WHERE id = 77",
        ):
            primary = sorted(conn.execute(sql).rows)
            assert primary, sql
            result = standby.execute(sql)
            assert sorted(result.rows) == primary, sql
            assert "Index" not in result.explain(), sql
            assert "alt=" not in result.explain(), sql
        assert len(primary) == 1
        # Promotion rebuilds the trees and plans with them again.
        promoted = cluster.fail_over()
        assert promoted is replica and not replica.server.standby
        after = replica.server.connect().execute("SELECT v FROM t WHERE id = 5")
        assert after.rows == [(5,)] and "IndexScan" in after.explain()

    def test_latency_delays_visibility_not_durability(self):
        cluster = make_cluster(
            net_latency_min_us=50_000, net_latency_max_us=80_000
        )
        conn = cluster.connect()
        conn.execute("UPDATE t SET v = 7 WHERE id = 7")
        replica = cluster.replicas[0]
        # The commit acked, so the frames are durably mirrored...
        assert replica.received_lsn >= cluster.primary.txn_log.durable_lsn
        # ...but their apply arrival is still in flight.
        assert replica.lag_lsn() > 0
        assert not replica.has_deliverable()
        arrival = replica.next_arrival_us()
        cluster.clock.advance(arrival - cluster.clock.now)
        replica.apply_pending()
        assert replica.lag_lsn() == 0
        assert dict(replica_rows(replica))[7] == 7

    def test_lag_probes_are_registered(self):
        cluster = make_cluster()
        metrics = cluster.replicas[0].server.metrics
        for name in ("repl.lag_lsn", "repl.lag_us", "repl.apply_rate"):
            assert name in metrics.names()
            assert metrics.value(name) >= 0
        primary = cluster.primary.metrics
        assert primary.value("repl.frames_published") > 0
        assert primary.value("repl.acked_lsn") >= 0

    def test_sync_ack_gates_the_commit_through_a_partition(self):
        cluster = make_cluster()
        link = cluster.network.links[0]
        heal_at = link.partition(30_000)
        conn = cluster.connect()
        conn.execute("UPDATE t SET v = 1 WHERE id = 1")  # autocommit acks
        # The only path to an ack was waiting out the partition: the
        # simulated clock stands at (or past) the heal time and the
        # replica durably holds the commit.
        assert cluster.clock.now >= heal_at
        assert cluster.publisher.sync_stalls >= 1
        replica = cluster.replicas[0]
        assert replica.received_lsn >= cluster.primary.txn_log.durable_lsn


class TestArchiveAndRestore:
    """One replica, primary abandoned wholesale: log shipping degenerates
    to continuous archive-and-restore."""

    def test_promotion_recovers_every_committed_row(self):
        cluster = make_cluster(n_replicas=1)
        conn = cluster.connect()
        for i in range(20):
            conn.execute("INSERT INTO t VALUES (%d, %d)" % (200 + i, i))
        cluster.sync()
        promoted = cluster.fail_over()
        assert promoted.promoted
        rows = replica_rows(promoted)
        assert len(rows) == len(ROWS) + 20
        assert cluster.controller.failover_us >= 0

    def test_promotion_rebuilds_trustworthy_indexes(self):
        cluster = make_cluster(n_replicas=1)
        conn = cluster.connect()
        conn.execute("DELETE FROM t WHERE id = 4")
        cluster.sync()
        promoted = cluster.fail_over()
        # Restart recovery rebuilt the tree from committed state, and the
        # promoted node plans with it again: a point read walks the tree
        # to the one table page holding the row.
        assert promoted.server.standby is False
        conn = promoted.server.connect()
        sql = "SELECT v FROM t WHERE id = %d"
        rows, pages = pages_fetched(
            promoted.server, lambda: conn.execute(sql % 5).rows
        )
        assert rows == [(50,)]
        assert pages["table:t"] == 1 and pages["index:pk_t"] >= 1
        assert conn.execute(sql % 4).rows == []
        assert "IndexScan" in conn.execute(sql % 4).explain()

    def test_two_replicas_promote_the_max_applied(self):
        cluster = make_cluster(n_replicas=2)
        conn = cluster.connect()
        conn.execute("UPDATE t SET v = 42 WHERE id = 2")
        cluster.sync()
        # Starve replica-2 of the last frames: rewind its cursor target by
        # partitioning it, then ship one more commit.
        cluster.network.links[1].partition(10_000_000)
        conn.execute("UPDATE t SET v = 43 WHERE id = 2")
        best = max(cluster.replicas, key=lambda r: r.received_lsn)
        promoted = cluster.fail_over()
        assert promoted is best
        assert dict(replica_rows(promoted))[2] == 43
