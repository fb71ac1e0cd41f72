"""Restart recovery: analysis/redo/undo over a real server."""

import pytest

from repro import Server, ServerConfig
from tests.conftest import assert_indexes_match_heap


@pytest.fixture
def server():
    return Server(ServerConfig(start_buffer_governor=False))


@pytest.fixture
def conn(server):
    connection = server.connect()
    yield connection
    if server.running:
        connection.close()


def _rows(conn, sql="SELECT id, v FROM t ORDER BY id"):
    return list(conn.execute(sql))


class TestRestart:
    def test_committed_survive_loser_aborted(self, server, conn):
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (3, 'lost')")
        conn.execute("UPDATE t SET v = 'mut' WHERE id = 1")
        server.txn_log.force()  # durable but uncommitted: a loser
        server.crash()
        report = server.restart()
        conn._txn_id = None  # the transaction died with the process
        assert report.losers_aborted == 1
        assert report.undo_records == 2
        assert _rows(conn) == [(1, "a"), (2, "b")]

    def test_unforced_loser_costs_no_undo(self, server, conn):
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1, 'a')")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (2, 'volatile')")
        server.crash()  # the loser's records never reached the device
        report = server.restart()
        conn._txn_id = None
        assert report.losers_aborted == 0
        assert report.undo_records == 0
        assert _rows(conn) == [(1, "a")]

    def test_runtime_rollback_replays_cleanly(self, server, conn):
        """CLR-lite: redo-all-history reproduces a rolled-back state."""
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        conn.execute("BEGIN")
        conn.execute("UPDATE t SET v = 'x' WHERE id = 1")
        conn.execute("DELETE FROM t WHERE id = 2")
        conn.execute("ROLLBACK")
        conn.execute("INSERT INTO t VALUES (3, 'c')")
        assert_indexes_match_heap(server)
        server.txn_log.force()
        server.crash()
        server.restart()
        assert _rows(conn) == [(1, "a"), (2, "b"), (3, "c")]
        assert_indexes_match_heap(server)

    def test_indexes_rebuilt_and_consistent(self, server, conn):
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("CREATE INDEX iv ON t (v)")
        for i in range(40):
            conn.execute(
                "INSERT INTO t VALUES (?, ?)", params=[i, "v%02d" % i]
            )
        conn.execute("DELETE FROM t WHERE id = 7")
        server.crash()
        report = server.restart()
        assert report.indexes_rebuilt == 2  # pk + iv
        table = server.catalog.table("t")
        for index in server.catalog.indexes_on("t"):
            entries = sorted(
                (tuple(key), row_id)
                for key, row_id in index.btree.range_scan()
            )
            heap = sorted(
                (
                    tuple(
                        row[table.column_index(c)]
                        for c in index.column_names
                    ),
                    row_id,
                )
                for row_id, row in table.storage.scan()
            )
            assert entries == heap
        rows = _rows(conn, "SELECT id FROM t WHERE v = 'v05'")
        assert rows == [(5,)]

    def test_report_and_metrics_published(self, server, conn):
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1, 'a')")
        server.crash()
        report = server.restart()
        assert report.log_records_scanned > 0
        assert report.tables_rebuilt == 1
        assert report.duration_us >= 0
        assert server.metrics.value("recovery.runs") == 1
        assert (
            server.metrics.value("recovery.last_records_scanned")
            == report.log_records_scanned
        )
        assert server.metrics.value("recovery.redo_records") == report.redo_records

    def test_recovery_checkpoint_bounds_the_next_restart(self, server, conn):
        """Recovery ends with a checkpoint: a second crash right after
        restart replays (almost) nothing."""
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        for i in range(30):
            conn.execute("INSERT INTO t VALUES (?, 'x')", params=[i])
        server.crash()
        first = server.restart()
        server.crash()
        second = server.restart()
        assert second.redo_applied == 0
        assert second.log_records_scanned < first.log_records_scanned
        assert _rows(conn, "SELECT COUNT(*) FROM t") == [(30,)]

    def test_loser_overlapping_checkpoint_forces_full_rescan(
        self, server, conn
    ):
        """A loser active at CKPT_BEGIN may have pre-checkpoint changes:
        analysis must widen the scan to the whole log to undo them."""
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1, 'a')")
        conn.execute("BEGIN")
        conn.execute("UPDATE t SET v = 'dirty' WHERE id = 1")
        server.checkpoint()  # loser is in the checkpoint's active set
        conn.execute("INSERT INTO t VALUES (2, 'also-lost')")
        server.txn_log.force()
        server.crash()
        report = server.restart()
        conn._txn_id = None
        assert report.full_rescan
        assert report.losers_aborted == 1
        assert _rows(conn) == [(1, "a")]

    def test_crash_mid_update_then_more_commits(self, server, conn):
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        server.simulate_crash_and_recover()
        conn.execute("UPDATE t SET v = 'z' WHERE id = 2")
        conn.execute("DELETE FROM t WHERE id = 3")
        server.simulate_crash_and_recover()
        assert _rows(conn) == [(1, "a"), (2, "z")]
