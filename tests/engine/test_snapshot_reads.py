"""Snapshot read path: readers never queue behind writers.

Row versions are keyed by commit LSN.  A read-only statement opens a
snapshot at the last committed LSN and resolves every row against it:
pending (uncommitted) foreign writes and writes committed after the
snapshot supply their before-image; the reader's own pending writes are
visible (read-your-own-writes).  Readers take no row locks, so a hot
writer never blocks them.
"""

from repro import Server, ServerConfig
from repro.engine import WorkloadScheduler
from repro.engine.scheduler import DONE, YIELD_STATEMENT
from tests.conftest import pages_fetched


def make_server(**kwargs):
    kwargs.setdefault("start_buffer_governor", False)
    return Server(ServerConfig(**kwargs))


def seed_table(server, rows=10, v=0):
    connection = server.connect()
    connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    server.load_table("t", [(i, v) for i in range(rows)])
    return connection


def value(connection, row_id=0):
    return connection.execute(
        "SELECT v FROM t WHERE id = %d" % row_id
    ).rows[0][0]


class TestStatementSnapshots:
    def test_uncommitted_write_invisible_to_other_connections(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = 99 WHERE id = 0")
        assert value(reader) == 0          # snapshot: before-image
        assert value(writer) == 99         # read-your-own-writes
        writer.commit()
        assert value(reader) == 99

    def test_rollback_restores_visibility(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = 99 WHERE id = 0")
        writer.rollback()
        assert value(reader) == 0
        assert value(writer) == 0

    def test_uncommitted_delete_still_visible_to_others(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        writer.begin()
        writer.execute("DELETE FROM t WHERE id = 3")
        count = reader.execute("SELECT count(*) FROM t").rows[0][0]
        assert count == 10
        assert writer.execute("SELECT count(*) FROM t").rows[0][0] == 9
        writer.commit()
        assert reader.execute("SELECT count(*) FROM t").rows[0][0] == 9

    def test_uncommitted_insert_invisible_to_others(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        writer.begin()
        writer.execute("INSERT INTO t VALUES (100, 7)")
        assert reader.execute("SELECT count(*) FROM t").rows[0][0] == 10
        writer.commit()
        assert reader.execute("SELECT count(*) FROM t").rows[0][0] == 11

    def test_reader_does_not_block_and_takes_no_row_locks(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = 99 WHERE id = 0")
        before = server.lock_manager.conflicts
        # Fail-fast mode off-scheduler: a lock acquisition would raise.
        assert value(reader) == 0
        assert server.lock_manager.conflicts == before
        writer.commit()

    def test_index_scan_respects_the_snapshot(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        writer.begin()
        writer.execute("UPDATE t SET id = 999 WHERE id = 5")
        # The index already contains the 999 entry, but the versioned
        # row image does not satisfy the bounds at the snapshot.
        assert reader.execute("SELECT id FROM t WHERE id = 999").rows == []
        writer.rollback()

    def test_fail_fast_baseline_when_snapshots_disabled(self):
        server = make_server(snapshot_reads=False)
        writer = seed_table(server)
        reader = server.connect()
        writer.begin()
        writer.execute("UPDATE t SET v = 99 WHERE id = 0")
        # Without snapshots the reader sees the dirty heap row.
        assert value(reader) == 99
        writer.commit()

    def test_versions_purged_after_snapshots_close(self):
        server = make_server()
        writer = seed_table(server)
        writer.begin()
        writer.execute("UPDATE t SET v = 1 WHERE id = 0")
        writer.execute("UPDATE t SET v = 2 WHERE id = 1")
        assert server.versions.rows_versioned() > 0
        writer.commit()
        # No snapshot is open: commit purges every chain.
        assert server.versions.rows_versioned() == 0


class TestCursorSnapshots:
    def test_cursor_sees_its_opening_snapshot_throughout(self):
        server = make_server()
        writer = seed_table(server, rows=50)
        reader = server.connect()
        cursor = reader.open_cursor("SELECT id, v FROM t")
        first = cursor.fetchmany(5)
        writer.execute("UPDATE t SET v = 77 WHERE id = 40")  # autocommit
        rest = cursor.fetchall()
        cursor.close()
        rows = dict((r[0], r[1]) for r in first + rest)
        # The post-open commit is beyond the cursor's snapshot horizon.
        assert rows[40] == 0
        assert value(writer, 40) == 77

    def test_cursor_close_releases_the_snapshot(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        cursor = reader.open_cursor("SELECT id, v FROM t")
        cursor.fetchmany(2)
        writer.execute("UPDATE t SET v = 5 WHERE id = 9")
        assert server.versions.rows_versioned() > 0
        cursor.close()
        assert server.versions.rows_versioned() == 0


def transfer_statements(n=4):
    """Move 10 from row 0 to row 1, n times, always locking 0 first."""
    def source(connection):
        for __ in range(n):
            yield "BEGIN"
            yield "UPDATE t SET v = v - 10 WHERE id = 0"
            yield "UPDATE t SET v = v + 10 WHERE id = 1"
            yield "COMMIT"
    return source


def sum_reader(results, holder, n=6):
    def read_sums(conn):
        for __ in range(n):
            results.append(
                conn.execute("SELECT sum(v) FROM t").rows[0][0]
            )
            holder[0].yield_point(YIELD_STATEMENT, always=True)
    read_sums.__name__ = "read-sums"
    return [read_sums]


class TestSnapshotConsistencyUnderScheduler:
    def test_readers_only_ever_see_consistent_transfer_states(self):
        server = make_server()
        connection = seed_table(server, rows=2, v=100)
        scheduler = WorkloadScheduler(server, seed=9, switch_rate=0.8)
        holder = [scheduler]
        sums = []
        scheduler.add_session("w0", transfer_statements())
        scheduler.add_session("w1", transfer_statements())
        scheduler.add_session("r0", sum_reader(sums, holder))
        scheduler.add_session("r1", sum_reader(sums, holder))
        report = scheduler.run()
        assert report["statement_errors"] == 0
        assert all(s.status == DONE for s in scheduler.sessions)
        assert sums, "readers never ran"
        # Every snapshot saw either all of a transfer or none of it.
        assert set(sums) == {200}
        assert value(connection, 0) == 100 - 8 * 10
        assert value(connection, 1) == 100 + 8 * 10
        # All snapshots closed: nothing left versioned.
        assert server.versions.rows_versioned() == 0

    def test_scheduled_readers_never_park_on_locks(self):
        server = make_server()
        seed_table(server, rows=2, v=100)
        scheduler = WorkloadScheduler(server, seed=9, switch_rate=0.8)
        holder = [scheduler]
        sums = []
        scheduler.add_session("w0", transfer_statements())
        scheduler.add_session("r0", sum_reader(sums, holder))
        scheduler.run()
        waits = [
            line for line in scheduler.trace_lines().splitlines()
            if "wait:lock" in line and "r0" in line
        ]
        assert waits == []
        assert set(sums) == {200}


def point_read(server, connection, key):
    """A point SELECT's rows and the pages it fetched, per file."""
    return pages_fetched(server, lambda: connection.execute(
        "SELECT v FROM t WHERE id = %d" % key
    ).rows)


def quiet_point_read(server, connection, key):
    """:func:`point_read` with no writer in flight, after a first read
    has paid the optimizer's one-time page reads."""
    point_read(server, connection, key)
    return point_read(server, connection, key)


class TestIndexScanSnapshotFallback:
    """Index entries are mutated in place at DML time, so an entry removed
    after a snapshot is gone from the B-tree.  The index scan reads such
    rows off their version chains: the answer is the snapshot's, and no
    table page is read beyond the ones the tree leads to — a removed key
    costs no versioned heap scan."""

    def test_open_delete_stays_visible(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        quiet_rows, quiet_pages = quiet_point_read(server, reader, 5)
        writer.begin()
        writer.execute("DELETE FROM t WHERE id = 5")
        rows, pages = point_read(server, reader, 5)
        assert rows == quiet_rows == [(0,)]
        # The same tree walk, and the before-image comes from the chain:
        # the table page the quiet read fetched is not read at all.
        assert quiet_pages["table:t"] == 1
        assert pages == {"index:pk_t": quiet_pages["index:pk_t"]}
        writer.rollback()
        assert value(reader, 5) == 0

    def test_fresh_snapshot_after_commit_trusts_the_btree(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        writer.execute("DELETE FROM t WHERE id = 5")  # autocommit
        rows, pages = point_read(server, reader, 5)
        assert rows == []
        assert set(pages) == {"index:pk_t"}

    def test_cursor_spanning_a_committed_delete_sees_the_row(self):
        server = make_server(initial_pool_pages=64)
        writer = server.connect()
        writer.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
        server.load_table("big", [(i, i) for i in range(100)])
        reader = server.connect()
        # Narrow range: the optimizer picks the pk index scan.
        cursor = reader.open_cursor("SELECT id FROM big WHERE id >= 95")
        first = cursor.fetchmany(2)
        writer.execute("DELETE FROM big WHERE id = 99")  # autocommit
        rest = cursor.fetchall()
        cursor.close()
        assert [r[0] for r in first + rest] == [95, 96, 97, 98, 99]
        fresh = reader.execute("SELECT id FROM big WHERE id >= 95").rows
        assert [r[0] for r in fresh] == [95, 96, 97, 98]


class TestNarrowSnapshotFallback:
    """A removal concerns only the scans whose bounds held the removed
    key: every other index scan reads exactly the pages it reads with no
    writer in flight."""

    def test_unrelated_key_delete_keeps_the_index_path(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        quiet = quiet_point_read(server, reader, 7)
        writer.begin()
        writer.execute("DELETE FROM t WHERE id = 5")
        assert point_read(server, reader, 7) == quiet
        # ...while the removed key itself comes off its chain.
        rows, pages = point_read(server, reader, 5)
        assert rows == [(0,)] and "table:t" not in pages
        writer.rollback()

    def test_unrelated_range_keeps_the_index_path(self):
        server = make_server(initial_pool_pages=64)
        writer = server.connect()
        writer.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
        server.load_table("big", [(i, i) for i in range(100)])
        reader = server.connect()

        def read():
            return [
                r[0] for r in
                reader.execute("SELECT id FROM big WHERE id >= 95").rows
            ]

        pages_fetched(server, read)
        quiet = pages_fetched(server, read)
        writer.begin()
        writer.execute("DELETE FROM big WHERE id = 10")
        assert pages_fetched(server, read) == quiet
        assert quiet[0] == [95, 96, 97, 98, 99]
        writer.rollback()

    def test_insert_after_snapshot_never_falls_back(self):
        # An entry inserted after the snapshot leads to a row whose
        # visible image is "absent": the re-check drops it.
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        writer.begin()
        writer.execute("INSERT INTO t VALUES (100, 1)")
        rows, pages = point_read(server, reader, 100)
        assert rows == []
        assert pages["table:t"] == 1
        writer.commit()
        assert reader.execute("SELECT v FROM t WHERE id = 100").rows == [(1,)]

    def test_reorganized_tree_serves_snapshots(self):
        server = make_server()
        writer = seed_table(server)
        writer.execute("DELETE FROM t WHERE id = 5")  # autocommit
        writer.execute("REORGANIZE TABLE t")
        # The rebuilt tree reflects the committed rows exactly, and a
        # fresh snapshot reads it like any other.
        reader = server.connect()
        assert point_read(server, reader, 5)[0] == []
        rows, pages = point_read(server, reader, 6)
        assert rows == [(0,)]
        assert [n for f, n in pages.items() if f.startswith("table:")] == [1]


class TestFallbackCauses:
    """The situations the versioned heap scan used to be taken for — a
    key removed inside the scan's bounds, a tree rebuilt past an open
    snapshot, an UPDATE that keeps the key — each answered by the tree,
    re-checked, plus the version chains.  (A standby plans no index at
    all: ``tests/replication/test_cluster.py``.)"""

    def test_removed_key_in_bounds(self):
        server = make_server()
        writer = server.connect()
        writer.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
        server.load_table("big", [(i, 0) for i in range(200)])
        reader = server.connect()
        sql = "SELECT id, v FROM big WHERE id BETWEEN 40 AND 43"
        assert "IndexScan" in reader.execute(sql).explain()
        writer.begin()
        writer.execute("DELETE FROM big WHERE id = 41")
        writer.execute("UPDATE big SET id = 600 WHERE id = 42")  # out
        writer.execute("DELETE FROM big WHERE id = 40")
        writer.execute("UPDATE big SET id = 40, v = 3 WHERE id = 3")  # in
        assert sorted(reader.execute(sql).rows) == [
            (40, 0), (41, 0), (42, 0), (43, 0),
        ]
        assert sorted(writer.execute(sql).rows) == [(40, 3), (43, 0)]
        writer.rollback()

    def test_tree_rebuilt_past_an_open_snapshot(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        cursor = reader.open_cursor("SELECT v FROM t WHERE id = 5")
        writer.execute("INSERT INTO t VALUES (100, 1)")  # autocommit
        writer.execute("REORGANIZE TABLE t")
        # The cursor's snapshot predates the rebuilt tree.
        assert cursor.fetchall() == [(0,)]
        cursor.close()

    def test_open_non_key_update_takes_no_fallback(self):
        server = make_server()
        writer = seed_table(server)
        reader = server.connect()
        quiet = quiet_point_read(server, reader, 5)
        writer.begin()
        writer.execute("UPDATE t SET v = 99 WHERE id = 5")
        # The pk entry of 5 was never removed: the tree leads to the row
        # and its version chain supplies the before-image.
        assert point_read(server, reader, 5) == quiet
        writer.commit()
        assert reader.execute("SELECT v FROM t WHERE id = 5").rows == [(99,)]
