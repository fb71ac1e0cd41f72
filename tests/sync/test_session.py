"""Tests for two-way synchronization between remote and consolidated
databases (the disconnected-operation scenario of the paper's intro)."""

import pytest

from repro import Server, ServerConfig
from repro.common.errors import ExecutionError, ReproError
from repro.sync import ConflictPolicy, SyncSession
from tests.conftest import assert_indexes_match_heap

DDL = "CREATE TABLE orders (id INT PRIMARY KEY, status VARCHAR(10), qty INT)"


def make_pair():
    remote = Server(ServerConfig(start_buffer_governor=False))
    consolidated = Server(ServerConfig(start_buffer_governor=False))
    remote_conn = remote.connect()
    consolidated_conn = consolidated.connect()
    remote_conn.execute(DDL)
    consolidated_conn.execute(DDL)
    session = SyncSession(remote, consolidated, ["orders"])
    return remote_conn, consolidated_conn, session


def rows_of(conn):
    return sorted(conn.execute("SELECT * FROM orders").rows)


class TestUploadDownload:
    def test_remote_inserts_upload(self):
        remote, consolidated, session = make_pair()
        remote.execute("INSERT INTO orders VALUES (1, 'new', 5), (2, 'new', 3)")
        stats = session.synchronize()
        assert stats.uploaded == 2
        assert rows_of(consolidated) == [(1, "new", 5), (2, "new", 3)]

    def test_consolidated_changes_download(self):
        remote, consolidated, session = make_pair()
        consolidated.execute("INSERT INTO orders VALUES (9, 'hq', 1)")
        stats = session.synchronize()
        assert stats.downloaded == 1
        assert rows_of(remote) == [(9, "hq", 1)]

    def test_two_way_in_one_session(self):
        remote, consolidated, session = make_pair()
        remote.execute("INSERT INTO orders VALUES (1, 'field', 2)")
        consolidated.execute("INSERT INTO orders VALUES (2, 'hq', 4)")
        session.synchronize()
        expected = [(1, "field", 2), (2, "hq", 4)]
        assert rows_of(remote) == expected
        assert rows_of(consolidated) == expected

    def test_updates_and_deletes_propagate(self):
        remote, consolidated, session = make_pair()
        remote.execute(
            "INSERT INTO orders VALUES (1, 'new', 5), (2, 'new', 3), "
            "(3, 'new', 9)"
        )
        session.synchronize()
        remote.execute("UPDATE orders SET status = 'done' WHERE id = 1")
        remote.execute("DELETE FROM orders WHERE id = 2")
        session.synchronize()
        assert rows_of(consolidated) == [(1, "done", 5), (3, "new", 9)]

    def test_no_echo_on_repeated_sync(self):
        remote, consolidated, session = make_pair()
        remote.execute("INSERT INTO orders VALUES (1, 'x', 1)")
        first = session.synchronize()
        second = session.synchronize()
        third = session.synchronize()
        assert first.uploaded == 1
        assert (second.uploaded, second.downloaded) == (0, 0)
        assert (third.uploaded, third.downloaded) == (0, 0)
        assert rows_of(remote) == rows_of(consolidated) == [(1, "x", 1)]

    def test_incremental_sync_only_ships_new_changes(self):
        remote, consolidated, session = make_pair()
        remote.execute("INSERT INTO orders VALUES (1, 'a', 1)")
        session.synchronize()
        remote.execute("INSERT INTO orders VALUES (2, 'b', 2)")
        stats = session.synchronize()
        assert stats.uploaded == 1

    def test_uncommitted_changes_not_shipped(self):
        remote, consolidated, session = make_pair()
        remote.execute("BEGIN")
        remote.execute("INSERT INTO orders VALUES (1, 'open', 1)")
        stats = session.synchronize()
        assert stats.uploaded == 0
        assert rows_of(consolidated) == []
        remote.execute("COMMIT")
        assert session.synchronize().uploaded == 1

    def test_non_subscribed_tables_ignored(self):
        remote, consolidated, session = make_pair()
        remote.execute("CREATE TABLE private (id INT PRIMARY KEY)")
        remote.execute("INSERT INTO private VALUES (1)")
        stats = session.synchronize()
        assert stats.uploaded == 0


class TestConflicts:
    def seeded_pair(self, policy):
        remote = Server(ServerConfig(start_buffer_governor=False))
        consolidated = Server(ServerConfig(start_buffer_governor=False))
        remote_conn = remote.connect()
        consolidated_conn = consolidated.connect()
        remote_conn.execute(DDL)
        consolidated_conn.execute(DDL)
        session = SyncSession(
            remote, consolidated, ["orders"], conflict_policy=policy
        )
        remote_conn.execute("INSERT INTO orders VALUES (1, 'new', 5)")
        session.synchronize()
        return remote_conn, consolidated_conn, session

    def test_update_update_consolidated_wins(self):
        remote, consolidated, session = self.seeded_pair(
            ConflictPolicy.CONSOLIDATED_WINS
        )
        remote.execute("UPDATE orders SET status = 'field' WHERE id = 1")
        consolidated.execute("UPDATE orders SET status = 'hq' WHERE id = 1")
        stats = session.synchronize()
        assert len(stats.conflicts) == 1
        assert rows_of(consolidated) == [(1, "hq", 5)]
        assert rows_of(remote) == [(1, "hq", 5)]  # hq value flowed down

    def test_update_update_remote_wins(self):
        remote, consolidated, session = self.seeded_pair(
            ConflictPolicy.REMOTE_WINS
        )
        remote.execute("UPDATE orders SET status = 'field' WHERE id = 1")
        consolidated.execute("UPDATE orders SET status = 'hq' WHERE id = 1")
        stats = session.synchronize()
        assert len(stats.conflicts) >= 1
        assert rows_of(consolidated) == [(1, "field", 5)]

    def test_insert_insert_conflict(self):
        remote = Server(ServerConfig(start_buffer_governor=False))
        consolidated = Server(ServerConfig(start_buffer_governor=False))
        remote_conn = remote.connect()
        consolidated_conn = consolidated.connect()
        remote_conn.execute(DDL)
        consolidated_conn.execute(DDL)
        session = SyncSession(remote, consolidated, ["orders"])
        remote_conn.execute("INSERT INTO orders VALUES (1, 'field', 1)")
        consolidated_conn.execute("INSERT INTO orders VALUES (1, 'hq', 9)")
        stats = session.synchronize()
        assert len(stats.conflicts) >= 1
        # consolidated-wins: both sides settle on the hq row.
        assert rows_of(remote_conn) == [(1, "hq", 9)]
        assert rows_of(consolidated_conn) == [(1, "hq", 9)]

    def test_update_delete_conflict(self):
        remote, consolidated, session = self.seeded_pair(
            ConflictPolicy.CONSOLIDATED_WINS
        )
        remote.execute("UPDATE orders SET qty = 99 WHERE id = 1")
        consolidated.execute("DELETE FROM orders WHERE id = 1")
        stats = session.synchronize()
        assert len(stats.conflicts) == 1
        # Consolidated wins: the delete stands everywhere.
        assert rows_of(consolidated) == []
        assert rows_of(remote) == []

    def test_non_conflicting_updates_both_apply(self):
        remote, consolidated, session = self.seeded_pair(
            ConflictPolicy.CONSOLIDATED_WINS
        )
        remote.execute("INSERT INTO orders VALUES (2, 'r', 1)")
        consolidated.execute("INSERT INTO orders VALUES (3, 'c', 2)")
        stats = session.synchronize()
        assert stats.conflicts == []
        expected = [(1, "new", 5), (2, "r", 1), (3, "c", 2)]
        assert rows_of(remote) == expected
        assert rows_of(consolidated) == expected


class TestValidation:
    def test_requires_primary_key(self):
        remote = Server(ServerConfig(start_buffer_governor=False))
        consolidated = Server(ServerConfig(start_buffer_governor=False))
        remote.connect().execute("CREATE TABLE nopk (a INT)")
        consolidated.connect().execute("CREATE TABLE nopk (a INT)")
        with pytest.raises(ReproError):
            SyncSession(remote, consolidated, ["nopk"])

    def test_sync_survives_crash_recovery(self):
        """Sync-applied changes are as durable as any other write."""
        remote, consolidated, session = make_pair()
        remote.execute("INSERT INTO orders VALUES (1, 'x', 1)")
        session.synchronize()
        consolidated_server = consolidated.server
        consolidated_server.simulate_crash_and_recover()
        assert rows_of(consolidated) == [(1, "x", 1)]
        assert_indexes_match_heap(consolidated_server)

    def test_rejected_upload_leaves_target_unchanged(self):
        """An upload that violates a secondary unique index fails before
        any mutation: no unlogged row may sit in the consolidated heap
        until the next restart drops it."""
        remote, consolidated, session = make_pair()
        for conn in (remote, consolidated):
            conn.execute("CREATE UNIQUE INDEX orders_qty ON orders (qty)")
        consolidated.execute("INSERT INTO orders VALUES (1, 'hq', 7)")
        remote.execute("INSERT INTO orders VALUES (2, 'field', 7)")
        with pytest.raises(ExecutionError):
            session.synchronize()
        assert rows_of(consolidated) == [(1, "hq", 7)]
        assert_indexes_match_heap(consolidated.server)
        consolidated.server.simulate_crash_and_recover()
        assert rows_of(consolidated) == [(1, "hq", 7)]
        assert_indexes_match_heap(consolidated.server)
