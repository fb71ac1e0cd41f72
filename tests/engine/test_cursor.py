"""Tests for cursors with incremental FETCH and fiber-style scheduling."""

import pytest

from repro import Server, ServerConfig
from repro.buffer import PageKind
from repro.common.errors import ExecutionError
from repro.engine import FiberScheduler
from repro.profiling import Tracer


@pytest.fixture
def conn():
    server = Server(ServerConfig(start_buffer_governor=False,
                                 initial_pool_pages=64))
    connection = server.connect()
    connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    server.load_table("t", [(i, i * 10) for i in range(200)])
    return connection


class TestCursor:
    def test_fetchone_streams(self, conn):
        cursor = conn.open_cursor("SELECT id FROM t ORDER BY id")
        assert cursor.fetchone() == (0,)
        assert cursor.fetchone() == (1,)
        cursor.close()

    def test_fetchmany_and_exhaustion(self, conn):
        cursor = conn.open_cursor("SELECT id FROM t WHERE id < 10")
        first = cursor.fetchmany(7)
        rest = cursor.fetchmany(7)
        empty = cursor.fetchmany(7)
        assert len(first) == 7
        assert len(rest) == 3
        assert empty == []
        assert cursor.exhausted
        cursor.close()

    def test_fetchall_matches_execute(self, conn):
        cursor = conn.open_cursor("SELECT id, v FROM t WHERE v > 1500")
        assert sorted(cursor.fetchall()) == sorted(
            conn.execute("SELECT id, v FROM t WHERE v > 1500").rows
        )
        cursor.close()

    def test_columns_metadata(self, conn):
        cursor = conn.open_cursor("SELECT id, v FROM t")
        assert cursor.columns == [("id", "INT"), ("v", "INT")]
        cursor.close()

    def test_closed_cursor_rejects_fetch(self, conn):
        cursor = conn.open_cursor("SELECT id FROM t")
        cursor.close()
        with pytest.raises(ExecutionError):
            cursor.fetchone()

    def test_non_select_rejected(self, conn):
        with pytest.raises(ExecutionError):
            conn.open_cursor("DELETE FROM t")

    def test_cursor_is_counted_and_traced_like_execute(self, conn):
        """Application Profiling (paper §5) and the checkpoint governor's
        idleness test see a cursor workload: opening one is a statement."""
        server = conn.server
        server.tracer = tracer = Tracer()
        sql = "SELECT id FROM t WHERE id < 10"
        moved = []
        for run in (
            lambda: conn.execute(sql),
            lambda: conn.open_cursor(sql).close(),
        ):
            executed = server.metrics.value("statements.executed")
            events = len(tracer.events)
            run()
            moved.append((
                server.metrics.value("statements.executed") - executed,
                len(tracer.events) - events,
            ))
        assert moved == [(1, 1), (1, 1)]
        first, second = tracer.events
        assert second.sql == sql
        assert second.plan_signature == first.plan_signature
        assert second.error is None

    def test_cursor_counts_as_active_request(self, conn):
        governor = conn.server.memory_governor
        cursor_a = conn.open_cursor("SELECT id FROM t")
        cursor_b = conn.open_cursor("SELECT v FROM t")
        assert governor.active_requests == 2
        cursor_a.close()
        cursor_b.close()
        assert governor.active_requests == 1  # floor: never below one

    def test_suspended_cursor_heap_is_stealable(self, conn):
        """Between fetches the cursor's heap pages can be stolen and are
        swizzled back in on the next FETCH (Section 2.1)."""
        server = conn.server
        cursor = conn.open_cursor("SELECT id FROM t ORDER BY id")
        cursor.fetchmany(5)
        # Flood the small pool with table pages while the cursor sleeps.
        filler = server.volume.create_file("filler")
        for i in range(100):
            frame = server.pool.new_page(filler, PageKind.TABLE, payload=i)
            server.pool.unpin(frame)
        assert cursor.heap.resident_count() == 0  # stolen while suspended
        assert cursor.fetchmany(5) == [(i,) for i in range(5, 10)]
        assert cursor.heap.swizzle_count >= 1
        cursor.close()


class TestFiberScheduler:
    def test_interleaved_cursors_all_correct(self, conn):
        scheduler = FiberScheduler(batch_size=8)
        scheduler.add("low", conn.open_cursor(
            "SELECT id FROM t WHERE id < 60 ORDER BY id"
        ))
        scheduler.add("high", conn.open_cursor(
            "SELECT id FROM t WHERE id >= 150 ORDER BY id"
        ))
        scheduler.add("all", conn.open_cursor("SELECT id FROM t ORDER BY id"))
        results = scheduler.run()
        assert len(results["all"]) == 200
        assert len(results["high"]) == 50
        assert results["low"] == [(i,) for i in range(60)]

    def test_round_robin_interleaving_observed(self, conn):
        scheduler = FiberScheduler(batch_size=4)
        scheduler.add("a", conn.open_cursor("SELECT id FROM t"))
        scheduler.add("b", conn.open_cursor("SELECT id FROM t"))
        scheduler.run()
        trace = scheduler.schedule_trace
        # Genuine interleaving: "a" and "b" alternate, not a then b.
        first_b = trace.index("b")
        last_a = len(trace) - 1 - trace[::-1].index("a")
        assert first_b < last_a

    def test_callbacks_receive_batches(self, conn):
        seen = []
        scheduler = FiberScheduler(batch_size=16)
        scheduler.add(
            "cb", conn.open_cursor("SELECT id FROM t WHERE id < 40"),
            on_rows=seen.extend,
        )
        scheduler.run()
        assert len(seen) == 40

    def test_all_tasks_released_after_run(self, conn):
        governor = conn.server.memory_governor
        scheduler = FiberScheduler()
        for i in range(3):
            scheduler.add("c%d" % i, conn.open_cursor("SELECT id FROM t"))
        assert governor.active_requests == 3
        scheduler.run()
        assert governor.active_requests == 1
