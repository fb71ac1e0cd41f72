"""``Server.apply_change`` — the one logical write path (DESIGN.md §9).

Rollback, sync and recovery tests cover the callers; these pin the
primitive itself: a change followed by its image-swapped inverse is the
identity on heap, indexes, statistics and row count, and the WAL shows
exactly that pair.
"""

import random

import pytest

from repro import Server, ServerConfig
from repro.common.errors import TransactionError
from repro.engine.server import UNDO
from repro.storage.log import DELETE, INSERT, UPDATE
from tests.conftest import assert_indexes_match_heap

COLUMNS = 3
INVERSE = {INSERT: DELETE, DELETE: INSERT, UPDATE: UPDATE}


@pytest.fixture
def server():
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, x DOUBLE)")
    conn.execute("CREATE INDEX t_g ON t (g)")
    rng = random.Random(17)
    server.load_table(
        "t", [(i, rng.randrange(10), rng.random()) for i in range(200)]
    )
    yield server
    conn.close()


def _state(server):
    """Heap rows (re-inserted rows change slot, so by value), row count,
    and every column histogram's total."""
    table = server.catalog.table("t")
    return (
        sorted(row for __, row in table.storage.scan()),
        table.row_count,
        [
            server.stats.histogram("t", i).total_count()
            for i in range(COLUMNS)
        ],
    )


def _assert_restored(server, expected):
    rows, row_count, totals = _state(server)
    assert (rows, row_count) == expected[:2]
    assert totals == pytest.approx(expected[2])
    assert_indexes_match_heap(server)


@pytest.mark.parametrize("kind", [INSERT, UPDATE, DELETE])
def test_forward_then_undo_is_identity(server, kind):
    table = server.catalog.table("t")
    conn = server.connect()
    rng = random.Random(23)
    for step in range(20):
        expected = _state(server)
        txn_id = conn.begin()
        row_id = before = after = None
        if kind != INSERT:
            row_id, before = rng.choice(list(table.storage.scan()))
            server.lock_manager.acquire(txn_id, "t", row_id)
        if kind != DELETE:
            # Updates alternate between keeping and changing the key.
            key = before[0] if kind == UPDATE and step % 2 else 1000 + step
            after = (key, rng.randrange(10), rng.random())
        row_id = server.apply_change(txn_id, table, row_id, before, after)
        assert _state(server)[0] != expected[0]
        assert_indexes_match_heap(server)
        undo_id = server.apply_change(
            txn_id, table, row_id, after, before, UNDO
        )
        # Only undoing a DELETE moves the row (into a fresh slot).
        assert kind == DELETE or undo_id == row_id
        _assert_restored(server, expected)
        inverse, forward = server.txn_log.undo_chain(txn_id)
        assert (forward.kind, forward.row_id, forward.before, forward.after) \
            == (kind, row_id, before, after)
        assert (inverse.kind, inverse.row_id, inverse.before, inverse.after) \
            == (INVERSE[kind], undo_id, after, before)
        conn.commit()
    conn.close()


def test_insert_whose_lock_fails_leaves_no_heap_slot(server, monkeypatch):
    table = server.catalog.table("t")
    expected = _state(server)
    conn = server.connect()
    txn_id = conn.begin()

    def refuse(*args, **kwargs):
        raise TransactionError("lock refused")

    monkeypatch.setattr(server.lock_manager, "acquire", refuse)
    with pytest.raises(TransactionError):
        server.apply_change(txn_id, table, None, None, (999, 1, 0.5))
    _assert_restored(server, expected)
    assert server.txn_log.undo_chain(txn_id) == []
    conn.rollback()
    conn.close()


def test_load_notes_no_versions_and_no_per_row_statistics(monkeypatch):
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT)")
    server.stats.build_statistics("t")
    noted = []
    monkeypatch.setattr(
        server.stats, "note_insert", lambda *args: noted.append(args)
    )
    assert server.load_table("t", [(i, i % 7) for i in range(50)]) == 50
    assert noted == []
    assert server.versions.recorded == 0
    # ...because statistics are rebuilt from the loaded heap afterwards.
    assert server.stats.histogram("t", 0).total_count() == pytest.approx(50)
    assert_indexes_match_heap(server)
    conn.close()
