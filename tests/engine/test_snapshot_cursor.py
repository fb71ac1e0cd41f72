"""A suspended snapshot scan keeps reading its snapshot.

A cursor stops between FETCH requests wherever its last batch ended —
usually in the middle of a heap page the scan has already copied.  What
a writer does to a row of that page while the cursor sleeps (roll back,
commit) must not change what the cursor returns for it: the page's slot
copy and its version chains are read together, when the page is fetched.
Resolving a row's chain only when the consumer pulled the row let a
ROLLBACK in between remove the chain and leave the writer's uncommitted
image in the stale slot copy — a value that was never committed.
"""

import pytest

from repro import Server, ServerConfig
from repro.exec.batch import DEFAULT_BATCH_ROWS

ROWS = 1000


@pytest.fixture
def suspended_scan():
    """``(writer, cursor, target)``: ``writer`` holds an uncommitted
    ``UPDATE t SET v = -1 WHERE id = target`` and ``cursor`` is a
    snapshot scan suspended inside the heap page holding ``target``,
    before reaching it."""
    server = Server(ServerConfig(start_buffer_governor=False))
    writer = server.connect()
    writer.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    server.load_table("t", [(i, i) for i in range(ROWS)])
    rows_per_page = server.catalog.table("t").storage.rows_per_page
    batch_rows = DEFAULT_BATCH_ROWS
    # The first batch ends inside the page holding row ``batch_rows - 1``;
    # the last row of that page is copied with it but emitted a batch later.
    target = (batch_rows - 1) // rows_per_page * rows_per_page + rows_per_page - 1
    assert batch_rows <= target < ROWS, "first batch must end mid-page"
    writer.begin()
    writer.execute("UPDATE t SET v = -1 WHERE id = %d" % target)
    reader = server.connect()
    cursor = reader.open_cursor("SELECT id, v FROM t")
    assert cursor.fetchmany(10) == [(i, i) for i in range(10)]
    return writer, cursor, target


def _row_of(cursor, target):
    return [row for row in cursor.fetchall() if row[0] == target]


def test_rollback_while_suspended_is_never_seen(suspended_scan):
    writer, cursor, target = suspended_scan
    writer.rollback()
    assert _row_of(cursor, target) == [(target, target)]
    assert writer.execute(
        "SELECT v FROM t WHERE id = %d" % target
    ).rows == [(target,)]


def test_commit_while_suspended_is_past_the_snapshot(suspended_scan):
    writer, cursor, target = suspended_scan
    writer.commit()
    assert _row_of(cursor, target) == [(target, target)]
    assert writer.execute(
        "SELECT v FROM t WHERE id = %d" % target
    ).rows == [(-1,)]
