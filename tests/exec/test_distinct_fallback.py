"""HashDistinctOp's low-memory fallback (paper §4.3): the seen-set moves to
an indexed temp B-tree, either when the next key would cross the soft
limit or when the memory governor asks the operator to give its memory
back.  Either way the DISTINCT answer, and its order, stay what the
in-memory operator returns."""

import pytest

from repro import Server, ServerConfig
from repro.buffer import GovernorConfig
from repro.common import MiB
from repro.exec.spill import SpillableBuffer

#: 1,500 distinct keys: 72 KB of seen-set at 48 bytes a key, past the
#: small server's 8-page soft limit and far under the large one's.
ROWS = [((i * 7919) % 1500, i) for i in range(3000)]


def make_conn(pool_pages, mpl):
    server = Server(ServerConfig(
        start_buffer_governor=False, initial_pool_pages=pool_pages,
        multiprogramming_level=mpl,
        governor=GovernorConfig(upper_bound_bytes=64 * MiB),
    ))
    conn = server.connect()
    conn.execute("CREATE TABLE t (k INT, v INT)")
    server.load_table("t", ROWS)
    return conn


def distinct_line(explain):
    (line,) = [
        line for line in explain.splitlines()
        if line.lstrip().startswith("HashDistinct")
    ]
    return line


@pytest.mark.parametrize("sql", [
    "SELECT DISTINCT k FROM t",
    "SELECT DISTINCT k FROM t ORDER BY k DESC LIMIT 1000",
])
def test_soft_limit_fallback_returns_the_in_memory_answer(sql):
    expected = make_conn(2048, 1).execute(sql)
    assert "distinct_fallback" not in expected.notes
    result = make_conn(128, 16).execute(sql)
    assert result.notes["distinct_fallback"] == 1
    assert result.rows == expected.rows  # same rows, same order
    assert "spills=1 " in distinct_line(result.explain(analyze=True))


def test_governor_reclaim_engages_the_fallback_mid_statement():
    conn = make_conn(2048, 1)
    sql = "SELECT DISTINCT k FROM t"
    expected = conn.execute(sql).rows
    cursor = conn.open_cursor(sql)
    rows = cursor.fetchmany(300)
    assert "distinct_fallback" not in cursor.notes
    # Another consumer of the statement's task, below the DISTINCT,
    # crosses the soft limit: the governor asks the suspended DISTINCT to
    # relinquish its memory.
    task = cursor._ctx.task
    held = task.used_pages
    assert held > 0
    wanted = task.soft_limit_pages - held + 1
    below = SpillableBuffer(cursor._ctx, depth=99, row_bytes_estimate=0)
    assert below.memory.reserve(wanted * below.memory.page_size)
    assert task.used_pages == wanted
    below.free()
    rows += cursor.fetchall()
    assert cursor.notes["distinct_fallback"] == 1
    assert rows == expected
    assert "spills=1 " in distinct_line(cursor.explain(analyze=True))
    cursor.close()
