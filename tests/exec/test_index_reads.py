"""Joins that read through an index answer at the statement's snapshot.

An index nested-loops join, and the hash join's index-NL alternate that
shares its probe, read rows through the same path as an index scan
(``exec.operators.index_rows``): each tree entry resolved to its visible
image and re-checked, plus the rows whose entry was removed or re-keyed
after the snapshot, read off their version chains.  Another session's
uncommitted INSERT and DELETE must therefore stay invisible to them.
"""

from repro import Server, ServerConfig

JOIN = "SELECT o.id, i.v FROM o, i WHERE o.k = i.k"
SEMI = "SELECT i.id, i.v FROM i WHERE i.k IN (SELECT o.k FROM o)"
POINT = "SELECT o.id, i.v FROM o, i WHERE o.k = i.k AND i.k = 1"


def joined_tables():
    """``o`` (3 rows) and ``i`` (4,000 rows, 8 per ``k``, indexed on k)."""
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    conn.execute("CREATE TABLE o (id INT PRIMARY KEY, k INT)")
    conn.execute("CREATE TABLE i (id INT PRIMARY KEY, k INT, v INT)")
    conn.execute("CREATE INDEX i_k ON i (k)")
    server.load_table("o", [(n, n) for n in range(3)])
    server.load_table("i", [(n, n % 500, n) for n in range(4000)])
    return server, conn


def open_writer(server):
    """A second session inserts a match for k = 1 and deletes the k = 0
    row 500, and keeps both uncommitted."""
    writer = server.connect()
    writer.begin()
    writer.execute("INSERT INTO i VALUES (9000, 1, 777)")
    writer.execute("DELETE FROM i WHERE id = 500")
    return writer


def test_index_nl_join_hides_uncommitted_rows():
    server, conn = joined_tables()
    assert "IndexNLJoin(inner via i_k)" in conn.execute(JOIN).explain()
    before = sorted(conn.execute(JOIN).rows)
    assert len(before) == 24 and (0, 500) in before
    writer = open_writer(server)
    assert sorted(conn.execute(JOIN).rows) == before
    # The writer reads its own changes through the same join.
    own = sorted(writer.execute(JOIN).rows)
    assert (1, 777) in own and (0, 500) not in own and len(own) == 24
    writer.commit()
    assert sorted(conn.execute(JOIN).rows) == own


def test_index_scan_and_index_nl_join_agree():
    server, conn = joined_tables()
    writer = open_writer(server)
    scan = sorted(
        (1, v) for (v,) in conn.execute("SELECT v FROM i WHERE k = 1").rows
    )
    assert sorted(conn.execute(POINT).rows) == scan
    assert (1, 777) not in scan and len(scan) == 8
    writer.rollback()


def test_semi_join_alternate_hides_uncommitted_rows():
    server, conn = joined_tables()
    result = conn.execute(SEMI)
    assert "HashJoin(semi, alt=indexNL)" in result.explain()
    assert result.notes.get("hash_join_switched") == 1
    before = sorted(result.rows)
    assert len(before) == 24 and (500, 500) in before
    writer = open_writer(server)
    assert sorted(conn.execute(SEMI).rows) == before
    own = sorted(writer.execute(SEMI).rows)
    assert (9000, 777) in own and (500, 500) not in own
    writer.rollback()
    assert sorted(conn.execute(SEMI).rows) == before


def test_a_null_past_the_compared_prefix_still_matches():
    """``a = 7`` through an index on ``(a, b)`` compares only ``a``: a
    NULL ``b`` must not drop the row from the snapshot re-check."""
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)")
    conn.execute("CREATE INDEX ix_ab ON t (a, b)")
    server.load_table(
        "t", [(n, n % 100, None if n % 2 else n) for n in range(4000)]
    )
    result = conn.execute("SELECT id FROM t WHERE a = 7")
    assert "IndexScan(t via ix_ab)" in result.explain()
    assert sorted(result.rows) == [(n,) for n in range(7, 4000, 100)]
