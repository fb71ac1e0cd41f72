"""Join + GROUP BY against SQLite (the standard library's ``sqlite3``).

The same seeded INT tables, NULL join and group keys among them, are
loaded into the engine and into an in-memory SQLite database; each
statement's rows must agree, compared sorted.  SQLite is an oracle
independent of both of the engine's group-by paths — the fold over a
hash join's pieces and the row path — and of which side the optimizer
builds.
"""

import random
import sqlite3

import pytest

from repro import Server, ServerConfig

#: ``t`` at fan-out ~30 per join key, ``u`` the smaller side.
T_ROWS, U_ROWS, JOIN_KEYS = 600, 200, 20

SHAPES = {
    "keys on t": (
        "SELECT t.x, COUNT(*), SUM(u.z), MIN(u.z), MAX(u.z) "
        "FROM t JOIN u ON t.g = u.g GROUP BY t.x"
    ),
    "keys on u": (
        "SELECT u.w, COUNT(*), SUM(t.y), MIN(t.y), MAX(t.y), COUNT(t.x) "
        "FROM t JOIN u ON t.g = u.g GROUP BY u.w"
    ),
    "two keys on t": (
        "SELECT t.x, t.y, COUNT(*), SUM(u.z) "
        "FROM t JOIN u ON t.g = u.g GROUP BY t.x, t.y"
    ),
    "keys on both": (
        "SELECT t.x, u.w, COUNT(*), SUM(u.z), SUM(t.y) "
        "FROM t JOIN u ON t.g = u.g GROUP BY t.x, u.w"
    ),
    "no key": (
        "SELECT COUNT(*), SUM(u.z), SUM(t.y), MIN(u.z), MAX(t.y), "
        "COUNT(u.z) FROM t JOIN u ON t.g = u.g"
    ),
    "avg": (
        "SELECT u.w, AVG(t.y), AVG(u.z) "
        "FROM t JOIN u ON t.g = u.g GROUP BY u.w"
    ),
    "argument expressions": (
        "SELECT t.x, SUM(u.z + 3), SUM(t.y * 2), MAX(u.z - t.y) "
        "FROM t JOIN u ON t.g = u.g GROUP BY t.x"
    ),
    "expression key": (
        "SELECT t.x + u.w, COUNT(*), SUM(u.z) "
        "FROM t JOIN u ON t.g = u.g GROUP BY t.x + u.w"
    ),
    "left join": (
        "SELECT t.x, COUNT(*), COUNT(u.z), SUM(u.z), MIN(u.w) "
        "FROM t LEFT JOIN u ON t.g = u.g GROUP BY t.x"
    ),
    "left join, no key": (
        "SELECT COUNT(*), COUNT(t.y), SUM(t.y) "
        "FROM u LEFT JOIN t ON u.g = t.g"
    ),
    "residual": (
        "SELECT t.x, COUNT(*), SUM(u.z) "
        "FROM t JOIN u ON t.g = u.g AND t.y < u.z GROUP BY t.x"
    ),
    "where": (
        "SELECT u.w, COUNT(*), SUM(t.y) "
        "FROM t JOIN u ON t.g = u.g WHERE u.z > 40 GROUP BY u.w"
    ),
    "having": (
        "SELECT t.x, COUNT(*), SUM(u.z) "
        "FROM t JOIN u ON t.g = u.g GROUP BY t.x HAVING COUNT(*) > 150"
    ),
    "distinct": (
        "SELECT t.x, COUNT(DISTINCT u.z), SUM(DISTINCT u.w) "
        "FROM t JOIN u ON t.g = u.g GROUP BY t.x"
    ),
    "count star only": (
        "SELECT u.w, COUNT(*) FROM t JOIN u ON t.g = u.g GROUP BY u.w"
    ),
}


def _rows(rng, count, columns):
    """``count`` rows ``(id, g, ...)``: ``g`` over the join keys and
    NULL; every other column a small int or NULL."""
    return [
        (i, rng.choice([None] + list(range(JOIN_KEYS))))
        + tuple(
            None if rng.random() < 0.1 else rng.randrange(high)
            for high in columns
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def databases():
    rng = random.Random(307)
    t = _rows(rng, T_ROWS, (12, 100))       # (id, g, x, y)
    u = _rows(rng, U_ROWS, (100, 6))        # (id, g, z, w)
    server = Server(ServerConfig(start_buffer_governor=False,
                                 initial_pool_pages=512))
    conn = server.connect()
    lite = sqlite3.connect(":memory:")
    for name, columns, rows in (("t", "x INT, y INT", t),
                                ("u", "z INT, w INT", u)):
        ddl = "CREATE TABLE %s (id INT PRIMARY KEY, g INT, %s)" % (
            name, columns
        )
        conn.execute(ddl)
        lite.execute(ddl)
        server.load_table(name, rows)
        lite.executemany("INSERT INTO %s VALUES (?, ?, ?, ?)" % name, rows)
    yield conn, lite
    lite.close()


def _normalized(rows):
    """Rows sorted, floats rounded (SQLite's AVG and the engine's may
    differ in the last bit)."""
    return sorted(
        (tuple(round(v, 9) if isinstance(v, float) else v for v in row)
         for row in rows),
        key=repr,
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_join_group_by_agrees_with_sqlite(databases, shape):
    conn, lite = databases
    sql = SHAPES[shape]
    engine = _normalized(conn.execute(sql).rows)
    oracle = _normalized(lite.execute(sql).fetchall())
    assert engine == oracle
    assert engine  # every shape has groups to compare
