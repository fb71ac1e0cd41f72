"""``x NOT IN (SELECT y ...)`` under SQL's three-valued logic.

The subquery form is unnested into an anti join; the list form is
evaluated row by row.  On the same data the two spellings must agree:
a NULL operand, or a NULL among the subquery's rows, makes ``NOT IN``
unknown (the row is dropped) unless the subquery yields no row at all.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Server, ServerConfig
from repro.sql.binder import Binder, Quantifier
from repro.sql.parser import parse_statement


def connect(a_rows, b_rows, not_null=(False, False)):
    """``a(id, v)`` and ``b(id, w)`` loaded with the given rows; ``v`` and
    ``w`` are declared NOT NULL as ``not_null`` says."""
    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    for table, column, declared in (("a", "v", not_null[0]),
                                    ("b", "w", not_null[1])):
        conn.execute(
            "CREATE TABLE %s (id INT PRIMARY KEY, %s INT%s)"
            % (table, column, " NOT NULL" if declared else "")
        )
    for table, rows in (("a", a_rows), ("b", b_rows)):
        for row in rows:
            conn.execute("INSERT INTO %s VALUES (%s)" % (
                table, ", ".join("NULL" if v is None else str(v) for v in row)
            ))
    return conn


SUBQUERY = "SELECT a.id FROM a WHERE a.v NOT IN (SELECT b.w FROM b)"


def test_not_in_subquery_drops_a_null_operand():
    conn = connect([(1, None), (2, 5), (3, 7)], [(1, 7)])
    assert sorted(conn.execute(SUBQUERY).rows) == [(2,)]
    assert sorted(conn.execute(
        "SELECT a.id FROM a WHERE a.v NOT IN (7)"
    ).rows) == [(2,)]


def test_not_in_subquery_with_a_null_row_keeps_nothing():
    conn = connect([(1, None), (2, 5), (3, 7)], [(1, 7)])
    conn.execute("INSERT INTO b VALUES (2, NULL)")
    assert conn.execute(SUBQUERY).rows == []
    assert conn.execute(
        "SELECT a.id FROM a WHERE a.v NOT IN (7, NULL)"
    ).rows == []


def test_not_in_empty_subquery_keeps_every_row():
    conn = connect([(1, None), (2, 5)], [])
    assert sorted(conn.execute(SUBQUERY).rows) == [(1,), (2,)]


def test_not_null_sides_keep_the_equi_anti_join():
    """Only when neither side can be NULL is the anti join's condition
    the plain equality a hash join can take."""
    for not_null, equi in (((True, True), True), ((True, False), False),
                           ((False, True), False)):
        conn = connect([(1, 4)], [(1, 4)], not_null)
        block = Binder(conn.server.catalog).bind(parse_statement(SUBQUERY))
        anti = [q for q in block.quantifiers
                if q.join_type == Quantifier.ANTI]
        assert [c.equi is not None for c in anti[0].on_conjuncts] == [equi]


VALUES = st.one_of(st.none(), st.integers(0, 4))


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(VALUES, max_size=6), st.lists(VALUES, max_size=6),
    st.integers(-1, 6), st.booleans(),
)
def test_subquery_form_equals_the_list_form(a_values, b_values, above,
                                             negated):
    """``v [NOT] IN (SELECT w FROM b WHERE b.id > k)`` returns what
    ``v [NOT] IN (<those w values>)`` returns, on every NULL placement
    and for an empty subquery."""
    conn = connect(list(enumerate(a_values)), list(enumerate(b_values)))
    op = "NOT IN" if negated else "IN"
    subquery = conn.execute(
        "SELECT a.id FROM a WHERE a.v %s "
        "(SELECT b.w FROM b WHERE b.id > %d)" % (op, above)
    )
    listed = [
        "NULL" if value is None else str(value)
        for index, value in enumerate(b_values) if index > above
    ]
    if listed:
        expected = conn.execute("SELECT a.id FROM a WHERE a.v %s (%s)" % (
            op, ", ".join(listed)
        ))
        expected_rows = expected.rows
    else:
        # ``x IN ()`` is false and ``x NOT IN ()`` true, NULL x included.
        expected_rows = [(index,) for index in range(len(a_values))
                         if negated]
    assert sorted(subquery.rows) == sorted(expected_rows)
