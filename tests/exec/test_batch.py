"""Batch-execution edge cases.

Operators trade column-major batches, but what a statement returns must
not depend on where batch boundaries fall.  These tests pin the awkward
corners — empty batches, spills straddling a batch boundary, statement
aborts mid-batch, snapshot resolution, sub-plans — against answers
computed in plain Python.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Server, ServerConfig
from repro.common.errors import ExecutionError, SpillWriteError
from repro.exec.batch import Batch, layout_of, pack
from repro.faults import FaultPlan, FaultRates
from tests.conftest import pages_fetched
from tests.exec.env_reference import env_of, env_rows, rows_to_batches


def make_server(**kwargs):
    kwargs.setdefault("start_buffer_governor", False)
    kwargs.setdefault("initial_pool_pages", 512)
    return Server(ServerConfig(**kwargs))


def loaded(setup, **kwargs):
    """A server with ``setup`` applied: ``(sql, None)`` executes,
    ``(table, rows)`` bulk-loads.  Returns (server, connection)."""
    server = make_server(**kwargs)
    conn = server.connect()
    for sql, rows in setup:
        if rows is None:
            conn.execute(sql)
        else:
            server.load_table(sql, rows)
    return server, conn


class TestBatchUnit:
    def test_empty_tuple_rows_round_trip(self):
        batch = Batch.from_tuples([(), (), ()], width=0)
        assert batch.count == 3
        assert batch.flat_rows() == [(), (), ()]

    def test_take_empty_mask_keeps_layout(self):
        batch = Batch.from_flat_rows(((0, 0, 2),), [(1, 2), (3, 4)])
        empty = batch.take([False, False])
        assert empty.count == 0
        assert empty.layout == batch.layout
        assert empty.flat_rows() == []

    def test_slice_past_the_end_clamps(self):
        batch = Batch.from_tuples([(1,), (2,)], width=1)
        assert batch.slice(0, 10).flat_rows() == [(1,), (2,)]
        assert batch.slice(2, 10).count == 0

    def test_column_missing_key_is_none(self):
        batch = Batch.from_rows(0, [(1,)])
        assert batch.column(7, 0) is None

    def test_column_index_past_width_raises_like_the_row_path(self):
        batch = Batch.from_flat_rows(layout_of([(0, 1), (1, 2)]), [(1, 2, 3)])
        with pytest.raises(IndexError):
            batch.column(0, 1)

    # The batch builder is ``pack``, which replaced ``BatchBuilder``.

    def test_builder_flushes_on_shape_change(self):
        one, two = ((0, 0, 1),), layout_of([(0, 1), (1, 1)])
        batches = list(pack(iter([(one, (1,)), (two, (1, 2))]), 10))
        assert [(b.layout, b.flat_rows()) for b in batches] == [
            (one, [(1,)]), (two, [(1, 2)]),
        ]

    def test_builder_single_row_batches_drop_nothing(self):
        rows = [(((0, 0, 1),), (i,)) for i in range(5)]
        batches = list(pack(iter(rows), 1))
        assert [b.count for b in batches] == [1] * 5
        assert [row for b in batches for row in b.flat_rows()] == [
            row for __, row in rows
        ]

    def test_builder_finish_empty_is_none(self):
        assert next(pack(iter([]), 10), None) is None

    def test_mixed_shapes_round_trip_in_order(self):
        one, two = ((0, 0, 1),), ((1, 0, 2),)
        rows = [
            (one, (1,)), (one, (2,)), (None, (3, 4)), (None, (5, 6)),
            (None, (7,)), (two, (7, 8)),
        ]
        out = [
            (batch.layout, row)
            for batch in pack(iter(rows), 3) for row in batch.flat_rows()
        ]
        assert out == rows


# --------------------------------------------------------------------- #
# the packer cuts exactly where the environment packer it replaced cut:
# per-batch charges downstream round by these boundaries
# --------------------------------------------------------------------- #

LAYOUTS = [
    None, (), ((0, 0, 1),), ((0, 0, 2),), layout_of([(0, 1), (1, 2)]),
    layout_of([(1, 2), (0, 1)]),
]


@st.composite
def shaped_rows(draw):
    """``(layout, flat_row)`` runs of a few shapes, tuple widths mixed."""
    rows = []
    for __ in range(draw(st.integers(0, 8))):
        layout = draw(st.sampled_from(LAYOUTS))
        width = (
            draw(st.integers(0, 3)) if layout is None
            else sum(w for __k, __o, w in layout)
        )
        for __r in range(draw(st.integers(1, 6))):
            rows.append((layout, tuple(range(width))))
    return rows


@settings(max_examples=300, deadline=None)
@given(shaped_rows(), st.integers(1, 7))
def test_packer_cuts_where_the_environment_packer_cut(rows, batch_rows):
    """Same boundaries, layouts and rows as ``BatchBuilder`` fed the
    same rows as environment dicts (result tuples for ``layout is
    None``); the empty layout stays apart from zero-width tuples."""
    envs = [
        row if layout is None else env_of(layout, row)
        for layout, row in rows
    ]
    expected = [
        (batch.layout, batch.count, env_rows(batch))
        for batch in rows_to_batches(iter(envs), batch_rows)
    ]
    actual = [
        (batch.layout, batch.count, env_rows(batch))
        for batch in pack(iter(rows), batch_rows)
    ]
    assert actual == expected


# --------------------------------------------------------------------- #
# row-backed batches build a column on first read: they must read as the
# column-backed batch of the same rows does
# --------------------------------------------------------------------- #

VALUES = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["a", "b"]))


@st.composite
def batch_pairs(draw):
    """``(eager, lazy)``: one set of rows as built columns and as row
    tuples whose columns are built when read."""
    widths = draw(st.one_of(
        st.none(), st.lists(st.integers(1, 3), min_size=1, max_size=3),
    ))
    width = 2 if widths is None else sum(widths)
    count = draw(st.integers(0, 9))
    rows = [
        tuple(draw(st.lists(VALUES, min_size=width, max_size=width)))
        for __ in range(count)
    ]
    columns = [[row[i] for row in rows] for i in range(width)]
    if widths is None:
        return Batch(None, columns, count), Batch.from_tuples(rows, width)
    layout = layout_of(list(zip([3, 1, 4], widths)))
    return (
        Batch(layout, columns, count), Batch.from_flat_rows(layout, rows)
    )


OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("take"), st.lists(st.booleans(), min_size=9,
                                         max_size=9)),
    st.tuples(st.just("slice"), st.integers(0, 10), st.integers(0, 10)),
    st.tuples(st.just("column"), st.integers(0, 8)),
    st.tuples(st.just("flat_rows")),
    st.tuples(st.just("as_quantifier"), st.sampled_from([2, 5])),
), max_size=8)


def observe(batch, operation):
    """``(what the operation showed, the batch to go on with)``."""
    name = operation[0]
    if name == "take":
        batch = batch.take(operation[1][:batch.count])
    elif name == "slice":
        batch = batch.slice(operation[1], operation[2])
    elif name == "as_quantifier" and batch.layout is None:
        batch = batch.as_quantifier(operation[1])
    elif name == "column" and batch.layout is not None:
        position = operation[1] % sum(w for __, __o, w in batch.layout)
        for key, offset, width in batch.layout:
            if offset <= position < offset + width:
                return list(batch.column(key, position - offset)), batch
    elif name == "flat_rows":
        return list(batch.flat_rows()), batch
    return None, batch


@settings(max_examples=300, deadline=None)
@given(batch_pairs(), OPERATIONS)
def test_row_backed_batches_read_as_built_columns(pair, operations):
    """Through any sequence of take / slice / as_quantifier, every read —
    one column, the flat rows — and the count, layout and full columns
    agree."""
    eager, lazy = pair
    for operation in operations:
        seen_eager, eager = observe(eager, operation)
        seen_lazy, lazy = observe(lazy, operation)
        assert seen_lazy == seen_eager
        assert (lazy.count, lazy.layout) == (eager.count, eager.layout)
    assert lazy.columns == eager.columns
    assert lazy.flat_rows() == eager.flat_rows()


class TestEmptyBatches:
    SETUP = [
        ("CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)", None),
        ("t", [(i, i % 7, i * 3) for i in range(400)]),
    ]

    @pytest.mark.parametrize("query, expected", [
        ("SELECT id FROM t WHERE v < 0", []),
        ("SELECT g, COUNT(*) FROM t WHERE v < 0 GROUP BY g", []),
        ("SELECT SUM(v) FROM t WHERE v < 0", [(None,)]),
        ("SELECT a.id FROM t a JOIN t b ON a.id = b.v WHERE b.v < 0", []),
        ("SELECT DISTINCT g FROM t WHERE id > 10000", []),
        ("SELECT id FROM t WHERE v < 0 ORDER BY id LIMIT 5", []),
    ])
    def test_zero_row_inputs(self, query, expected):
        __, conn = loaded(self.SETUP)
        assert conn.execute(query).rows == expected

    def test_aggregate_over_empty_input_yields_its_null_row(self):
        __, conn = loaded(self.SETUP)
        assert conn.execute(
            "SELECT COUNT(*), SUM(v) FROM t WHERE v < 0"
        ).rows == [(0, None)]


class TestSpillStraddle:
    """Work memory runs out mid-batch: the spill must land between two
    rows of one batch without losing or duplicating either side."""

    SETUP = [
        ("CREATE TABLE r (id INT PRIMARY KEY, b INT)", None),
        ("r", [(i, i % 100) for i in range(900)]),
        ("CREATE TABLE s (id INT PRIMARY KEY, b INT, c INT)", None),
        ("s", [(i, i % 100, i % 50) for i in range(700)]),
    ]
    #: ~2-page soft limit (128 pages / 64 slots): hash builds larger
    #: than one batch must spill partway through a batch.
    TIGHT = dict(initial_pool_pages=128, multiprogramming_level=64)
    #: Enough work memory that nothing here spills.
    AMPLE = dict(initial_pool_pages=8192)

    JOIN = (
        "SELECT r.id, s.id FROM r JOIN s ON r.b = s.b ORDER BY r.id, s.id"
    )

    def run(self, query, **config):
        """(rows, spill events) of ``query`` on a fresh server."""
        server, conn = loaded(self.SETUP, **config)
        rows = conn.execute(query).rows
        return rows, server.metrics.snapshot().get("exec.spill_events", 0)

    def spilling_and_unspilled(self, query):
        """Rows from the memory-starved run — which must actually have
        spilled — and from a run with ample memory, which must not."""
        spilled, spills = self.run(query, **self.TIGHT)
        assert spills >= 1
        unspilled, spills = self.run(query, **self.AMPLE)
        assert spills == 0
        return spilled, unspilled

    def test_tight_config_actually_spills(self):
        assert self.run(self.JOIN, **self.TIGHT)[1] >= 1

    def test_join_spilling_mid_batch(self):
        spilled, unspilled = self.spilling_and_unspilled(self.JOIN)
        expected = [
            (r, s) for r in range(900) for s in range(700)
            if r % 100 == s % 100
        ]
        assert spilled == unspilled == expected
        assert len(expected) == 700 * 9  # every s row meets 9 r rows

    def test_group_by_fallback_mid_batch(self):
        spilled, unspilled = self.spilling_and_unspilled(
            "SELECT b, COUNT(*), SUM(id) FROM r GROUP BY b ORDER BY b"
        )
        expected = [
            (b, 9, sum(range(b, 900, 100))) for b in range(100)
        ]
        assert spilled == unspilled == expected

    def test_sort_spilling_mid_batch(self):
        spilled, unspilled = self.spilling_and_unspilled(
            "SELECT id, b FROM r ORDER BY b, id"
        )
        expected = sorted(
            ((i, i % 100) for i in range(900)), key=lambda row: row[::-1]
        )
        assert spilled == unspilled == expected


def quiet_rates(**overrides):
    rates = FaultRates(
        disk_read_error=0.0,
        disk_write_error=0.0,
        disk_latency=0.0,
        working_set_outage=0.0,
        spill_write_error=0.0,
    )
    for name, value in overrides.items():
        setattr(rates, name, value)
    return rates


class TestMidBatchAbort:
    """A statement dying partway through a batch must release its quota
    and leave the server healthy."""

    SETUP = [
        ("CREATE TABLE t (id INT PRIMARY KEY, v INT)", None),
        ("t", [(i, (i * 37) % 1000) for i in range(3000)]),
    ]

    def loaded(self, plan=None, **kwargs):
        return loaded(self.SETUP, fault_plan=plan, **kwargs)

    def test_expression_error_mid_batch_aborts_cleanly(self):
        server, conn = self.loaded()
        # Row id=500 divides by zero partway through a 256-row batch.
        with pytest.raises(ExecutionError):
            conn.execute("SELECT v / (id - 500) FROM t")
        assert server.memory_governor.total_used_pages() == 0
        assert conn.execute("SELECT COUNT(*) FROM t").rows == [(3000,)]

    def test_spill_fault_mid_batch_aborts_cleanly(self):
        plan = FaultPlan(21, quiet_rates(spill_write_error=1.0))
        server, conn = self.loaded(
            plan=plan, initial_pool_pages=128, multiprogramming_level=16
        )
        with pytest.raises(SpillWriteError):
            conn.execute("SELECT id, v FROM t ORDER BY v, id")
        assert plan.statement_aborts == 1
        assert server.memory_governor.total_used_pages() == 0
        # Healed, the same statement completes.
        plan.rates.spill_write_error = 0.0
        result = conn.execute("SELECT id, v FROM t ORDER BY v, id")
        assert len(result.rows) == 3000


class TestSnapshotReads:
    """Snapshot-LSN row resolution under batches: the scan operators
    resolve versions per row, and an index scan reads a removed key's
    row off its version chain."""

    def seeded(self):
        server = make_server()
        writer = server.connect()
        writer.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.load_table("t", [(i, 0) for i in range(10)])
        return server, writer, server.connect()

    def test_uncommitted_write_invisible(self):
        server, writer, reader = self.seeded()
        writer.begin()
        writer.execute("UPDATE t SET v = 99 WHERE id = 0")
        assert reader.execute(
            "SELECT v FROM t WHERE id = 0"
        ).rows == [(0,)]
        assert writer.execute(
            "SELECT v FROM t WHERE id = 0"
        ).rows == [(99,)]
        writer.commit()
        assert reader.execute(
            "SELECT v FROM t WHERE id = 0"
        ).rows == [(99,)]

    def test_index_fallback_resolves_the_before_image(self):
        server, writer, reader = self.seeded()
        writer.begin()
        writer.execute("DELETE FROM t WHERE id = 5")
        # The pk entry is gone; the version chain supplies the
        # before-image, and no table page is read for it.
        rows, pages = pages_fetched(
            server, lambda: reader.execute("SELECT v FROM t WHERE id = 5").rows
        )
        assert rows == [(0,)]
        assert set(pages) == {"index:pk_t"}
        writer.rollback()


class TestExplainAnalyzeBatches:
    SETUP = [
        ("CREATE TABLE t (id INT PRIMARY KEY, g INT)", None),
        ("t", [(i, i % 5) for i in range(600)]),
    ]

    def assert_every_node_reports_batches(self, text):
        lines = text.splitlines()
        assert lines
        for line in lines:
            assert re.search(r"batches=\d+ rows_per_batch=", line), line

    def test_reports_batches_per_operator(self):
        __, conn = loaded(self.SETUP)
        result = conn.execute(
            "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g"
        )
        self.assert_every_node_reports_batches(result.explain(analyze=True))

    def test_sub_plans_and_cursors_run_batches(self):
        __, conn = loaded(self.SETUP)
        result = conn.execute(
            "SELECT d.g, d.n FROM "
            "(SELECT g, COUNT(*) AS n FROM t GROUP BY g) d WHERE d.n > 1"
        )
        assert sorted(result.rows) == [(g, 120) for g in range(5)]
        text = result.explain(analyze=True)
        assert "DerivedScan" in text and "HashGroupBy" in text
        self.assert_every_node_reports_batches(text)

        cursor = conn.open_cursor("SELECT id FROM t WHERE g = 3")
        assert cursor.fetchall() == [(i,) for i in range(3, 600, 5)]
        self.assert_every_node_reports_batches(cursor.explain(analyze=True))
        cursor.close()

    def test_insert_select_inserts_what_its_select_returns(self):
        __, conn = loaded(self.SETUP)
        conn.execute("CREATE TABLE copy (id INT PRIMARY KEY, g INT)")
        select = "SELECT id, g FROM t WHERE g = 2 AND id > 300"
        expected = conn.execute(select + " ORDER BY id").rows
        assert expected == [(i, 2) for i in range(302, 600, 5)]
        result = conn.execute("INSERT INTO copy " + select)
        assert result.rowcount == len(expected)
        assert conn.execute(
            "SELECT id, g FROM copy ORDER BY id"
        ).rows == expected
