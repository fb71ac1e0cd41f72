"""Batch-execution edge cases.

Operators trade column-major batches, but what a statement returns must
not depend on where batch boundaries fall.  These tests pin the awkward
corners — empty batches, spills straddling a batch boundary, statement
aborts mid-batch, snapshot resolution, sub-plans — against answers
computed in plain Python.
"""

import re

import pytest

from repro import Server, ServerConfig
from repro.common.errors import ExecutionError, SpillWriteError
from repro.exec.batch import (
    Batch,
    BatchBuilder,
    batches_to_rows,
    rows_to_batches,
)
from repro.faults import FaultPlan, FaultRates


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
        assert list(batch.rows()) == [(), (), ()]

    def test_take_empty_mask_keeps_layout(self):
        batch = Batch.from_envs([{0: (1, 2)}, {0: (3, 4)}])
        empty = batch.take([False, False])
        assert empty.count == 0
        assert empty.layout == batch.layout
        assert list(empty.rows()) == []

    def test_slice_past_the_end_clamps(self):
        batch = Batch.from_tuples([(1,), (2,)], width=1)
        assert list(batch.slice(0, 10).rows()) == [(1,), (2,)]
        assert batch.slice(2, 10).count == 0

    def test_column_missing_key_is_none(self):
        batch = Batch.from_envs([{0: (1,)}])
        assert batch.column(7, 0) is None

    def test_column_index_past_width_raises_like_the_row_path(self):
        batch = Batch.from_envs([{0: (1,), 1: (2, 3)}])
        with pytest.raises(IndexError):
            batch.column(0, 1)

    def test_builder_flushes_on_shape_change(self):
        builder = BatchBuilder(batch_rows=10)
        first = builder.add({0: (1,)})
        assert first is None
        flushed = builder.add({0: (1,), 1: (2,)})  # new layout signature
        assert flushed is not None and flushed.count == 1
        tail = builder.finish()
        assert tail is not None and tail.count == 1

    def test_builder_single_row_batches_drop_nothing(self):
        rows = [{0: (i,)} for i in range(5)]
        out = list(batches_to_rows(rows_to_batches(iter(rows), 1)))
        assert out == rows

    def test_builder_finish_empty_is_none(self):
        assert BatchBuilder().finish() is None

    def test_mixed_shapes_round_trip_in_order(self):
        rows = [{0: (1,)}, {0: (2,)}, (3, 4), (5, 6), {1: (7, 8)}]
        out = list(batches_to_rows(rows_to_batches(iter(rows), 3)))
        assert out == rows


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
    resolve versions per row, and the index-scan heap fallback engages."""

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
        before = server.metrics.counter("exec.adaptive_fallbacks").value
        writer.begin()
        writer.execute("DELETE FROM t WHERE id = 5")
        # The pk entry is gone; only the versioned-heap fallback can
        # resolve the before-image.
        assert reader.execute(
            "SELECT v FROM t WHERE id = 5"
        ).rows == [(0,)]
        after = server.metrics.counter("exec.adaptive_fallbacks").value
        assert after == before + 1
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
