"""EXPLAIN ANALYZE end-to-end: actuals must match real cardinalities.

A three-way join sized so that hash-join work memory blows past the
memory governor's per-task soft limit, forcing spills — the annotated
plan must report per-operator actual row counts that agree with the
query's arithmetic, and the spills must show up in both the plan
annotations and the server metrics.
"""

import re

import pytest

from repro import Server, ServerConfig
from repro.optimizer import plans as p

# r.b = i % 100 for i in 0..299: every b value appears 3 times.
R_ROWS = 300
# s.b = i % 100, s.c = i % 50 for i in 0..199: every (b, c) from 2 rows.
S_ROWS = 200
# t.c = i % 50 for i in 0..99: every c value appears 2 times.
T_ROWS = 100
# |r >< s on b| = 200 * 3; each joined row then matches 2 t rows.
RS_ROWS = S_ROWS * 3
FINAL_ROWS = RS_ROWS * 2


@pytest.fixture
def server():
    # 128-page pool across 64 concurrent-task slots: a ~2-page per-task
    # soft limit, so the hash joins must spill their build partitions.
    instance = Server(ServerConfig(
        initial_pool_pages=128,
        multiprogramming_level=64,
        start_buffer_governor=False,
    ))
    conn = instance.connect()
    conn.execute("CREATE TABLE r (id INT, b INT, PRIMARY KEY (id))")
    conn.execute("CREATE TABLE s (id INT, b INT, c INT, PRIMARY KEY (id))")
    conn.execute("CREATE TABLE t (id INT, c INT, d INT, PRIMARY KEY (id))")
    instance.load_table("r", [(i, i % 100) for i in range(R_ROWS)])
    instance.load_table("s", [(i, i % 100, i % 50) for i in range(S_ROWS)])
    instance.load_table("t", [(i, i % 50, i) for i in range(T_ROWS)])
    yield instance, conn
    conn.close()


JOIN_SQL = (
    "SELECT r.id, s.id, t.d FROM r, s, t "
    "WHERE r.b = s.b AND s.c = t.c"
)


def scan_nodes(plan):
    return [
        node for node in plan.walk()
        if isinstance(node, (p.SeqScanPlan, p.IndexScanPlan))
    ]


class TestExplainAnalyze:
    def test_actual_rows_match_real_cardinalities(self, server):
        instance, conn = server
        result = conn.execute(JOIN_SQL)
        assert len(result.rows) == FINAL_ROWS

        collector = result.exec_stats
        plan = result.plan_result.plan
        # The root operator's actuals equal the result cardinality.
        root = collector.lookup(plan)
        assert root.rows_out == FINAL_ROWS
        # Every base-table scan produced exactly its table's rows.
        expected_by_alias = {"r": R_ROWS, "s": S_ROWS, "t": T_ROWS}
        seen = {}
        for node in scan_nodes(plan):
            stats = collector.lookup(node)
            seen[node.quantifier.alias] = stats.rows_out
        assert seen == expected_by_alias
        # rows_in is derived from the children: the root consumes what
        # its single child (the top join) produced.
        child_rows = sum(
            collector.lookup(c).rows_out for c in plan.children
        )
        assert collector.rows_into(plan) == child_rows

    def test_joins_spill_and_report_it(self, server):
        instance, conn = server
        result = conn.execute(JOIN_SQL)
        total_spills = sum(
            collector_stats.spill_events
            for collector_stats in (
                result.exec_stats.lookup(node)
                for node in result.plan_result.plan.walk()
            )
            if collector_stats is not None
        )
        assert total_spills >= 1
        snap = instance.metrics.snapshot()
        assert snap["exec.spill_events"] >= 1

    def test_rendered_text_carries_estimates_and_actuals(self, server):
        instance, conn = server
        result = conn.execute(JOIN_SQL)
        text = result.explain(analyze=True)
        lines = text.splitlines()
        # Under fault injection the tree is followed by one trailer line
        # counting what the statement absorbed.
        if lines[-1].startswith("faults:"):
            assert re.fullmatch(
                r"faults: injected=\d+ retries=\d+", lines.pop()
            )
        # Every operator line pairs the optimizer's estimate with the
        # actuals.
        assert all("(rows=" in line for line in lines)
        assert all(
            "[actual" in line or "[never executed]" in line
            for line in lines
        )
        assert ("actual rows=%d" % FINAL_ROWS) in lines[0]
        assert "spills=" in text
        # elapsed must be populated: the join did simulated work.
        root = result.exec_stats.lookup(result.plan_result.plan)
        assert root.elapsed_us > 0
        assert root.pages_touched > 0
        # Plain EXPLAIN still renders the estimate-only tree.
        assert "[actual" not in result.explain()

    def test_cursor_explain_analyze_tracks_fetch_progress(self, server):
        instance, conn = server
        cursor = conn.open_cursor("SELECT id FROM r")
        cursor.fetchmany(10)
        partial = cursor.explain(analyze=True)
        # A cursor produces in batch granules: at least the rows fetched,
        # not yet the whole table.
        produced = int(
            re.search(r"actual rows=(\d+)", partial.splitlines()[0]).group(1)
        )
        assert 10 <= produced < R_ROWS
        cursor.fetchall()
        done = cursor.explain(analyze=True)
        assert ("actual rows=%d" % R_ROWS) in done.splitlines()[0]
        cursor.close()

    def test_never_executed_branch_is_labelled(self, server):
        instance, conn = server
        result = conn.execute(
            "SELECT id FROM r WHERE b = 1 AND b = 2"
        )
        assert result.rows == []
        text = result.explain(analyze=True)
        assert "[actual" in text  # the tree did start executing
