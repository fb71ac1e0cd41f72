"""Edge-case tests for aggregation, distinct, and sorting operators."""

import pytest

from repro import Server, ServerConfig
from repro.buffer import BufferPool
from repro.common import SimClock
from repro.exec import MemoryGovernor
from repro.exec.aggregates import AggState, HashGroupByOp
from repro.exec.batch import Batch
from repro.exec.executor import ExecutionContext
from repro.exec.operators import Operator
from repro.sql import ast
from repro.sql.binder import GROUP_ENV
from repro.storage import FlashDisk, Volume
from tests.exec.env_reference import env_rows


@pytest.fixture
def conn():
    server = Server(ServerConfig(start_buffer_governor=False,
                                 initial_pool_pages=1024))
    connection = server.connect()
    connection.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, k INT, v DOUBLE, s VARCHAR(10))"
    )
    return connection


class TestAggregateEdges:
    def test_aggregates_over_all_nulls(self, conn):
        conn.execute("INSERT INTO t VALUES (1, NULL, NULL, NULL), "
                     "(2, NULL, NULL, NULL)")
        result = conn.execute(
            "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t"
        )
        assert result.rows == [(2, 0, None, None, None, None)]

    def test_group_key_null_forms_its_own_group(self, conn):
        conn.execute("INSERT INTO t VALUES (1, NULL, 1.0, 'a'), "
                     "(2, NULL, 2.0, 'b'), (3, 5, 3.0, 'c')")
        result = conn.execute(
            "SELECT k, COUNT(*) FROM t GROUP BY k"
        )
        assert sorted(result.rows, key=repr) == sorted(
            [(None, 2), (5, 1)], key=repr
        )

    def test_min_max_on_strings(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 1, 0.0, 'pear'), "
                     "(2, 1, 0.0, 'apple'), (3, 1, 0.0, 'plum')")
        result = conn.execute("SELECT MIN(s), MAX(s) FROM t")
        assert result.rows == [("apple", "plum")]

    def test_sum_of_mixed_sign(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 1, -5.5, 'x'), "
                     "(2, 1, 5.5, 'y')")
        assert conn.execute("SELECT SUM(v) FROM t").rows == [(0.0,)]

    def test_count_distinct_with_nulls(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 1, 0.0, 'a'), "
                     "(2, 1, 0.0, 'a'), (3, 2, 0.0, NULL), (4, 2, 0.0, 'b')")
        result = conn.execute("SELECT COUNT(DISTINCT s) FROM t")
        assert result.rows == [(2,)]  # NULL excluded

    def test_avg_distinct(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 1, 10.0, 'a'), "
                     "(2, 1, 10.0, 'a'), (3, 1, 20.0, 'b')")
        result = conn.execute("SELECT AVG(DISTINCT v) FROM t")
        assert result.rows == [(15.0,)]

    def test_multiple_aggregates_same_column(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 1, 2.0, 'a'), "
                     "(2, 1, 4.0, 'b')")
        result = conn.execute(
            "SELECT SUM(v), SUM(v) + AVG(v), MAX(v) - MIN(v) FROM t"
        )
        assert result.rows == [(6.0, 9.0, 2.0)]

    def test_group_by_two_keys(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 1, 1.0, 'a'), "
                     "(2, 1, 2.0, 'a'), (3, 1, 3.0, 'b'), (4, 2, 4.0, 'a')")
        result = conn.execute(
            "SELECT k, s, COUNT(*) FROM t GROUP BY k, s ORDER BY k, s"
        )
        assert result.rows == [(1, "a", 2), (1, "b", 1), (2, "a", 1)]


class TestDistinctAndOrder:
    def test_distinct_with_nulls(self, conn):
        conn.execute("INSERT INTO t VALUES (1, NULL, 0.0, 'x'), "
                     "(2, NULL, 0.0, 'x'), (3, 1, 0.0, 'x')")
        result = conn.execute("SELECT DISTINCT k FROM t")
        assert len(result) == 2

    def test_order_by_multiple_directions(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 2, 5.0, 'a'), "
                     "(2, 1, 5.0, 'b'), (3, 2, 1.0, 'c'), (4, 1, 9.0, 'd')")
        result = conn.execute(
            "SELECT k, v FROM t ORDER BY k ASC, v DESC"
        )
        assert result.rows == [(1, 9.0), (1, 5.0), (2, 5.0), (2, 1.0)]

    def test_limit_zero(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 1, 1.0, 'a')")
        assert conn.execute("SELECT id FROM t LIMIT 0").rows == []

    def test_limit_beyond_rows(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 1, 1.0, 'a')")
        assert len(conn.execute("SELECT id FROM t LIMIT 99")) == 1

    def test_order_by_expression(self, conn):
        conn.execute("INSERT INTO t VALUES (1, 3, 1.0, 'a'), "
                     "(2, 1, 10.0, 'b')")
        result = conn.execute("SELECT id FROM t ORDER BY k * v")
        assert result.rows == [(1,), (2,)]


class TestEmptyInputs:
    def test_everything_over_empty_table(self, conn):
        assert conn.execute("SELECT * FROM t").rows == []
        assert conn.execute("SELECT COUNT(*) FROM t").rows == [(0,)]
        assert conn.execute("SELECT k FROM t GROUP BY k").rows == []
        assert conn.execute("SELECT DISTINCT k FROM t").rows == []
        assert conn.execute("SELECT k FROM t ORDER BY k").rows == []

    def test_join_with_empty_side(self, conn):
        conn.execute("CREATE TABLE u (id INT PRIMARY KEY)")
        conn.execute("INSERT INTO t VALUES (1, 1, 1.0, 'a')")
        assert conn.execute(
            "SELECT COUNT(*) FROM t JOIN u ON t.k = u.id"
        ).rows == [(0,)]
        assert conn.execute(
            "SELECT t.id, u.id FROM t LEFT JOIN u ON t.k = u.id"
        ).rows == [(1, None)]


# --------------------------------------------------------------------- #
# the fold, at operator level
# --------------------------------------------------------------------- #

def _column(index):
    ref = ast.ColumnRef(None, "c%d" % index)
    ref.quantifier_id, ref.column_index, ref.type_name = 1, index, "INT"
    return ref


class _Batches(Operator):
    def __init__(self, rows, size):
        self.rows, self.size = rows, size

    def execute_batches(self, ctx):
        for start in range(0, len(self.rows), self.size):
            yield Batch.from_rows(1, self.rows[start:start + self.size])


def _group_by(rows, chunk, aggregates, pool_pages=8, mpl=8):
    """Run ``GROUP BY c0`` over ``rows`` fed ``chunk`` at a time under a
    one-page soft limit; returns (operator, result rows, clock)."""
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    temp = volume.create_file("temp")
    pool = BufferPool(temp, capacity_pages=pool_pages)
    governor = MemoryGovernor(pool, 4096, multiprogramming_level=mpl,
                              clock=clock)
    ctx = ExecutionContext(
        pool, temp, None, clock, governor.begin_task(), batch_rows=chunk
    )
    operator = HashGroupByOp(
        _Batches(rows, chunk), [(_column(0), "k", "INT")], aggregates
    )
    result = [
        env[GROUP_ENV]
        for batch in operator.execute_batches(ctx)
        for env in env_rows(batch)
    ]
    return operator, result, clock


class TestFoldBoundaries:
    def test_fallback_engagement_ignores_batch_boundaries(self):
        """The soft limit trips on one particular row — mid-batch at every
        chunk size here — so rows written to the fallback table, the
        answer and the simulated clock are the same at 7, 64 and 256 rows
        a batch."""
        rows = [(i % 300, i) for i in range(900)]
        aggregates = [
            ast.FunctionCall("COUNT", [], star=True),
            ast.FunctionCall("SUM", [_column(1)]),
        ]
        outcomes = []
        for chunk in (7, 64, 256):
            operator, result, clock = _group_by(rows, chunk, aggregates)
            assert operator.fallback_engaged
            outcomes.append((
                operator.fallback_rows_written, sorted(result), clock.now,
            ))
        # 4,096-byte page / 80 bytes a group: the 52nd group trips it.
        assert outcomes[0][0] == 300
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][1][:2] == [(0, 3, 900), (1, 3, 903)]


def _string_dispatch_fold(call, values):
    """The aggregate fold as it compared ``call.name`` per value."""
    count, total, extreme, distinct = 0, None, None, set()
    for value in values:
        if call.name == "COUNT" and call.star:
            count += 1
            continue
        if value is None:
            continue
        if call.distinct:
            if value in distinct:
                continue
            distinct.add(value)
        count += 1
        if call.name in ("SUM", "AVG"):
            total = value if total is None else total + value
        elif call.name == "MIN":
            extreme = value if extreme is None else min(extreme, value)
        elif call.name == "MAX":
            extreme = value if extreme is None else max(extreme, value)
    if call.name == "COUNT":
        return count
    if call.name == "SUM":
        return total
    if call.name == "AVG":
        return None if count == 0 else total / count
    return extreme


@pytest.mark.parametrize("values", [
    [], [None, None], [3, None, 1, 3, None, 2], [2.5, -1.0, 2.5],
    ["b", None, "a", "b"],
])
@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("name", ["COUNT", "SUM", "AVG", "MIN", "MAX"])
def test_kind_resolved_state_equals_string_dispatch(name, distinct, values):
    if values and isinstance(values[0], str) and name in ("SUM", "AVG"):
        pytest.skip("no string sums")
    calls = [ast.FunctionCall(name, [_column(1)], distinct=distinct)]
    if name == "COUNT" and not distinct:
        calls.append(ast.FunctionCall("COUNT", [], star=True))
    for call in calls:
        state = AggState(call)
        for value in values:
            state.accumulate_value(value)
        assert state.finalize() == _string_dispatch_fold(call, values)
        # The serialized partial state round-trips through a merge.
        merged = AggState(call)
        merged.merge_serialized(state.serialize())
        assert merged.finalize() == state.finalize()
