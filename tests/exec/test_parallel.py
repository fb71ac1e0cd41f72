"""Unit tests for intra-query parallelism (Section 4.4): the simulated
worker pool, and the join core whose CPU the engine charges to it."""

import pytest

from repro import Server, ServerConfig
from repro.common import SimClock
from repro.exec import parallel
from repro.exec.batch import Batch
from repro.exec.executor import ExecutionContext
from repro.exec.operators import Operator
from repro.exec.parallel import WORKER_SETUP_US, ParallelCoreOp, WorkerPool


class TestWorkerPool:
    def test_needs_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_fcfs_balances_uniform_work(self):
        pool = WorkerPool(4)
        for __ in range(400):
            pool.charge(10.0)
        assert pool.imbalance() == pytest.approx(1.0, abs=0.01)

    def test_fcfs_balances_skewed_work(self):
        # The key property of first-come-first-serve morsels: even with
        # wildly variable morsel costs, workers stay balanced.
        pool = WorkerPool(4)
        for index in range(400):
            pool.charge(1.0 if index % 10 else 200.0)
        assert pool.imbalance() < 1.15

    def test_wall_clock_is_critical_path(self):
        # Each worker sets itself up on its own timeline.
        pool = WorkerPool(2)
        pool.charge(100.0)
        pool.charge(30.0)
        assert pool.wall_clock_us() == 100.0 + WORKER_SETUP_US
        assert pool.total_work_us() == 130.0 + 2 * WORKER_SETUP_US

    def test_reduce_to_fewer_workers(self):
        pool = WorkerPool(4)
        for __ in range(100):
            pool.charge(10.0)
        pool.reduce_to(1)
        assert pool.n_workers == 1
        assert pool.reductions == 1
        for __ in range(100):
            pool.charge(10.0)
        # All later work lands on the lone survivor.
        assert pool.wall_clock_us() >= 1000.0

    def test_reduce_below_one_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(2).reduce_to(0)

    def test_reduce_to_more_is_noop(self):
        pool = WorkerPool(2)
        pool.reduce_to(8)
        assert pool.n_workers == 2
        assert pool.reductions == 0

    def test_worker_time_is_exact_picoseconds_however_charges_group(self):
        """A worker's time is the exact integer sum of its morsels: one
        charge of ``n`` units equals ``n`` charges of one, where a float
        sum of 0.1 µs ten times would not."""
        charges = [(0.1, 10), (1 / 3, 3), (0.0625, 256), (0.075, 17)]
        grouped, split = WorkerPool(1), WorkerPool(1)
        for us, count in charges:
            grouped.charge(us, count)
            for __ in range(count):
                split.charge(us)
        assert grouped.worker_ps() == split.worker_ps() == [
            sum(count * round(us * 1_000_000) for us, count in charges)
        ]
        assert grouped.worker_ps()[0] == 1_000_000 + 999_999 + 16_000_000 \
            + 1_275_000
        # Across workers the placement depends on the grouping, the
        # total work never does.
        many = WorkerPool(4)
        for us, count in charges:
            for __ in range(count):
                many.charge(us)
        assert sum(many.worker_ps()) == grouped.worker_ps()[0]
        assert all(isinstance(ps, int) for ps in many.worker_ps())


class Charges(Operator):
    """Charges ``us`` of CPU per batch it yields."""

    def __init__(self, batches, us):
        self.batches = batches
        self.us = us

    def execute_batches(self, ctx):
        for __ in range(self.batches):
            ctx.charge(self.us)
            yield Batch.from_columns((), [], 1)


def bare_context():
    return ExecutionContext(None, None, None, SimClock(), None)


def star(n_facts=2000, n_dims=100, workers=1):
    """``facts(id, dim, x)`` joined to ``dims(id, name)``: a one-join
    core, at ``max_query_tasks = workers``."""
    server = Server(ServerConfig(start_buffer_governor=False,
                                 initial_pool_pages=2048))
    conn = server.connect()
    conn.execute("CREATE TABLE facts (id INT PRIMARY KEY, dim INT, x INT)")
    conn.execute("CREATE TABLE dims (id INT PRIMARY KEY, name VARCHAR(10))")
    server.load_table(
        "facts", [(i, i % n_dims, i % 7) for i in range(n_facts)]
    )
    server.load_table("dims", [(d, "name%d" % d) for d in range(n_dims)])
    conn.execute("SET OPTION max_query_tasks = %d" % workers)
    return conn


STAR_SQL = (
    "SELECT f.id, f.dim, d.id, d.name FROM facts f "
    "JOIN dims d ON f.dim = d.id"
)


def core_pool(result, workers):
    assert result.notes["parallel_workers"] == workers
    return result.notes["parallel_pool"]


class RecordingPool(WorkerPool):
    def __init__(self, n_workers):
        super().__init__(n_workers)
        self.morsels = []

    def dispatch(self, cost_ps):
        self.morsels.append(cost_ps)
        super().dispatch(cost_ps)


class TestPipeline:
    """The scan-fed join core on the worker pool, through the engine:
    the pipeline properties of Section 4.4 on the serial operators."""

    def test_join_results_correct(self):
        result = star(workers=4).execute(STAR_SQL)
        core_pool(result, 4)
        assert len(result.rows) == 2000  # every fact matches one dim
        assert all(fact_dim == dim_id
                   for __, fact_dim, dim_id, __n in result.rows)

    def test_results_independent_of_worker_count(self):
        serial = star(workers=1).execute(STAR_SQL)
        parallel_result = star(workers=8).execute(STAR_SQL)
        core_pool(parallel_result, 8)
        assert serial.rows == parallel_result.rows

    def test_parallel_speedup_near_linear(self):
        pool = core_pool(star(n_facts=5000, workers=4).execute(STAR_SQL), 4)
        speedup = sum(pool.worker_ps()) / pool.wall_clock_ps()
        assert 3.0 < speedup <= 4.0

    def test_total_work_roughly_constant(self):
        # Parallelism should not inflate the total work much: the same
        # morsels, plus one setup per worker.
        pool = core_pool(
            star(n_facts=20_000, workers=8).execute(STAR_SQL), 8
        )
        one_worker_us = sum(pool.worker_ps()) / 1_000_000 + WORKER_SETUP_US
        assert pool.total_work_us() < one_worker_us * 1.10

    def test_reduction_to_one_only_slightly_worse_than_serial(
            self, monkeypatch):
        """The paper's claim: 'if the number of threads is dynamically
        reduced to one, then the total cost of the query is only slightly
        worse than if it was never set up to use parallelism.'  The
        engine never pulls workers, so the morsels it dispatched are
        replayed on a reduced pool."""
        monkeypatch.setattr(parallel, "WorkerPool", RecordingPool)
        morsels = core_pool(
            star(n_facts=5000, workers=8).execute(STAR_SQL), 8
        ).morsels
        serial, reduced = WorkerPool(1), WorkerPool(8)
        reduced.reduce_to(1)
        for cost_ps in morsels:
            serial.dispatch(cost_ps)
            reduced.dispatch(cost_ps)
        assert reduced.wall_clock_us() <= serial.wall_clock_us() * 1.10
        assert reduced.n_workers == 1

    def test_filter_stage(self):
        result = star(n_facts=1000, workers=3).execute(
            STAR_SQL.replace("f.id,", "f.x,") + " WHERE f.x = 0"
        )
        core_pool(result, 3)
        assert result.rows and all(row[0] == 0 for row in result.rows)

    def test_multi_join_pipeline(self):
        # A two-join core: fact -> dim1 -> dim2.
        server = Server(ServerConfig(start_buffer_governor=False))
        conn = server.connect()
        conn.execute("CREATE TABLE facts (id INT PRIMARY KEY, d1 INT, d2 INT)")
        conn.execute("CREATE TABLE dim1 (id INT PRIMARY KEY, a VARCHAR(5))")
        conn.execute("CREATE TABLE dim2 (id INT PRIMARY KEY, b VARCHAR(5))")
        server.load_table("facts", [(i, i % 10, i % 5) for i in range(500)])
        server.load_table("dim1", [(d, "a%d" % d) for d in range(10)])
        server.load_table("dim2", [(d, "b%d" % d) for d in range(5)])
        conn.execute("SET OPTION max_query_tasks = 4")
        result = conn.execute(
            "SELECT f.d1, f.d2, x.id, y.id FROM facts f "
            "JOIN dim1 x ON f.d1 = x.id JOIN dim2 y ON f.d2 = y.id"
        )
        pool = core_pool(result, 4)
        assert len(result.rows) == 500
        assert all(d1 == x and d2 == y for d1, d2, x, y in result.rows)
        assert pool.imbalance() < 1.2

    def test_group_by_stage(self):
        result = star(n_facts=2000, n_dims=10, workers=4).execute(
            "SELECT d.id, COUNT(*) FROM facts f JOIN dims d "
            "ON f.dim = d.id GROUP BY d.id"
        )
        core_pool(result, 4)
        assert len(result.rows) == 10
        assert all(count == 200 for __, count in result.rows)

    def test_group_by_independent_of_workers(self):
        sql = (
            "SELECT d.id, COUNT(*) FROM facts f JOIN dims d "
            "ON f.dim = d.id GROUP BY d.id"
        )
        results = [
            star(n_facts=1000, n_dims=8, workers=workers).execute(sql).rows
            for workers in (1, 4)
        ]
        assert results[0] == results[1]

    def test_charges_simulated_clock(self):
        """The core's CPU reaches the statement's clock once, as the
        critical path, through the context's one charge path."""
        ctx = bare_context()
        core = ParallelCoreOp(Charges(batches=6, us=10.5), n_workers=2)
        assert len(list(core.execute_batches(ctx))) == 6
        pool = ctx.notes["parallel_pool"]
        assert pool.worker_ps() == [31_500_000, 31_500_000]
        assert ctx.clock.now * 1_000_000 + ctx.carry_ps[0] \
            == pool.wall_clock_ps() == 31_500_000 + 50_000_000
        assert ctx.notes["parallel_wall_us"] == 81
        assert "charge" not in vars(ctx)

    def test_a_closed_core_charges_what_it_ran(self):
        ctx = bare_context()
        batches = ParallelCoreOp(
            Charges(batches=6, us=10.0), n_workers=2
        ).execute_batches(ctx)
        next(batches)
        next(batches)
        batches.close()
        assert ctx.clock.now == 10 + WORKER_SETUP_US
