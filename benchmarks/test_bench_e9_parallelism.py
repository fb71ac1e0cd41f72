"""E9: adaptive intra-query parallelism (Section 4.4), through the engine.

Under ``SET OPTION max_query_tasks = N`` an eligible hash-join core runs
the serial operators with its CPU charged to N simulated first-come,
first-serve workers (:mod:`repro.exec.parallel`).  Reproduced claims:

* FCFS work sharing load-balances the core "independent of the number of
  joins in the plan" — imbalance stays near 1.0 (E9a);
* the core's speedup is near-linear and never above its worker count;
  the statement gains less, since what lies outside the core (the
  aggregate above it, the statement's own overhead) stays serial (E9a);
* **reducing the worker count to one mid-query costs only slightly more
  than never having parallelized** — the paper's graceful-adaptation
  claim.  The engine never pulls workers mid-query, so E9b replays the
  morsels the engine dispatched on :class:`WorkerPool` schedules;
* parallelism does not step around the memory governor: under a soft
  limit the parallel core spills exactly as the serial plan does (E9c).
"""

from unittest import mock

from repro.exec import parallel
from repro.exec.parallel import WorkerPool

from conftest import make_server, print_table

N_FACTS = 20_000
N_DIM_A = 500
N_DIM_B = 50

STAR_SQL = (
    "SELECT COUNT(*) FROM facts f JOIN dim_a a ON f.a = a.id "
    "JOIN dim_b b ON f.b = b.id"
)


def run_star(workers):
    """The two-join star query at ``max_query_tasks = workers``:
    ``(result, statement µs)``."""
    server = make_server(pool_pages=2048)
    conn = server.connect()
    conn.execute("CREATE TABLE facts (id INT PRIMARY KEY, a INT, b INT)")
    conn.execute("CREATE TABLE dim_a (id INT PRIMARY KEY, name VARCHAR(10))")
    conn.execute("CREATE TABLE dim_b (id INT PRIMARY KEY, name VARCHAR(10))")
    server.load_table(
        "facts", [(i, i % N_DIM_A, i % N_DIM_B) for i in range(N_FACTS)]
    )
    server.load_table("dim_a", [(d, "a%d" % d) for d in range(N_DIM_A)])
    server.load_table("dim_b", [(d, "b%d" % d) for d in range(N_DIM_B)])
    conn.execute("SET OPTION max_query_tasks = %d" % workers)
    start = server.clock.now
    result = conn.execute(STAR_SQL)
    return result, server.clock.now - start


def run_speedup_experiment():
    serial, serial_us = run_star(1)
    assert "parallel_workers" not in serial.notes
    runs = [run_star(workers) for workers in (2, 4, 8, 16)]
    pools = [result.notes["parallel_pool"] for result, __ in runs]
    # The core's CPU — the sum of its morsels — is what the serial plan
    # charges its clock for the core, whatever the worker count.
    core_ps = {sum(pool.worker_ps()) for pool in pools}
    assert len(core_ps) == 1
    core_us = core_ps.pop() / 1_000_000
    rows = [(1, core_us / 1000.0, core_us / 1000.0, 1.0, 1.0,
             serial_us / 1000.0, 1.0, serial.rows[0][0])]
    for (result, statement_us), pool in zip(runs, pools):
        # The statement differs from the serial one only by the core:
        # its critical path replaces its serial CPU (to within the
        # sub-µs carry).
        assert abs(
            statement_us - (serial_us - core_us + pool.wall_clock_us())
        ) <= 1
        rows.append((
            pool.n_workers,
            pool.wall_clock_us() / 1000.0,
            pool.total_work_us() / 1000.0,
            core_us / pool.wall_clock_us(),
            pool.imbalance(),
            statement_us / 1000.0,
            serial_us / statement_us,
            result.rows[0][0],
        ))
    return rows


class RecordingPool(WorkerPool):
    """The engine's worker pool, keeping every morsel it dispatches."""

    def __init__(self, n_workers):
        super().__init__(n_workers)
        self.morsels = []

    def dispatch(self, cost_ps):
        self.morsels.append(cost_ps)
        super().dispatch(cost_ps)


def engine_morsels(workers=8):
    """The morsels the engine dispatches for the star query's core."""
    with mock.patch.object(parallel, "WorkerPool", RecordingPool):
        result, __ = run_star(workers)
    return result.notes["parallel_pool"].morsels


def replay(morsels, workers, reduce_to=None, reduce_at_fraction=0.0):
    """``morsels`` on a ``workers``-worker pool, dropping to
    ``reduce_to`` workers after ``reduce_at_fraction`` of them."""
    pool = WorkerPool(workers)
    reduce_point = int(len(morsels) * reduce_at_fraction)
    for index, cost_ps in enumerate(morsels):
        if reduce_to is not None and index == reduce_point:
            pool.reduce_to(reduce_to)
        pool.dispatch(cost_ps)
    return pool


def run_reduction_experiment():
    """Schedules on :class:`WorkerPool` over the morsels the engine
    dispatched at 8 workers.  The engine never pulls workers mid-query:
    a reduction is a schedule replayed here, not something a query
    does."""
    morsels = engine_morsels()
    serial = replay(morsels, 1)
    rows = []
    for label, kwargs in (
        ("never parallel (1 worker)", dict(workers=1)),
        ("8 workers throughout", dict(workers=8)),
        ("8 -> 1 at 50% of the morsels", dict(workers=8, reduce_to=1,
                                              reduce_at_fraction=0.5)),
        ("8 -> 1 immediately", dict(workers=8, reduce_to=1,
                                    reduce_at_fraction=0.0)),
    ):
        pool = replay(morsels, **kwargs)
        rows.append((
            label,
            pool.wall_clock_us() / 1000.0,
            pool.wall_clock_us() / serial.wall_clock_us(),
            pool.total_work_us() / 1000.0,
            pool.n_workers,
        ))
    return rows


def test_e9a_speedup_and_balance(once):
    rows = once(run_speedup_experiment)
    print_table(
        "E9a: FCFS parallel join core through SQL (2 hash joins, "
        "%d probe rows)" % N_FACTS,
        ["workers", "core ms (sim)", "total work ms", "core speedup",
         "imbalance", "statement ms (sim)", "statement speedup", "rows"],
        rows,
    )
    by_workers = {row[0]: row for row in rows}
    # Same output everywhere.
    assert len({row[7] for row in rows}) == 1
    # Near-linear speedup at 4 and 8 workers, never above the count.
    assert by_workers[4][3] > 3.0
    assert by_workers[8][3] > 5.5
    assert all(row[3] <= row[0] and row[6] <= row[0] for row in rows)
    # Load stays balanced regardless of worker count.
    assert all(row[4] < 1.25 for row in rows)
    # Parallelism does not inflate total work much.
    assert by_workers[16][2] < by_workers[1][2] * 1.15


def test_e9b_graceful_reduction(once):
    rows = once(run_reduction_experiment)
    print_table(
        "E9b: dynamic thread reduction (the paper's graceful adaptation)",
        ["schedule", "wall ms (sim)", "vs never-parallel", "total work ms",
         "final workers"],
        rows,
    )
    by_label = {row[0]: row for row in rows}
    # Reducing to one immediately costs only slightly more than never
    # having set up parallelism.
    assert by_label["8 -> 1 immediately"][2] <= 1.10
    # Reducing halfway lands between full parallel and serial.
    halfway = by_label["8 -> 1 at 50% of the morsels"][1]
    full = by_label["8 workers throughout"][1]
    serial = by_label["never parallel (1 worker)"][1]
    assert full < halfway < serial


def region_report():
    """A hash-join + group-by report, pool-fit."""
    server = make_server(pool_pages=2048)
    conn = server.connect()
    conn.execute(
        "CREATE TABLE customer (id INT PRIMARY KEY, region VARCHAR(10))"
    )
    conn.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, cust_id INT, amount INT)"
    )
    server.load_table("customer", [(i, "r%d" % (i % 4)) for i in range(2000)])
    server.load_table(
        "orders", [(i, i % 2000, i % 100) for i in range(30000)]
    )
    return server, conn, (
        "SELECT c.region, COUNT(*) FROM customer c "
        "JOIN orders o ON o.cust_id = c.id GROUP BY c.region"
    )


def pressured_join():
    """The EXPLAIN ANALYZE test's three-way join under a ~2-page
    per-task soft limit (128-page pool, 64 task slots): it spills."""
    server = make_server(pool_pages=128, mpl=64)
    conn = server.connect()
    conn.execute("CREATE TABLE r (id INT, b INT, PRIMARY KEY (id))")
    conn.execute("CREATE TABLE s (id INT, b INT, c INT, PRIMARY KEY (id))")
    conn.execute("CREATE TABLE t (id INT, c INT, d INT, PRIMARY KEY (id))")
    server.load_table("r", [(i, i % 100) for i in range(300)])
    server.load_table("s", [(i, i % 100, i % 50) for i in range(200)])
    server.load_table("t", [(i, i % 50, i) for i in range(100)])
    return server, conn, (
        "SELECT r.id, s.id, t.d FROM r, s, t WHERE r.b = s.b AND s.c = t.c"
    )


def run_engine_experiment():
    """The same SQL serial and with max_query_tasks > 1."""
    rows = []
    for label, setup, workers in (
        ("region report", region_report, 8),
        ("pressured r-s-t", pressured_join, 4),
    ):
        for tasks in (1, workers):
            server, conn, sql = setup()
            conn.execute("SET OPTION max_query_tasks = %d" % tasks)
            before = server.metrics.snapshot()
            start = server.clock.now
            result = conn.execute(sql)
            elapsed_ms = (server.clock.now - start) / 1000.0
            after = server.metrics.snapshot()
            rows.append((
                label, tasks, elapsed_ms, len(result),
                after.get("exec.spill_events", 0)
                - before.get("exec.spill_events", 0),
                after.get("memgov.soft_limit_hits", 0)
                - before.get("memgov.soft_limit_hits", 0),
                result.notes.get("parallel_workers", "serial"),
            ))
    return rows


def test_e9c_engine_integration(once):
    rows = once(run_engine_experiment)
    print_table(
        "E9c: SET OPTION max_query_tasks through the full engine",
        ["query", "max_query_tasks", "query ms (sim)", "rows", "spills",
         "soft-limit hits", "mode"],
        rows,
    )
    report_serial, report_parallel, pressured_serial, pressured_parallel = (
        rows
    )
    assert report_serial[3] == report_parallel[3] == 4
    assert report_parallel[2] < report_serial[2]
    # Under memory pressure the parallel core is governed like the
    # serial plan: the same spills and soft-limit hits.
    assert pressured_serial[4] > 0 and pressured_serial[5] > 0
    assert pressured_parallel[3:6] == pressured_serial[3:6]
    # No row is faster than its workers allow.
    for serial, parallel_row in ((report_serial, report_parallel),
                                 (pressured_serial, pressured_parallel)):
        assert serial[2] / parallel_row[2] <= parallel_row[1]
