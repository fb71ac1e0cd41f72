"""E14: memory-governor quotas under concurrency (Section 4.3, eqs. 4-5).

Prints the hard limit ((3/4 * max pool) / active requests) and the soft
limit (current pool / multiprogramming level) as the number of active
requests and the pool size vary, and demonstrates top-down reclamation:
when a statement hits the soft limit, the consumer at the top of its
execution tree relinquishes memory first, so input operators are not
starved by their consumers.  E14c runs the same walk over real operators:
a GROUP BY over a hash join whose build fills the task's soft limit.
"""

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.exec import MemoryGovernor
from repro.exec.aggregates import HashGroupByOp
from repro.exec.operators import HashJoinOp
from repro.exec.spill import WorkMemory
from repro.storage import FlashDisk, Volume

from conftest import make_server, print_table

MAX_POOL_PAGES = 8192
MPL = 8


def run_quota_experiment():
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=4096)
    governor = MemoryGovernor(pool, MAX_POOL_PAGES, multiprogramming_level=MPL,
                              clock=clock)
    rows = []
    tasks = []
    for n_requests in (1, 2, 4, 8, 16):
        while len(tasks) < n_requests:
            tasks.append(governor.begin_task())
        rows.append((
            n_requests,
            pool.capacity_pages,
            governor.hard_limit_pages(),
            governor.soft_limit_pages(),
        ))
    for task in tasks:
        governor.end_task(task)
    # Pool resizes move the soft limit (current pool size, not max).
    task = governor.begin_task()
    for capacity in (4096, 1024, 256):
        pool.set_capacity(capacity)
        rows.append((1, capacity, governor.hard_limit_pages(),
                     governor.soft_limit_pages()))
    governor.end_task(task)
    return rows


class _Consumer:
    """Holds pages through its own work memory (a byte a page) and gives
    them all back when asked."""

    memory = None

    def __init__(self, task, name, depth, log):
        self.name, self.depth = name, depth
        self._log = log
        self.memory = WorkMemory(task, 1, self)

    @property
    def memory_pages(self):
        return self.memory.pages_held if self.memory is not None else 0

    def relinquish_memory(self):
        self._log.append(self.name)
        freed = self.memory.pages_held
        self.memory.remove(self.memory.bytes_used)
        return freed


def run_reclamation_experiment():
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
    governor = MemoryGovernor(pool, MAX_POOL_PAGES, multiprogramming_level=4,
                              clock=clock)
    task = governor.begin_task()
    log = []
    # An execution tree: group-by (top) <- hash join <- sort (input side),
    # 60 pages each.
    sort = _Consumer(task, "sort (deep input)", 2, log)
    for consumer in (sort, _Consumer(task, "hash join", 1, log),
                     _Consumer(task, "group by (top)", 0, log)):
        consumer.memory.add(60)
    # The sort asks for 30 pages past the soft limit: the walk frees them.
    assert sort.memory.reserve(task.soft_limit_pages - task.used_pages + 30)
    return log


#: Two 3,000-row tables, ``x`` in 50 values and ``y`` in 7: the join
#: emits 180,000 rows into 7 groups.
WALK_SQL = (
    "SELECT a.y, COUNT(*), SUM(b.z) FROM a JOIN b ON a.x = b.x GROUP BY a.y"
)


def run_operator_walk(pool_pages, mpl):
    """``WALK_SQL`` on a ``pool_pages`` pool at ``mpl``: who the walk
    asked (in order), the group-by fallback, the partitions the join
    evicted, the statement's simulated ms and its rows."""
    server = make_server(pool_pages=pool_pages, mpl=mpl)
    conn = server.connect()
    conn.execute("CREATE TABLE a (id INT PRIMARY KEY, x INT, y INT)")
    conn.execute("CREATE TABLE b (id INT PRIMARY KEY, x INT, z INT)")
    server.load_table("a", [(i, i % 50, i % 7) for i in range(3000)])
    server.load_table("b", [(i, i % 50, i % 100) for i in range(3000)])
    asked = []
    originals = {}
    for name, cls in (("hash join", HashJoinOp), ("group by", HashGroupByOp)):
        originals[cls] = cls.relinquish_memory

        def asking(operator, name=name, original=originals[cls]):
            asked.append(name)
            return original(operator)

        cls.relinquish_memory = asking
    try:
        start = server.clock.now
        result = conn.execute(WALK_SQL)
        elapsed_ms = (server.clock.now - start) / 1000.0
    finally:
        for cls, original in originals.items():
            cls.relinquish_memory = original
    evicted = sum(
        int(line.split("spills=")[1].split()[0])
        for line in result.explain(analyze=True).splitlines()
        if line.lstrip().startswith("HashJoin")
    )
    return (
        asked, "group_by_fallback" in result.notes, evicted, elapsed_ms,
        sorted(result.rows),
    )


def run_walk_experiment():
    __, __f, __e, __m, expected = run_operator_walk(2048, 1)
    rows = []
    for mpl in (1, 4, 8):
        asked, fallback, evicted, elapsed_ms, answer = run_operator_walk(64, mpl)
        rows.append((
            64 // mpl, ", ".join(asked) or "-", fallback, evicted,
            elapsed_ms, answer == expected,
        ))
    return rows


def test_e14_quota_formulas(once):
    rows = once(run_quota_experiment)
    print_table(
        "E14: memory governor quotas (max pool %d pages, MPL %d)"
        % (MAX_POOL_PAGES, MPL),
        ["active requests", "pool pages", "hard limit (eq.4)",
         "soft limit (eq.5)"],
        rows,
    )
    # eq. 4: hard limit divides 3/4 of the max pool by active requests.
    assert rows[0][2] == int(0.75 * MAX_POOL_PAGES)
    assert rows[2][2] == int(0.75 * MAX_POOL_PAGES / 4)
    # Hard limit halves as requests double.
    assert rows[1][2] == rows[0][2] // 2
    # eq. 5: soft limit follows the *current* pool size.
    assert rows[-1][3] == 256 // MPL
    assert rows[-3][3] == 4096 // MPL


def test_e14_top_down_reclamation(once):
    log = once(run_reclamation_experiment)
    print_table(
        "E14b: reclamation order when the soft limit is breached",
        ["asked to relinquish (in order)"],
        [(name,) for name in log],
    )
    assert log[0] == "group by (top)"
    # Inputs are asked last, if at all.
    if "sort (deep input)" in log:
        assert log.index("sort (deep input)") == len(log) - 1


def test_e14c_walk_over_operators(once):
    rows = once(run_walk_experiment)
    print_table(
        "E14c: the soft-limit walk over real operators "
        "(GROUP BY over a hash join, 64-page pool)",
        ["soft limit (pages)", "asked to relinquish (in order)",
         "group-by fallback", "partitions evicted", "statement ms (sim)",
         "answers match"],
        rows,
    )
    assert all(row[-1] for row in rows)
    # Under pressure the join, below the group-by, is asked and evicts;
    # the group-by keeps its 7 groups in memory.
    pressured = rows[-1]
    assert not pressured[2] and pressured[3] > 0
    assert "hash join" in pressured[1] and "group by" not in pressured[1]
