"""E14: memory-governor quotas under concurrency (Section 4.3, eqs. 4-5).

Prints the hard limit ((3/4 * max pool) / active requests) and the soft
limit (current pool / multiprogramming level) as the number of active
requests and the pool size vary, and demonstrates top-down reclamation:
when a statement hits the soft limit, the consumer at the top of its
execution tree relinquishes memory first, so input operators are not
starved by their consumers.
"""

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.exec import MemoryGovernor
from repro.storage import FlashDisk, Volume

from conftest import print_table

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
    def __init__(self, name, pages, log):
        self.name = name
        self.memory_pages = pages
        self._log = log

    def relinquish_memory(self):
        self._log.append(self.name)
        freed = self.memory_pages
        self.memory_pages = 0
        return freed


def run_reclamation_experiment():
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
    governor = MemoryGovernor(pool, MAX_POOL_PAGES, multiprogramming_level=4,
                              clock=clock)
    task = governor.begin_task()
    log = []
    # An execution tree: group-by (top) <- hash join <- sort (input side).
    task.register_consumer(_Consumer("sort (deep input)", 60, log), depth=2)
    task.register_consumer(_Consumer("hash join", 60, log), depth=1)
    task.register_consumer(_Consumer("group by (top)", 60, log), depth=0)
    task.allocate(task.soft_limit_pages)  # fill the quota
    task.allocate(30)                     # breach -> reclamation
    return log


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
