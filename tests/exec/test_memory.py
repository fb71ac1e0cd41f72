"""Unit tests for the memory governor (paper eqs. 4 and 5)."""

import pytest

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.common.errors import MemoryQuotaExceededError
from repro.exec import MemoryGovernor
from repro.exec.spill import WorkMemory
from repro.storage import FlashDisk, Volume


@pytest.fixture
def governor():
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=400)
    return MemoryGovernor(pool, max_pool_pages=1000, multiprogramming_level=4,
                          clock=clock)


def test_hard_limit_formula(governor):
    # (3/4 * max pool) / active requests  (eq. 4)
    task = governor.begin_task()
    assert task.hard_limit_pages == int(0.75 * 1000 / 1)
    task2 = governor.begin_task()
    assert task.hard_limit_pages == int(0.75 * 1000 / 2)
    governor.end_task(task2)
    assert task.hard_limit_pages == int(0.75 * 1000 / 1)


def test_soft_limit_formula(governor):
    # current pool size / multiprogramming level  (eq. 5)
    task = governor.begin_task()
    assert task.soft_limit_pages == 400 // 4


def test_soft_limit_tracks_pool_resizes(governor):
    task = governor.begin_task()
    governor.pool.set_capacity(200)
    assert task.soft_limit_pages == 200 // 4


class _Consumer:
    """Holds pages through its own work memory (a byte a page) and gives
    them all back when asked."""

    memory = None

    def __init__(self, task, depth, log=None, name=None):
        self.name, self.log, self.depth = name, log, depth
        self.relinquish_calls = 0
        self.memory = WorkMemory(task, 1, self)

    @property
    def memory_pages(self):
        return self.memory.pages_held if self.memory is not None else 0

    def relinquish_memory(self):
        self.relinquish_calls += 1
        if self.log is not None:
            self.log.append(self.name)
        freed = self.memory.pages_held
        self.memory.remove(self.memory.bytes_used)
        return freed


def test_hard_limit_exceeded_terminates(governor):
    task = governor.begin_task()
    with pytest.raises(MemoryQuotaExceededError):
        _Consumer(task, 0).memory.add(task.hard_limit_pages + 1)
    assert task.used_pages == 0


def test_allocate_release_roundtrip(governor):
    task = governor.begin_task()
    memory = _Consumer(task, 0).memory
    memory.add(50)
    assert task.used_pages == memory.pages_held == 50
    memory.remove(20)
    assert task.used_pages == memory.pages_held == 30
    memory.remove(1000)  # more than it holds: gives back what it has
    assert task.used_pages == memory.pages_held == 0
    memory.release_all()
    assert task.used_pages == 0
    assert not task._consumers


def test_soft_limit_triggers_reclamation(governor):
    task = governor.begin_task()
    holder = _Consumer(task, 0)
    holder.memory.add(60)
    caller = _Consumer(task, 1)
    assert caller.memory.reserve(task.soft_limit_pages - 60)  # at the limit
    assert holder.relinquish_calls == 0 and task.soft_limit_hits == 0
    assert caller.memory.reserve(10)  # pushes over: the walk frees room
    assert holder.relinquish_calls == 1
    assert task.soft_limit_hits == 1
    assert task.used_pages == task.soft_limit_pages - 50


def test_reclamation_is_top_down(governor):
    # "requesting that memory be relinquished starting at the 'highest'
    # consuming operator and moving down the execution tree"
    task = governor.begin_task()
    order = []
    deep = _Consumer(task, 2, order, "scan")       # near the inputs
    top = _Consumer(task, 0, order, "group-by")    # consumer at the top
    middle = _Consumer(task, 1, order, "join")
    for consumer in (deep, top, middle):
        consumer.memory.add(30)
    caller = _Consumer(task, 3, order, "caller")
    assert caller.memory.reserve(task.soft_limit_pages - 90 + 50)
    assert order == ["group-by", "join"]


def test_the_walk_skips_empty_consumers_and_stops_at_the_caller(governor):
    task = governor.begin_task()
    order = []
    empty = _Consumer(task, 0, order, "empty top")
    caller = _Consumer(task, 1, order, "caller")
    below = _Consumer(task, 2, order, "below")
    caller.memory.add(task.soft_limit_pages)
    below.memory.add(1)
    # The caller holds pages: it is never asked, and nothing below it is.
    assert not caller.memory.reserve(1)
    assert order == [] and task.soft_limit_hits == 1
    assert caller.memory.pages_held == task.soft_limit_pages
    # Holding nothing, a caller is passed over like any empty consumer,
    # and the consumers below it are asked in turn.
    caller.memory.release_all()
    filler = _Consumer(task, 3, order, "filler")
    filler.memory.add(task.soft_limit_pages - 1)
    assert empty.memory.reserve(3)
    assert order == ["below", "filler"]
    assert empty.memory.pages_held == task.used_pages == 3


def test_unregister_consumer(governor):
    task = governor.begin_task()
    consumer = _Consumer(task, 0)
    task.unregister_consumer(consumer)
    caller = _Consumer(task, 1)
    assert caller.memory.reserve(task.soft_limit_pages + 1) is False
    assert consumer.relinquish_calls == 0


def test_reserve_up_to_the_soft_limit(governor):
    task = governor.begin_task()
    soft = task.soft_limit_pages
    memory = _Consumer(task, 0).memory
    assert memory.reserve(soft // 2)
    assert memory.reserve(soft - soft // 2)
    assert task.used_pages == soft and task.soft_limit_hits == 0
    assert not memory.reserve(1)
    assert task.used_pages == soft and task.soft_limit_hits == 1


def test_active_requests_counts_tasks(governor):
    assert governor.active_requests == 1  # never below one
    tasks = [governor.begin_task() for __ in range(3)]
    assert governor.active_requests == 3
    for task in tasks:
        governor.end_task(task)
    assert governor.active_requests == 1
