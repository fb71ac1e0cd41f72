"""Unit tests for the memory governor (paper eqs. 4 and 5)."""

import pytest

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.common.errors import MemoryQuotaExceededError
from repro.exec import MemoryGovernor
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


def test_hard_limit_exceeded_terminates(governor):
    task = governor.begin_task()
    with pytest.raises(MemoryQuotaExceededError):
        task.allocate(task.hard_limit_pages + 1)


def test_allocate_release_roundtrip(governor):
    task = governor.begin_task()
    task.allocate(50)
    assert task.used_pages == 50
    task.release(20)
    assert task.used_pages == 30
    task.release(1000)
    assert task.used_pages == 0


class _FakeConsumer:
    def __init__(self, pages):
        self.memory_pages = pages
        self.relinquish_calls = 0

    def relinquish_memory(self):
        self.relinquish_calls += 1
        freed = self.memory_pages
        self.memory_pages = 0
        return freed


def test_soft_limit_triggers_reclamation(governor):
    task = governor.begin_task()
    consumer = _FakeConsumer(pages=60)
    task.register_consumer(consumer, depth=0)
    task.allocate(task.soft_limit_pages)  # at the limit
    task.allocate(10)  # pushes over: reclamation must fire
    assert consumer.relinquish_calls == 1
    assert task.soft_limit_hits == 1


def test_reclamation_is_top_down(governor):
    # "requesting that memory be relinquished starting at the 'highest'
    # consuming operator and moving down the execution tree"
    task = governor.begin_task()
    order = []

    class Tracker:
        def __init__(self, name):
            self.name = name
            self.memory_pages = 1000

        def relinquish_memory(self):
            order.append(self.name)
            return 1000

    deep = Tracker("scan")       # depth 2: near the inputs
    middle = Tracker("join")     # depth 1
    top = Tracker("group-by")    # depth 0: consumer at the top
    task.register_consumer(deep, depth=2)
    task.register_consumer(top, depth=0)
    task.register_consumer(middle, depth=1)
    task.allocate(task.soft_limit_pages + 1)
    assert order[0] == "group-by"


def test_unregister_consumer(governor):
    task = governor.begin_task()
    consumer = _FakeConsumer(10)
    task.register_consumer(consumer, depth=0)
    task.unregister_consumer(consumer)
    task.allocate(task.soft_limit_pages + 1)
    assert consumer.relinquish_calls == 0


def test_headroom(governor):
    task = governor.begin_task()
    soft = task.soft_limit_pages
    assert task.headroom_pages() == soft
    task.allocate(soft // 2)
    assert task.headroom_pages() == soft - soft // 2


def test_active_requests_counts_tasks(governor):
    assert governor.active_requests == 1  # never below one
    tasks = [governor.begin_task() for __ in range(3)]
    assert governor.active_requests == 3
    for task in tasks:
        governor.end_task(task)
    assert governor.active_requests == 1
