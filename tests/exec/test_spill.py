"""Unit tests for work-memory accounting and temp-file spilling."""

import pytest

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.common.errors import ExecutionError
from repro.exec import MemoryGovernor
from repro.exec.spill import (
    SpillFile,
    SpillableBuffer,
    WorkMemory,
    row_bytes,
)
from repro.storage import FlashDisk, Volume
from tests.exec.env_reference import env_row_bytes


@pytest.fixture
def env():
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    temp = volume.create_file("temp")
    pool = BufferPool(temp, capacity_pages=64)
    governor = MemoryGovernor(pool, 1024, multiprogramming_level=4,
                              clock=clock)
    task = governor.begin_task()

    class Ctx:
        pass

    ctx = Ctx()
    ctx.pool = pool
    ctx.temp_file = temp
    ctx.task = task
    ctx.fault_plan = None
    ctx.yield_hook = None
    return ctx, temp, task, volume


class TestRowBytes:
    def test_scales_with_width(self):
        assert row_bytes(20) > row_bytes(1) > 0

    def test_equals_the_environment_estimate(self):
        """A row's bytes from its width are what the environment
        estimate it replaced gave for the same row."""
        for env in ({}, {0: (1,)}, {0: (1,) * 10, 1: (2,) * 10}):
            width = sum(len(values) for values in env.values())
            assert row_bytes(width) == env_row_bytes(env)


class _Owner:
    """A consumer holding nothing but its work memory."""

    depth = 0
    memory = None

    @property
    def memory_pages(self):
        return self.memory.pages_held if self.memory is not None else 0

    def relinquish_memory(self):
        return 0


def work_memory(task, page_size):
    owner = _Owner()
    owner.memory = WorkMemory(task, page_size, owner)
    return owner.memory


class TestWorkMemory:
    def test_pages_track_bytes(self, env):
        ctx, __, task, __v = env
        memory = work_memory(task, ctx.pool.page_size)
        memory.add(ctx.pool.page_size * 3)
        assert memory.pages_held == 3
        assert task.used_pages == 3
        memory.remove(ctx.pool.page_size * 2)
        assert memory.pages_held == 1
        memory.release_all()
        assert task.used_pages == 0

    def test_partial_pages_round_up(self, env):
        ctx, __, task, __v = env
        memory = work_memory(task, ctx.pool.page_size)
        memory.add(1)
        assert memory.pages_held == 1

    def test_reserve_at_the_soft_limit(self, env):
        ctx, __, task, __v = env
        memory = work_memory(task, ctx.pool.page_size)
        page = ctx.pool.page_size
        soft_bytes = task.soft_limit_pages * page
        assert memory.reserve(soft_bytes - page)
        assert memory.pages_held == task.soft_limit_pages - 1
        # The last page fits; a byte past it does not, and is not taken.
        assert memory.reserve(page)
        assert not memory.reserve(1)
        assert memory.bytes_used == soft_bytes
        assert memory.pages_held == task.used_pages == task.soft_limit_pages
        assert task.soft_limit_hits == 1


class TestSpillFile:
    def test_roundtrip_in_order(self, env):
        ctx, temp, __, __v = env
        spill = SpillFile(temp, row_bytes_estimate=64, page_size=ctx.pool.page_size)
        for i in range(500):
            spill.append(("row", i))
        assert spill.row_count == 500
        assert list(spill.read_all()) == [("row", i) for i in range(500)]

    def test_charges_device_io(self, env):
        ctx, temp, __, volume = env
        writes_before = volume.disk.writes
        spill = SpillFile(temp, 64, ctx.pool.page_size)
        for i in range(500):
            spill.append(i)
        spill.finish_writing()
        assert volume.disk.writes > writes_before

    def test_free_releases_pages(self, env):
        ctx, temp, __, __v = env
        spill = SpillFile(temp, 64, ctx.pool.page_size)
        for i in range(500):
            spill.append(i)
        spill.finish_writing()
        assert temp.page_count > 0
        spill.free()
        assert temp.page_count == 0

    def test_multiple_read_passes(self, env):
        ctx, temp, __, __v = env
        spill = SpillFile(temp, 64, ctx.pool.page_size)
        for i in range(100):
            spill.append(i)
        first = list(spill.read_all())
        second = list(spill.read_all())
        assert first == second


class TestSpillableBuffer:
    def test_small_buffer_stays_in_memory(self, env):
        ctx, temp, __, __v = env
        buffer = SpillableBuffer(ctx, 0, row_bytes_estimate=64)
        for i in range(10):
            buffer.append({0: (i,)})
        buffer.seal()
        assert temp.page_count == 0
        assert len(buffer) == 10
        assert [env_row[0][0] for env_row in buffer.scan()] == list(range(10))

    def test_large_buffer_spills(self, env):
        ctx, temp, task, __v = env
        buffer = SpillableBuffer(ctx, 0, row_bytes_estimate=ctx.pool.page_size)
        n = task.soft_limit_pages + 20
        for i in range(n):
            buffer.append({0: (i,)})
        buffer.seal()
        assert temp.page_count > 0  # tail went to disk
        assert len(buffer) == n
        assert [env_row[0][0] for env_row in buffer.scan()] == list(range(n))

    def test_append_after_seal_rejected(self, env):
        ctx, __, __t, __v = env
        buffer = SpillableBuffer(ctx, 0)
        buffer.seal()
        with pytest.raises(ExecutionError):
            buffer.append({0: (1,)})

    def test_free_releases_everything(self, env):
        ctx, temp, task, __v = env
        buffer = SpillableBuffer(ctx, 0, row_bytes_estimate=ctx.pool.page_size)
        for i in range(task.soft_limit_pages + 20):
            buffer.append({0: (i,)})
        buffer.free()
        assert temp.page_count == 0
        assert task.used_pages == 0
