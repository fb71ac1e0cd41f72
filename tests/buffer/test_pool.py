"""Unit tests for the buffer pool."""

import tracemalloc

import pytest

from repro.buffer import BufferPool, PageKind
from repro.common import SimClock
from repro.storage import FlashDisk, Volume
from tests.conftest import count_calls


@pytest.fixture
def env():
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 50_000))
    dbfile = volume.create_file("main.db")
    temp = volume.create_file("temp")
    pool = BufferPool(temp, capacity_pages=8)
    return clock, volume, dbfile, temp, pool


def fill_file(dbfile, pool, n_pages):
    pages = []
    for i in range(n_pages):
        frame = pool.new_page(dbfile, PageKind.TABLE, payload={"rows": [i]})
        pages.append(frame.page_no)
        pool.unpin(frame, dirty=True)
    return pages


def test_new_page_is_pinned_and_dirty(env):
    __, __, dbfile, __, pool = env
    frame = pool.new_page(dbfile, PageKind.TABLE, payload="x")
    assert frame.pinned
    assert frame.dirty
    assert pool.used_pages == 1


def test_fetch_hit_does_no_io(env):
    clock, volume, dbfile, __, pool = env
    frame = pool.new_page(dbfile, payload="x")
    pool.unpin(frame)
    reads_before = volume.disk.reads
    again = pool.fetch(dbfile, frame.page_no)
    assert again is frame
    assert volume.disk.reads == reads_before
    assert pool.hits == 1
    pool.unpin(again)


def test_fetch_miss_reads_from_device(env):
    __, volume, dbfile, __, pool = env
    pages = fill_file(dbfile, pool, 12)  # exceeds capacity 8: oldest evicted
    evicted = pages[0]
    assert not pool.resident(dbfile, evicted)
    reads_before = volume.disk.reads
    frame = pool.fetch(dbfile, evicted)
    assert volume.disk.reads == reads_before + 1
    assert frame.payload == {"rows": [0]}
    pool.unpin(frame)


def test_eviction_writes_back_dirty_pages(env):
    __, volume, dbfile, __, pool = env
    fill_file(dbfile, pool, 12)
    assert pool.evictions >= 4
    assert pool.writebacks >= 4
    # The data survives the round trip through the device.
    frame = pool.fetch(dbfile, 0)
    assert frame.payload == {"rows": [0]}
    pool.unpin(frame)


def test_capacity_never_exceeded(env):
    __, __, dbfile, __, pool = env
    fill_file(dbfile, pool, 30)
    assert pool.used_pages <= pool.capacity_pages == 8


def test_unpin_below_zero_rejected(env):
    __, __, dbfile, __, pool = env
    frame = pool.new_page(dbfile)
    pool.unpin(frame)
    with pytest.raises(ValueError):
        pool.unpin(frame)


def test_shrink_evicts(env):
    __, __, dbfile, __, pool = env
    fill_file(dbfile, pool, 8)
    pool.set_capacity(3)
    assert pool.capacity_pages == 3
    assert pool.used_pages <= 3


def test_shrink_stops_at_pinned_floor(env):
    __, __, dbfile, __, pool = env
    frames = [pool.new_page(dbfile) for __ in range(5)]  # all pinned
    actual = pool.set_capacity(2)
    assert actual == 5
    for frame in frames:
        pool.unpin(frame)


def test_grow_just_raises_ceiling(env):
    __, __, dbfile, __, pool = env
    fill_file(dbfile, pool, 4)
    pool.set_capacity(16)
    assert pool.capacity_pages == 16
    assert pool.used_pages == 4


def test_flush_all_clears_dirty(env):
    __, volume, dbfile, __, pool = env
    frame = pool.new_page(dbfile, payload="v")
    pool.unpin(frame, dirty=True)
    pool.flush_all()
    assert not frame.dirty
    assert volume.peek_payload(dbfile.global_page(frame.page_no)) == "v"


def test_discard_drops_without_writeback(env):
    __, volume, dbfile, __, pool = env
    frame = pool.new_page(dbfile, payload="gone")
    pool.unpin(frame, dirty=True)
    writes_before = volume.disk.writes
    pool.discard(dbfile)
    assert pool.used_pages == 0
    assert volume.disk.writes == writes_before


def test_resident_fraction(env):
    __, __, dbfile, __, pool = env
    fill_file(dbfile, pool, 4)
    assert pool.resident_fraction(dbfile) == pytest.approx(1.0)
    fill_file(dbfile, pool, 12)  # 16 total pages, at most 8 resident
    assert pool.resident_fraction(dbfile) <= 0.5 + 1e-9


def test_hit_and_resident_fraction_cost_is_independent_of_pool_size():
    """The hit path and the cost model's residency lookup are O(1): the
    same number of calls in a 16-frame and a 2,048-frame pool, both fully
    resident.  A scan of the ring or the frame table on either path — the
    ``min(f.last_ref_tick for f in ring)`` this replaced — fails here."""
    costs = {}
    for n_pages in (16, 2048):
        volume = Volume(FlashDisk(SimClock(), 50_000))
        dbfile = volume.create_file("main.db")
        pool = BufferPool(volume.create_file("temp"), capacity_pages=n_pages)
        # The oldest page sits in the last segment at either size, so both
        # hits take the same branch through the policy.
        oldest = fill_file(dbfile, pool, n_pages)[0]
        assert pool.used_pages == n_pages and pool.misses == 0

        def hit():
            pool.unpin(pool.fetch(dbfile, oldest))

        costs[n_pages] = (
            count_calls(hit),
            count_calls(lambda: pool.resident_fraction(dbfile)),
        )
        assert pool.hits == 1 and pool.resident_fraction(dbfile) == 1.0
    assert costs[16] == costs[2048]


def _peak_allocation(fn):
    """Peak bytes ``fn()`` holds beyond what was live when it started."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_miss_and_eviction_cost_is_independent_of_pool_size():
    """A miss that evicts makes the same calls and holds the same memory
    in a 16-frame and a 2,048-frame pool: the policy is handed the live
    view of the frame table, so nothing is built per victim.  (A set of
    every frame is one builtin call at any size — the allocation is what
    shows it.)"""
    costs = {}
    for n_pages in (16, 2048):
        volume = Volume(FlashDisk(SimClock(), 50_000))
        dbfile = volume.create_file("main.db")
        pool = BufferPool(volume.create_file("temp"), capacity_pages=n_pages)
        pages = fill_file(dbfile, pool, n_pages + 1)
        # Every frame is a candidate, so each sweep stops at its first
        # frame at either size.
        for frame in pool._frames.values():
            frame.score = 0.0

        def miss():
            absent = next(p for p in pages if not pool.resident(dbfile, p))
            return lambda: pool.unpin(pool.fetch(dbfile, absent))

        misses, evictions = pool.misses, pool.evictions
        costs[n_pages] = (count_calls(miss()), _peak_allocation(miss()))
        assert pool.misses == misses + 2
        assert pool.evictions == evictions + 2
    assert costs[16][0] == costs[2048][0]
    assert costs[2048][1] < costs[16][1] + 16 * 1024


def test_miss_accounting(env):
    __, __, dbfile, __, pool = env
    mark = pool.mark()
    fill_file(dbfile, pool, 3)
    frame = pool.fetch(dbfile, 0)  # hit
    pool.unpin(frame)
    assert pool.misses_since(mark) == 0  # new_page is not a miss
    pool.set_capacity(1)
    evicted = next(p for p in range(3) if not pool.resident(dbfile, p))
    frame = pool.fetch(dbfile, evicted)
    pool.unpin(frame)
    assert pool.misses_since(mark) >= 1


def test_heap_frames_share_the_pool(env):
    __, __, dbfile, __, pool = env

    class FakeHeap:
        def note_spilled(self, slot, page):
            pass

    heap = FakeHeap()
    frame = pool.allocate_heap_frame((heap, 0), payload="h")
    assert frame.kind == PageKind.HEAP
    assert pool.used_pages == 1
    pool.unpin(frame)
    pool.release_frame(frame)
    assert pool.used_pages == 0


def test_minimum_capacity_is_one(env):
    __, __, __, temp, __ = env
    with pytest.raises(ValueError):
        BufferPool(temp, capacity_pages=0)
