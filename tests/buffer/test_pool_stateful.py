"""Stateful property testing of the buffer pool + heap interplay.

A hypothesis rule machine performs random interleavings of page creation,
fetches, pins/unpins, heap lock/unlock/free, and pool resizes, checking
the pool's core invariants after every step:

* resident frames never exceed capacity;
* pinned frames are never evicted;
* page contents always round-trip (through eviction, write-back, and heap
  spilling alike);
* ``resident_fraction`` (an incrementally maintained per-file count)
  equals a recount of the frame table.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
)

from repro.buffer import BufferPool, Heap, PageKind
from repro.common import SimClock
from repro.storage import FlashDisk, Volume


class PoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        clock = SimClock()
        self.volume = Volume(FlashDisk(clock, 200_000))
        self.dbfile = self.volume.create_file("data")
        temp = self.volume.create_file("temp")
        self.scratch = self.volume.create_file("scratch")
        self.pool = BufferPool(temp, capacity_pages=12)
        self.contents = {}   # page_no -> expected payload
        self.pinned = {}     # page_no -> frame (currently pinned by us)
        self.heaps = []      # [(heap, {slot: payload})]
        self.counter = 0

    pages = Bundle("pages")

    # -- disk-backed pages ----------------------------------------------- #

    def _headroom(self):
        return self.pool.capacity_pages - self.pool.pinned_count()

    @rule(target=pages)
    def new_page(self):
        if self._headroom() < 2:
            return multiple()  # a full-of-pins pool rightly refuses growth
        self.counter += 1
        payload = "payload-%d" % self.counter
        frame = self.pool.new_page(self.dbfile, PageKind.TABLE, payload)
        self.pool.unpin(frame, dirty=True)
        self.contents[frame.page_no] = payload
        return frame.page_no

    @rule(page=pages)
    def fetch_and_check(self, page):
        if page is None or self._headroom() < 2:
            return
        frame = self.pool.fetch(self.dbfile, page)
        assert frame.payload == self.contents[page]
        self.pool.unpin(frame)

    @rule(page=pages)
    def rewrite(self, page):
        if page is None or self._headroom() < 2:
            return
        self.counter += 1
        payload = "rewrite-%d" % self.counter
        frame = self.pool.fetch(self.dbfile, page)
        frame.payload = payload
        self.pool.unpin(frame, dirty=True)
        self.contents[page] = payload

    @rule(page=pages)
    def pin_for_a_while(self, page):
        if page is None or page in self.pinned:
            return
        if self._headroom() < 3:
            return  # keep room so the pool can always operate
        self.pinned[page] = self.pool.fetch(self.dbfile, page)

    @rule()
    def unpin_everything(self):
        for page, frame in self.pinned.items():
            self.pool.unpin(frame)
        self.pinned = {}

    # -- a second file that gets dropped ------------------------------------ #

    @rule()
    def new_scratch_page(self):
        if self._headroom() < 2:
            return
        self.pool.unpin(self.pool.new_page(self.scratch, PageKind.INDEX))

    @rule()
    def drop_scratch_frames(self):
        self.pool.discard(self.scratch)

    # -- heaps --------------------------------------------------------------- #

    @rule(n_pages=st.integers(min_value=1, max_value=3))
    def make_heap(self, n_pages):
        if self._headroom() < n_pages + 2:
            return
        heap = Heap(self.pool)
        slots = {}
        for i in range(n_pages):
            self.counter += 1
            payload = "heap-%d" % self.counter
            slots[heap.allocate_page(payload)] = payload
        heap.unlock()
        self.heaps.append((heap, slots))

    @rule()
    def relock_a_heap(self):
        if not self.heaps or self._headroom() < 4:
            return
        heap, slots = self.heaps[0]
        heap.lock()
        for slot, payload in slots.items():
            assert heap.read(slot) == payload
        heap.unlock()

    @rule()
    def free_a_heap(self):
        if not self.heaps:
            return
        heap, __ = self.heaps.pop()
        heap.free()

    # -- resizing ---------------------------------------------------------- #

    @rule(capacity=st.integers(min_value=4, max_value=24))
    def resize(self, capacity):
        self.pool.set_capacity(capacity)

    # -- invariants ----------------------------------------------------------- #

    @invariant()
    def capacity_respected(self):
        assert self.pool.used_pages <= self.pool.capacity_pages

    @invariant()
    def pinned_frames_resident(self):
        for page, frame in self.pinned.items():
            assert self.pool.resident(self.dbfile, page)
            assert frame.pin_count >= 1

    @invariant()
    def resident_fraction_is_a_recount(self):
        for file in (self.dbfile, self.scratch, self.pool.temp_file):
            resident = sum(
                1 for frame in self.pool._frames.values()
                if frame.owner is file
            )
            expected = (
                min(1.0, resident / file.page_count) if file.page_count
                else 0.0
            )
            assert self.pool.resident_fraction(file) == expected

    def teardown(self):
        for frame in self.pinned.values():
            self.pool.unpin(frame)
        for heap, __ in self.heaps:
            heap.free()


PoolMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
TestPoolMachine = PoolMachine.TestCase
