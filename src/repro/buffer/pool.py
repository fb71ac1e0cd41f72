"""The heterogeneous buffer pool."""

import contextlib

from repro.analysis.races import tap as _race_tap
from repro.buffer.frames import Frame, PageKind
from repro.buffer.replacement import GClockPolicy
from repro.common.errors import BufferPoolExhaustedError


class BufferPool:
    """A single pool of uniform-size frames for every page type.

    The pool's *capacity* (in frames) is dynamic — the buffer governor
    resizes it as system memory conditions change.  Shrinking evicts
    unpinned frames (writing dirty ones back to their file, or spilling
    unlocked heap pages to the temporary file); growth simply raises the
    ceiling.

    I/O time is charged to the simulated clock through the PagedFiles.
    """

    def __init__(self, temp_file, capacity_pages, policy=None):
        if capacity_pages < 1:
            raise ValueError("pool needs at least one frame")
        self.temp_file = temp_file
        self.capacity_pages = int(capacity_pages)
        self.policy = policy if policy is not None else GClockPolicy()
        self._frames = {}  # key -> Frame
        #: Resident disk-backed frames per file, kept in step with
        #: ``_frames`` by ``_add_frame`` / ``_drop_frame``: the paper's
        #: "maintained in real time" statistic behind ``resident_fraction``.
        self._resident = {}  # PagedFile -> frame count
        self._tick = 0
        #: Dirty-page table (ARIES): key -> recLSN, the end-of-log LSN at
        #: the moment a clean disk-backed frame first went dirty.  Its
        #: snapshot travels in every fuzzy-checkpoint BEGIN record.
        self._dirty_rec_lsn = {}
        #: End-of-log LSN source (the server wires the transaction log's
        #: ``peek_next_lsn``); None degrades recLSNs to zero.
        self.lsn_fn = None
        #: Write-ahead hook: called before any dirty disk-backed frame is
        #: written back, so the log is always forced first (the server
        #: wires the transaction log's ``force``).
        self.wal_fn = None
        #: Workload-scheduler yield point: ``fn(file, page_no)`` fired on
        #: a fetch miss, before the device read, so concurrent sessions
        #: interleave at page-I/O boundaries.
        self.yield_hook = None
        #: Race sanitizer (attached by the server under REPRO_SANITIZE).
        self.races = None
        # Counters (cumulative).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.heap_spills = 0
        self.heap_unspills = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    #: Cumulative counters published through the metrics registry.
    METRIC_COUNTERS = (
        "hits", "misses", "evictions", "writebacks", "heap_spills",
        "heap_unspills",
    )

    def attach_metrics(self, registry):
        """Publish the pool's counters and levels as ``pool.*`` probes.

        Probes read the live attributes at snapshot time, so the hot
        fetch path stays free of metric bookkeeping.
        """
        for name in self.METRIC_COUNTERS:
            registry.register_probe(
                "pool.%s" % name, lambda n=name: getattr(self, n)
            )
        registry.register_probe(
            "pool.capacity_pages", lambda: self.capacity_pages
        )
        registry.register_probe("pool.used_pages", lambda: self.used_pages)
        registry.register_probe(
            "pool.dirty_pages", lambda: len(self._dirty_rec_lsn)
        )
        registry.register_probe("pool.pinned_frames", self.pinned_count)
        registry.register_probe(
            "pool.lookaside_depth",
            lambda: getattr(self.policy, "lookaside_depth", lambda: 0)(),
        )

    @property
    def used_pages(self):
        """Frames currently resident."""
        return len(self._frames)

    @property
    def page_size(self):
        return self.temp_file.volume.disk.page_size

    def size_bytes(self):
        """Capacity in bytes (what the server's process allocation tracks)."""
        return self.capacity_pages * self.page_size

    def pinned_count(self):
        return sum(1 for frame in self._frames.values() if frame.pinned)

    def resident(self, file, page_no):
        """Whether a disk page is currently buffered (no I/O charged)."""
        return ("file", file.file_id, page_no) in self._frames

    def resident_fraction(self, file):
        """Fraction of ``file``'s pages in the pool — the per-table statistic
        the cost model consumes ("the percentage of a table resident in the
        buffer pool ... maintained in real time", Section 3.2)."""
        if file.page_count == 0:
            return 0.0
        return min(1.0, self._resident.get(file, 0) / file.page_count)

    def mark(self):
        """Snapshot of the miss counter, for the governor's polling."""
        return self.misses

    def misses_since(self, mark):
        return self.misses - mark

    # ------------------------------------------------------------------ #
    # disk-backed pages
    # ------------------------------------------------------------------ #

    def fetch(self, file, page_no, kind=PageKind.TABLE):
        """Pin and return the frame for ``(file, page_no)``, reading it from
        the device on a miss."""
        self._tick += 1
        key = ("file", file.file_id, page_no)
        frame = self._frames.get(key)
        if frame is not None:
            self.hits += 1
            frame.pin_count += 1
            self.policy.on_reference(frame, self._tick)
            return frame
        self.misses += 1
        if self.yield_hook is not None:
            self.yield_hook(file, page_no)
            # Another session may have faulted the page in while this one
            # was suspended: re-check so we never overwrite its frame.
            frame = self._frames.get(key)
            if frame is not None:
                self.misses -= 1
                self.hits += 1
                frame.pin_count += 1
                self.policy.on_reference(frame, self._tick)
                return frame
        self._make_room(1)
        frame = Frame(kind, owner=file, page_no=page_no)
        frame.payload = file.read(page_no)
        frame.pin_count = 1
        self._add_frame(frame)
        return frame

    def new_page(self, file, kind=PageKind.TABLE, payload=None):
        """Allocate a fresh page in ``file`` and return its pinned frame.

        The page is born dirty (it exists only in memory until evicted or
        flushed).
        """
        self._tick += 1
        page_no = file.allocate_page()
        self._make_room(1)
        frame = Frame(kind, owner=file, page_no=page_no, payload=payload)
        frame.pin_count = 1
        frame.dirty = True
        self._note_dirty(frame)
        self._add_frame(frame)
        return frame

    @contextlib.contextmanager
    def pin_guard(self, frame, dirty=False):
        """Scope a pinned frame: the pin is released on exit, error paths
        included.  ``with pool.pin_guard(pool.fetch(...)) as frame: ...``"""
        try:
            yield frame
        finally:
            self.unpin(frame, dirty=dirty)

    def unpin(self, frame, dirty=False):
        """Release one pin; ``dirty`` marks the payload as modified."""
        if frame.pin_count <= 0:
            raise ValueError("frame %r is not pinned" % (frame,))
        frame.pin_count -= 1
        if dirty:
            frame.dirty = True
            self._note_dirty(frame)
        if frame.pin_count == 0:
            self.policy.note_reusable(frame)

    def _note_dirty(self, frame):
        """First dirtying of a disk-backed frame records its recLSN."""
        if frame.owner is None:
            return
        key = frame.key
        if key not in self._dirty_rec_lsn:
            with _race_tap(self.races, "dpt", key, "w"):
                self._dirty_rec_lsn[key] = (
                    self.lsn_fn() if self.lsn_fn is not None else 0
                )

    def dirty_page_table(self):
        """Snapshot of ``{(file_id, page_no): recLSN}`` for checkpoint
        BEGIN records."""
        return {
            (key[1], key[2]): rec_lsn
            for key, rec_lsn in self._dirty_rec_lsn.items()
        }

    def dirty_page_count(self):
        return len(self._dirty_rec_lsn)

    def flush_all(self):
        """Write every dirty disk-backed frame to its file (WAL: the log
        is forced first).  Returns the number of pages written."""
        dirty = [
            frame for frame in self._frames.values()
            if frame.dirty and frame.owner is not None
        ]
        if dirty and self.wal_fn is not None:
            self.wal_fn()
        for frame in dirty:
            frame.owner.write(frame.page_no, frame.payload)
            frame.dirty = False
            self._dirty_rec_lsn.pop(frame.key, None)
            self.writebacks += 1
        return len(dirty)

    def discard(self, file):
        """Drop every frame of ``file`` without writing back (file dropped)."""
        for key, frame in list(self._frames.items()):
            if frame.owner is file:
                self._dirty_rec_lsn.pop(key, None)
                self._drop_frame(frame)

    def drop_all(self):
        """Lose every frame without writeback — a process crash.

        The volume keeps only what earlier writebacks made durable;
        restart recovery rebuilds the rest from the log.
        """
        for frame in list(self._frames.values()):
            self._drop_frame(frame)
        self._dirty_rec_lsn.clear()

    # ------------------------------------------------------------------ #
    # heap frames (query-processing memory, Section 2.1)
    # ------------------------------------------------------------------ #

    def allocate_heap_frame(self, heap_ref, payload=None):
        """Allocate a pinned HEAP frame on behalf of a heap."""
        self._tick += 1
        self._make_room(1)
        frame = Frame(PageKind.HEAP, heap_ref=heap_ref, payload=payload)
        frame.pin_count = 1
        frame.dirty = True
        self._add_frame(frame)
        return frame

    def release_frame(self, frame):
        """Return a heap/temp frame to the pool permanently (heap freed)."""
        if frame.key in self._frames:
            self._drop_frame(frame)

    def repin(self, frame):
        """Pin an already-resident frame (heap re-lock fast path)."""
        if frame.key not in self._frames:
            raise KeyError("frame %r is not resident" % (frame,))
        self._tick += 1
        frame.pin_count += 1
        self.policy.on_reference(frame, self._tick)

    # ------------------------------------------------------------------ #
    # resizing (driven by the buffer governor)
    # ------------------------------------------------------------------ #

    def set_capacity(self, n_pages):
        """Resize the pool.  Shrinking evicts unpinned frames; if pins keep
        the pool above the requested size, capacity settles at the pinned
        floor.  Returns the actual new capacity."""
        n_pages = max(1, int(n_pages))
        while len(self._frames) > n_pages:
            try:
                victim = self.policy.choose_victim(
                    self._frames.values(), self._tick
                )
            except BufferPoolExhaustedError:
                break
            self._evict(victim)
        self.capacity_pages = max(n_pages, len(self._frames))
        return self.capacity_pages

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _add_frame(self, frame):
        """Enter a new frame into the frame table, its file's resident
        count and the replacement policy."""
        self._frames[frame.key] = frame
        if frame.owner is not None:
            self._resident[frame.owner] = (
                self._resident.get(frame.owner, 0) + 1
            )
        self.policy.on_insert(frame, self._tick)

    def _drop_frame(self, frame):
        """The inverse of :meth:`_add_frame` (no writeback, no spill)."""
        self.policy.on_remove(frame)
        del self._frames[frame.key]
        if frame.owner is not None:
            left = self._resident[frame.owner] - 1
            if left:
                self._resident[frame.owner] = left
            else:
                del self._resident[frame.owner]

    def _make_room(self, needed):
        while len(self._frames) + needed > self.capacity_pages:
            victim = self.policy.choose_victim(
                self._frames.values(), self._tick
            )
            self._evict(victim)

    def _evict(self, frame):
        self.evictions += 1
        if frame.owner is not None:
            if frame.dirty:
                if self.wal_fn is not None:
                    self.wal_fn()
                frame.owner.write(frame.page_no, frame.payload)
                self.writebacks += 1
            self._dirty_rec_lsn.pop(frame.key, None)
        elif frame.heap_ref is not None:
            # An unlocked heap page is stolen: swap it to the temporary
            # file so the heap can swizzle it back in on re-lock.
            self._spill_heap_frame(frame)
        self._drop_frame(frame)

    def _spill_heap_frame(self, frame):
        heap, slot = frame.heap_ref
        temp_page = self.temp_file.allocate_page()
        self.temp_file.write(temp_page, frame.payload)
        self.heap_spills += 1
        heap.note_spilled(slot, temp_page)

    def unspill_heap_frame(self, heap_ref, temp_page):
        """Read a spilled heap page back from the temporary file into a
        fresh pinned frame (heap re-lock slow path)."""
        self._tick += 1
        self._make_room(1)
        payload = self.temp_file.read(temp_page)
        self.temp_file.free_page(temp_page)
        self.heap_unspills += 1
        frame = Frame(PageKind.HEAP, heap_ref=heap_ref, payload=payload)
        frame.pin_count = 1
        frame.dirty = True
        self._add_frame(frame)
        return frame
