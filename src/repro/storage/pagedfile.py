"""Volumes and paged files.

A :class:`Volume` owns one simulated disk and parcels it out to named
:class:`PagedFile` objects in contiguous *extents*, so that pages allocated
consecutively by one file are (mostly) physically adjacent — which is what
gives table scans their sequential-access advantage under the DTT cost
model.  Page *contents* are arbitrary Python payloads held by the volume;
the devices only charge time, they do not store bytes.
"""

import collections

from repro.common.errors import IOFaultError, ReproError, TransientIOError

#: Pages per extent.  Small enough that tiny files stay compact, large
#: enough that scans of one file are dominated by sequential transfers.
EXTENT_PAGES = 64

#: Bounded retry budget for transient device faults, and the base of the
#: exponential backoff charged to the simulated clock between attempts.
#: Used when the volume's disk carries no fault plan (and therefore no
#: per-plan budgets) — the wrapper-free case never retries anyway.
IO_RETRY_LIMIT = 5
IO_RETRY_BACKOFF_US = 100

PageAddress = collections.namedtuple("PageAddress", ["file_id", "page_no"])


def _is_value(items):
    """Whether no dict, list or set is reachable from the tuple ``items``.

    Decided by asking for its hash: a tuple hashes iff every element
    does, all the way down, and the mutable containers do not — one
    C-level pass instead of a Python call per row.  The hash *value* is
    never used, so nothing here depends on the interpreter's hash salt.
    """
    try:
        hash(items)
    except TypeError:
        return False
    return True


def _copy_payload(value):
    """Copy of a page payload: containers copied, values shared.

    The volume's payload store is the *durable* page image; buffer-pool
    frames mutate payloads in place.  Copying on both read and write is
    what keeps the two worlds separate — without it, an in-memory slot
    update would silently become durable with no writeback, and crash
    recovery would have nothing to recover.  What a frame mutates is a
    dict, a list or a set, so those are rebuilt; scalars and engine value
    objects like RowId are shared, and so is a tuple when everything in
    it is a value (rows, encoded keys, data-change log records — frozen
    where they are made).  A tuple holding a container (a checkpoint
    record carries a dict) is rebuilt around its copy.  The result equals
    ``copy.deepcopy(value)`` and shares no mutable container with it.
    """
    if isinstance(value, dict):
        return {key: _copy_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        if _is_value(tuple(value)):
            return list(value)
        return [_copy_payload(item) for item in value]
    if isinstance(value, tuple):
        if _is_value(value):
            return value
        return tuple(_copy_payload(item) for item in value)
    if isinstance(value, set):
        return set(value)  # members are hashable, hence values
    return value


class Volume:
    """A disk device plus an extent allocator and the page payload store."""

    def __init__(self, disk):
        self.disk = disk
        self._store = {}  # global page number -> payload
        self._next_free = 0
        self._free_extents = []
        self._files = {}
        self._next_file_id = 0

    # ------------------------------------------------------------------ #
    # file management
    # ------------------------------------------------------------------ #

    def create_file(self, name):
        """Create a new empty :class:`PagedFile` on this volume."""
        file_id = self._next_file_id
        self._next_file_id += 1
        pfile = PagedFile(self, file_id, name)
        self._files[file_id] = pfile
        return pfile

    def file(self, file_id):
        """Look up a file by id."""
        return self._files[file_id]

    def files(self):
        """All files on the volume."""
        return list(self._files.values())

    # ------------------------------------------------------------------ #
    # extent allocation
    # ------------------------------------------------------------------ #

    def allocate_extent(self):
        """Reserve :data:`EXTENT_PAGES` contiguous global pages."""
        if self._free_extents:
            return self._free_extents.pop()
        start = self._next_free
        if start + EXTENT_PAGES > self.disk.size_pages:
            raise ReproError(
                "volume full: %d pages used of %d"
                % (self._next_free, self.disk.size_pages)
            )
        self._next_free += EXTENT_PAGES
        return start

    def release_extent(self, start):
        """Return an extent to the free list."""
        self._free_extents.append(start)

    def used_pages(self):
        """Pages currently reserved by extents (upper bound on usage)."""
        return self._next_free - len(self._free_extents) * EXTENT_PAGES

    # ------------------------------------------------------------------ #
    # raw page I/O (charges device time)
    # ------------------------------------------------------------------ #

    def read_payload(self, global_page):
        """Read a page's payload from the device, charging transfer time.

        Transient device faults are retried with bounded exponential
        backoff; persistent failure surfaces as :class:`IOFaultError`.
        """
        self._faulted_io(self.disk.read_page, global_page)
        return _copy_payload(self._store.get(global_page))

    def write_payload(self, global_page, payload):
        """Write a page's payload to the device, charging transfer time.

        Same bounded retry-with-backoff discipline as reads.  The payload
        store is only updated once the device accepts the transfer, so a
        failed write leaves the old page image intact.
        """
        self._faulted_io(self.disk.write_page, global_page)
        self._store[global_page] = _copy_payload(payload)

    def _faulted_io(self, op, global_page):
        """Run one device transfer, riding out transient injected faults.

        Each retry charges exponentially growing backoff to the simulated
        clock (the engine "waits" for the device to recover).  After the
        budget is spent the fault is re-typed as :class:`IOFaultError`,
        which aborts only the statement that owns this I/O.
        """
        plan = getattr(self.disk, "plan", None)
        if plan is not None:
            limit = plan.rates.io_retry_limit
            backoff_us = plan.rates.io_retry_backoff_us
        else:
            limit = IO_RETRY_LIMIT
            backoff_us = IO_RETRY_BACKOFF_US
        attempt = 0
        while True:
            try:
                return op(global_page)
            except TransientIOError as exc:
                attempt += 1
                if attempt > limit:
                    raise IOFaultError(
                        "page %d still failing after %d retries (%s)"
                        % (global_page, limit, exc)
                    ) from exc
                if plan is not None:
                    plan.note_retry(exc.site)
                self.disk.clock.advance(int(backoff_us * (2 ** (attempt - 1))))

    def peek_payload(self, global_page):
        """Read a payload *without* charging I/O (test/diagnostic use)."""
        return self._store.get(global_page)


class PagedFile:
    """A named, growable collection of pages mapped onto volume extents.

    Page numbers are file-local and dense from zero.  The engine's "main
    database file", the temporary file, and each dbspace are PagedFiles.
    """

    def __init__(self, volume, file_id, name):
        self.volume = volume
        self.file_id = file_id
        self.name = name
        self._extents = []  # index e holds global start of file pages [e*E, ...)
        self._page_count = 0
        self._free_pages = []

    @property
    def page_count(self):
        """Number of allocated (live) pages in the file."""
        return self._page_count - len(self._free_pages)

    @property
    def size_bytes(self):
        """Logical file size in bytes."""
        return self.page_count * self.volume.disk.page_size

    def allocate_page(self):
        """Allocate a page, reusing freed slots before growing the file."""
        if self._free_pages:
            return self._free_pages.pop()
        page_no = self._page_count
        extent_index = page_no // EXTENT_PAGES
        if extent_index >= len(self._extents):
            self._extents.append(self.volume.allocate_extent())
        self._page_count += 1
        return page_no

    def free_page(self, page_no):
        """Mark a page free for reuse by this file."""
        self._check(page_no)
        self._free_pages.append(page_no)

    def truncate(self):
        """Drop every page, returning extents to the volume."""
        for start in self._extents:
            self.volume.release_extent(start)
        self._extents = []
        self._page_count = 0
        self._free_pages = []

    def global_page(self, page_no):
        """Translate a file-local page number to a volume page number."""
        self._check(page_no)
        extent_index, offset = divmod(page_no, EXTENT_PAGES)
        return self._extents[extent_index] + offset

    def read(self, page_no):
        """Read a page payload (charges device time)."""
        return self.volume.read_payload(self.global_page(page_no))

    def write(self, page_no, payload):
        """Write a page payload (charges device time)."""
        self.volume.write_payload(self.global_page(page_no), payload)

    def address(self, page_no):
        """The :class:`PageAddress` of a file-local page."""
        self._check(page_no)
        return PageAddress(self.file_id, page_no)

    def _check(self, page_no):
        if not 0 <= page_no < self._page_count:
            raise ValueError(
                "page %r out of range for file %r (%d pages)"
                % (page_no, self.name, self._page_count)
            )

    def __repr__(self):
        return "PagedFile(name=%r, pages=%d)" % (self.name, self.page_count)
