"""Row storage: tables as slotted pages in a paged file, via the pool.

Rows are Python tuples.  Each table page holds a fixed number of row slots
derived from the schema's estimated row width, so table size in pages —
which both the cost model and the buffer governor's soft cap (eq. 1)
consume — scales realistically with row count and row width.

Each page carries a ``page LSN`` — the LSN of the newest log record whose
effect it contains.  The engine stamps it on every logged mutation, and
restart recovery's REDO pass uses it as the ARIES idempotence guard: a
record is reapplied only if the durable page image predates it.

**Row versions.**  Alongside the heap, each table keeps per-row chains of
before-images keyed by commit LSN (see :class:`VersionEntry`): a writer
records the image it is about to overwrite, commit stamps those entries
with the commit ticket's LSN, rollback discards them.  A snapshot read
(``scan(snapshot=...)`` / :meth:`TableStorage.get_visible`) resolves each
row through its chain — the first entry committed *past* the snapshot (or
pending in a foreign transaction) supplies the visible image — so readers
never consult the lock manager.  Chains are volatile: they die with the
process at a crash, which is sound because no snapshot survives one.
"""

from repro.buffer.frames import PageKind
from repro.common.errors import ExecutionError
from repro.storage.log import DELETE as LOG_DELETE
from repro.storage.log import INSERT as LOG_INSERT


class RowId:
    """Physical row address: (page ordinal within table, slot)."""

    __slots__ = ("page_ordinal", "slot")

    def __init__(self, page_ordinal, slot):
        self.page_ordinal = page_ordinal
        self.slot = slot

    def __eq__(self, other):
        return (
            isinstance(other, RowId)
            and self.page_ordinal == other.page_ordinal
            and self.slot == other.slot
        )

    def __hash__(self):
        return hash((self.page_ordinal, self.slot))

    def __lt__(self, other):
        return (self.page_ordinal, self.slot) < (other.page_ordinal, other.slot)

    def __repr__(self):
        return "RowId(%d,%d)" % (self.page_ordinal, self.slot)


def _empty_page(rows_per_page):
    return {"lsn": -1, "slots": [None] * rows_per_page}


class VersionEntry:
    """One superseded row image: what the row looked like *before* the
    change that ``commit_lsn`` (None while the writer is uncommitted)
    made durable.  ``before=None`` means the row did not exist."""

    __slots__ = ("before", "commit_lsn", "txn_id")

    def __init__(self, before, txn_id):
        self.before = before
        self.commit_lsn = None
        self.txn_id = txn_id

    def __repr__(self):
        return "VersionEntry(%r, lsn=%r, txn=%r)" % (
            self.before, self.commit_lsn, self.txn_id
        )


def _visible(chain, heap_row, snapshot, snapshot_txn):
    """The image of a row with version ``chain`` visible at ``snapshot``
    given its current heap image; None when the row is invisible."""
    for entry in chain:
        if entry.commit_lsn is None:
            if entry.txn_id == snapshot_txn:
                continue  # read-your-own-writes
            return entry.before
        if entry.commit_lsn > snapshot:
            return entry.before
    return heap_row


class HeapScan:
    """One sequential pass over a table's heap, a page at a time.

    :meth:`pages` is the one page loop; iterating the scan itself is the
    row-at-a-time view of it, for callers that need row ids.
    """

    __slots__ = ("_storage", "_snapshot", "_snapshot_txn")

    def __init__(self, storage, snapshot, snapshot_txn):
        self._storage = storage
        self._snapshot = snapshot
        self._snapshot_txn = snapshot_txn

    def pages(self):
        """Yields ``(ordinal, rows)`` in physical order, ``rows`` a fresh
        list with one entry per slot (None = empty, or invisible at the
        snapshot).

        Pages are fetched through the buffer pool in file order, which is
        what makes full scans sequential on the device.  A snapshot scan
        resolves the whole page when it is fetched — slot copy and chains
        are one consistent reading, whatever a writer does while the
        consumer is suspended inside the page — and a page holding no
        chain pays one dict probe.
        """
        storage = self._storage
        snapshot = self._snapshot
        for ordinal in range(len(storage._page_numbers)):
            frame = storage._fetch(ordinal)
            try:
                rows = list(frame.payload["slots"])
            finally:
                storage.pool.unpin(frame)
            if snapshot is not None:
                chains = storage._versions.get(ordinal)
                if chains:
                    for slot, chain in chains.items():
                        rows[slot] = _visible(
                            chain, rows[slot], snapshot, self._snapshot_txn
                        )
            yield ordinal, rows

    def __iter__(self):
        for ordinal, rows in self.pages():
            for slot, row in enumerate(rows):
                if row is not None:
                    yield RowId(ordinal, slot), row


class TableStorage:
    """Heap-file storage for one table."""

    def __init__(self, schema, file, pool, page_kind=PageKind.TABLE):
        self.schema = schema
        self.file = file
        self.pool = pool
        self.page_kind = page_kind
        self.rows_per_page = max(
            1, pool.page_size // max(1, schema.row_bytes())
        )
        self._page_numbers = []  # ordinal -> file page number
        self._pages_with_space = []  # ordinals that have free slots
        self.row_count = 0
        #: page ordinal -> slot -> [VersionEntry, ...] oldest-to-newest,
        #: so a scan asks "does this page hold a chain" with one probe.
        #: Per-row write order equals commit order (row X locks serialize
        #: writers), so chains are naturally sorted by commit LSN with
        #: pending entries at the tail.
        self._versions = {}

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #

    @property
    def page_count(self):
        return len(self._page_numbers)

    def size_bytes(self):
        return self.page_count * self.pool.page_size

    def page_numbers(self):
        return list(self._page_numbers)

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #

    def insert(self, row, page_lsn=None):
        """Append a row; returns its :class:`RowId`.

        ``page_lsn`` stamps the page with the LSN of the log record about
        to describe this change (WAL recovery bookkeeping).
        """
        row = tuple(row)
        if len(row) != len(self.schema.columns):
            raise ExecutionError(
                "row arity %d does not match table %r (%d columns)"
                % (len(row), self.schema.name, len(self.schema.columns))
            )
        ordinal = self._page_with_space()
        frame = self._fetch(ordinal)
        try:
            slots = frame.payload["slots"]
            slot = slots.index(None)
            slots[slot] = row
            self._stamp(frame, page_lsn)
        finally:
            self.pool.unpin(frame, dirty=True)
        if None not in slots:
            self._pages_with_space.remove(ordinal)
        self.row_count += 1
        return RowId(ordinal, slot)

    def get(self, row_id):
        """Fetch one row by id."""
        frame = self._fetch(row_id.page_ordinal)
        try:
            row = frame.payload["slots"][row_id.slot]
        finally:
            self.pool.unpin(frame)
        if row is None:
            raise ExecutionError("row %r has been deleted" % (row_id,))
        return row

    def update(self, row_id, row, page_lsn=None):
        """Overwrite the row at ``row_id``; returns the old row."""
        row = tuple(row)
        frame = self._fetch(row_id.page_ordinal)
        try:
            slots = frame.payload["slots"]
            old = slots[row_id.slot]
            if old is None:
                raise ExecutionError("row %r has been deleted" % (row_id,))
            slots[row_id.slot] = row
            self._stamp(frame, page_lsn)
        finally:
            self.pool.unpin(frame, dirty=True)
        return old

    def delete(self, row_id, page_lsn=None):
        """Remove the row at ``row_id``; returns it."""
        frame = self._fetch(row_id.page_ordinal)
        try:
            slots = frame.payload["slots"]
            old = slots[row_id.slot]
            if old is None:
                raise ExecutionError("row %r already deleted" % (row_id,))
            slots[row_id.slot] = None
            self._stamp(frame, page_lsn)
        finally:
            self.pool.unpin(frame, dirty=True)
        if row_id.page_ordinal not in self._pages_with_space:
            self._pages_with_space.append(row_id.page_ordinal)
        self.row_count -= 1
        return old

    # ------------------------------------------------------------------ #
    # access paths
    # ------------------------------------------------------------------ #

    def scan(self, snapshot=None, snapshot_txn=None):
        """A sequential scan (:class:`HeapScan`): iterate it for
        ``(row_id, row)`` in physical order, or take its ``pages()``.

        With ``snapshot`` (a commit LSN), each slot resolves through its
        version chain: rows whose newest committed change is past the
        snapshot yield their before-image, foreign uncommitted changes
        are invisible, and ``snapshot_txn``'s own pending writes are
        visible (read-your-own-writes).
        """
        return HeapScan(self, snapshot, snapshot_txn)

    # ------------------------------------------------------------------ #
    # row versions (snapshot reads; repro.engine.versions coordinates)
    # ------------------------------------------------------------------ #

    def remember_version(self, row_id, before, txn_id):
        """Record the image ``txn_id`` is about to supersede (called just
        before every heap mutation; ``before=None`` for inserts)."""
        entry = VersionEntry(
            tuple(before) if before is not None else None, txn_id
        )
        self._versions.setdefault(row_id.page_ordinal, {}).setdefault(
            row_id.slot, []
        ).append(entry)
        return entry

    def _chain(self, row_id):
        chains = self._versions.get(row_id.page_ordinal)
        return chains.get(row_id.slot) if chains else None

    def _keep_entries(self, ordinal, slot, keep):
        """Replace one chain by its surviving entries; an emptied chain
        (and an emptied page) leaves the structure."""
        chains = self._versions[ordinal]
        if keep:
            chains[slot] = keep
        else:
            del chains[slot]
            if not chains:
                del self._versions[ordinal]

    def stamp_version(self, row_id, txn_id, commit_lsn):
        """Commit: stamp ``txn_id``'s pending entries with its commit LSN."""
        for entry in self._chain(row_id) or ():
            if entry.commit_lsn is None and entry.txn_id == txn_id:
                entry.commit_lsn = commit_lsn

    def discard_version(self, row_id, txn_id):
        """Rollback: drop ``txn_id``'s pending entries on ``row_id``."""
        chain = self._chain(row_id)
        if not chain:
            return
        self._keep_entries(row_id.page_ordinal, row_id.slot, [
            e for e in chain
            if e.commit_lsn is not None or e.txn_id != txn_id
        ])

    def resolve_visible(self, row_id, heap_row, snapshot, snapshot_txn=None):
        """The image visible at ``snapshot`` given the current heap image
        (None = empty slot); returns None when the row is invisible."""
        chain = self._chain(row_id)
        if not chain:
            return heap_row
        return _visible(chain, heap_row, snapshot, snapshot_txn)

    def get_visible(self, row_id, snapshot, snapshot_txn=None):
        """Visibility-resolved fetch: the row image at ``snapshot`` or
        None when invisible (unlike :meth:`get`, deleted slots do not
        raise — a snapshot may legitimately predate the delete)."""
        frame = self._fetch(row_id.page_ordinal)
        try:
            heap_row = frame.payload["slots"][row_id.slot]
        finally:
            self.pool.unpin(frame)
        return self.resolve_visible(row_id, heap_row, snapshot, snapshot_txn)

    def purge_versions(self, horizon):
        """Drop entries no open snapshot can need: committed entries at
        or below ``horizon`` (None = no snapshot is open, so every
        committed entry goes).  Returns how many entries were dropped."""
        dropped = 0
        for ordinal in list(self._versions):
            for slot, chain in list(self._versions[ordinal].items()):
                keep = [
                    e for e in chain
                    if e.commit_lsn is None
                    or (horizon is not None and e.commit_lsn > horizon)
                ]
                dropped += len(chain) - len(keep)
                if len(keep) != len(chain):
                    self._keep_entries(ordinal, slot, keep)
        return dropped

    def version_count(self):
        return sum(
            len(chain)
            for chains in self._versions.values()
            for chain in chains.values()
        )

    def has_versions(self):
        return bool(self._versions)

    # ------------------------------------------------------------------ #
    # restart recovery (physical REDO/UNDO, repro.recovery.restart)
    # ------------------------------------------------------------------ #

    def reattach_after_crash(self):
        """Rebind to the file's surviving pages after a simulated crash.

        Table pages are allocated densely and never freed, so ordinal ==
        file page number.  Slot bookkeeping (``row_count``,
        ``_pages_with_space``) is stale until :meth:`rescan_metadata`
        runs at the end of recovery.
        """
        self._page_numbers = list(range(self.file.page_count))
        self._pages_with_space = []
        self.row_count = 0
        # Version chains are volatile state: they died with the process
        # (no snapshot survives a crash, so nothing can miss them).
        self._versions = {}

    def _materialize(self, frame):
        """The frame's page dict, creating an empty page image for pages
        that were allocated but never reached the device before the
        crash (their payload reads back as None)."""
        if frame.payload is None:
            frame.payload = _empty_page(self.rows_per_page)
        return frame.payload

    def redo_apply(self, record):
        """Reapply one data-change record iff the page predates it.

        Returns True if applied, False if the page LSN showed the effect
        already durable (the idempotence guard recovery's sanitizer
        asserts on).
        """
        ordinal = record.row_id.page_ordinal
        while len(self._page_numbers) <= ordinal:
            self._append_page()
        frame = self._fetch(ordinal)
        try:
            page = self._materialize(frame)
            if page["lsn"] >= record.lsn:
                return False
            if record.kind == LOG_DELETE:
                page["slots"][record.row_id.slot] = None
            else:  # INSERT and UPDATE both install the after-image
                page["slots"][record.row_id.slot] = tuple(record.after)
            page["lsn"] = record.lsn
        finally:
            self.pool.unpin(frame, dirty=True)
        return True

    def undo_apply(self, record, lsn):
        """Revert one loser-transaction record via its before-image.

        Undo writes are blind slot writes (idempotent by construction)
        stamped with the compensation record's LSN.
        """
        frame = self._fetch(record.row_id.page_ordinal)
        try:
            page = self._materialize(frame)
            if record.kind == LOG_INSERT:
                page["slots"][record.row_id.slot] = None
            else:  # UPDATE and DELETE restore the before-image
                page["slots"][record.row_id.slot] = tuple(record.before)
            page["lsn"] = lsn
        finally:
            self.pool.unpin(frame, dirty=True)

    def rescan_metadata(self):
        """Rebuild ``row_count`` and the free-slot list from page images
        (one sequential pass; also yields rows for index rebuilds)."""
        self.row_count = 0
        self._pages_with_space = []
        collected = []
        for ordinal in range(len(self._page_numbers)):
            frame = self._fetch(ordinal)
            try:
                slots = self._materialize(frame)["slots"]
                live = 0
                for slot, row in enumerate(slots):
                    if row is not None:
                        live += 1
                        collected.append((RowId(ordinal, slot), row))
                self.row_count += live
                if live < len(slots):
                    self._pages_with_space.append(ordinal)
            finally:
                self.pool.unpin(frame, dirty=True)
        return collected

    def page_images(self):
        """``{ordinal: repr(page)}`` without device I/O, preferring
        in-pool frames over the durable store (sanitizer comparisons)."""
        images = {}
        for ordinal, page_no in enumerate(self._page_numbers):
            key = ("file", self.file.file_id, page_no)
            frame = self.pool._frames.get(key)
            if frame is not None:
                images[ordinal] = repr(frame.payload)
            else:
                images[ordinal] = repr(
                    self.file.volume.peek_payload(self.file.global_page(page_no))
                )
        return images

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def stamp_page(self, ordinal, lsn):
        """Raise a page's LSN to cover a log record about to be appended.

        The engine calls this immediately before ``log_change`` so the
        stamp and the record always agree; nothing runs in between that
        could flush the page or fail the statement.
        """
        frame = self._fetch(ordinal)
        try:
            self._stamp(frame, lsn)
        finally:
            self.pool.unpin(frame, dirty=True)

    def _stamp(self, frame, page_lsn):
        if page_lsn is not None and page_lsn > frame.payload["lsn"]:
            frame.payload["lsn"] = page_lsn

    def _fetch(self, ordinal):
        return self.pool.fetch(
            self.file, self._page_numbers[ordinal], self.page_kind
        )

    def _append_page(self):
        with self.pool.pin_guard(
            self.pool.new_page(
                self.file, self.page_kind,
                payload=_empty_page(self.rows_per_page),
            ),
            dirty=True,
        ) as frame:
            ordinal = len(self._page_numbers)
            self._page_numbers.append(frame.page_no)
            self._pages_with_space.append(ordinal)
            return ordinal

    def _page_with_space(self):
        if self._pages_with_space:
            return self._pages_with_space[0]
        return self._append_page()
