"""A disk-based extensible hash table (paper Section 2.1).

"For a number of key data structures, SQL Anywhere uses disk-based
implementations to eliminate or reduce the need for limits that would
require tuning ...  long-term locks are stored in a disk-based extensible
hash table, avoiding the need for specifying a lock table size or lock
escalation thresholds."

Classic extensible hashing over buffer-pool pages: a directory of bucket
page numbers doubles as needed; a full bucket splits by local depth.  The
structure grows without any configured capacity, and cold buckets are
ordinary pool pages — evictable to disk like everything else.
"""

from repro.buffer.frames import PageKind
from repro.common.errors import ReproError
from repro.common.hashing import stable_hash

#: Entries per bucket page (derived from page size in a real system; a
#: modest constant keeps splits frequent enough to exercise the algorithm).
DEFAULT_BUCKET_CAPACITY = 64


class ExtensibleHashTable:
    """Key/value map on pool pages with directory doubling."""

    def __init__(self, file, pool, bucket_capacity=DEFAULT_BUCKET_CAPACITY,
                 name="exthash"):
        if bucket_capacity < 2:
            raise ValueError("bucket capacity must be at least 2")
        self.file = file
        self.pool = pool
        self.bucket_capacity = bucket_capacity
        self.name = name
        self.global_depth = 0
        first_bucket = self._new_bucket(local_depth=0)
        self._directory = [first_bucket]
        self._count = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def __len__(self):
        return self._count

    @property
    def directory_size(self):
        return len(self._directory)

    @property
    def bucket_pages(self):
        return len(set(self._directory))

    def get(self, key, default=None):
        page_no = self._bucket_for(key)
        frame = self.pool.fetch(self.file, page_no, PageKind.TABLE)
        try:
            return frame.payload["entries"].get(key, default)
        finally:
            self.pool.unpin(frame)

    def __contains__(self, key):
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def put(self, key, value):
        """Insert or overwrite; splits buckets (and doubles the directory)
        as needed — there is no capacity to configure."""
        while True:
            page_no = self._bucket_for(key)
            frame = self.pool.fetch(self.file, page_no, PageKind.TABLE)
            try:
                entries = frame.payload["entries"]
                if key in entries or len(entries) < self.bucket_capacity:
                    if key not in entries:
                        self._count += 1
                    entries[key] = value
                    return
            finally:
                self.pool.unpin(frame, dirty=True)
            self._split(page_no)

    def remove(self, key):
        """Delete a key; returns its value (raises KeyError if absent)."""
        page_no = self._bucket_for(key)
        frame = self.pool.fetch(self.file, page_no, PageKind.TABLE)
        try:
            entries = frame.payload["entries"]
            if key not in entries:
                raise KeyError(key)
            self._count -= 1
            return entries.pop(key)
        finally:
            self.pool.unpin(frame, dirty=True)

    def items(self):
        """Iterate every (key, value) pair (bucket order)."""
        for page_no in sorted(set(self._directory)):
            frame = self.pool.fetch(self.file, page_no, PageKind.TABLE)
            try:
                snapshot = list(frame.payload["entries"].items())
            finally:
                self.pool.unpin(frame)
            yield from snapshot

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _bucket_for(self, key):
        index = stable_hash(key) & ((1 << self.global_depth) - 1)
        return self._directory[index]

    def _new_bucket(self, local_depth):
        with self.pool.pin_guard(
            self.pool.new_page(
                self.file, PageKind.TABLE,
                payload={"local_depth": local_depth, "entries": {}},
            ),
            dirty=True,
        ) as frame:
            return frame.page_no

    def _split(self, page_no):
        frame = self.pool.fetch(self.file, page_no, PageKind.TABLE)
        try:
            local_depth = frame.payload["local_depth"]
            entries = dict(frame.payload["entries"])
        finally:
            self.pool.unpin(frame)
        if local_depth == self.global_depth:
            # Double the directory.
            self._directory = self._directory + list(self._directory)
            self.global_depth += 1
            if self.global_depth > 32:
                raise ReproError(
                    "extensible hash directory exceeded 2^32 "
                    "(pathological key distribution?)"
                )
        new_depth = local_depth + 1
        sibling = self._new_bucket(new_depth)
        # Re-home directory slots: among the slots pointing at the old
        # bucket, those whose new-depth bit is set move to the sibling.
        bit = 1 << local_depth
        for index, target in enumerate(self._directory):
            if target == page_no and index & bit:
                self._directory[index] = sibling
        # Redistribute the entries between the two buckets.
        stay, move = {}, {}
        for key, value in entries.items():
            if stable_hash(key) & bit:
                move[key] = value
            else:
                stay[key] = value
        frame = self.pool.fetch(self.file, page_no, PageKind.TABLE)
        try:
            frame.payload["local_depth"] = new_depth
            frame.payload["entries"] = stay
        finally:
            self.pool.unpin(frame, dirty=True)
        frame = self.pool.fetch(self.file, sibling, PageKind.TABLE)
        try:
            frame.payload["entries"] = move
        finally:
            self.pool.unpin(frame, dirty=True)
