"""B+-tree indexes over buffer-pool pages.

Nodes are pool pages of :class:`~repro.buffer.frames.PageKind.INDEX`.
Index statistics — entry count, distinct keys, leaf pages, and a
clustering measure — are maintained in real time during operation, as the
paper requires ("index statistics, such as the number of distinct values,
number of leaf pages, and clustering statistics, are maintained in real
time during server operation", Section 3.2).
"""

import bisect

from repro.buffer.frames import PageKind
from repro.common.errors import ExecutionError

#: NULL sorts before every value; encoded keys are tuples of
#: (tag, value) pairs so mixed NULL/value comparisons stay well-defined.
_NULL_TAG = 0
_VALUE_TAG = 1
#: Never stored: ends a prefix probe's run (see :meth:`BTree.prefix_scan`).
_PAST_TAG = 2


def encode_key(values):
    """Encode a tuple of column values as a sortable key."""
    return tuple(
        (_NULL_TAG, None) if value is None else (_VALUE_TAG, value)
        for value in values
    )


def decode_key(key):
    """Inverse of :func:`encode_key`."""
    return tuple(value for __, value in key)


class BTreeStats:
    """Real-time statistics for one index."""

    def __init__(self):
        self.entry_count = 0
        self.leaf_page_count = 0
        self._key_counts = {}

    @property
    def distinct_keys(self):
        return len(self._key_counts)

    def note_insert(self, key):
        self.entry_count += 1
        self._key_counts[key] = self._key_counts.get(key, 0) + 1

    def note_delete(self, key):
        self.entry_count -= 1
        count = self._key_counts.get(key, 0)
        if count <= 1:
            self._key_counts.pop(key, None)
        else:
            self._key_counts[key] = count - 1

    def density(self):
        """Average fraction of entries sharing one key (selectivity of an
        equality probe on an 'average' key)."""
        if self.entry_count == 0 or self.distinct_keys == 0:
            return 0.0
        return 1.0 / self.distinct_keys


class BTree:
    """A B+-tree mapping encoded keys to row ids (duplicates allowed)."""

    def __init__(self, file, pool, fanout=64, name="idx"):
        if fanout < 4:
            raise ValueError("fanout must be at least 4")
        self.file = file
        self.pool = pool
        self.fanout = fanout
        self.name = name
        self.stats = BTreeStats()
        root = self._new_node(leaf=True)
        self._root_page = root
        self.stats.leaf_page_count = 1
        self.height = 1

    # ------------------------------------------------------------------ #
    # node helpers (payload layout: dict)
    # ------------------------------------------------------------------ #

    def _new_node(self, leaf):
        payload = {
            "leaf": leaf,
            "keys": [],
            # leaf: values[i] is a list of row ids for keys[i]; next page no.
            # internal: children has len(keys)+1 page numbers.
            "values": [] if leaf else None,
            "children": None if leaf else [],
            "next": None,
        }
        with self.pool.pin_guard(
            self.pool.new_page(self.file, PageKind.INDEX, payload=payload),
            dirty=True,
        ) as frame:
            return frame.page_no

    def _read(self, page_no):
        """Pin a node frame; caller must unpin."""
        return self.pool.fetch(self.file, page_no, PageKind.INDEX)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def search(self, values):
        """Row ids whose key equals ``values`` exactly."""
        key = encode_key(values)
        page_no = self._descend_to_leaf(key)
        frame = self._read(page_no)
        try:
            node = frame.payload
            index = bisect.bisect_left(node["keys"], key)
            if index < len(node["keys"]) and node["keys"][index] == key:
                return list(node["values"][index])
            return []
        finally:
            self.pool.unpin(frame)

    def prefix_scan(self, values):
        """Yield ``(decoded_key, row_id)`` for keys whose leading columns
        equal ``values`` (equality probe on a composite index prefix).

        Each leaf's matching run is found by bisection and copied while
        the frame is pinned; the next leaf is fetched only when the run
        reaches the end of this one."""
        prefix = encode_key(values)
        # Sorts after every key that starts with ``prefix`` and before
        # every greater key: its tag outranks both element tags.
        past = prefix + ((_PAST_TAG,),)
        page_no = self._descend_to_leaf(prefix)
        while page_no is not None:
            frame = self._read(page_no)
            try:
                node = frame.payload
                keys = node["keys"]
                low = bisect.bisect_left(keys, prefix)
                high = bisect.bisect_left(keys, past, low)
                run = [
                    (keys[i], list(node["values"][i]))
                    for i in range(low, high)
                ]
                next_page = node["next"] if high == len(keys) else None
            finally:
                self.pool.unpin(frame)
            for key, row_ids in run:
                decoded = decode_key(key)
                for row_id in row_ids:
                    yield decoded, row_id
            page_no = next_page

    def range_scan(self, low=None, high=None, low_inclusive=True, high_inclusive=True):
        """Yield ``(decoded_key, row_id)`` over [low, high] in key order.

        ``low``/``high`` are tuples of column values (or None for
        unbounded).
        """
        low_key = encode_key(low) if low is not None else None
        high_key = encode_key(high) if high is not None else None
        if low_key is not None:
            page_no = self._descend_to_leaf(low_key)
        else:
            page_no = self._leftmost_leaf()
        while page_no is not None:
            frame = self._read(page_no)
            try:
                node = frame.payload
                keys = list(node["keys"])
                value_lists = [list(v) for v in node["values"]]
                next_page = node["next"]
            finally:
                self.pool.unpin(frame)
            for key, row_ids in zip(keys, value_lists):
                if low_key is not None:
                    if key < low_key or (key == low_key and not low_inclusive):
                        continue
                if high_key is not None:
                    if key > high_key or (key == high_key and not high_inclusive):
                        return
                decoded = decode_key(key)
                for row_id in row_ids:
                    yield decoded, row_id
            page_no = next_page

    def __len__(self):
        return self.stats.entry_count

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #

    def insert(self, values, row_id):
        """Insert ``(values, row_id)``."""
        key = encode_key(values)
        split = self._insert_into(self._root_page, key, row_id)
        if split is not None:
            separator, new_page = split
            new_root = self._new_node(leaf=False)
            frame = self._read(new_root)
            try:
                frame.payload["keys"] = [separator]
                frame.payload["children"] = [self._root_page, new_page]
            finally:
                self.pool.unpin(frame, dirty=True)
            self._root_page = new_root
            self.height += 1
        self.stats.note_insert(key)

    def delete(self, values, row_id):
        """Remove one ``(values, row_id)`` entry (no rebalancing; pages
        merely under-fill, which only wastes space in a simulation)."""
        key = encode_key(values)
        page_no = self._descend_to_leaf(key)
        frame = self._read(page_no)
        try:
            node = frame.payload
            index = bisect.bisect_left(node["keys"], key)
            if index >= len(node["keys"]) or node["keys"][index] != key:
                raise ExecutionError("key %r not found in index %r" % (values, self.name))
            try:
                node["values"][index].remove(row_id)
            except ValueError:
                raise ExecutionError(
                    "row %r not present under key %r in index %r"
                    % (row_id, values, self.name)
                ) from None
            if not node["values"][index]:
                del node["keys"][index]
                del node["values"][index]
        finally:
            self.pool.unpin(frame, dirty=True)
        self.stats.note_delete(key)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def cached_clustering(self, staleness=0.2):
        """Clustering statistic, recomputed only after the index has
        changed by ``staleness`` (fraction of entries) since the last
        computation — cheap enough for per-optimization use."""
        cached = getattr(self, "_clustering_cache", None)
        entries = max(1, self.stats.entry_count)
        if cached is not None:
            computed_at, value = cached
            if abs(entries - computed_at) / max(1, computed_at) < staleness:
                return value
        value = self.clustering_fraction()
        self._clustering_cache = (entries, value)
        return value

    def clustering_fraction(self, sample_limit=2048):
        """Fraction of consecutive index entries whose rows are on the
        same or adjacent table pages — the clustering statistic the cost
        model uses to price index scans."""
        previous_page = None
        adjacent = 0
        total = 0
        for __, row_id in self.range_scan():
            page = row_id.page_ordinal
            if previous_page is not None:
                total += 1
                if abs(page - previous_page) <= 1:
                    adjacent += 1
            previous_page = page
            if total >= sample_limit:
                break
        if total == 0:
            return 1.0
        return adjacent / total

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _descend_to_leaf(self, key):
        page_no = self._root_page
        while True:
            frame = self._read(page_no)
            try:
                node = frame.payload
                if node["leaf"]:
                    return page_no
                index = bisect.bisect_right(node["keys"], key)
                page_no = node["children"][index]
            finally:
                self.pool.unpin(frame)

    def _leftmost_leaf(self):
        page_no = self._root_page
        while True:
            frame = self._read(page_no)
            try:
                node = frame.payload
                if node["leaf"]:
                    return page_no
                page_no = node["children"][0]
            finally:
                self.pool.unpin(frame)

    def _insert_into(self, page_no, key, row_id):
        """Recursive insert; returns (separator, new_page) on split."""
        frame = self._read(page_no)
        try:
            node = frame.payload
            if node["leaf"]:
                index = bisect.bisect_left(node["keys"], key)
                if index < len(node["keys"]) and node["keys"][index] == key:
                    node["values"][index].append(row_id)
                else:
                    node["keys"].insert(index, key)
                    node["values"].insert(index, [row_id])
                frame.dirty = True
                if len(node["keys"]) > self.fanout:
                    return self._split_leaf(page_no, node)
                return None
            index = bisect.bisect_right(node["keys"], key)
            child = node["children"][index]
        finally:
            self.pool.unpin(frame, dirty=True)
        split = self._insert_into(child, key, row_id)
        if split is None:
            return None
        separator, new_page = split
        frame = self._read(page_no)
        try:
            node = frame.payload
            index = bisect.bisect_right(node["keys"], separator)
            node["keys"].insert(index, separator)
            node["children"].insert(index + 1, new_page)
            if len(node["keys"]) > self.fanout:
                return self._split_internal(page_no, node)
            return None
        finally:
            self.pool.unpin(frame, dirty=True)

    def _split_leaf(self, page_no, node):
        middle = len(node["keys"]) // 2
        new_page = self._new_node(leaf=True)
        frame = self._read(new_page)
        try:
            new_node = frame.payload
            new_node["keys"] = node["keys"][middle:]
            new_node["values"] = node["values"][middle:]
            new_node["next"] = node["next"]
        finally:
            self.pool.unpin(frame, dirty=True)
        node["keys"] = node["keys"][:middle]
        node["values"] = node["values"][:middle]
        node["next"] = new_page
        self.stats.leaf_page_count += 1
        separator = None
        frame = self._read(new_page)
        try:
            separator = frame.payload["keys"][0]
        finally:
            self.pool.unpin(frame)
        return separator, new_page

    def _split_internal(self, page_no, node):
        middle = len(node["keys"]) // 2
        separator = node["keys"][middle]
        new_page = self._new_node(leaf=False)
        frame = self._read(new_page)
        try:
            new_node = frame.payload
            new_node["keys"] = node["keys"][middle + 1 :]
            new_node["children"] = node["children"][middle + 1 :]
        finally:
            self.pool.unpin(frame, dirty=True)
        node["keys"] = node["keys"][:middle]
        node["children"] = node["children"][: middle + 1]
        return separator, new_page
