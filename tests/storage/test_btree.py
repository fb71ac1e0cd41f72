"""Unit tests for the B+-tree index."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.common.errors import ExecutionError
from repro.storage import FlashDisk, Volume
from repro.storage.btree import BTree, decode_key, encode_key
from repro.storage.rowstore import RowId


def make_tree(fanout=8, capacity=256):
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 200_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=capacity)
    return BTree(volume.create_file("idx"), pool, fanout=fanout)


class TestKeyEncoding:
    def test_roundtrip(self):
        assert decode_key(encode_key((1, "a", None))) == (1, "a", None)

    def test_null_sorts_first(self):
        assert encode_key((None,)) < encode_key((0,))
        assert encode_key((None,)) < encode_key(("",))

    def test_value_ordering_preserved(self):
        assert encode_key((1, "b")) < encode_key((1, "c")) < encode_key((2, "a"))


class TestBasicOps:
    def test_insert_and_search(self):
        tree = make_tree()
        tree.insert((5,), RowId(0, 0))
        assert tree.search((5,)) == [RowId(0, 0)]
        assert tree.search((6,)) == []

    def test_duplicates_accumulate(self):
        tree = make_tree()
        tree.insert((5,), RowId(0, 0))
        tree.insert((5,), RowId(0, 1))
        assert sorted(tree.search((5,))) == [RowId(0, 0), RowId(0, 1)]

    def test_len_tracks_entries(self):
        tree = make_tree()
        for i in range(10):
            tree.insert((i,), RowId(0, i))
        assert len(tree) == 10

    def test_delete_removes_entry(self):
        tree = make_tree()
        tree.insert((5,), RowId(0, 0))
        tree.insert((5,), RowId(0, 1))
        tree.delete((5,), RowId(0, 0))
        assert tree.search((5,)) == [RowId(0, 1)]

    def test_delete_missing_key_raises(self):
        tree = make_tree()
        with pytest.raises(ExecutionError):
            tree.delete((1,), RowId(0, 0))

    def test_delete_missing_rowid_raises(self):
        tree = make_tree()
        tree.insert((1,), RowId(0, 0))
        with pytest.raises(ExecutionError):
            tree.delete((1,), RowId(9, 9))


class TestSplitsAndScale:
    def test_many_inserts_stay_searchable(self):
        tree = make_tree(fanout=8)
        n = 500
        order = list(range(n))
        random.Random(1).shuffle(order)
        for i in order:
            tree.insert((i,), RowId(i // 10, i % 10))
        for i in range(n):
            assert tree.search((i,)) == [RowId(i // 10, i % 10)]
        assert tree.height > 1
        assert tree.stats.leaf_page_count > 1

    def test_range_scan_full_is_sorted(self):
        tree = make_tree(fanout=8)
        keys = list(range(200))
        random.Random(2).shuffle(keys)
        for key in keys:
            tree.insert((key,), RowId(0, key % 64))
        scanned = [key[0] for key, __ in tree.range_scan()]
        assert scanned == list(range(200))

    def test_range_scan_bounds(self):
        tree = make_tree(fanout=8)
        for key in range(100):
            tree.insert((key,), RowId(0, 0))
        result = [k[0] for k, __ in tree.range_scan(low=(10,), high=(20,))]
        assert result == list(range(10, 21))
        exclusive = [
            k[0]
            for k, __ in tree.range_scan(
                low=(10,), high=(20,), low_inclusive=False, high_inclusive=False
            )
        ]
        assert exclusive == list(range(11, 20))

    def test_range_scan_open_low(self):
        tree = make_tree()
        for key in range(50):
            tree.insert((key,), RowId(0, 0))
        result = [k[0] for k, __ in tree.range_scan(high=(5,))]
        assert result == [0, 1, 2, 3, 4, 5]

    def test_composite_keys(self):
        tree = make_tree(fanout=8)
        for a in range(10):
            for b in range(10):
                tree.insert((a, "s%d" % b), RowId(a, b))
        result = [k for k, __ in tree.range_scan(low=(3, "s0"), high=(3, "s9"))]
        assert len(result) == 10
        assert all(k[0] == 3 for k in result)


class TestStats:
    def test_distinct_and_density(self):
        tree = make_tree()
        for i in range(10):
            tree.insert((i % 5,), RowId(0, i))
        assert tree.stats.distinct_keys == 5
        assert tree.stats.density() == pytest.approx(0.2)

    def test_delete_updates_distinct(self):
        tree = make_tree()
        tree.insert((1,), RowId(0, 0))
        tree.insert((1,), RowId(0, 1))
        tree.delete((1,), RowId(0, 0))
        assert tree.stats.distinct_keys == 1
        tree.delete((1,), RowId(0, 1))
        assert tree.stats.distinct_keys == 0

    def test_clustering_fraction_clustered(self):
        tree = make_tree(fanout=8)
        # Key order matches physical order: perfectly clustered.
        for i in range(200):
            tree.insert((i,), RowId(i // 10, i % 10))
        assert tree.clustering_fraction() > 0.9

    def test_clustering_fraction_unclustered(self):
        tree = make_tree(fanout=8)
        rng = random.Random(3)
        pages = list(range(200))
        rng.shuffle(pages)
        for i, page in enumerate(pages):
            tree.insert((i,), RowId(page, 0))
        assert tree.clustering_fraction() < 0.3

    def test_empty_tree_clustering_is_one(self):
        assert make_tree().clustering_fraction() == 1.0


def reference_prefix_scan(tree, values):
    """The prefix probe ``BTree.prefix_scan`` replaced: copy the whole
    leaf, then compare every key's head with the prefix from the start."""
    prefix = encode_key(values)
    n = len(prefix)
    page_no = tree._descend_to_leaf(prefix)
    while page_no is not None:
        frame = tree._read(page_no)
        try:
            node = frame.payload
            keys = list(node["keys"])
            value_lists = [list(v) for v in node["values"]]
            next_page = node["next"]
        finally:
            tree.pool.unpin(frame)
        for key, row_ids in zip(keys, value_lists):
            head = key[:n]
            if head < prefix:
                continue
            if head > prefix:
                return
            decoded = decode_key(key)
            for row_id in row_ids:
                yield decoded, row_id
        page_no = next_page


_COLUMN = st.one_of(st.none(), st.integers(min_value=0, max_value=4))


def _probe_world(entries, removed, late, probe, pause, scan):
    """Build a small-pool tree, run one probe with ``scan`` — inserting
    ``late`` entries after ``pause`` results — and return everything the
    clock and the pool can see."""
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 200_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=6)
    tree = BTree(volume.create_file("idx"), pool, fanout=4)
    for slot, key in enumerate(entries):
        tree.insert(key, RowId(slot // 8, slot % 8))
    for slot in sorted(removed):
        if slot < len(entries):
            tree.delete(entries[slot], RowId(slot // 8, slot % 8))
    fetches = []
    fetch = pool.fetch

    def traced_fetch(file, page_no, kind):
        fetches.append((page_no, clock.now))
        return fetch(file, page_no, kind)

    pool.fetch = traced_fetch
    out = []
    for position, entry in enumerate(scan(tree, probe)):
        out.append((entry, clock.now))
        if position + 1 == pause:
            for slot, key in enumerate(late):
                tree.insert(key, RowId(100, slot))
    return out, fetches, (pool.hits, pool.misses, pool.evictions), clock.now


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(st.tuples(_COLUMN, _COLUMN), max_size=90),
    removed=st.sets(st.integers(min_value=0, max_value=89), max_size=60),
    late=st.lists(st.tuples(_COLUMN, _COLUMN), max_size=12),
    probe=st.one_of(
        st.tuples(_COLUMN), st.tuples(_COLUMN, _COLUMN),
        st.tuples(st.integers(min_value=-1, max_value=5)),
    ),
    pause=st.integers(min_value=0, max_value=6),
)
def test_prefix_scan_is_the_whole_leaf_scan(entries, removed, late, probe,
                                            pause):
    """Same entries in the same order, and the same page fetches at the
    same simulated times: duplicates, NULLs, emptied leaves, a pool
    that evicts, and entries inserted while the probe is suspended."""
    new = _probe_world(
        entries, removed, late, probe, pause, BTree.prefix_scan
    )
    old = _probe_world(
        entries, removed, late, probe, pause, reference_prefix_scan
    )
    assert new == old


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=150))
def test_property_inserted_keys_always_found(keys):
    tree = make_tree(fanout=6)
    for slot, key in enumerate(keys):
        tree.insert((key,), RowId(0, slot))
    for slot, key in enumerate(keys):
        assert RowId(0, slot) in tree.search((key,))
    # Range scan returns exactly the multiset of inserted keys, sorted.
    scanned = [k[0] for k, __ in tree.range_scan()]
    assert scanned == sorted(keys)
