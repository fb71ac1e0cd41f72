"""Unit tests for the row store."""

import pytest

from repro.buffer import BufferPool
from repro.catalog import Column, TableSchema
from repro.common import SimClock
from repro.common.errors import ExecutionError
from repro.storage import FlashDisk, Volume
from repro.storage.rowstore import RowId, TableStorage


@pytest.fixture
def store():
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 100_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=32)
    schema = TableSchema(
        "emp", [Column("id", "INT"), Column("name", "VARCHAR")]
    )
    storage = TableStorage(schema, volume.create_file("emp.dat"), pool)
    schema.storage = storage
    return storage


def test_insert_and_get(store):
    rid = store.insert((1, "ann"))
    assert store.get(rid) == (1, "ann")
    assert store.row_count == 1


def test_insert_wrong_arity_rejected(store):
    with pytest.raises(ExecutionError):
        store.insert((1,))


def test_scan_in_physical_order(store):
    rids = [store.insert((i, "row%d" % i)) for i in range(100)]
    scanned = list(store.scan())
    assert len(scanned) == 100
    assert [row[0] for __, row in scanned] == list(range(100))
    assert scanned[0][0] == rids[0]


def test_update(store):
    rid = store.insert((1, "old"))
    old = store.update(rid, (1, "new"))
    assert old == (1, "old")
    assert store.get(rid) == (1, "new")


def test_delete(store):
    rid = store.insert((1, "x"))
    store.delete(rid)
    assert store.row_count == 0
    with pytest.raises(ExecutionError):
        store.get(rid)
    with pytest.raises(ExecutionError):
        store.delete(rid)


def test_deleted_slot_reused(store):
    first = store.insert((1, "a"))
    store.insert((2, "b"))
    store.delete(first)
    third = store.insert((3, "c"))
    assert third == first  # slot recycled
    assert store.row_count == 2


def test_pages_grow_with_rows(store):
    per_page = store.rows_per_page
    for i in range(per_page + 1):
        store.insert((i, "r"))
    assert store.page_count == 2


def test_scan_skips_deleted(store):
    rids = [store.insert((i, "r")) for i in range(10)]
    store.delete(rids[3])
    store.delete(rids[7])
    values = [row[0] for __, row in store.scan()]
    assert values == [0, 1, 2, 4, 5, 6, 8, 9]


def test_size_bytes(store):
    store.insert((1, "a"))
    assert store.size_bytes() == store.pool.page_size


def test_rowid_equality_and_ordering():
    assert RowId(1, 2) == RowId(1, 2)
    assert RowId(1, 2) != RowId(1, 3)
    assert RowId(0, 5) < RowId(1, 0)
    assert len({RowId(1, 2), RowId(1, 2)}) == 1


def test_scan_charges_io_when_not_resident(store):
    for i in range(200):
        store.insert((i, "row"))
    pool = store.pool
    pool.flush_all()
    pool.set_capacity(1)  # force nearly everything out
    misses_before = pool.misses
    list(store.scan())
    assert pool.misses > misses_before


def test_insert_chooses_again_when_its_page_fills_during_the_fetch(store):
    """A session whose fetch of the chosen page misses yields to the
    scheduler; here the yield hook runs another session's insert, which
    fills that page.  The first insert must land on a fresh page, not
    fail on the full one."""
    per_page = store.rows_per_page
    for i in range(per_page - 1):
        store.insert((i, "r"))
    pool = store.pool
    pool.flush_all()
    pool.drop_all()  # the page's next fetch misses and yields

    def other_session(file, page_no):
        pool.yield_hook = None
        other.append(store.insert((-1, "other")))

    other = []
    pool.yield_hook = other_session
    rid = store.insert((per_page, "mine"))
    assert other == [RowId(0, per_page - 1)]
    assert rid == RowId(1, 0)
    assert store.get(rid) == (per_page, "mine")
    assert store.row_count == per_page + 1
    assert pool.pinned_count() == 0
