"""Page images: the copy is the deep copy, and the two worlds stay apart.

``Volume`` keeps the durable image of every page; buffer-pool frames
mutate their payloads in place.  ``_copy_payload`` is what separates the
two on every read and write.  It copies containers and shares values
(a tuple is a value iff everything in it is), deciding that without a
Python call per row — so this module holds the definition it replaced,
which rebuilt every tuple, as the reference:

* a hypothesis differential over nested payloads, adversarial shapes
  included, plus an identity walk: no dict, list or set is reachable from
  both the source and the copy;
* the five page layouts in use, through ``Volume.write_payload`` /
  ``read_payload``: mutating either side leaves the other unchanged;
* the cost guard: copying a full heap page makes the same number of
  calls at 8 and at 128 rows per page.
"""

import copy
import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SimClock
from repro.storage import FlashDisk, Volume
from repro.storage.btree import encode_key
from repro.storage.pagedfile import _copy_payload
from repro.storage.rowstore import RowId
from tests.conftest import count_calls


def reference_copy(value):
    """The row-by-row structural copy ``_copy_payload`` replaced."""
    if isinstance(value, dict):
        return {key: reference_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [reference_copy(item) for item in value]
    if isinstance(value, tuple):
        return tuple(reference_copy(item) for item in value)
    if isinstance(value, set):
        return {reference_copy(item) for item in value}
    return value


def mutable_containers(value, found=None):
    """``{id: object}`` of every dict, list and set reachable from
    ``value`` (through tuples too)."""
    if found is None:
        found = {}
    if isinstance(value, (dict, list, set)):
        found[id(value)] = value
    if isinstance(value, dict):
        for item in value.values():
            mutable_containers(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            mutable_containers(item, found)
    return found


def assert_apart(source, image):
    assert image == source
    shared = mutable_containers(source).keys() & mutable_containers(image).keys()
    assert not shared, "copy shares a mutable container with its source"


# --------------------------------------------------------------------- #
# (i) differential against the reference, over generated payloads
# --------------------------------------------------------------------- #

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**40, 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.dates(),
    st.builds(RowId, st.integers(0, 50), st.integers(0, 200)),
)
hashables = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), hashables), inner,
                        max_size=4),
        st.sets(hashables, max_size=4),
    ),
    max_leaves=25,
)

ADVERSARIAL = [
    (1, [2, 3]),                               # a tuple holding a list
    ((1, (2, {"k": [3]})), 4),                 # ... a tuple ... a dict
    [(1, 2), (3, [4])],                        # value rows beside one that is not
    {"slots": [(1, "a"), None, (2, "b")], "lsn": 7},
    {"s": {(1, 2), (3, 4)}},                   # a set
    [], {}, set(), (), [()], ([],), {"e": []},  # empty containers
    (None, ("CKPT_BEGIN", {"active": [3], "dpt": [(1, 2, 3)]})),
    [[RowId(0, 1), RowId(0, 2)], [RowId(1, 0)]],
    (datetime.date(2009, 3, 29), 1.5, "x", None, True),
]


@pytest.mark.parametrize("payload", ADVERSARIAL, ids=repr)
def test_adversarial_shapes_copy_like_the_reference(payload):
    image = _copy_payload(payload)
    assert image == reference_copy(payload) == copy.deepcopy(payload)
    assert_apart(payload, image)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_copy_equals_reference_and_shares_no_container(payload):
    image = _copy_payload(payload)
    assert image == reference_copy(payload)
    assert image == copy.deepcopy(payload)
    assert type(image) is type(payload)
    assert_apart(payload, image)


def test_value_tuples_are_shared_not_rebuilt():
    row = (1, "a", None, datetime.date(2009, 3, 29))
    record = (9, 4, "UPDATE", "t", RowId(0, 1), row, row)
    page = {"lsn": 9, "slots": [row, None], "records": [record]}
    image = _copy_payload(page)
    assert image["slots"][0] is row
    assert image["records"][0] is record
    assert image["slots"] is not page["slots"]


# --------------------------------------------------------------------- #
# (ii) the five layouts in use, through the volume
# --------------------------------------------------------------------- #

def _heap_page():
    return {"lsn": 3, "slots": [(1, "a"), None, (3, "c")]}


def _btree_leaf():
    return {
        "leaf": True,
        "keys": [encode_key((1,)), encode_key((2,))],
        "values": [[RowId(0, 0)], [RowId(0, 1), RowId(0, 2)]],
        "children": None,
        "next": None,
    }


def _exthash_bucket():
    return {"local_depth": 1, "entries": {(1,): "x", (2,): [1, 2]}}


def _log_page():
    return {
        "first_lsn": 0,
        "records": [
            (0, 1, "BEGIN", None, None, None, None),
            (1, 1, "UPDATE", "t", RowId(0, 0), (1, "a"), (1, "b")),
            (2, None, "CKPT_BEGIN", None, None, None,
             {"active": [1], "dpt": [(0, 0, 1)]}),
        ],
        "checksum": 12345,
    }


def _master_page():
    return {"kind": "master", "ckpt_begin_lsn": 2, "ckpt_page": 1,
            "checksum": 99}


def _assign_slot(page):
    page["slots"][1] = (2, "b")


def _grow_leaf(page):
    page["keys"].append(encode_key((3,)))
    page["values"][1].append(RowId(0, 3))


def _put_entry(page):
    page["entries"][(3,)] = "y"
    page["entries"][(2,)].append(3)


def _append_record(page):
    page["records"].append((3, 1, "COMMIT", None, None, None, None))
    page["records"][2][6]["active"].append(2)


def _move_checkpoint(page):
    page["ckpt_page"] = 5


LAYOUTS = {
    "heap": (_heap_page, _assign_slot),
    "btree": (_btree_leaf, _grow_leaf),
    "exthash": (_exthash_bucket, _put_entry),
    "log": (_log_page, _append_record),
    "master": (_master_page, _move_checkpoint),
}


@pytest.fixture
def volume():
    return Volume(FlashDisk(SimClock(), 10_000))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_frame_mutations_never_reach_the_durable_image(volume, layout):
    build, mutate = LAYOUTS[layout]
    pristine = build()

    page = build()
    volume.write_payload(7, page)
    assert_apart(page, volume.peek_payload(7))
    mutate(page)  # the frame keeps changing after its writeback
    assert page != pristine
    assert volume.peek_payload(7) == pristine

    fetched = volume.read_payload(7)
    assert fetched == pristine
    assert_apart(volume.peek_payload(7), fetched)
    mutate(fetched)  # a frame faulted in and then dirtied
    assert volume.peek_payload(7) == pristine
    assert volume.read_payload(7) == pristine


# --------------------------------------------------------------------- #
# (iii) no Python call per row
# --------------------------------------------------------------------- #

def test_heap_page_copy_cost_is_independent_of_rows_per_page():
    costs = {}
    for rows_per_page in (8, 128):
        page = {
            "lsn": 5,
            "slots": [
                (i, "name-%d" % i, None, datetime.date(2009, 3, 29))
                for i in range(rows_per_page)
            ],
        }
        costs[rows_per_page] = count_calls(lambda: _copy_payload(page))
        assert_apart(page, _copy_payload(page))
    assert costs[8] == costs[128]
    assert costs[128] < 32  # the reference makes one call per row, and more
