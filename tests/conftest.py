"""Suite-wide fixtures: runtime sanitizers default ON under pytest.

Every ``Server()`` constructed by a test runs in debug mode (pin-leak
detector, governor accounting cross-checks, clock/GClock assertions)
unless the test opts out with ``@pytest.mark.no_sanitize`` or passes
``sanitize=False`` explicitly.
"""

import pytest

from repro.analysis import sanitizers


@pytest.fixture(autouse=True)
def _sanitizers_on(request):
    enable = request.node.get_closest_marker("no_sanitize") is None
    previous = sanitizers.set_sanitizers_enabled(enable)
    try:
        yield
    finally:
        sanitizers.set_sanitizers_enabled(previous)


def assert_indexes_match_heap(server):
    """Index ≡ heap: every live heap row is found through every
    non-virtual index under its key, and no index entry dangles."""
    for table in server.catalog.tables():
        heap = list(table.storage.scan())
        for index in server.catalog.indexes_on(table.name):
            if getattr(index, "virtual", False):
                continue
            columns = [table.column_index(c) for c in index.column_names]
            for row_id, row in heap:
                key = tuple(row[i] for i in columns)
                assert row_id in index.btree.search(key), (index.name, key)
            # Every heap row is an entry, so an equal count leaves no
            # room for an entry without a row.
            entries = sum(1 for __ in index.btree.range_scan())
            assert entries == len(heap), (index.name, entries, len(heap))
