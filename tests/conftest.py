"""Suite-wide fixtures: runtime sanitizers default ON under pytest.

Every ``Server()`` constructed by a test runs in debug mode (pin-leak
detector, governor accounting cross-checks, clock/GClock assertions)
unless the test opts out with ``@pytest.mark.no_sanitize`` or passes
``sanitize=False`` explicitly.
"""

import sys

import pytest

from repro.analysis import sanitizers
from repro.recovery import check_indexes_match_heap


@pytest.fixture(autouse=True)
def _sanitizers_on(request):
    enable = request.node.get_closest_marker("no_sanitize") is None
    previous = sanitizers.set_sanitizers_enabled(enable)
    try:
        yield
    finally:
        sanitizers.set_sanitizers_enabled(previous)


def count_calls(fn):
    """Python and builtin calls made by ``fn()`` — a cost measure that
    reads no clock (a generator counts once per item it yields)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def assert_indexes_match_heap(server):
    """Index ≡ heap (see :func:`repro.recovery.check_indexes_match_heap`)."""
    check_indexes_match_heap(server)
