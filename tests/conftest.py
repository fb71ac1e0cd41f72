"""Suite-wide fixtures: runtime sanitizers default ON under pytest.

Every ``Server()`` constructed by a test runs in debug mode (pin-leak
detector, governor accounting cross-checks, clock/GClock assertions)
unless the test opts out with ``@pytest.mark.no_sanitize`` or passes
``sanitize=False`` explicitly.
"""

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


def assert_indexes_match_heap(server):
    """Index ≡ heap (see :func:`repro.recovery.check_indexes_match_heap`)."""
    check_indexes_match_heap(server)
