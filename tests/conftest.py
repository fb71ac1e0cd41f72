"""Suite-wide fixtures: runtime sanitizers default ON under pytest.

Every ``Server()`` constructed by a test runs in debug mode (pin-leak
detector, governor accounting cross-checks, clock/GClock assertions)
unless the test opts out with ``@pytest.mark.no_sanitize`` or passes
``sanitize=False`` explicitly.

``--hypothesis-profile=deep`` runs every hypothesis test with
``DEEP_FACTOR`` times its examples, its own ``@settings(max_examples=)``
included (CI runs the executor, storage and buffer harnesses so under a
pinned hash salt).
"""

import collections
import gc
import sys

import pytest
from hypothesis import settings

#: How many times its examples a hypothesis test runs under ``deep``.
DEEP_FACTOR = 5

settings.register_profile(
    "deep", max_examples=settings.default.max_examples * DEEP_FACTOR
)


def pytest_collection_modifyitems(config, items):
    """Under ``deep``, scale the examples a test's own ``@settings``
    asks for; the profile already scaled the default the others use."""
    if config.getoption("hypothesis_profile", None) != "deep":
        return
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)  # a method's function
        if not getattr(test, "_hypothesis_internal_settings_applied", False):
            continue
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=own.max_examples * DEEP_FACTOR
        )

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
    reads no clock (a generator counts once per item it yields).  The
    garbage collector is off meanwhile: a collection that happened to
    fall inside ``fn()`` would count its callbacks (hypothesis installs
    one) and finalizers as ``fn()``'s calls."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


def pages_fetched(server, fn):
    """``fn()``'s result and the pages it fetched through the buffer
    pool, counted per file name (``table:t``, ``index:pk_t``, ...)."""
    fetched = collections.Counter()
    fetch = server.pool.fetch

    def counting(file, page_no, *args):
        fetched[file.name] += 1
        return fetch(file, page_no, *args)

    server.pool.fetch = counting
    try:
        return fn(), fetched
    finally:
        server.pool.fetch = fetch


def assert_indexes_match_heap(server):
    """Index ≡ heap (see :func:`repro.recovery.check_indexes_match_heap`)."""
    check_indexes_match_heap(server)
