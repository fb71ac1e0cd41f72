"""Shared helpers for the experiment benchmarks.

Every experiment (one file per paper figure/claim, see DESIGN.md §3)
prints the series the paper reports; run with ``pytest benchmarks/
--benchmark-only -s`` to see the tables.  Every printed table is
compared with its section of ``benchmarks/pins.txt`` (see ``pins.py``);
``--update-pins`` rewrites those sections instead.  Results are also
attached to the pytest-benchmark ``extra_info`` so they land in the JSON
output.
"""

import pytest

from repro import Server, ServerConfig
from repro.buffer import GovernorConfig
from repro.common import MiB

import pins

#: Servers built by :func:`make_server` during the current test, newest
#: last; the autouse fixture below exports the last one's metrics
#: snapshot into the benchmark's ``extra_info``.
_SERVERS = []

#: The pinned tables of this session, set up by ``pytest_configure``.
_PINS = None


def pytest_addoption(parser):
    parser.addoption(
        pins.UPDATE_FLAG, action="store_true",
        help="rewrite the benchmarks/pins.txt sections of the tables "
             "printed in this run instead of comparing them",
    )


def pytest_configure(config):
    global _PINS
    _PINS = pins.Pins(update=config.getoption(pins.UPDATE_FLAG))


def pytest_sessionfinish(session):
    _PINS.save()


def make_server(pool_pages=2048, mpl=4, total_memory=256 * MiB,
                upper_bound=128 * MiB, start_governor=False, **kwargs):
    config = ServerConfig(
        start_buffer_governor=start_governor,
        initial_pool_pages=pool_pages,
        multiprogramming_level=mpl,
        total_memory=total_memory,
        governor=GovernorConfig(upper_bound_bytes=upper_bound),
        **kwargs,
    )
    server = Server(config)
    _SERVERS.append(server)
    return server


@pytest.fixture(autouse=True)
def _fault_free(monkeypatch):
    """Experiments run fault-free whatever the caller's ``REPRO_FAULTS``."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@pytest.fixture(autouse=True)
def _attach_metrics_snapshot(request):
    """Land ``server.metrics.snapshot()`` in the benchmark JSON.

    After each experiment, the last server built through
    :func:`make_server` contributes its full registry snapshot to
    ``benchmark.extra_info["metrics"]``, so experiment tables can be
    regenerated straight from the CI ``BENCH_*.json`` artifact.
    Rig-style experiments that build components by hand (no Server)
    export an empty snapshot.
    """
    _SERVERS.clear()
    # Resolve the benchmark fixture up front: getfixturevalue is illegal
    # during teardown, and the JSON writer keeps a reference to the same
    # extra_info dict, so a post-yield mutation still lands in the file.
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames else None
    )
    yield
    if benchmark is None or getattr(benchmark, "stats", None) is None:
        # The benchmark never actually ran (e.g. skipped); nothing to tag.
        return
    benchmark.extra_info["metrics"] = (
        _SERVERS[-1].metrics.snapshot() if _SERVERS else {}
    )


def print_table(title, headers, rows):
    """Render one experiment table to stdout, then check it against its pin."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    widths = [
        max(len(str(header)), max((len(_fmt(row[i])) for row in rows), default=0))
        for i, header in enumerate(headers)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))
    print()
    _PINS.check(title, headers, rows)


def _fmt(value):
    if isinstance(value, float):
        return "%.3g" % value
    return str(value)


@pytest.fixture
def once(benchmark):
    """Run the experiment body exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner

