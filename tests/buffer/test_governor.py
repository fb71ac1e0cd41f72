"""Unit tests for the buffer-pool sizing governor (Section 2)."""

import pytest

from repro.buffer import BufferGovernor, BufferPool, GovernorConfig, PageKind
from repro.buffer.governor import (
    GROW,
    HOLD_DEADBAND,
    HOLD_NO_MISSES,
    SHRINK,
)
from repro.common import KiB, MiB, SECOND, MINUTE, SimClock
from repro.ossim import OperatingSystem
from repro.storage import FlashDisk, Volume


def make_env(
    total_memory=256 * MiB,
    capacity_pages=1024,  # 4 MiB pool
    supports_working_set=True,
    db_size=10**12,  # effectively uncapped unless a test overrides
    **config_kwargs,
):
    clock = SimClock()
    os = OperatingSystem(total_memory, supports_working_set=supports_working_set)
    server = os.spawn("dbserver")
    volume = Volume(FlashDisk(clock, 500_000))
    temp = volume.create_file("temp")
    pool = BufferPool(temp, capacity_pages=capacity_pages)
    config = GovernorConfig(**config_kwargs)
    governor = BufferGovernor(
        clock, os, server, pool,
        database_size_fn=lambda: db_size,
        config=config,
    )
    return clock, os, server, volume, pool, governor


def force_misses(pool, volume, n=5):
    """Generate buffer misses so growth is not gated off."""
    dbfile = volume.create_file("missfile-%d" % volume.disk.reads)
    pages = []
    for i in range(n):
        frame = pool.new_page(dbfile, PageKind.TABLE, payload=i)
        pages.append(frame.page_no)
        pool.unpin(frame)
    pool.flush_all()
    pool.discard(dbfile)
    for page in pages:
        frame = pool.fetch(dbfile, page)
        pool.unpin(frame)


class TestControlLaw:
    def test_grows_toward_free_memory(self):
        clock, os, server, volume, pool, governor = make_env()
        start = pool.size_bytes()
        force_misses(pool, volume)
        sample = governor.poll_once()
        assert sample.action == GROW
        assert pool.size_bytes() > start

    def test_damping_factor_applied(self):
        clock, os, server, volume, pool, governor = make_env()
        current = pool.size_bytes()
        force_misses(pool, volume)
        sample = governor.poll_once()
        expected = int(0.9 * sample.inputs["ideal_bytes"] + 0.1 * current)
        # set_capacity rounds to whole pages.
        assert sample.after == pytest.approx(expected, abs=pool.page_size)

    def test_growth_gated_without_misses(self):
        clock, os, server, volume, pool, governor = make_env()
        sample = governor.poll_once()
        assert sample.action == HOLD_NO_MISSES
        assert sample.after == 4 * MiB

    def test_shrink_allowed_without_misses(self):
        clock, os, server, volume, pool, governor = make_env(
            capacity_pages=30 * MiB // (4 * KiB)
        )
        competitor = os.spawn("bloatware")
        competitor.allocate(240 * MiB)  # squeeze the machine
        sample = governor.poll_once()
        assert sample.action == SHRINK
        assert pool.size_bytes() < 30 * MiB

    def test_deadband_suppresses_small_changes(self):
        clock, os, server, volume, pool, governor = make_env()
        force_misses(pool, volume)
        governor.poll_once()  # converge a first step
        for __ in range(60):
            force_misses(pool, volume)
            sample = governor.poll_once()
        # At equilibrium the controller holds inside the 64 KB deadband.
        assert sample.action == HOLD_DEADBAND

    def test_lower_bound_respected(self):
        clock, os, server, volume, pool, governor = make_env(
            capacity_pages=4 * MiB // (4 * KiB), lower_bound_bytes=3 * MiB
        )
        competitor = os.spawn("hog")
        competitor.allocate(10**12)  # absurd pressure
        for __ in range(10):
            governor.poll_once()
        assert pool.size_bytes() >= 3 * MiB

    def test_upper_bound_respected(self):
        clock, os, server, volume, pool, governor = make_env(
            upper_bound_bytes=8 * MiB
        )
        for __ in range(10):
            force_misses(pool, volume)
            governor.poll_once()
        assert pool.size_bytes() <= 8 * MiB

    def test_soft_cap_database_plus_heap(self):
        # eq (1): pool <= min(db size + heap size, upper bound)
        clock, os, server, volume, pool, governor = make_env(db_size=6 * MiB)
        for __ in range(10):
            force_misses(pool, volume)
            governor.poll_once()
        assert pool.size_bytes() <= 6 * MiB + 64 * KiB

    def test_growing_temp_files_unconstrain_the_pool(self):
        # "larger temporary files will automatically unconstrain the
        # maximum buffer pool size"
        sizes = {"db": 6 * MiB}
        clock = SimClock()
        os = OperatingSystem(256 * MiB)
        server = os.spawn("dbserver")
        volume = Volume(FlashDisk(clock, 500_000))
        temp = volume.create_file("temp")
        pool = BufferPool(temp, capacity_pages=1024)
        governor = BufferGovernor(
            clock, os, server, pool, database_size_fn=lambda: sizes["db"]
        )
        for __ in range(5):
            force_misses(pool, volume)
            governor.poll_once()
        capped = pool.size_bytes()
        assert capped <= 6 * MiB + 64 * KiB
        sizes["db"] = 200 * MiB  # big intermediate results landed in temp
        for __ in range(10):
            force_misses(pool, volume)
            governor.poll_once()
        assert pool.size_bytes() > capped


class TestPolling:
    def test_startup_polls_are_fast(self):
        clock, os, server, volume, pool, governor = make_env()
        force_misses(pool, volume)
        sample = governor.poll_once()
        assert sample.inputs["interval_us"] == 20 * SECOND

    def test_interval_returns_to_one_minute(self):
        clock, os, server, volume, pool, governor = make_env(startup_fast_polls=2)
        samples = [governor.poll_once() for __ in range(4)]
        assert samples[0].inputs["interval_us"] == 20 * SECOND
        assert samples[-1].inputs["interval_us"] == 1 * MINUTE

    def test_significant_database_growth_restores_fast_polling(self):
        sizes = {"db": 10 * MiB}
        clock = SimClock()
        os = OperatingSystem(256 * MiB)
        server = os.spawn("dbserver")
        volume = Volume(FlashDisk(clock, 500_000))
        pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
        governor = BufferGovernor(
            clock, os, server, pool,
            database_size_fn=lambda: sizes["db"],
            config=GovernorConfig(startup_fast_polls=1),
        )
        governor.poll_once()
        governor.poll_once()
        assert governor.poll_once().inputs["interval_us"] == 1 * MINUTE
        sizes["db"] = 50 * MiB  # grew 5x: significant
        governor.poll_once()
        assert governor.poll_once().inputs["interval_us"] == 20 * SECOND

    def test_start_schedules_on_clock(self):
        clock, os, server, volume, pool, governor = make_env()
        governor.start()
        assert len(governor.decisions) == 0
        clock.advance(21 * SECOND)
        assert len(governor.decisions) == 1
        governor.stop()
        clock.advance(10 * MINUTE)
        assert len(governor.decisions) == 1

    def test_stop_then_start_runs_one_poll_chain(self):
        def polls_in_ten_minutes(restarted):
            clock, os, server, volume, pool, governor = make_env()
            governor.start()
            if restarted:
                governor.stop()
                governor.start()
            clock.advance(10 * MINUTE)
            return len(governor.decisions)

        # 5 fast polls, then 20 s to the sixth and a minute apart after.
        assert polls_in_ten_minutes(False) == 14
        assert polls_in_ten_minutes(True) == 14

    def test_process_allocation_tracks_pool(self):
        clock, os, server, volume, pool, governor = make_env()
        force_misses(pool, volume)
        governor.poll_once()
        assert server.allocated == pool.size_bytes()


class TestCEVariant:
    def test_ce_grows_only_when_free_memory_increases(self):
        clock, os, server, volume, pool, governor = make_env(
            supports_working_set=False
        )
        competitor = os.spawn("other-app")
        competitor.allocate(100 * MiB)
        force_misses(pool, volume)
        first = governor.poll_once()  # establishes the free-memory baseline
        assert first.inputs["working_set"] is None
        force_misses(pool, volume)
        before = pool.size_bytes()
        sample = governor.poll_once()  # free memory unchanged: no growth
        assert pool.size_bytes() <= before + 64 * KiB
        competitor.allocate(-80 * MiB)  # other app frees memory
        force_misses(pool, volume)
        governor.poll_once()
        assert pool.size_bytes() > before

    def test_ce_shrinks_when_other_apps_allocate(self):
        clock, os, server, volume, pool, governor = make_env(
            supports_working_set=False,
            total_memory=64 * MiB,
            capacity_pages=30 * MiB // (4 * KiB),
        )
        governor.poll_once()
        competitor = os.spawn("other-app")
        competitor.allocate(40 * MiB)  # device memory now scarce
        before = pool.size_bytes()
        governor.poll_once()
        assert pool.size_bytes() < before
