"""Injector-level tests: FaultyDisk + Volume retry, probe outages,
governor ride-out, and the hostile process."""

import pytest

from repro.buffer import BufferGovernor, BufferPool, GovernorConfig
from repro.common import MiB, SimClock
from repro.common.errors import IOFaultError, TransientIOError
from repro.faults import (
    DISK_READ_ERROR,
    FaultPlan,
    FaultRates,
    FaultyDisk,
    HostileProcess,
)
from repro.ossim import OperatingSystem
from repro.ossim.memory import WorkingSetProbeOutage
from repro.storage import FlashDisk, Volume


def make_plan(seed=7, **rate_overrides):
    rates = FaultRates(
        disk_read_error=0.0,
        disk_write_error=0.0,
        disk_latency=0.0,
        working_set_outage=0.0,
        spill_write_error=0.0,
    )
    for name, value in rate_overrides.items():
        setattr(rates, name, value)
    plan = FaultPlan(seed, rates)
    return plan


def make_volume(plan, size_pages=10_000):
    clock = SimClock()
    plan.bind(clock)
    disk = FaultyDisk(FlashDisk(clock, size_pages), plan)
    return clock, disk, Volume(disk)


class TestFaultyDisk:
    def test_delegates_to_inner_device(self):
        plan = make_plan()
        __, disk, __v = make_volume(plan)
        assert disk.size_pages == 10_000
        assert disk.page_size == disk.inner.page_size
        disk.read_page(5)
        assert disk.reads == 1
        disk.reset_counters()
        assert disk.reads == 0

    def test_forced_read_error_raises_transient(self):
        plan = make_plan(disk_read_error=1.0)
        __, disk, __v = make_volume(plan)
        with pytest.raises(TransientIOError) as excinfo:
            disk.read_page(3)
        assert excinfo.value.site == DISK_READ_ERROR
        assert plan.injected == 1

    def test_failed_attempt_charges_error_latency(self):
        plan = make_plan(disk_read_error=1.0)
        clock, disk, __v = make_volume(plan)
        before = clock.now
        with pytest.raises(TransientIOError):
            disk.read_page(3)
        assert clock.now - before == plan.rates.error_latency_us

    def test_latency_spike_charges_clock(self):
        plan = make_plan(disk_latency=1.0)
        clock, disk, __v = make_volume(plan)
        healthy = FlashDisk(SimClock(), 10_000)
        healthy_cost = healthy.read_page(3)
        before = clock.now
        disk.read_page(3)
        assert clock.now - before == healthy_cost + plan.rates.latency_spike_us


class TestVolumeRetry:
    def test_transient_errors_are_retried_to_success(self):
        plan = make_plan(disk_read_error=0.3)
        __, __d, volume = make_volume(plan)
        dbfile = volume.create_file("data")
        for __ in range(50):
            page = dbfile.allocate_page()
            dbfile.write(page, payload="x")
        for page in range(50):
            dbfile.read(page)  # must never raise at 0.3 with 5 retries
        assert plan.injected > 0
        assert plan.retries > 0

    def test_persistent_failure_surfaces_typed_after_budget(self):
        plan = make_plan()
        __, __d, volume = make_volume(plan)
        dbfile = volume.create_file("data")
        page = dbfile.allocate_page()
        dbfile.write(page, payload="x")
        plan.rates.disk_read_error = 1.0
        with pytest.raises(IOFaultError):
            dbfile.read(page)
        # One initial attempt + the full retry budget, all injected.
        assert plan.injected == plan.rates.io_retry_limit + 1
        assert plan.retries == plan.rates.io_retry_limit

    def test_backoff_charges_simulated_time(self):
        plan = make_plan()
        clock, __d, volume = make_volume(plan)
        dbfile = volume.create_file("data")
        page = dbfile.allocate_page()
        dbfile.write(page, payload="x")
        plan.rates.disk_read_error = 1.0
        before = clock.now
        with pytest.raises(IOFaultError):
            dbfile.read(page)
        limit = plan.rates.io_retry_limit
        backoff = plan.rates.io_retry_backoff_us
        expected_backoff = sum(backoff * 2**i for i in range(limit))
        expected_errors = (limit + 1) * plan.rates.error_latency_us
        assert clock.now - before == expected_backoff + expected_errors

    def test_failed_write_leaves_old_payload(self):
        plan = make_plan()
        __, __d, volume = make_volume(plan)
        dbfile = volume.create_file("data")
        page = dbfile.allocate_page()
        dbfile.write(page, payload="old")
        plan.rates.disk_write_error = 1.0
        with pytest.raises(IOFaultError):
            dbfile.write(page, payload="new")
        plan.rates.disk_write_error = 0.0
        assert dbfile.read(page) == "old"


def make_governed_rig(plan, total_memory=128 * MiB):
    clock = SimClock()
    plan.bind(clock)
    os = OperatingSystem(total_memory, fault_plan=plan)
    server_process = os.spawn("dbserver")
    volume = Volume(FlashDisk(clock, 100_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
    governor = BufferGovernor(
        clock, os, server_process, pool,
        database_size_fn=lambda: 10**12,
        config=GovernorConfig(upper_bound_bytes=64 * MiB),
    )
    return clock, os, server_process, pool, governor


class TestWorkingSetOutage:
    def test_forced_outage_raises(self):
        plan = make_plan(working_set_outage=1.0)
        __, os, process, __p, __g = make_governed_rig(plan)
        with pytest.raises(WorkingSetProbeOutage):
            os.working_set(process)
        assert plan.injections_by_site() == {"ossim.working_set_outage": 1}

    def test_governor_rides_out_on_last_known_working_set(self):
        plan = make_plan()
        __, __os, __pr, pool, governor = make_governed_rig(plan)
        healthy = governor.poll_once()
        assert healthy.inputs["working_set"] is not None
        plan.rates.working_set_outage = 1.0
        outage = governor.poll_once()
        # Rode the outage out on the cached value — same reference input,
        # not the CE fallback's pool-size-based one.
        assert outage.inputs["working_set"] == governor._last_working_set
        assert pool.size_bytes() >= governor.config.lower_bound_bytes

    def test_governor_survives_outage_with_no_history(self):
        plan = make_plan(working_set_outage=1.0)
        __, __os, __pr, __pool, governor = make_governed_rig(plan)
        sample = governor.poll_once()  # CE-style fallback, no crash
        assert sample.inputs["working_set"] is None


class TestHostileProcess:
    def test_bursts_grab_and_release(self):
        plan = make_plan()
        plan.rates.hostile_interval_us = 1_000_000
        plan.rates.hostile_hold_us = 500_000
        plan.rates.hostile_grab_bytes = 16 * MiB
        clock = SimClock()
        plan.bind(clock)
        os = OperatingSystem(128 * MiB)
        hostile = HostileProcess(os, clock, plan)
        assert hostile.bursts == 0
        clock.advance(1_100_000)
        assert hostile.bursts == 1
        assert hostile.held_bytes == 16 * MiB
        clock.advance(500_000)  # past the hold
        assert hostile.held_bytes == 0
        assert plan.injections_by_site()["ossim.hostile_grab"] == 1

    def test_disabled_by_default_schedule(self):
        plan = make_plan()  # hostile_interval_us == 0
        clock = SimClock()
        plan.bind(clock)
        os = OperatingSystem(128 * MiB)
        hostile = HostileProcess(os, clock, plan)
        clock.advance(60_000_000)
        assert hostile.bursts == 0

    def test_governor_shrinks_through_burst(self):
        plan = make_plan()
        plan.rates.hostile_interval_us = 1_000_000
        plan.rates.hostile_hold_us = 10_000_000
        plan.rates.hostile_grab_bytes = 100 * MiB
        __c, os, process, pool, governor = make_governed_rig(
            plan, total_memory=64 * MiB
        )
        process.set_allocation(pool.size_bytes())
        governor.poll_once()
        before = pool.size_bytes()
        hostile = HostileProcess(os, governor.clock, plan)
        governor.clock.advance(1_100_000)  # burst fires
        assert hostile.held_bytes > 0
        governor.poll_once()
        assert pool.size_bytes() <= before
        assert pool.size_bytes() >= governor.config.lower_bound_bytes
