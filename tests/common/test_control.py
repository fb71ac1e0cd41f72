"""The shared feedback-loop pieces (``repro.common.control``): the eq. 2
step against the inline expression it replaced, the poll timer's
lifecycle, the bounded decision ring, and one convergence property per
damped loop (buffer size, checkpoint interval, group-commit window)."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.buffer import BufferGovernor, BufferPool, PageKind
from repro.buffer.governor import HOLD_DEADBAND
from repro.common import KiB, MiB, MINUTE, SECOND, SimClock
from repro.common.control import (
    DECISION_RING_CAP,
    EQ2_WEIGHTS,
    Decision,
    PollLoop,
    damped,
    decision_ring,
)
from repro.dtt import default_dtt_model
from repro.ossim import OperatingSystem
from repro.profiling.metrics import MetricsRegistry
from repro.recovery.checkpoint import CheckpointConfig, CheckpointGovernor
from repro.storage import FlashDisk, GroupCommitCoordinator, TransactionLog
from repro.storage import Volume
from repro.storage.log import INSERT, WINDOW_RECORD_BAND_US


def reference_eq2(ideal, current, damping_new, damping_old):
    """The eq. 2 line as each loop spelled it before ``damped``."""
    return int(damping_new * ideal + damping_old * current)


#: The weight pairs any caller passes: the default, and E15's ablation
#: pairs ``(d, 1.0 - d)``.
WEIGHT_PAIRS = (EQ2_WEIGHTS, (0.9, 1.0 - 0.9), (1.0, 1.0 - 1.0))

values = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)


@given(ideal=values, current=values, weights=st.sampled_from(WEIGHT_PAIRS))
def test_damped_is_bit_equal_to_the_inline_rule(ideal, current, weights):
    assert damped(ideal, current, weights) == reference_eq2(
        ideal, current, *weights
    )


@given(
    ideal=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    current=st.integers(min_value=0, max_value=10 ** 7),
)
def test_damped_is_bit_equal_on_float_ideals(ideal, current):
    # The group-commit window's ideal is a float mean gap times a count.
    assert damped(ideal, current) == reference_eq2(ideal, current, 0.9, 0.1)


def test_default_weights_are_eq2():
    assert EQ2_WEIGHTS == (0.9, 0.1)
    assert damped(1000, 0) == 900


# --------------------------------------------------------------------- #
# the poll timer
# --------------------------------------------------------------------- #


class Counter:
    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class TickLoop(PollLoop):
    """A loop polling every ``interval_us`` and deciding nothing."""

    def __init__(self, clock, interval_us, decisions=None):
        super().__init__(clock, "tick", polls=Counter(),
                         actions={"hold": Counter()}, decisions=decisions)
        self.interval_us = interval_us

    def poll_once(self):
        return self._record("hold", 0, 0, interval_us=self.interval_us)

    def _next_interval(self):
        return self.interval_us


class TestPollLoop:
    def test_polls_on_the_clock_and_counts(self):
        clock = SimClock()
        loop = TickLoop(clock, SECOND)
        loop.start()
        clock.advance(10 * SECOND)
        assert loop._m_polls.value == loop._m_actions["hold"].value == 10
        assert [d.time_us for d in loop.decisions] == [
            k * SECOND for k in range(1, 11)
        ]
        assert loop.decisions[0] == Decision(
            SECOND, "tick", "hold", 0, 0, {"interval_us": SECOND}
        )

    def test_start_is_idempotent(self):
        clock = SimClock()
        loop = TickLoop(clock, SECOND)
        loop.start()
        loop.start()
        clock.advance(10 * SECOND)
        assert len(loop.decisions) == 10

    def test_stop_then_start_leaves_one_chain(self):
        clock = SimClock()
        loop = TickLoop(clock, SECOND)
        for __ in range(3):
            loop.start()
            clock.advance(SECOND // 2)
            loop.stop()
        loop.start()
        clock.advance(10 * SECOND)
        assert len(loop.decisions) == 10

    def test_stop_inside_a_poll_ends_the_chain(self):
        clock = SimClock()
        loop = TickLoop(clock, SECOND)
        poll = loop.poll_once

        def poll_then_stop():
            decision = poll()
            loop.stop()
            return decision

        loop.poll_once = poll_then_stop
        loop.start()
        clock.advance(10 * SECOND)
        assert len(loop.decisions) == 1

    def test_loops_share_a_ring_they_are_given(self):
        clock = SimClock()
        ring = decision_ring()
        fast = TickLoop(clock, SECOND, decisions=ring)
        slow = TickLoop(clock, 2 * SECOND, decisions=ring)
        fast.start()
        slow.start()
        clock.advance(2 * SECOND)
        assert fast.decisions is slow.decisions is ring
        assert len(ring) == 3


def make_buffer_rig(total_memory=256 * MiB, capacity_pages=1024,
                    metrics=None):
    clock = SimClock()
    os = OperatingSystem(total_memory)
    server = os.spawn("dbserver")
    competitor = os.spawn("competitor")
    volume = Volume(FlashDisk(clock, 500_000))
    pool = BufferPool(volume.create_file("temp"), capacity_pages=capacity_pages)
    governor = BufferGovernor(
        clock, os, server, pool, database_size_fn=lambda: 10 ** 12,
        metrics=metrics,
    )
    return clock, competitor, volume, pool, governor


def test_ring_holds_at_its_cap_after_100k_polls():
    metrics = MetricsRegistry()
    clock, __, __, __, governor = make_buffer_rig(metrics=metrics)
    governor.start()
    clock.advance(100_000 * MINUTE)
    assert metrics.value("governor.polls") >= 100_000
    assert len(governor.decisions) == DECISION_RING_CAP
    assert governor.decisions[-1].time_us == clock.now


# --------------------------------------------------------------------- #
# convergence: under a constant measurement each damped loop settles
# within n polls and then never leaves its deadband
# --------------------------------------------------------------------- #


def force_misses(pool, volume, n=4):
    dbfile = volume.create_file("missfile-%d" % volume.disk.reads)
    pages = []
    for i in range(n):
        frame = pool.new_page(dbfile, PageKind.TABLE, payload=i)
        pages.append(frame.page_no)
        pool.unpin(frame)
    pool.flush_all()
    pool.discard(dbfile)
    for page in pages:
        pool.unpin(pool.fetch(dbfile, page))


@settings(max_examples=20, deadline=None)
@given(
    competitor_mib=st.integers(min_value=0, max_value=200),
    start_pages=st.integers(min_value=512, max_value=40_000),
)
def test_buffer_size_settles_inside_its_deadband(competitor_mib, start_pages):
    # Memory not oversubscribed: the working set is the pool itself, so
    # working set + free memory, the measurement, stays fixed.
    assume(start_pages * 4 * KiB + competitor_mib * MiB <= 251 * MiB)
    __, competitor, volume, pool, governor = make_buffer_rig(
        capacity_pages=start_pages
    )
    competitor.set_allocation(competitor_mib * MiB)
    decisions = []
    for __ in range(16):
        force_misses(pool, volume)
        decisions.append(governor.poll_once())
    settled = [d.action == HOLD_DEADBAND for d in decisions].index(True)
    assert settled <= 6
    # Once inside the deadband it holds there: the measurement is fixed.
    tail = decisions[settled:]
    assert all(d.action == HOLD_DEADBAND for d in tail)
    assert all(d.after == d.before == tail[0].before for d in tail)
    final = tail[0]
    assert abs(final.inputs["ideal_bytes"] - final.after) < 64 * KiB


class CheckpointRig:
    def __init__(self, config):
        self.clock = SimClock()
        volume = Volume(FlashDisk(self.clock, 50_000))
        self.pool = BufferPool(volume.create_file("temp"), 64)
        self.log = TransactionLog(volume.create_file("txn.log"))
        self.statements = 0
        self.governor = CheckpointGovernor(
            self.clock,
            log_fn=lambda: self.log,
            pool=self.pool,
            model=default_dtt_model(4096),
            page_size=4096,
            checkpoint_fn=lambda: None,
            statements_fn=lambda: self.statements,
            config=config,
        )


@settings(max_examples=50, deadline=None)
@given(
    start_interval=st.integers(min_value=SECOND, max_value=60 * SECOND),
    elapsed_us=st.integers(min_value=1, max_value=10 * SECOND),
)
def test_checkpoint_interval_settles_on_its_ideal(start_interval, elapsed_us):
    # A busy server whose recovery estimate stays flat: the ideal interval
    # is the maximum, and the damped step must close in on it from below
    # without overshooting, then stay within eq. 2's integer band.
    config = CheckpointConfig(
        recovery_time_target_us=3600 * SECOND,
        min_poll_interval_us=SECOND, max_poll_interval_us=60 * SECOND,
    )
    rig = CheckpointRig(config)
    rig.governor._interval_us = start_interval
    ideal = config.max_poll_interval_us
    intervals = []
    for __ in range(12):
        rig.statements += 1
        rig.clock.advance(elapsed_us)
        intervals.append(rig.governor.poll_once().inputs["interval_us"])
    assert intervals == sorted(intervals)
    assert all(interval <= ideal for interval in intervals)
    settled = next(
        k for k, interval in enumerate(intervals) if ideal - interval <= 1
    )
    assert settled <= 9
    assert all(ideal - interval <= 1 for interval in intervals[settled:])


@settings(max_examples=50, deadline=None)
@given(
    gap_us=st.integers(min_value=1, max_value=20_000),
    start_window=st.integers(min_value=0, max_value=2_000),
)
def test_group_commit_window_settles_on_its_ideal(gap_us, start_window):
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 10_000))
    log = TransactionLog(volume.create_file("txn.log"))
    coordinator = GroupCommitCoordinator(log_fn=lambda: log, clock=clock)
    coordinator.window_us = start_window
    coordinator._observe_arrival()
    windows = []
    for __ in range(16):
        clock.advance(gap_us)
        coordinator._observe_arrival()
        windows.append(coordinator.window_us)
    config = coordinator.config
    ideal = 0.0 if gap_us >= 5_000 else min(
        float(config.max_window_us), gap_us * (config.target_batch - 1)
    )
    settled = next(
        k for k, window in enumerate(windows) if abs(window - ideal) < 2
    )
    assert settled <= 5
    assert all(abs(window - ideal) < 2 for window in windows[settled:])
    assert_window_records_chain(coordinator)


def assert_window_records_chain(coordinator):
    """Each record starts where the last one left off, crosses the band
    or zero, and the last one is within the band of the live window."""
    records = list(coordinator.decisions)
    afters = [d.after for d in records]
    assert [d.before for d in records] == ([0] + afters)[:len(records)]
    for d in records:
        assert d.loop == "group_commit"
        assert d.action == ("widen" if d.after > d.before else "narrow")
        assert (0 in (d.before, d.after)
                or abs(d.after - d.before) >= WINDOW_RECORD_BAND_US)
    last = records[-1].after if records else 0
    window = coordinator.window_us
    assert window == last or (
        window and last and abs(window - last) < WINDOW_RECORD_BAND_US
    )


def test_group_commit_records_band_crossings_not_every_move():
    # Bursty traffic with jittery gaps moves the window on nearly every
    # commit; the ring keeps its course in a few records.
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 10_000))
    log = TransactionLog(volume.create_file("txn.log"))
    coordinator = GroupCommitCoordinator(log_fn=lambda: log, clock=clock)
    rng = random.Random(7)
    moves = 0
    for __ in range(2000):
        clock.advance(rng.randint(20, 400))
        before = coordinator.window_us
        coordinator._observe_arrival()
        moves += coordinator.window_us != before
        assert_window_records_chain(coordinator)
    assert moves > 1900
    assert 10 < len(coordinator.decisions) < 200


def test_group_commit_records_nothing_while_the_window_holds():
    clock = SimClock()
    volume = Volume(FlashDisk(clock, 10_000))
    log = TransactionLog(volume.create_file("txn.log"))
    coordinator = GroupCommitCoordinator(log_fn=lambda: log, clock=clock)
    for txn in range(1, 9):
        clock.advance(50_000)  # idle: the window stays at zero
        log.begin(txn)
        log.log_change(txn, INSERT, "t", txn, after=(txn,))
        coordinator.commit(txn)
    assert coordinator.window_us == 0
    assert len(coordinator.decisions) == 0


@pytest.mark.no_sanitize
def test_server_hands_every_loop_its_ring():
    from repro import Server, ServerConfig
    from repro.faults import FaultPlan

    server = Server(ServerConfig(
        start_buffer_governor=False, fault_plan=FaultPlan(seed=1),
    ))
    ring = server.decisions
    assert len(ring) == 0
    for loop in (
        server.buffer_governor, server.checkpoint_governor,
        server.group_commit, server.memory_governor, server.dtt_recalibrator,
    ):
        assert loop.decisions is ring
    server.buffer_governor.poll_once()
    server.checkpoint_governor.poll_once()
    assert [d.loop for d in ring] == ["buffer", "checkpoint"]
