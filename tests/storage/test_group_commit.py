"""Unit tests for the adaptive group-commit coordinator.

The coordinator is exercised against a real transaction log on a
simulated volume, with a stub scheduler standing in for the workload
scheduler where parking behaviour matters.
"""

import pytest

from repro.analysis.sanitizers import GroupCommitInvariantError
from repro.common import SimClock
from repro.common.errors import IOFaultError
from repro.faults import FaultPlan, FaultRates
from repro.profiling import MetricsRegistry
from repro.storage import (
    FlashDisk,
    GroupCommitConfig,
    GroupCommitCoordinator,
    TransactionLog,
    Volume,
)
from repro.storage.log import INSERT


class Rig:
    """A log + clock + coordinator with controllable scheduling."""

    def __init__(self, config=None, scheduler=None, sanitize=False,
                 fault_plan=None, metrics=None):
        self.clock = SimClock()
        volume = Volume(FlashDisk(self.clock, 10_000))
        self.log = TransactionLog(
            volume.create_file("txn.log"), metrics=metrics,
            fault_plan=fault_plan,
        )
        self.scheduler = scheduler
        self.coordinator = GroupCommitCoordinator(
            log_fn=lambda: self.log,
            clock=self.clock,
            config=config,
            metrics=metrics,
            scheduler_fn=lambda: self.scheduler,
            sanitize=sanitize,
        )
        self._next_txn = 1

    def begin_txn(self):
        txn_id = self._next_txn
        self._next_txn += 1
        self.log.begin(txn_id)
        self.log.log_change(txn_id, INSERT, "t", txn_id, after=(txn_id,))
        return txn_id

    def commit_one(self):
        return self.coordinator.commit(self.begin_txn())


class ParkingScheduler:
    """Stub: lets a configurable number of commits wait, then flushes."""

    def __init__(self, rig, park_first=1):
        self.rig = rig
        self.park_first = park_first
        self.parked = []

    def can_wait(self):
        return len(self.parked) < self.park_first

    def wait_for_commit(self, ticket, coordinator):
        self.parked.append(ticket)
        # A real scheduler would run other sessions here; the stub just
        # returns un-durable so the committer flushes for the batch.


class TestInlinePath:
    def test_commit_without_scheduler_forces_inline(self):
        rig = Rig()
        ticket = rig.commit_one()
        assert ticket.durable
        assert ticket.lsn <= rig.log.durable_lsn
        assert ticket.txn_id in rig.log.committed_txns()
        assert rig.coordinator.pending_count() == 0

    def test_single_connection_is_force_per_commit(self):
        metrics = MetricsRegistry()
        rig = Rig(metrics=metrics)
        for __ in range(5):
            rig.commit_one()
        assert rig.coordinator.batches == 5
        assert rig.coordinator.committed == 5
        assert metrics.snapshot()["wal.forces"] == 5

    def test_disabled_config_never_waits(self):
        rig = Rig(config=GroupCommitConfig(enabled=False))
        rig.scheduler = ParkingScheduler(rig)
        rig.coordinator.window_us = 1_000
        rig.commit_one()
        assert rig.scheduler.parked == []


class TestBatching:
    def test_parked_commits_settle_in_one_flush(self):
        rig = Rig()
        scheduler = ParkingScheduler(rig, park_first=2)
        rig.scheduler = scheduler
        rig.coordinator.window_us = 1_000

        # Two committers "park" (stub records them); drive them through
        # commit(): each returns un-durable from the stub wait, so the
        # second flush covers both tickets at once.
        first = rig.commit_one()
        assert first.durable
        assert len(scheduler.parked) == 1

    def test_flush_settles_every_covered_ticket(self):
        rig = Rig()
        a = rig.begin_txn()
        b = rig.begin_txn()
        log = rig.log
        coordinator = rig.coordinator
        ra = log.append_commit(a)
        rb = log.append_commit(b)
        from repro.storage.log import CommitTicket

        ta = CommitTicket(a, ra.lsn, rig.clock.now)
        tb = CommitTicket(b, rb.lsn, rig.clock.now)
        coordinator._pending.extend([ta, tb])
        settled = coordinator.flush()
        assert settled == 2
        assert ta.durable and tb.durable
        assert coordinator.batches == 1
        assert {a, b} <= log.committed_txns()

    def test_target_batch_forces_immediately(self):
        rig = Rig(config=GroupCommitConfig(target_batch=1))
        rig.scheduler = ParkingScheduler(rig)
        rig.coordinator.window_us = 1_000
        ticket = rig.commit_one()
        assert ticket.durable
        assert rig.scheduler.parked == []

    def test_deadline_tracks_oldest_pending(self):
        rig = Rig()
        assert rig.coordinator.deadline_us() is None
        rig.coordinator.window_us = 500
        txn = rig.begin_txn()
        record = rig.log.append_commit(txn)
        from repro.storage.log import CommitTicket

        rig.coordinator._pending.append(
            CommitTicket(txn, record.lsn, rig.clock.now)
        )
        assert rig.coordinator.deadline_us() == rig.clock.now + 500
        rig.coordinator.reset()
        assert rig.coordinator.deadline_us() is None
        assert rig.coordinator.pending_count() == 0


class TestWindowTuning:
    def test_idle_arrivals_collapse_window(self):
        rig = Rig()
        rig.coordinator.window_us = 1_500
        for __ in range(8):
            rig.clock.advance(50_000)  # far beyond IDLE_THRESHOLD_US
            rig.commit_one()
        assert rig.coordinator.window_us == 0

    def test_bursty_arrivals_widen_window(self):
        rig = Rig()
        for __ in range(16):
            rig.clock.advance(100)  # tight burst
            rig.commit_one()
        cfg = rig.coordinator.config
        assert rig.coordinator.window_us > 0
        assert rig.coordinator.window_us <= cfg.max_window_us

    def test_window_follows_damping_equation(self):
        cfg = GroupCommitConfig()
        rig = Rig(config=cfg)
        coordinator = rig.coordinator
        coordinator._observe_arrival()  # first arrival: no gap yet
        rig.clock.advance(100)
        coordinator._observe_arrival()  # gap 100
        ideal = min(cfg.max_window_us, 100 * (cfg.target_batch - 1))
        first = int(0.9 * ideal + 0.1 * 0)
        assert coordinator.window_us == first
        rig.clock.advance(100)
        coordinator._observe_arrival()
        second = int(0.9 * ideal + 0.1 * first)
        assert coordinator.window_us == second
        # Damped: converging toward the ideal, never overshooting it.
        assert first < second < ideal

    def test_window_capped_at_max(self):
        cfg = GroupCommitConfig(max_window_us=300)
        rig = Rig(config=cfg)
        for __ in range(32):
            rig.clock.advance(200)
            rig.commit_one()
        assert rig.coordinator.window_us <= 300


class TestFailurePaths:
    def test_failed_force_removes_own_ticket(self):
        plan = FaultPlan(
            seed=3,
            rates=FaultRates(log_force_error=1.0, io_retry_limit=1),
        )
        rig = Rig(fault_plan=plan)
        txn = rig.begin_txn()
        with pytest.raises(IOFaultError):
            rig.coordinator.commit(txn)
        # The rolled-back commit must not linger for a later batch.
        assert rig.coordinator.pending_count() == 0

    def test_ack_invariant_catches_lying_ticket(self):
        class LyingScheduler:
            def can_wait(self):
                return True

            def wait_for_commit(self, ticket, coordinator):
                # Claim durability without ever forcing the log.
                ticket.durable = True

        rig = Rig(sanitize=True, scheduler=LyingScheduler())
        rig.coordinator.window_us = 1_000
        with pytest.raises(GroupCommitInvariantError):
            rig.commit_one()

    def test_ack_invariant_passes_honest_path(self):
        rig = Rig(sanitize=True)
        ticket = rig.commit_one()
        assert ticket.durable


class TestMetrics:
    def test_batch_and_latency_metrics_published(self):
        metrics = MetricsRegistry()
        rig = Rig(metrics=metrics)
        rig.commit_one()
        snap = metrics.snapshot()
        assert snap["wal.group_commit.batches"] == 1
        assert snap["wal.group_commit.batch_size"]["count"] == 1
        assert snap["txn.commit_latency_us"]["count"] == 1
        assert snap["wal.group_commit.pending"] == 0
        assert snap["wal.group_commit.window_us"] == rig.coordinator.window_us
