"""Crash inside a batched group-commit force: the ack contract survives.

The :class:`GroupCommitCrashHarness` kills the server at the
``wal.group_force`` crash site — fired only by coordinator flushes, per
page — restarts it, and adjudicates every session's statements: the ones
whose ``execute`` returned (acknowledged) must survive recovery, and the
interrupted ones may survive only as whole statements that were in the
dying batch.
"""

import pytest

from repro import Server, ServerConfig
from repro.faults import FaultPlan, FaultRates
from repro.faults.plan import DISK_READ_ERROR
from repro.recovery import CrashPoint, GroupCommitCrashHarness
from repro.storage.log import CRASH_GROUP_FORCE, GroupCommitConfig

SCHEMA = [
    "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)",
    "CREATE INDEX ib ON accounts (balance)",
    "INSERT INTO accounts VALUES (1, 100), (2, 200), (3, 300)",
]


def make_sessions(n_sessions=3, n_statements=5):
    return [
        (
            "s%d" % k,
            [
                "INSERT INTO accounts VALUES (%d, %d)"
                % (100 * (k + 1) + i, 10 * k + i)
                for i in range(n_statements)
            ],
        )
        for k in range(n_sessions)
    ]


def make_server():
    return Server(ServerConfig(start_buffer_governor=False))


def run_harness(occurrence, seed=5, tear_tail=None, sessions=None):
    harness = GroupCommitCrashHarness(
        make_server, SCHEMA, sessions or make_sessions(),
        crash_point=CrashPoint(CRASH_GROUP_FORCE, occurrence),
        seed=seed, tear_tail=tear_tail,
    )
    report = harness.run()
    return harness, report


class TestCrashInBatchedForce:
    @pytest.mark.parametrize("occurrence", [1, 2, 3, 5, 8])
    def test_committed_exactly_at_each_occurrence(self, occurrence):
        harness, report = run_harness(occurrence)
        assert report.crashed
        assert CRASH_GROUP_FORCE in report.crash_site
        # run() already verified: no acknowledged commit lost, recovered
        # state equals reference + some subset of interrupted statements.
        assert report.tables_verified >= 1

    def test_acked_and_survivors_are_disjoint(self):
        harness, report = run_harness(4)
        acked = [sql for acks in harness.acked.values() for sql in acks]
        assert not set(acked) & set(harness.survivors)
        # Survivors only ever come from the statements in flight.
        inflight = set(filter(None, harness.inflight.values()))
        assert set(harness.survivors) <= inflight

    def test_torn_tail_still_committed_exactly(self):
        harness, report = run_harness(3, tear_tail=True)
        assert report.crashed
        assert report.tables_verified >= 1

    def test_no_crash_point_acks_everything(self):
        harness = GroupCommitCrashHarness(
            make_server, SCHEMA, make_sessions(), crash_point=None, seed=5
        )
        report = harness.run()
        assert not report.crashed
        assert harness.survivors == []
        assert all(sql is None for sql in harness.inflight.values())
        assert len(report.committed_statements) == 3 * 5

    def test_batched_forces_actually_happen(self):
        # The scenario must exercise a force covering several commits —
        # otherwise this file tests nothing beyond the single-connection
        # crash matrix.
        harness = GroupCommitCrashHarness(
            make_server, SCHEMA, make_sessions(n_statements=8),
            crash_point=None, seed=5,
        )
        harness.run()
        coordinator = harness.server.group_commit
        assert coordinator.batches < coordinator.committed


class TestDeterminism:
    @pytest.mark.parametrize("occurrence", [2, 5])
    def test_same_seed_same_fingerprint(self, occurrence):
        first, __ = run_harness(occurrence, seed=9)
        second, __ = run_harness(occurrence, seed=9)
        assert first.state_fingerprint() == second.state_fingerprint()
        assert first.survivors == second.survivors
        assert first.acked == second.acked

    def test_scheduler_trace_identical_across_runs(self):
        first, __ = run_harness(3, seed=9)
        second, __ = run_harness(3, seed=9)
        assert (
            first.scheduler.trace_lines() == second.scheduler.trace_lines()
        )


class TestWideWindowBatches:
    def test_crash_with_wide_fixed_window(self):
        # A generous window makes every session park, so the dying force
        # covers a genuinely multi-ticket batch.
        def factory():
            return Server(ServerConfig(
                start_buffer_governor=False,
                group_commit=GroupCommitConfig(max_window_us=10_000),
            ))

        harness = GroupCommitCrashHarness(
            factory, SCHEMA, make_sessions(n_sessions=4, n_statements=6),
            crash_point=CrashPoint(CRASH_GROUP_FORCE, 2), seed=13,
        )
        report = harness.run()
        assert report.crashed
        assert report.tables_verified >= 1


class TestAbsorbedFailuresAreNotAcks:
    """The scheduler absorbs a statement-level casualty and resumes the
    session's generator anyway; the harness must not count that
    statement as acknowledged (it used to, and then found its effects
    "missing" from the surviving state)."""

    def test_failed_statement_is_neither_acked_nor_in_flight(self):
        quiet = dict(
            disk_write_error=0.0, disk_latency=0.0, log_force_error=0.0,
            spill_write_error=0.0, working_set_outage=0.0,
        )

        def factory():
            # Budget: one statement's worth of read retries, then quiet.
            return Server(ServerConfig(
                start_buffer_governor=False, initial_pool_pages=16,
                fault_plan=FaultPlan(
                    seed=1, rates=FaultRates(disk_read_error=0.0, **quiet),
                    budgets={DISK_READ_ERROR: 6},
                ),
            ))

        class HostileOnceGivensAreDurable(GroupCommitCrashHarness):
            def _build(self):
                server = super()._build()
                server.fault_plan.rates = FaultRates(
                    disk_read_error=1.0, **quiet
                )
                return server

        sessions = [
            (
                "s%d" % k,
                [
                    "UPDATE t SET v = v + 1 WHERE id = %d" % (1500 * k + i)
                    for i in range(3)
                ],
            )
            for k in range(3)
        ]
        harness = HostileOnceGivensAreDurable(
            factory, ["CREATE TABLE t (id INT PRIMARY KEY, v INT)"],
            sessions, seed=3, loads=[("t", [(i, 0) for i in range(6000)])],
        )
        report = harness.run()  # raised VerificationError before the fix
        failed = [
            sql for s in harness.scheduler.sessions for sql, __ in s.errors
        ]
        assert len(failed) == 1
        acked = [sql for sql, __ in report.acked_statements]
        assert failed[0] not in acked and len(acked) == 3 * 3 - 1
        assert all(sql is None for sql in harness.inflight.values())
        assert not report.crashed and harness.survivors == []
