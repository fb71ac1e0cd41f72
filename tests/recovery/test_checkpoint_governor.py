"""Checkpoint-governor control law, driven as a rig (no server)."""

import pytest

from repro.buffer.pool import BufferPool
from repro.common import SimClock
from repro.common.errors import IOFaultError
from repro.common.units import SECOND
from repro.dtt import default_dtt_model
from repro.profiling.metrics import MetricsRegistry
from repro.recovery.checkpoint import (
    CKPT_FIXED,
    CKPT_IDLE,
    CKPT_URGENT,
    HOLD,
    HOLD_RECOVERY,
    CheckpointConfig,
    CheckpointGovernor,
)
from repro.storage import (
    FlashDisk,
    GroupCommitCoordinator,
    TransactionLog,
    Volume,
)
from repro.storage.log import INSERT


class Rig:
    """A governor wired to a real log/pool pair with spy hooks."""

    def __init__(self, config=None, checkpoint_error=None):
        self.clock = SimClock()
        self.volume = Volume(FlashDisk(self.clock, 50_000))
        self.pool = BufferPool(self.volume.create_file("temp"), 64)
        self.log = TransactionLog(self.volume.create_file("txn.log"))
        self.group_commit = GroupCommitCoordinator(
            lambda: self.log, self.clock
        )
        self.metrics = MetricsRegistry(self.clock)
        self.statements = 0
        self.checkpoints_taken = 0
        self.in_recovery = False
        self._checkpoint_error = checkpoint_error

        def checkpoint_fn():
            if self._checkpoint_error is not None:
                raise self._checkpoint_error
            self.checkpoints_taken += 1
            begin = self.log.checkpoint_begin(
                self.log.active_txns(), self.pool.dirty_page_table()
            )
            self.pool.flush_all()
            self.log.checkpoint_end(begin)

        self.governor = CheckpointGovernor(
            self.clock,
            log_fn=lambda: self.log,
            pool=self.pool,
            model=default_dtt_model(4096),
            page_size=4096,
            checkpoint_fn=checkpoint_fn,
            statements_fn=lambda: self.statements,
            config=config if config is not None else CheckpointConfig(),
            metrics=self.metrics,
            in_recovery_fn=lambda: self.in_recovery,
        )

    def write_log(self, records, txn_id=1):
        self.log.begin(txn_id)
        for row in range(records):
            self.log.log_change(txn_id, INSERT, "t", row, after=(row,))
        self.group_commit.commit(txn_id)


class TestControlLaw:
    def test_urgent_when_estimate_over_target(self):
        rig = Rig(CheckpointConfig(recovery_time_target_us=1))
        rig.write_log(40)
        rig.statements += 1  # busy: only the target can force it
        sample = rig.governor.poll_once()
        assert sample.action == CKPT_URGENT
        assert rig.checkpoints_taken == 1
        assert rig.log.records_since_checkpoint() == 0

    def test_idle_checkpoint_when_quiet_with_pending_log(self):
        rig = Rig(CheckpointConfig(recovery_time_target_us=3600 * SECOND))
        rig.write_log(5)
        # The statement counter has not moved since the governor was
        # built: the server is idle, recovery debt is paid for free.
        sample = rig.governor.poll_once()
        assert sample.action == CKPT_IDLE
        assert rig.checkpoints_taken == 1
        follow_up = rig.governor.poll_once()  # nothing left to protect
        assert follow_up.action == HOLD

    def test_hold_when_busy_and_under_target(self):
        rig = Rig(CheckpointConfig(recovery_time_target_us=3600 * SECOND))
        rig.write_log(5)
        rig.statements += 1
        sample = rig.governor.poll_once()
        assert sample.action == HOLD
        assert rig.checkpoints_taken == 0

    def test_estimate_clears_after_checkpoint(self):
        rig = Rig(CheckpointConfig(recovery_time_target_us=1))
        rig.write_log(40)
        assert rig.governor.estimate_recovery_us() > 0
        rig.governor.poll_once()
        assert rig.governor.estimate_recovery_us() == 0

    def test_fixed_mode_checkpoints_every_poll_with_pending_log(self):
        config = CheckpointConfig(adaptive=False)
        rig = Rig(config)
        rig.write_log(5)
        rig.statements += 1  # fixed mode ignores idleness and target
        sample = rig.governor.poll_once()
        assert sample.action == CKPT_FIXED
        assert sample.inputs["interval_us"] == config.max_poll_interval_us
        idle_sample = rig.governor.poll_once()  # nothing new to protect
        assert idle_sample.action == HOLD

    def test_holds_while_recovery_runs(self):
        rig = Rig(CheckpointConfig(recovery_time_target_us=1))
        rig.write_log(40)
        rig.in_recovery = True
        sample = rig.governor.poll_once()
        assert sample.action == HOLD_RECOVERY
        assert rig.checkpoints_taken == 0

    def test_interval_tightens_as_estimate_climbs(self):
        config = CheckpointConfig(recovery_time_target_us=3600 * SECOND)
        rig = Rig(config)
        rig.statements += 1
        rig.governor.poll_once()
        start_interval = rig.governor._interval_us
        assert start_interval == config.max_poll_interval_us
        # A burst of log growth between polls: the slope law must pull
        # the next poll closer.
        for txn in range(2, 8):
            rig.statements += 1
            rig.write_log(60, txn_id=txn)
            rig.clock.advance(1000)
            rig.governor.poll_once()
        assert rig.governor._interval_us < start_interval
        assert rig.governor._interval_us >= config.min_poll_interval_us

    def test_io_fault_is_counted_not_raised(self):
        rig = Rig(
            CheckpointConfig(recovery_time_target_us=1),
            checkpoint_error=IOFaultError("log device down"),
        )
        rig.write_log(40)
        sample = rig.governor.poll_once()  # must not raise
        assert sample.action == CKPT_URGENT
        assert rig.metrics.value("ckpt.io_faults") == 1

    def test_metrics_published(self):
        rig = Rig(CheckpointConfig(recovery_time_target_us=1))
        rig.write_log(40)
        rig.governor.poll_once()
        assert rig.metrics.value("ckpt.polls") == 1
        assert rig.metrics.value("ckpt.action.ckpt-urgent") == 1
        assert rig.metrics.value("ckpt.est_recovery_us") == 0

    def test_timer_lifecycle_on_sim_clock(self):
        config = CheckpointConfig(
            recovery_time_target_us=1,
            min_poll_interval_us=SECOND,
            max_poll_interval_us=2 * SECOND,
        )
        rig = Rig(config)
        rig.write_log(40)
        rig.governor.start()
        rig.clock.advance(5 * SECOND)
        assert rig.checkpoints_taken >= 1
        rig.governor.stop()
        taken = rig.checkpoints_taken
        rig.write_log(40, txn_id=9)
        rig.clock.advance(10 * SECOND)
        assert rig.checkpoints_taken == taken  # stopped governors stay quiet


class TestEstimate:
    def test_estimate_prices_log_and_dirty_pages(self):
        rig = Rig()
        assert rig.governor.estimate_recovery_us() == 0
        rig.write_log(40)
        log_only = rig.governor.estimate_recovery_us()
        assert log_only > 0
        data_file = rig.volume.create_file("data")
        frame = rig.pool.new_page(data_file)
        rig.pool.unpin(frame, dirty=True)
        assert rig.governor.estimate_recovery_us() > log_only

    def test_estimate_scales_with_pending_records(self):
        rig = Rig()
        rig.write_log(10)
        small = rig.governor.estimate_recovery_us()
        rig.write_log(200, txn_id=2)
        assert rig.governor.estimate_recovery_us() > small


class TestServerIntegration:
    def test_server_governor_takes_checkpoints_on_the_clock(self):
        from repro import Server, ServerConfig

        config = ServerConfig(
            start_buffer_governor=False,
            start_checkpoint_governor=True,
            checkpoint=CheckpointConfig(
                recovery_time_target_us=1,
                min_poll_interval_us=SECOND,
                max_poll_interval_us=2 * SECOND,
            ),
        )
        server = Server(config)
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        for i in range(50):
            conn.execute("INSERT INTO t VALUES (?)", params=[i])
        server.clock.advance(5 * SECOND)
        assert server.metrics.value("ckpt.checkpoints") >= 1
        assert server.metrics.value("ckpt.action.ckpt-urgent") >= 1
        conn.close()

    def test_reconnect_after_last_close_runs_one_poll_chain(self):
        from repro import Server, ServerConfig

        server = Server(ServerConfig(
            start_buffer_governor=False, start_checkpoint_governor=True,
        ))
        server.connect().close()  # the last close shuts the server down
        conn = server.connect()
        server.clock.advance(600 * SECOND)
        # One poll a minute (the idle interval), not one per chain.
        assert server.metrics.value("ckpt.polls") == 10
        conn.close()

    def test_governor_holds_during_restart_recovery(self):
        from repro import Server, ServerConfig

        config = ServerConfig(
            start_buffer_governor=False,
            checkpoint=CheckpointConfig(recovery_time_target_us=1),
        )
        server = Server(config)
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        conn.execute("INSERT INTO t VALUES (1)")
        server.crash()
        server._in_recovery = True
        sample = server.checkpoint_governor.poll_once()
        server._in_recovery = False
        assert sample.action == "hold-recovery"
        server.restart()
        conn.close()


@pytest.mark.no_sanitize
def test_rig_runs_unsanitized_too():
    rig = Rig(CheckpointConfig(recovery_time_target_us=1))
    rig.write_log(40)
    assert rig.governor.poll_once().action == CKPT_URGENT
