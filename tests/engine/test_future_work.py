"""Tests for the Section 6 future-work features implemented as extensions:
REORGANIZE TABLE, crash recovery from the transaction log, and the
adaptive multiprogramming level.
"""

import random

import pytest

from repro import Server, ServerConfig
from repro.buffer import BufferPool
from repro.common import SimClock
from repro.common.errors import ExecutionError, TransactionError
from repro.exec import MemoryGovernor
from repro.profiling.metrics import MetricsRegistry
from repro.storage import FlashDisk, Volume


def make_server(**kwargs):
    kwargs.setdefault("start_buffer_governor", False)
    kwargs.setdefault("initial_pool_pages", 512)
    return Server(ServerConfig(**kwargs))


class TestReorganizeTable:
    def loaded(self, order="shuffled"):
        server = make_server()
        conn = server.connect()
        conn.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, grp INT, v DOUBLE)"
        )
        # 500 groups of 10 rows: genuine fragmentation after shuffling.
        rows = [(i, i % 500, float(i)) for i in range(5000)]
        if order == "shuffled":
            random.Random(3).shuffle(rows)
        server.load_table("t", rows)
        conn.execute("CREATE INDEX t_grp ON t (grp)")
        return server, conn

    def test_reorganize_improves_clustering(self):
        server, conn = self.loaded()
        index = server.catalog.index("t_grp")
        before = index.btree.clustering_fraction()
        result = conn.execute("REORGANIZE TABLE t ON t_grp")
        index = server.catalog.index("t_grp")
        after = index.btree.clustering_fraction()
        assert result.notes["rows"] == 5000
        assert after > before
        assert after > 0.9

    def test_data_survives_reorganize(self):
        server, conn = self.loaded()
        checksum_before = conn.execute(
            "SELECT COUNT(*), SUM(v) FROM t"
        ).rows
        conn.execute("REORGANIZE TABLE t ON t_grp")
        assert conn.execute("SELECT COUNT(*), SUM(v) FROM t").rows == checksum_before
        # Point lookups through every index still work.
        assert conn.execute("SELECT COUNT(*) FROM t WHERE grp = 7").rows == [(10,)]
        assert conn.execute("SELECT v FROM t WHERE id = 42").rows == [(42.0,)]

    def test_reorganize_speeds_up_clustered_queries(self):
        server, conn = self.loaded()
        sql = "SELECT SUM(v) FROM t WHERE grp = 7"

        def timed():
            server.pool.set_capacity(1)
            server.pool.set_capacity(512)
            start = server.clock.now
            conn.execute(sql)
            return server.clock.now - start

        before_us = timed()
        conn.execute("REORGANIZE TABLE t ON t_grp")
        after_us = timed()
        assert after_us < before_us

    def test_default_index_is_primary_key(self):
        server, conn = self.loaded()
        result = conn.execute("REORGANIZE TABLE t")
        assert result.notes["clustered_on"] == "pk_t"

    def test_rejects_foreign_index(self):
        server, conn = self.loaded()
        conn.execute("CREATE TABLE other (id INT PRIMARY KEY)")
        with pytest.raises(ExecutionError):
            conn.execute("REORGANIZE TABLE other ON t_grp")

    def test_rejects_inside_transaction(self):
        server, conn = self.loaded()
        conn.execute("BEGIN")
        with pytest.raises(TransactionError):
            conn.execute("REORGANIZE TABLE t ON t_grp")
        conn.execute("ROLLBACK")

    def test_rejects_unindexed_table(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE bare (a INT)")
        with pytest.raises(ExecutionError):
            conn.execute("REORGANIZE TABLE bare")


class TestCrashRecovery:
    def test_committed_changes_survive(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        conn.execute("UPDATE t SET v = 'B' WHERE id = 2")
        conn.execute("DELETE FROM t WHERE id = 3")
        server.simulate_crash_and_recover()
        assert sorted(conn.execute("SELECT * FROM t").rows) == [
            (1, "a"), (2, "B"),
        ]

    def test_uncommitted_changes_lost(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1, 'a')")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO t VALUES (2, 'ghost')")
        conn._txn_id = None  # the connection dies with the crash
        server.simulate_crash_and_recover()
        assert conn.execute("SELECT * FROM t").rows == [(1, "a")]

    def test_indexes_rebuilt(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT)")
        conn.execute("CREATE INDEX t_g ON t (g)")
        for i in range(200):
            conn.execute("INSERT INTO t VALUES (%d, %d)" % (i, i % 10))
        server.simulate_crash_and_recover()
        # Index probes return the right rows after recovery.
        result = conn.execute("SELECT COUNT(*) FROM t WHERE g = 3")
        assert result.rows == [(20,)]
        index = server.catalog.index("t_g")
        assert index.btree.stats.entry_count == 200

    def test_row_id_remapping_through_delete_and_reinsert(self):
        """Deleted slots get reused; recovery must remap row ids."""
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        conn.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        conn.execute("DELETE FROM t WHERE id = 1")
        conn.execute("INSERT INTO t VALUES (4, 40)")  # reuses slot of id=1
        conn.execute("UPDATE t SET v = 44 WHERE id = 4")
        server.simulate_crash_and_recover()
        assert sorted(conn.execute("SELECT * FROM t").rows) == [
            (2, 20), (3, 30), (4, 44),
        ]

    def test_multiple_crashes(self):
        server = make_server()
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        conn.execute("INSERT INTO t VALUES (1)")
        server.simulate_crash_and_recover()
        conn.execute("INSERT INTO t VALUES (2)")
        server.simulate_crash_and_recover()
        assert sorted(conn.execute("SELECT * FROM t").rows) == [(1,), (2,)]


class TestAdaptiveMpl:
    def make_governor(self, mpl=8, adaptive=True):
        clock = SimClock()
        volume = Volume(FlashDisk(clock, 100_000))
        pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
        return MemoryGovernor(pool, 8192, multiprogramming_level=mpl,
                              adaptive=adaptive, clock=clock)

    def run_window(self, governor, soft_hits_per_task, concurrency=1):
        for __ in range(governor.ADAPT_WINDOW):
            tasks = [governor.begin_task() for __c in range(concurrency)]
            for task in tasks:
                task.soft_limit_hits = soft_hits_per_task
            for task in tasks:
                governor.end_task(task)

    def test_contention_lowers_level(self):
        governor = self.make_governor(mpl=8)
        self.run_window(governor, soft_hits_per_task=3)
        assert governor.multiprogramming_level == 4
        self.run_window(governor, soft_hits_per_task=3)
        assert governor.multiprogramming_level == 2

    def test_idle_high_concurrency_raises_level(self):
        governor = self.make_governor(mpl=2)
        self.run_window(governor, soft_hits_per_task=0, concurrency=4)
        assert governor.multiprogramming_level == 4

    def test_level_stays_put_without_signal(self):
        governor = self.make_governor(mpl=4)
        # No contention, concurrency below the level: no change.
        self.run_window(governor, soft_hits_per_task=0, concurrency=2)
        assert governor.multiprogramming_level == 4

    def test_bounds_respected(self):
        governor = self.make_governor(mpl=1)
        self.run_window(governor, soft_hits_per_task=5)
        assert governor.multiprogramming_level == 1  # MIN_MPL floor
        governor = self.make_governor(mpl=64)
        self.run_window(governor, soft_hits_per_task=0, concurrency=100)
        assert governor.multiprogramming_level == 64  # MAX_MPL ceiling

    def test_changes_recorded(self):
        governor = self.make_governor(mpl=8)
        self.run_window(governor, soft_hits_per_task=3)
        [decision] = governor.decisions
        assert (decision.time_us, decision.loop, decision.action,
                decision.before, decision.after) == (0, "mpl", "lower", 8, 4)
        assert decision.inputs["tasks"] == governor.ADAPT_WINDOW
        assert decision.inputs["soft_limit_hits"] == 3 * governor.ADAPT_WINDOW

    def test_soft_limit_follows_adapted_level(self):
        governor = self.make_governor(mpl=8)
        before = governor.soft_limit_pages()
        self.run_window(governor, soft_hits_per_task=3)
        assert governor.soft_limit_pages() == before * 2

    def test_non_adaptive_by_default(self):
        governor = self.make_governor(mpl=8, adaptive=False)
        self.run_window(governor, soft_hits_per_task=5)
        assert governor.multiprogramming_level == 8


class TestLockPressureMpl:
    """The lock manager's wait/deadlock counters feed the adaptive MPL:
    deep lock queues mean admitted statements serialise on rows, so
    admitting more only lengthens the queues."""

    def make_governor(self, mpl=8):
        clock = SimClock()
        volume = Volume(FlashDisk(clock, 100_000))
        pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
        self.lock_stats = [0, 0]  # cumulative (waits, deadlocks)
        return MemoryGovernor(
            pool, 8192, multiprogramming_level=mpl, adaptive=True,
            lock_stats_fn=lambda: tuple(self.lock_stats), clock=clock,
        )

    def run_window(self, governor, concurrency=1):
        for __ in range(governor.ADAPT_WINDOW):
            tasks = [governor.begin_task() for __c in range(concurrency)]
            for task in tasks:
                governor.end_task(task)

    def test_deep_lock_queues_lower_the_level(self):
        governor = self.make_governor(mpl=8)
        # More than LOCK_WAIT_RATE_LIMIT waits per completed task.
        self.lock_stats[0] = governor.ADAPT_WINDOW
        self.run_window(governor)
        assert governor.multiprogramming_level == 4

    def test_any_deadlock_lowers_the_level(self):
        governor = self.make_governor(mpl=8)
        self.lock_stats[1] = 1
        self.run_window(governor)
        assert governor.multiprogramming_level == 4

    def test_pressure_is_windowed_not_cumulative(self):
        governor = self.make_governor(mpl=8)
        self.lock_stats[0] = governor.ADAPT_WINDOW
        self.run_window(governor)
        assert governor.multiprogramming_level == 4
        # No *new* waits in the next window: the old cumulative count
        # must not keep halving the level.
        self.run_window(governor)
        assert governor.multiprogramming_level == 4

    def test_no_lock_pressure_leaves_the_level_alone(self):
        governor = self.make_governor(mpl=4)
        self.run_window(governor, concurrency=2)
        assert governor.multiprogramming_level == 4

    def test_raise_arm_survives_quiet_lock_stats(self):
        governor = self.make_governor(mpl=2)
        self.run_window(governor, concurrency=4)
        assert governor.multiprogramming_level == 4

    def test_server_wires_the_lock_manager_counters(self):
        server = make_server()
        governor = server.memory_governor
        assert governor.lock_stats_fn is not None
        assert governor.lock_stats_fn() == (
            server.lock_manager.waits, server.lock_manager.deadlocks
        )


class TestWorkloadSignalMpl:
    """Executor spills and group-commit traffic feed the adaptive MPL
    through the shared metrics registry: spill pressure argues the level
    down (statements are overflowing work memory), bursty commit batches
    argue it up (transactions are queueing behind the log)."""

    def make_governor(self, mpl=8):
        clock = SimClock()
        volume = Volume(FlashDisk(clock, 100_000))
        pool = BufferPool(volume.create_file("temp"), capacity_pages=1024)
        self.metrics = MetricsRegistry()
        return MemoryGovernor(
            pool, 8192, multiprogramming_level=mpl, adaptive=True,
            metrics=self.metrics, clock=clock,
        )

    def run_window(self, governor, concurrency=1):
        for __ in range(governor.ADAPT_WINDOW):
            tasks = [governor.begin_task() for __c in range(concurrency)]
            for task in tasks:
                governor.end_task(task)

    def test_spill_pressure_lowers_the_level(self):
        governor = self.make_governor(mpl=8)
        # More than SPILL_RATE_LIMIT spill events per completed task.
        self.metrics.counter("exec.spill_events").inc(
            governor.ADAPT_WINDOW
        )
        self.run_window(governor)
        assert governor.multiprogramming_level == 4

    def test_spill_pressure_is_windowed_not_cumulative(self):
        governor = self.make_governor(mpl=8)
        self.metrics.counter("exec.spill_events").inc(
            governor.ADAPT_WINDOW
        )
        self.run_window(governor)
        assert governor.multiprogramming_level == 4
        # No *new* spills in the next window: the old cumulative count
        # must not keep halving the level.
        self.run_window(governor)
        assert governor.multiprogramming_level == 4

    def test_rare_spills_leave_the_level_alone(self):
        governor = self.make_governor(mpl=8)
        # Well under SPILL_RATE_LIMIT per task: not pressure.
        self.metrics.counter("exec.spill_events").inc(2)
        self.run_window(governor)
        assert governor.multiprogramming_level == 8

    def test_commit_bursts_raise_the_level(self):
        governor = self.make_governor(mpl=4)
        histogram = self.metrics.histogram("wal.group_commit.batch_size")
        # Mean batch >= COMMIT_BURST_BATCH: commits queue behind the log
        # even though concurrency never exceeded the level.
        for __ in range(8):
            histogram.observe(6)
        self.run_window(governor, concurrency=2)
        assert governor.multiprogramming_level == 8

    def test_small_commit_batches_do_not_raise(self):
        governor = self.make_governor(mpl=4)
        histogram = self.metrics.histogram("wal.group_commit.batch_size")
        for __ in range(8):
            histogram.observe(1)
        self.run_window(governor, concurrency=2)
        assert governor.multiprogramming_level == 4

    def test_commit_burst_is_windowed_not_cumulative(self):
        governor = self.make_governor(mpl=4)
        histogram = self.metrics.histogram("wal.group_commit.batch_size")
        for __ in range(8):
            histogram.observe(6)
        self.run_window(governor, concurrency=2)
        assert governor.multiprogramming_level == 8
        # A quiet window (no new flushes) must not keep doubling.
        self.run_window(governor, concurrency=2)
        assert governor.multiprogramming_level == 8

    def test_halving_window_consumes_its_commit_burst(self):
        # The window that halves the level must also consume its commit
        # traffic: a following window with no commits is quiet, not a
        # replay of the earlier batches.
        governor = self.make_governor(mpl=8)
        histogram = self.metrics.histogram("wal.group_commit.batch_size")
        for __ in range(8):
            histogram.observe(6)
        self.metrics.counter("exec.spill_events").inc(
            governor.ADAPT_WINDOW
        )
        self.run_window(governor)
        assert governor.multiprogramming_level == 4
        self.run_window(governor)
        assert governor.multiprogramming_level == 4
        assert [d.action for d in governor.decisions] == ["lower", "hold"]
        assert governor.decisions[-1].inputs["flushes"] == 0

    def test_spill_pressure_beats_commit_bursts(self):
        governor = self.make_governor(mpl=8)
        self.metrics.histogram("wal.group_commit.batch_size").observe(16)
        self.metrics.counter("exec.spill_events").inc(
            governor.ADAPT_WINDOW
        )
        self.run_window(governor)
        assert governor.multiprogramming_level == 4

    def test_absent_metrics_are_inert(self):
        # A registry without either metric (and rigs without a registry
        # at all) must not perturb the decision.
        governor = self.make_governor(mpl=4)
        self.run_window(governor, concurrency=2)
        assert governor.multiprogramming_level == 4
