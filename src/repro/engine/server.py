"""Server, connections, and statement execution."""

import contextlib
import dataclasses

from repro.analysis import sanitizers
from repro.buffer import BufferGovernor, BufferPool, GovernorConfig
from repro.catalog import (
    Catalog,
    Column,
    ForeignKey,
    IndexSchema,
    ProcedureSchema,
    TableSchema,
)
from repro.catalog.types import coerce_value
from repro.common import DEFAULT_PAGE_SIZE, MiB, SimClock
from repro.common.control import decision_ring
from repro.common.errors import (
    ExecutionError,
    FaultError,
    SimulatedCrash,
    SqlTypeError,
    TransactionError,
)
from repro.dtt import RetryRecalibrator, calibrate_device, default_dtt_model
from repro.dtt.model import DTTModel
from repro.engine.statements import StatementCache
from repro.exec import ExecutionContext, Executor, MemoryGovernor
from repro.exec.batch import Batch
from repro.exec.expr import evaluate_batch, sarg_value
from repro.exec.operators import filter_rows, satisfies
from repro.faults import FaultyDisk, HostileProcess, plan_from_env
from repro.faults.plan import CKPT_CRASH, LOG_TORN_TAIL
from repro.optimizer import (
    CostModelContext,
    Optimizer,
    PlanCache,
)
from repro.optimizer.costmodel import OPTIMIZER_NODE_US
from repro.optimizer.optimizer import DEFAULT_EFFORT_FACTOR, DEFAULT_QUOTA
from repro.optimizer.plancache import plan_signature
from repro.ossim import OperatingSystem
from repro.profiling.metrics import MetricsRegistry
from repro.recovery.checkpoint import CheckpointConfig, CheckpointGovernor
from repro.recovery.restart import RecoveryManager
from repro.sql import ast
from repro.stats import StatisticsManager
from repro.storage import ModelBackedDisk, TransactionLog, Volume
from repro.storage.btree import BTree
from repro.storage.log import CRASH_CKPT_MID, GroupCommitCoordinator
from repro.storage.log import DELETE as LOG_DELETE
from repro.storage.log import INSERT as LOG_INSERT
from repro.storage.log import UPDATE as LOG_UPDATE
from repro.storage.rowstore import RowId, TableStorage

#: :meth:`Server.apply_change` modes — which steps of the write sequence
#: the caller has already made unnecessary.  Arguments internal callers
#: pass a constant to, not settings.
FORWARD = "forward"  #: DML and synchronization: every step runs
UNDO = "undo"        #: rollback, live or restart: no check or lock
LOAD = "load"        #: bulk load: no lock, version or per-row statistics

#: Pages on the simulated database device.
DISK_PAGES = 1_000_000


@dataclasses.dataclass
class ServerConfig:
    """Server tunables (every default is the paper's where one exists)."""

    page_size: int = DEFAULT_PAGE_SIZE
    total_memory: int = 256 * MiB
    initial_pool_pages: int = 1024           # 4 MiB
    multiprogramming_level: int = 4
    governor: GovernorConfig = dataclasses.field(default_factory=GovernorConfig)
    checkpoint: CheckpointConfig = dataclasses.field(
        default_factory=CheckpointConfig
    )
    supports_working_set: bool = True
    start_buffer_governor: bool = True
    #: Off by default: checkpoint timing perturbs I/O-sensitive
    #: experiments, so durability-focused runs opt in.
    start_checkpoint_governor: bool = False
    feedback_enabled: bool = True
    #: Section 6 future work: let the memory governor adapt the
    #: multiprogramming level to observed contention.
    adaptive_mpl: bool = False
    #: Optional :class:`repro.faults.FaultPlan` for deterministic chaos;
    #: ``None`` defers to the ``REPRO_FAULTS=<seed>`` environment default.
    fault_plan: object = None
    #: Optional :class:`repro.storage.log.GroupCommitConfig`; ``None``
    #: uses the adaptive defaults.  Commits always route through the
    #: coordinator — without a scheduler it degenerates to the classic
    #: force-per-commit sequence.
    group_commit: object = None
    #: Lock conflicts under a workload scheduler *wait* (with deadlock
    #: detection) instead of aborting the statement.  ``False`` restores
    #: the old fail-fast behavior — kept only as the experiment baseline.
    blocking_locks: bool = True
    #: Read-only statements run against a commit-LSN snapshot instead of
    #: the latest heap, so they never queue behind writers.
    snapshot_reads: bool = True
    #: Optional :class:`repro.replication.ReplicationConfig`: the server
    #: is a replicating primary — its WAL pages stream to replicas, and
    #: commits ack only after at least one replica durably holds them.
    #: Wiring (taps, publisher, coordinator gate) is installed by
    #: :class:`repro.replication.ReplicatedCluster`; this field carries
    #: the knobs.
    replication: object = None


@dataclasses.dataclass
class StatementOverrides:
    """Per-statement execution overrides.

    ``Connection.execute(sql, overrides=...)`` applies these to one
    statement only, leaving the server configuration untouched.  They are
    the NoREC plan-variation knobs of :mod:`repro.testgen`: the same
    query re-run under every combination must return the same multiset,
    so each toggle the optimizer or executor can flip is overridable at
    statement granularity.  ``None`` fields inherit the server default.
    """

    #: Commit-LSN snapshot reads on/off for this statement (off reads the
    #: latest committed heap directly).
    snapshot_reads: object = None
    #: Forbid index access paths: every base-table access becomes a heap
    #: scan (index-NL joins and hash-join index alternates included).
    force_heap_scan: bool = False
    #: Plan-cache routing for this statement.  ``True`` routes a plain
    #: SELECT through the connection's plan cache (keyed by statement
    #: text, trained and verified like a procedure statement); ``False``
    #: forces a CALL to bypass the cache; ``None`` keeps the default
    #: (cache for procedure bodies only).
    use_plan_cache: object = None


class Result:
    """Rows plus execution metadata."""

    def __init__(self, rows=None, columns=None, plan_result=None, notes=None,
                 rowcount=0, exec_stats=None):
        self.rows = rows if rows is not None else []
        self.columns = columns if columns is not None else []
        self.plan_result = plan_result
        self.notes = notes if notes is not None else {}
        self.rowcount = rowcount
        #: Per-operator actuals (an ExecStatsCollector) when the statement
        #: ran through the instrumented executor.
        self.exec_stats = exec_stats

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def explain(self, analyze=False):
        """The plan tree; with ``analyze=True``, annotated per operator
        with actual rows in/out, pages touched, elapsed simulated µs,
        spill events, and adaptive fallbacks taken."""
        if self.plan_result is None:
            return "<no plan>"
        if analyze and self.exec_stats is not None:
            rendered = self.exec_stats.render(self.plan_result.plan)
            faults = self.notes.get("faults")
            if faults:
                rendered += "\nfaults: injected=%d retries=%d" % (
                    faults.get("injected", 0), faults.get("retries", 0)
                )
            return rendered
        return self.plan_result.explain()


def connect(server=None, **config_kwargs):
    """Embedded-style entry point: starts a server if none is running."""
    if server is None:
        server = Server(ServerConfig(**config_kwargs))
    return server.connect()


class Server:
    """One database server instance over a simulated machine."""

    def __init__(self, config=None, clock=None, os=None, disk=None,
                 sanitize=None):
        self.config = config if config is not None else ServerConfig()
        #: Debug mode: wrap the volume, pool, governor, clock, and
        #: replacement policy in the runtime sanitizers of
        #: :mod:`repro.analysis`.
        #: ``None`` defers to the ``REPRO_SANITIZE`` process default
        #: (the test suite turns it on via a fixture).
        if sanitize is None:
            sanitize = sanitizers.sanitizers_enabled()
        self.sanitize = bool(sanitize)
        if clock is None:
            clock = (
                sanitizers.SanitizedSimClock() if self.sanitize
                else SimClock()
            )
        self.clock = clock
        #: Server-wide performance counters (paper Section 5's counter
        #: half); every engine component publishes through this registry.
        self.metrics = MetricsRegistry(self.clock)
        #: Every self-tuning loop's decisions, newest last, in one bounded
        #: ring (:mod:`repro.common.control`).
        self.decisions = decision_ring()
        #: Deterministic chaos: an explicit plan wins, else the
        #: ``REPRO_FAULTS`` seed builds one per server (independent,
        #: replayable injection logs).
        plan = self.config.fault_plan
        if plan is None:
            plan = plan_from_env()
        self.fault_plan = plan
        if plan is not None:
            plan.bind(
                self.clock, self.metrics,
                tracer_fn=lambda: getattr(self, "tracer", None),
            )
        self.os = os if os is not None else OperatingSystem(
            self.config.total_memory,
            supports_working_set=self.config.supports_working_set,
        )
        if plan is not None and self.os.fault_plan is None:
            self.os.fault_plan = plan
        self.process = self.os.spawn("dbserver")
        if disk is None:
            disk = ModelBackedDisk(
                self.clock, DISK_PAGES, default_dtt_model(
                    self.config.page_size
                ),
                page_size=self.config.page_size,
            )
        if plan is not None and not isinstance(disk, FaultyDisk):
            disk = FaultyDisk(disk, plan)
        self.disk = disk
        self.volume = (
            sanitizers.SanitizedVolume(disk) if self.sanitize
            else Volume(disk)
        )
        self.temp_file = self.volume.create_file("temp")
        self.log_file = self.volume.create_file("txn.log")
        if self.sanitize:
            self.pool = sanitizers.SanitizedBufferPool(
                self.temp_file, self.config.initial_pool_pages,
                policy=sanitizers.SanitizedGClockPolicy(),
            )
        else:
            self.pool = BufferPool(
                self.temp_file, self.config.initial_pool_pages
            )
        self.pool.attach_metrics(self.metrics)
        self.catalog = Catalog()
        self.catalog.dtt_model = default_dtt_model(self.config.page_size)
        #: Parse trees and bound forms of recent statement texts, keyed
        #: on the catalog's generation.
        self.statements = StatementCache(
            self.catalog, self.metrics, sanitize=self.sanitize
        )
        self.stats = StatisticsManager(self.catalog)
        self.txn_log = TransactionLog(
            self.log_file, metrics=self.metrics, fault_plan=plan
        )
        # WAL discipline: before the pool writes back a dirty frame it
        # forces the log (steal is safe), and every newly-dirtied page is
        # tracked in the dirty-page table under the LSN about to be
        # assigned (checkpoints snapshot that table).
        self.pool.lsn_fn = lambda: self.txn_log.peek_next_lsn()
        self.pool.wal_fn = lambda: self.txn_log.force()
        #: The active :class:`repro.engine.scheduler.WorkloadScheduler`,
        #: installed only for the duration of a scheduled run.
        self.scheduler = None
        #: Commit batching: every Connection.commit routes through here.
        self.group_commit = GroupCommitCoordinator(
            log_fn=lambda: self.txn_log,
            clock=self.clock,
            config=self.config.group_commit,
            metrics=self.metrics,
            scheduler_fn=lambda: self.scheduler,
            sanitize=self.sanitize,
            decisions=self.decisions,
        )
        from repro.engine.versions import VersionManager

        self.lock_manager = self._new_lock_manager()
        #: Row-version snapshots for lock-free reads (MVCC-lite).
        self.versions = VersionManager(metrics=self.metrics)
        #: A replication standby: its B-trees are never maintained (apply
        #: is heap-only redo), so its plans use no index until promotion.
        self.standby = False
        governor_cls = (
            sanitizers.SanitizedMemoryGovernor if self.sanitize
            else MemoryGovernor
        )
        self.memory_governor = governor_cls(
            self.pool,
            max_pool_pages=self.config.governor.upper_bound_bytes
            // self.config.page_size,
            multiprogramming_level=self.config.multiprogramming_level,
            adaptive=self.config.adaptive_mpl,
            metrics=self.metrics,
            lock_stats_fn=lambda: (
                self.lock_manager.waits, self.lock_manager.deadlocks
            ),
            clock=self.clock,
            decisions=self.decisions,
        )
        #: Deterministic lockset race detector over the designated shared
        #: structures (inert without an armed scheduler session).
        self.races = None
        if self.sanitize:
            from repro.analysis.races import RaceSanitizer

            self.races = RaceSanitizer(
                scheduler_fn=lambda: self.scheduler,
                lock_guards_fn=lambda txn_id: (
                    self.lock_manager.guard_tokens(txn_id)
                ),
            )
        self._attach_races()
        buffer_governor_cls = (
            sanitizers.SanitizedBufferGovernor if self.sanitize
            else BufferGovernor
        )
        self.buffer_governor = buffer_governor_cls(
            self.clock, self.os, self.process, self.pool,
            database_size_fn=self.database_size_bytes,
            heap_size_fn=lambda: 0,
            config=self.config.governor,
            metrics=self.metrics,
            decisions=self.decisions,
        )
        #: Hostile memory-grab injector (opt-in: rates.hostile_interval_us
        #: must be positive), competing with the pool for physical memory.
        self.hostile_process = None
        if plan is not None and plan.rates.hostile_interval_us > 0:
            self.hostile_process = HostileProcess(self.os, self.clock, plan)
        self._connections = 0
        self._running = False
        self._next_txn_id = 1
        self._in_recovery = False
        #: Application Profiling hook: set to a Tracer to capture activity.
        self.tracer = None
        #: observability
        self.statements_executed = 0
        self.checkpoint_governor = CheckpointGovernor(
            self.clock,
            log_fn=lambda: self.txn_log,
            pool=self.pool,
            model=self.catalog.dtt_model,
            page_size=self.config.page_size,
            checkpoint_fn=self.checkpoint,
            statements_fn=lambda: self.statements_executed,
            config=self.config.checkpoint,
            metrics=self.metrics,
            in_recovery_fn=lambda: self._in_recovery,
            decisions=self.decisions,
        )
        self.metrics.register_probe(
            "server.database_size_bytes", self.database_size_bytes
        )
        self.metrics.register_probe(
            "server.connections", lambda: self._connections
        )
        self._m_statements = self.metrics.counter("statements.executed")
        self._m_failed = self.metrics.counter("statements.failed")
        self._m_elapsed = self.metrics.histogram("statements.elapsed_us")
        self._m_checkpoints = self.metrics.counter("ckpt.checkpoints")
        self._m_ckpt_pages = self.metrics.counter("ckpt.pages_flushed")
        #: Fault-aware DTT recalibration (Section 4.2 meets the chaos
        #: plan): armed only under a fault plan.
        self.dtt_recalibrator = RetryRecalibrator(
            self, metrics=self.metrics, decisions=self.decisions,
        ) if plan is not None else None

    def _new_lock_manager(self):
        """A fresh lock table (construction, and again after a crash:
        locks die with the process)."""
        from repro.engine.locks import LockManager

        return LockManager(
            self.volume.create_file("locks"), self.pool,
            metrics=self.metrics,
            scheduler_fn=lambda: self.scheduler,
            blocking=self.config.blocking_locks,
            sanitize=self.sanitize,
        )

    def _attach_races(self):
        """Point every tapped component at the race sanitizer (re-run
        after crash recovery rebuilds the lock manager)."""
        self.pool.races = self.races
        self.group_commit.races = self.races
        self.lock_manager.races = self.races
        self.versions.races = self.races
        self.memory_governor.admission.races = self.races

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def connect(self):
        if not self._running:
            self._start()
        self._connections += 1
        return Connection(self)

    def _start(self):
        self._running = True
        if self.config.start_buffer_governor:
            self.buffer_governor.start()
        if self.config.start_checkpoint_governor:
            self.checkpoint_governor.start()

    def _disconnect(self):
        self._connections -= 1
        if self._connections <= 0:
            # "shut down automatically when the last connection disconnects"
            self.shutdown()

    def shutdown(self):
        if not self._running:
            return
        self.checkpoint()
        self.buffer_governor.stop()
        self.checkpoint_governor.stop()
        self._running = False

    @property
    def running(self):
        return self._running

    # ------------------------------------------------------------------ #
    # workload-scheduler hooks
    # ------------------------------------------------------------------ #

    def pin_checks_quiescent(self):
        """Whether the pool-wide zero-pins assertion is sound right now.

        A scheduled session suspended mid-statement legitimately holds
        pins, so statement-boundary pin checks only fire when no other
        session is inside a statement.
        """
        scheduler = self.scheduler
        return scheduler is None or scheduler.pin_check_safe()

    def spill_yield_point(self):
        """Spill-flush yield point, plumbed into every ExecutionContext."""
        scheduler = self.scheduler
        if scheduler is not None:
            scheduler.spill_yield()

    # ------------------------------------------------------------------ #
    # checkpointing, crash simulation, and restart recovery
    # ------------------------------------------------------------------ #

    def checkpoint(self):
        """Take one fuzzy checkpoint.

        A durable CKPT_BEGIN record snapshots the active transactions and
        the dirty-page table; every dirty frame is flushed (the log is
        forced first by the pool's WAL hook); a durable CKPT_END record
        then updates the master record.  Restart recovery redoes from the
        BEGIN of the last *complete* checkpoint — sound because every
        page dirtied before BEGIN hit the volume before END was written.
        """
        log = self.txn_log
        begin = log.checkpoint_begin(
            log.active_txns(), self.pool.dirty_page_table()
        )
        log.crash_point(CRASH_CKPT_MID)
        plan = self.fault_plan
        if plan is not None and plan.should(CKPT_CRASH, plan.rates.ckpt_crash):
            plan.record(CKPT_CRASH, "between checkpoint BEGIN and END")
            raise SimulatedCrash("injected crash mid-checkpoint")
        flushed = self.pool.flush_all()
        log.checkpoint_end(begin)
        self._m_checkpoints.inc()
        self._m_ckpt_pages.inc(flushed)
        if self.tracer is not None:
            self.tracer.record_system(
                "checkpoint", self.clock.now, "flushed=%d" % (flushed,)
            )
        return flushed

    def crash(self, tear_tail=None):
        """Simulated process death: volatile state lost, durable survives.

        Drops every pool frame without writeback, optionally tears the
        final durable log page (``tear_tail=True`` forces it, ``None``
        lets the fault plan's ``wal.torn_tail`` rate decide), reopens the
        log from the surviving pages, rebinds table storage to the
        surviving file pages, and abandons all locks (they die with the
        process).  The server is left *unrecovered*: tables hold whatever
        mix of flushed pages survived.  Call :meth:`restart` next.
        """
        plan = self.fault_plan
        self.pool.drop_all()
        if tear_tail is None:
            tear_tail = plan is not None and plan.should(
                LOG_TORN_TAIL, plan.rates.torn_tail
            )
        if tear_tail:
            self.txn_log.tear_inflight_page()
            if plan is not None:
                plan.record(LOG_TORN_TAIL, "in-flight log page torn at crash")
        self.txn_log = TransactionLog.open(
            self.log_file, metrics=self.metrics, fault_plan=plan
        )
        # Pending commit tickets died with their sessions (log_fn already
        # resolves to the reopened log for future commits).
        self.group_commit.reset()
        self.pool.lsn_fn = lambda: self.txn_log.peek_next_lsn()
        self.pool.wal_fn = lambda: self.txn_log.force()
        self.lock_manager = self._new_lock_manager()
        # Row-version chains are volatile: they die with the process, and
        # the snapshot horizon restarts at the recovered log's durable LSN.
        self.versions.reset(self.txn_log.durable_lsn)
        self._attach_races()
        self.temp_file.truncate()
        for table in self.catalog.tables():
            if table.storage is not None:
                table.storage.reattach_after_crash()
        if self.tracer is not None:
            self.tracer.record_system(
                "crash", self.clock.now,
                "torn_tail=%s durable_lsn=%d"
                % (bool(tear_tail), self.txn_log.durable_lsn),
            )

    def restart(self):
        """Run ARIES-lite restart recovery; returns a RecoveryReport."""
        self._in_recovery = True
        try:
            return RecoveryManager(self).run()
        finally:
            self._in_recovery = False

    def simulate_crash_and_recover(self):
        """Crash then restart in one call; returns surviving row total.

        Kept as the one-line convenience the chaos tests and experiments
        use: what a crash destroys is the unforced log tail and every
        unflushed page, and restart rebuilds exactly the committed state.
        """
        self.crash()
        self.restart()
        return sum(
            table.row_count for table in self.catalog.tables()
        )

    # ------------------------------------------------------------------ #
    # size accounting (feeds the buffer governor's eq. 1 soft cap)
    # ------------------------------------------------------------------ #

    def database_size_bytes(self):
        total = self.temp_file.size_bytes
        for table in self.catalog.tables():
            if table.storage is not None:
                total += table.storage.file.size_bytes
        for index in self.catalog.indexes():
            if index.btree is not None:
                total += index.btree.file.size_bytes
        return total

    # ------------------------------------------------------------------ #
    # optimizer plumbing
    # ------------------------------------------------------------------ #

    def make_optimizer(self, use_indexes=True):
        context = CostModelContext(
            self.catalog.dtt_model,
            self.config.page_size,
            self.pool.capacity_pages,
            soft_limit_pages=self.memory_governor.soft_limit_pages(),
            resident_fraction_fn=lambda storage: self.pool.resident_fraction(
                storage.file
            ),
        )
        # "The initial quota can be specified within the application, if
        # desired, allowing fine-grained tuning of the optimization effort
        # spent on each statement."
        quota = self.catalog.options.get("optimizer_quota", DEFAULT_QUOTA)
        if not isinstance(quota, int) or quota < 1:
            quota = DEFAULT_QUOTA
        effort = self.catalog.options.get(
            "optimizer_effort_factor", DEFAULT_EFFORT_FACTOR
        )
        if isinstance(effort, (int, float)) and effort <= 0:
            effort = None  # SET OPTION optimizer_effort_factor = 0: cap off
        elif not isinstance(effort, (int, float)):
            effort = DEFAULT_EFFORT_FACTOR
        return Optimizer(
            self.catalog,
            self._make_estimator(),
            context,
            quota=quota,
            metrics=self.metrics,
            effort_factor=effort,
            use_indexes=use_indexes and not self.standby,
        )

    def open_execution(self, plan_block_fn, binder, params, snapshot=False,
                       snapshot_txn=None):
        """``(ctx, executor)`` for running one optimized block.

        Admits a memory-governor task, then (``snapshot=True``) opens the
        commit-LSN snapshot the statement reads — in that order: admission
        may park the session, and the snapshot must not predate the wait.
        ``plan_block_fn`` is the charged optimize stage, which the executor
        re-runs for recursive-union blocks.  Pair with
        :meth:`close_execution`.
        """
        task = self.memory_governor.begin_task()
        ctx = ExecutionContext(
            self.pool, self.temp_file, self.stats, self.clock, task,
            params, feedback_enabled=self.config.feedback_enabled,
            metrics=self.metrics, fault_plan=self.fault_plan,
            yield_hook=self.spill_yield_point,
            snapshot_lsn=self.versions.open_snapshot() if snapshot else None,
            snapshot_txn=snapshot_txn,
        )
        max_tasks = self.catalog.options.get("max_query_tasks", 1)
        executor = Executor(
            plan_block_fn=plan_block_fn,
            bind_recursive_arm_fn=(
                binder.bind_recursive_arm if binder is not None else None
            ),
            max_tasks=max_tasks if isinstance(max_tasks, int) else 1,
        )
        return ctx, executor

    def close_execution(self, ctx):
        """Release what :meth:`open_execution` took."""
        if ctx.snapshot_lsn is not None:
            self.versions.close_snapshot(ctx.snapshot_lsn)
        self.memory_governor.end_task(ctx.task)

    # ------------------------------------------------------------------ #
    # DTT model deployment (Section 4.2)
    # ------------------------------------------------------------------ #

    def export_dtt_model(self):
        """Serializable form of the catalog's cost model.

        "it is straightforward to deploy hundreds or thousands of
        databases to CE devices with a cost model derived from a
        representative device" — calibrate once, export, install
        everywhere.
        """
        return self.catalog.dtt_model.to_dict()

    def install_dtt_model(self, data):
        """Install a serialized DTT model into the catalog."""
        self.catalog.dtt_model = DTTModel.from_dict(data)
        return self.catalog.dtt_model

    def _make_estimator(self):
        from repro.optimizer import SelectivityEstimator

        return SelectivityEstimator(self.stats, self.catalog)

    # ------------------------------------------------------------------ #
    # bulk load (LOAD TABLE)
    # ------------------------------------------------------------------ #

    def load_table(self, table_name, rows):
        """Bulk-load rows; builds histograms automatically (Section 3.2).

        The load runs as one committed, logged transaction so the data is
        as durable as any other write (and recoverable after a crash).
        """
        table = self.catalog.table(table_name)
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        self.txn_log.begin(txn_id)
        for row in rows:
            coerced = self._coerce_row(table, row)
            self.apply_change(txn_id, table, None, None, coerced, LOAD)
        ticket = self.group_commit.commit(txn_id)
        # Advance the snapshot horizon so readers opened after the load
        # see its rows (the load versions nothing: no snapshot can
        # predate rows that did not exist).
        self.versions.commit(txn_id, ticket.lsn)
        self.stats.build_statistics(table_name, built_by="load")
        return table.row_count

    def _coerce_row(self, table, row):
        if len(row) != len(table.columns):
            raise ExecutionError(
                "row arity %d does not match table %r" % (len(row), table.name)
            )
        coerced = []
        for column, value in zip(table.columns, row):
            if value is None and not column.nullable:
                raise SqlTypeError(
                    "NULL in NOT NULL column %r" % (column.name,)
                )
            coerced.append(coerce_value(column.type_name, value))
        return tuple(coerced)

    def apply_change(self, txn_id, table, row_id, before, after,
                     mode=FORWARD):
        """Apply one logical row change — the only code that does — and
        return the row's id.

        The images name the kind: ``before is None`` inserts ``after``
        (choosing the row id), ``after is None`` deletes, else the row at
        ``row_id`` is overwritten.  The step order is fixed here and
        argued in DESIGN.md §9; ``mode`` (:data:`FORWARD`, :data:`UNDO`,
        :data:`LOAD`) names the steps the caller has made unnecessary.
        A FORWARD update or delete arrives with the row lock held and
        ``before`` re-read under it: that re-check is predicate-specific.
        """
        storage = table.storage
        forward = mode == FORWARD
        if forward and after is not None:
            # Before any mutation: nothing is logged yet, so rollback
            # could not remove a row rejected after it reached the heap.
            self._index_check_unique(table, after, before)
        if before is None:
            kind = LOG_INSERT
            row_id = storage.insert(after)
            if forward:
                try:
                    self.lock_manager.acquire(txn_id, table.name, row_id)
                except Exception:
                    # Nothing is logged for this row yet: compensate the
                    # heap insert physically so the slot is not leaked.
                    storage.delete(row_id)
                    raise
            if mode != LOAD:
                # UNDO too: a re-inserted row lands in a fresh slot with
                # no chain, and without a pending entry a snapshot reader
                # would see it *and* the before-image at the old slot.
                self.versions.note_write(storage, row_id, None, txn_id)
        else:
            if forward:
                self.versions.note_write(storage, row_id, before, txn_id)
            if after is None:
                kind = LOG_DELETE
                storage.delete(row_id)
            else:
                kind = LOG_UPDATE
                storage.update(row_id, after)
            # An overwrite maintains only the indexes whose key changed:
            # the row id is kept, so an unchanged key's entry stays valid.
            self._index_delete(table, before, row_id, after)
        if after is not None:
            self._index_insert(table, after, row_id, before)
        if mode != LOAD:
            if before is None:
                self.stats.note_insert(table.name, after)
            elif after is None:
                self.stats.note_delete(table.name, before)
            else:
                self.stats.note_update(table.name, before, after)
        storage.stamp_page(row_id.page_ordinal, self.txn_log.peek_next_lsn())
        self.txn_log.log_change(
            txn_id, kind, table.name, row_id, before=before, after=after
        )
        return row_id

    def rollback(self, txn_id):
        """Undo ``txn_id``'s changes newest first and end it; returns how
        many records were undone.  The one undo path: a live ROLLBACK and
        restart recovery's losers both run it.

        The inverse of a change is the change with its images swapped,
        applied by :meth:`apply_change` — so it reverses the change's
        index and statistics maintenance too, and is logged: restart redo
        replays these compensation records like any other history.
        """
        chain = self.txn_log.undo_chain(txn_id)
        # Logged row id -> the slot an undone DELETE re-inserted that row
        # into: the row's older records must follow it there.
        moved = {}
        for record in chain:
            row_id = self.apply_change(
                txn_id, self.catalog.table(record.table),
                moved.get(record.row_id, record.row_id),
                record.after, record.before, UNDO,
            )
            if record.after is None:
                moved[record.row_id] = row_id
        self.txn_log.rollback(txn_id)
        # Undo restored the committed heap images, so the before-image
        # chains must forget this transaction before its locks go.
        self.versions.rollback(txn_id)
        self.lock_manager.release_all(txn_id)
        return len(chain)

    def reset_indexes(self, table):
        """Discard, truncate and re-create every tree on ``table``, empty;
        returns how many.  Restart and REORGANIZE refill them."""
        reset = 0
        for index in self.catalog.indexes_on(table.name):
            if index.virtual:
                continue
            self.pool.discard(index.btree.file)
            index.btree.file.truncate()
            index.btree = BTree(index.btree.file, self.pool, name=index.name)
            reset += 1
        return reset

    def _index_check_unique(self, table, row, before=None):
        """Raise if ``row`` would violate a unique index.  A key kept
        from ``before`` cannot newly collide and is not searched."""
        for index in self.catalog.indexes_on(table.name):
            if index.virtual or not index.unique:
                continue
            key = index.key_of(row)
            if before is not None and key == index.key_of(before):
                continue
            if index.btree.search(key):
                raise ExecutionError(
                    "duplicate key %r in unique index %r" % (key, index.name)
                )

    def _index_insert(self, table, row, row_id, before=None):
        """Enter ``row`` under ``row_id`` in every index.  An index whose
        key is kept from ``before`` still holds the entry (the overwrite
        keeps the row id, and :meth:`_index_delete` left it): it is not
        touched."""
        for index in self.catalog.indexes_on(table.name):
            if index.virtual:
                continue
            key = index.key_of(row)
            if before is not None and key == index.key_of(before):
                continue
            if index.unique and index.btree.search(key):
                raise ExecutionError(
                    "duplicate key %r in unique index %r" % (key, index.name)
                )
            index.btree.insert(key, row_id)

    def _index_delete(self, table, row, row_id, after=None):
        """Remove ``row``'s entries; an index whose key ``after`` keeps is
        left alone (see :meth:`_index_insert`)."""
        for index in self.catalog.indexes_on(table.name):
            if index.virtual:
                continue
            key = index.key_of(row)
            if after is not None and key == index.key_of(after):
                continue
            index.btree.delete(key, row_id)


class Connection:
    """One client connection: statement execution and transactions."""

    def __init__(self, server):
        self.server = server
        self.plan_cache = PlanCache(metrics=server.metrics)
        self._txn_id = None
        self._closed = False
        self.last_plan = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self):
        if self._closed:
            return
        if self._txn_id is not None:
            self.rollback()
        self._closed = True
        self.server._disconnect()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    # ------------------------------------------------------------------ #
    # statement execution
    # ------------------------------------------------------------------ #

    def open_cursor(self, sql, params=None):
        """Open an incrementally-fetched cursor over a SELECT.

        Between FETCH calls the cursor's heap is unlocked, so the buffer
        pool may steal its pages (paper Section 2.1).  The open is one
        statement, counted and traced like :meth:`execute`.
        """
        from repro.engine.cursor import Cursor

        with self._statement(sql) as statement:
            cursor = Cursor(self, statement.prepared, sql, params)
            statement.result = Result(
                plan_result=cursor.plan_result, notes=cursor.notes
            )
        return cursor

    def execute(self, sql, params=None, overrides=None):
        with self._statement(sql) as statement:
            statement.result = self._execute(
                statement.prepared, sql, params, overrides
            )
        return statement.result

    @contextlib.contextmanager
    def _statement(self, sql):
        """One client statement's bookkeeping, shared by :meth:`execute`
        and :meth:`open_cursor`: prepare and count it, time it, note the
        faults it survived, trace it (failures too) and check its pins.
        Yields a :class:`_Statement`; the body stores its Result there."""
        if self._closed:
            raise ExecutionError("connection is closed")
        server = self.server
        tracer = server.tracer
        start_us = server.clock.now
        misses_before = server.pool.misses
        hits_before = server.pool.hits
        plan = server.fault_plan
        injected_before = plan.injected if plan is not None else 0
        retries_before = plan.retries if plan is not None else 0
        statement = _Statement()
        error = None
        try:
            statement.prepared = server.statements.prepare(sql)
            server.statements_executed += 1
            server._m_statements.inc()
            yield statement
            if plan is not None:
                # Surface what this statement survived: retried or
                # absorbed injections show up in EXPLAIN ANALYZE.
                injected = plan.injected - injected_before
                retries = plan.retries - retries_before
                if injected or retries:
                    statement.result.notes["faults"] = {
                        "injected": injected, "retries": retries,
                    }
        except FaultError as exc:
            # An injected fault exhausted its retry budget: only this
            # statement dies; the server and every other connection
            # survive, and the abort is accounted to the plan.
            error = "%s: %s" % (type(exc).__name__, exc)
            server._m_failed.inc()
            if server.fault_plan is not None:
                server.fault_plan.note_statement_abort()
            raise
        except Exception as exc:
            # Failed statements must show up in the trace too — an
            # application profile that silently omits errors sends the
            # consultant hunting in the wrong place.
            error = "%s: %s" % (type(exc).__name__, exc)
            server._m_failed.inc()
            raise
        finally:
            elapsed_us = server.clock.now - start_us
            server._m_elapsed.observe(elapsed_us)
            if tracer is not None:
                result = statement.result
                if result is not None:
                    rows = (
                        result.rowcount if result.rowcount
                        else len(result.rows)
                    )
                    plan_sig = (
                        type(result.plan_result.plan).__name__
                        if result.plan_result is not None
                        and result.plan_result.plan
                        else ""
                    )
                else:
                    rows = 0
                    plan_sig = ""
                tracer.record(
                    sql,
                    start_us=start_us,
                    elapsed_us=elapsed_us,
                    rows=rows,
                    pool_misses=server.pool.misses - misses_before,
                    pool_hits=server.pool.hits - hits_before,
                    plan_signature=plan_sig,
                    error=error,
                )
            if plan is not None and server.dtt_recalibrator is not None:
                # Fault-aware recalibration: this statement's retry count
                # feeds the sliding window; crossing the threshold
                # re-measures the (now hostile) device and installs the
                # new DTT model before the next statement is optimized.
                server.dtt_recalibrator.observe(
                    plan.retries - retries_before
                )
            if server.sanitize and server.pin_checks_quiescent():
                # Statement boundary: every pin taken while executing this
                # statement must have been released, even on error paths.
                # (Skipped while a sibling scheduled session is suspended
                # mid-statement — its pins are legitimate.)
                server.pool.assert_no_pins("statement end")

    def _execute(self, prepared, sql, params=None, overrides=None):
        statement = prepared.tree
        if isinstance(statement, ast.SelectStatement):
            return self._execute_select(
                prepared, params, overrides=overrides, sql_text=sql
            )
        if isinstance(statement, ast.InsertStatement):
            return self._execute_insert(prepared, params)
        if isinstance(statement, (ast.UpdateStatement, ast.DeleteStatement)):
            return self._execute_searched_dml(prepared, params)
        if isinstance(statement, ast.CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateIndexStatement):
            return self._execute_create_index(statement)
        if isinstance(statement, ast.CreateStatisticsStatement):
            self.server.stats.build_statistics(
                statement.table_name, statement.column_names
            )
            return Result()
        if isinstance(statement, ast.CreateProcedureStatement):
            body_sql = _procedure_body_sql(sql)
            self.server.catalog.add_procedure(
                ProcedureSchema(statement.name, statement.parameters, body_sql)
            )
            return Result()
        if isinstance(statement, ast.CalibrateStatement):
            return self._execute_calibrate()
        if isinstance(statement, ast.ReorganizeTableStatement):
            return self._execute_reorganize(statement)
        if isinstance(statement, ast.DropTableStatement):
            return self._execute_drop_table(statement)
        if isinstance(statement, ast.DropIndexStatement):
            return self._execute_drop_index(statement)
        if isinstance(statement, ast.CallStatement):
            return self._execute_call(statement, params, overrides)
        if isinstance(statement, ast.SetOptionStatement):
            self.server.catalog.options[statement.name] = statement.value
            return Result()
        if isinstance(statement, ast.BeginStatement):
            self.begin()
            return Result()
        if isinstance(statement, ast.CommitStatement):
            self.commit()
            return Result()
        if isinstance(statement, ast.RollbackStatement):
            self.rollback()
            return Result()
        raise ExecutionError("unsupported statement %r" % (type(statement).__name__,))

    # -- SELECT ------------------------------------------------------------ #

    def _open_query(self, prepared, params, snapshot=False, cache_key=None,
                    use_indexes=True):
        """Optimize and open one prepared query block: the one path a
        SELECT, a CALL body, a cursor and an INSERT…SELECT source take
        (an INSERT's block is its source).

        Returns ``(bound, result, ctx, executor)``; the caller pulls
        ``executor.run(result, ctx)`` and pairs the open with
        :meth:`Server.close_execution`.  ``cache_key`` routes the
        optimization through the connection's plan cache.
        """
        server = self.server
        bound = prepared.bound
        block = (
            bound.select_block
            if isinstance(prepared.tree, ast.InsertStatement) else bound
        )
        optimizer = server.make_optimizer(use_indexes=use_indexes)

        def optimize(query_block):
            result = optimizer.optimize_select(query_block)
            if result.stats is not None:
                # Optimization is work too: "optimization must therefore
                # be cheap" — its effort shows up on the clock so the plan
                # cache has something real to amortize.
                server.clock.advance(
                    int(result.stats.nodes_visited * OPTIMIZER_NODE_US)
                )
            return result

        if cache_key is None:
            result = optimize(block)
        else:
            result = self.plan_cache.execute_plan_for(
                cache_key, lambda: optimize(block), plan_signature,
                server.catalog.generation,
            )
        ctx, executor = server.open_execution(
            optimize, prepared.binder, params, snapshot=snapshot,
            snapshot_txn=self._txn_id,
        )
        return bound, result, ctx, executor

    def _execute_select(self, prepared, params, cache_key=None,
                        overrides=None, sql_text=None):
        server = self.server
        if (
            cache_key is None
            and overrides is not None
            and overrides.use_plan_cache
            and sql_text is not None
        ):
            # Per-statement plan-cache opt-in: a plain SELECT trains,
            # caches, and verifies exactly like a procedure statement.
            cache_key = "sql:%s" % sql_text
        # Read-only statements take no locks: they run against a
        # commit-LSN snapshot, so they never queue behind writers (own
        # uncommitted writes stay visible via snapshot_txn).
        snapshot = server.config.snapshot_reads
        if overrides is not None and overrides.snapshot_reads is not None:
            snapshot = bool(overrides.snapshot_reads)
        block, result, ctx, executor = self._open_query(
            prepared, params, snapshot=snapshot, cache_key=cache_key,
            use_indexes=not (overrides is not None
                             and overrides.force_heap_scan),
        )
        self.last_plan = result
        try:
            rows = list(executor.run(result, ctx))
        finally:
            server.close_execution(ctx)
        return Result(
            rows, block.output_columns(), result, ctx.notes, len(rows),
            exec_stats=executor.exec_stats,
        )

    # -- DML ------------------------------------------------------------------ #

    def _execute_insert(self, prepared, params):
        server = self.server
        if prepared.tree.rows is not None:
            bound = prepared.bound
            no_row = Batch.empty_row()
            rows = [
                [evaluate_batch(expr, no_row, params)[0] for expr in row_exprs]
                for row_exprs in bound.rows
            ]
        else:
            # The source reads the latest heap, not a snapshot.
            bound, result, ctx, executor = self._open_query(prepared, params)
            try:
                rows = [list(row) for row in executor.run(result, ctx)]
            finally:
                server.close_execution(ctx)
        table = bound.table
        with self._autocommit() as txn_id:
            for values in rows:
                full_row = [None] * len(table.columns)
                for column_index, value in zip(bound.column_indexes, values):
                    full_row[column_index] = value
                coerced = server._coerce_row(table, full_row)
                server.apply_change(txn_id, table, None, None, coerced)
        return Result(rowcount=len(rows))

    def _execute_searched_dml(self, prepared, params):
        """UPDATE and DELETE — a DELETE is an UPDATE to no row."""
        server = self.server
        bound = prepared.bound
        table = bound.table
        result = server.make_optimizer().optimize_simple_dml(bound)
        self.last_plan = result
        targets = self._collect_dml_targets(bound, result, params)
        is_update = isinstance(prepared.tree, ast.UpdateStatement)
        changed = 0
        with self._autocommit() as txn_id:
            for row_id, __ in targets:
                server.lock_manager.acquire(txn_id, table.name, row_id)
                # The acquire may have parked this session: re-read under
                # the lock and re-check the predicate — the target list
                # was collected before the wait and may be stale.
                old_row = self._recheck_target(table, bound, row_id, params)
                if old_row is None:
                    continue
                new_row = None
                if is_update:
                    old = Batch.from_rows(bound.quantifier.id, [old_row])
                    new_row = list(old_row)
                    for column_index, expr in bound.assignments:
                        new_row[column_index] = evaluate_batch(
                            expr, old, params
                        )[0]
                    new_row = server._coerce_row(table, new_row)
                server.apply_change(txn_id, table, row_id, old_row, new_row)
                changed += 1
        return Result(rowcount=changed, plan_result=result)

    def _collect_dml_targets(self, bound, result, params):
        """Materialize (row_id, row) targets before mutating."""
        server = self.server
        table = bound.table
        qid = bound.quantifier.id
        targets = []
        plan = result.plan
        from repro.optimizer.plans import IndexScanPlan as _IndexScanPlan

        if isinstance(plan, _IndexScanPlan):
            btree = plan.index_schema.btree
            values = tuple(
                sarg_value(expr, params) for expr in plan.sarg["eq"]
            )
            for __, row_id in btree.prefix_scan(values):
                row = table.storage.get(row_id)
                if satisfies(
                    plan.local_conjuncts, ((qid, 0, len(row)),), row, params
                ):
                    targets.append((row_id, row))
            return targets
        # A page's rows are filtered as one batch, each row carrying its
        # row id as one more column, under a key no expression reads.
        for ordinal, rows in table.storage.scan().pages():
            page = [
                row + (RowId(ordinal, slot),)
                for slot, row in enumerate(rows) if row is not None
            ]
            if page:
                width = len(page[0]) - 1
                kept = filter_rows(
                    Batch.from_flat_rows(
                        ((qid, 0, width), (RowId, width, 1)), page
                    ),
                    bound.conjuncts, params,
                )
                targets += [(row[-1], row[:-1]) for row in kept.flat_rows()]
        return targets

    def _recheck_target(self, table, bound, row_id, params=None):
        """The current row at ``row_id`` if it still matches the DML
        predicate, else ``None`` (the slot emptied or the row changed
        while this session waited for its lock)."""
        try:
            row = table.storage.get(row_id)
        except ExecutionError:
            return None
        qid = bound.quantifier.id
        if satisfies(bound.conjuncts, ((qid, 0, len(row)),), row, params):
            return row
        return None

    # -- DDL ------------------------------------------------------------------ #

    @contextlib.contextmanager
    def _ddl_lock(self, table_name):
        """Table-exclusive lock for the duration of one DDL statement.

        DDL runs under its own short transaction id: the X lock conflicts
        with every DML holder's IX, so catalog and storage swaps wait for
        in-flight writers to finish (and block new ones) instead of
        mutating shared schema under them — the catalog lock discipline
        SIM009 enforces statically.
        """
        from repro.engine.locks import X

        server = self.server
        ddl_txn = server._next_txn_id
        server._next_txn_id += 1
        server.lock_manager.acquire_table(ddl_txn, table_name, mode=X)
        try:
            yield ddl_txn
        finally:
            server.lock_manager.release_all(ddl_txn)

    def _execute_create_table(self, statement):
        server = self.server
        columns = [
            Column(
                definition.name, definition.type_name,
                nullable=not definition.not_null,
                declared_length=definition.length,
            )
            for definition in statement.columns
        ]
        foreign_keys = [
            ForeignKey(fk.columns, fk.ref_table, fk.ref_columns)
            for fk in statement.foreign_keys
        ]
        schema = TableSchema(
            statement.name, columns, tuple(statement.primary_key), foreign_keys
        )
        with self._ddl_lock(statement.name) as ddl_txn:
            server.catalog.add_table(schema)
            table_file = server.volume.create_file(
                "table:%s" % statement.name
            )
            schema.storage = TableStorage(schema, table_file, server.pool)
            if statement.primary_key:
                self._create_index_on(
                    schema, "pk_%s" % statement.name, statement.primary_key,
                    unique=True, ddl_txn=ddl_txn,
                )
        return Result()

    def _execute_create_index(self, statement):
        table = self.server.catalog.table(statement.table_name)
        with self._ddl_lock(table.name) as ddl_txn:
            self._create_index_on(
                table, statement.name, statement.column_names,
                statement.unique, ddl_txn=ddl_txn,
            )
        # "Histograms are created automatically ... when an index is
        # created" (Section 3.2).
        if table.row_count:
            self.server.stats.build_statistics(
                table.name, statement.column_names, built_by="create-index"
            )
        return Result()

    def _create_index_on(self, table, index_name, column_names, unique,
                         ddl_txn=None):
        from repro.engine.locks import X

        server = self.server
        if ddl_txn is not None:
            # Re-entrant under the caller's DDL transaction (acquire_table
            # is idempotent for a held X lock) — every catalog mutation
            # happens with the table X-locked, per SIM009.
            server.lock_manager.acquire_table(ddl_txn, table.name, mode=X)
        index = IndexSchema(index_name, table.name, column_names, unique)
        index_file = server.volume.create_file("index:%s" % index_name)
        index.btree = BTree(index_file, server.pool, name=index_name)
        server.catalog.add_index(index)
        for row_id, row in table.storage.scan():
            key = index.key_of(row)
            if unique and index.btree.search(key):
                raise ExecutionError(
                    "duplicate key %r building unique index %r"
                    % (key, index_name)
                )
            index.btree.insert(key, row_id)
        return index

    def _execute_drop_table(self, statement):
        with self._ddl_lock(statement.name):
            self.server.catalog.drop_table(statement.name)
        return Result()

    def _execute_drop_index(self, statement):
        index = self.server.catalog.index(statement.name)
        with self._ddl_lock(index.table_name):
            self.server.catalog.drop_index(statement.name)
        return Result()

    def _execute_calibrate(self):
        """CALIBRATE DATABASE: measure the device, store the model in the
        catalog (Section 4.2)."""
        server = self.server
        model = calibrate_device(
            server.disk, server.config.page_size, samples_per_band=32
        )
        server.catalog.dtt_model = model
        return Result(notes={"calibrated": True})

    def _execute_reorganize(self, statement):
        """REORGANIZE TABLE: rebuild the table clustered on an index.

        One of the paper's Section 6 research-agenda items ("automatic
        reclustering and/or reorganization of tables and indexes"): rows
        are rewritten in the chosen index's key order into fresh pages and
        every index is rebuilt, restoring clustering statistics to ~1.0
        for that index.
        """
        server = self.server
        if self._txn_id is not None:
            raise TransactionError(
                "REORGANIZE TABLE cannot run inside a transaction"
            )
        table = server.catalog.table(statement.table_name)
        indexes = server.catalog.indexes_on(table.name)
        if statement.index_name is not None:
            order_index = server.catalog.index(statement.index_name)
            if order_index.table_name != table.name:
                raise ExecutionError(
                    "index %r is not on table %r"
                    % (statement.index_name, table.name)
                )
        else:
            if not indexes:
                raise ExecutionError(
                    "table %r has no index to reorganize on" % (table.name,)
                )
            order_index = next(
                (i for i in indexes if i.name == "pk_%s" % table.name),
                indexes[0],
            )
        with self._ddl_lock(table.name):
            rows = [
                table.storage.get(row_id)
                for __, row_id in order_index.btree.range_scan()
            ]
            # Fresh storage in key order.
            old_file = table.storage.file
            server.pool.discard(old_file)
            new_file = server.volume.create_file(
                "table:%s#reorg" % (table.name,)
            )
            table.storage = TableStorage(table, new_file, server.pool)
            server.reset_indexes(table)
            # The rewrite is unlogged: stamp the fresh pages with the last
            # already-assigned LSN so restart redo skips every record that
            # predates the reorganization, then checkpoint so the new file
            # is durable before the statement returns.
            stamp = server.txn_log.peek_next_lsn() - 1
            for row in rows:
                row_id = table.storage.insert(row, page_lsn=stamp)
                server._index_insert(table, row, row_id)
            old_file.truncate()
            server.checkpoint()
        return Result(notes={
            "reorganized": table.name,
            "clustered_on": order_index.name,
            "rows": len(rows),
        })

    # -- procedures --------------------------------------------------------- #

    def _execute_call(self, statement, params, overrides=None):
        """CALL runs the procedure body through the plan cache."""
        server = self.server
        procedure = server.catalog.procedure(statement.name)
        no_row = Batch.empty_row()
        args = [
            evaluate_batch(expr, no_row, params)[0] for expr in statement.args
        ]
        body_params = dict(zip(procedure.parameters, args))
        body = server.statements.prepare(
            procedure.body_sql, procedure.parameters
        )
        if not isinstance(body.tree, ast.SelectStatement):
            raise ExecutionError("procedure body must be a SELECT")
        cache_key = "proc:%s" % statement.name
        if overrides is not None and overrides.use_plan_cache is False:
            cache_key = None  # NoREC variant: fresh optimization
        return self._execute_select(
            body, body_params, cache_key=cache_key, overrides=overrides,
        )

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    def begin(self):
        if self._txn_id is not None:
            raise TransactionError("transaction already active")
        self._txn_id = self.server._next_txn_id
        self.server._next_txn_id += 1
        self.server.txn_log.begin(self._txn_id)
        return self._txn_id

    def commit(self):
        if self._txn_id is None:
            raise TransactionError("no active transaction")
        # Hands off to the group-commit coordinator: under a workload
        # scheduler the session may park here while other sessions run,
        # and the ack only arrives once the batched force covered this
        # transaction's COMMIT record.
        ticket = self.server.group_commit.commit(self._txn_id)
        # The WAL commit LSN is the version timestamp: stamp this
        # transaction's before-images so snapshot readers order them,
        # then release locks (stamping first keeps the window where the
        # rows are both unlocked and unstamped at zero).
        self.server.versions.commit(self._txn_id, ticket.lsn)
        self.server.lock_manager.release_all(self._txn_id)
        self._txn_id = None

    def rollback(self):
        """Undo this transaction's changes (:meth:`Server.rollback`)."""
        if self._txn_id is None:
            raise TransactionError("no active transaction")
        self.server.rollback(self._txn_id)
        self._txn_id = None

    @contextlib.contextmanager
    def _autocommit(self):
        """The transaction id a DML statement writes under.

        Inside an explicit transaction that is the open one and the
        statement's fate is the caller's; otherwise the statement is its
        own transaction — rolled back if it fails, committed if not.
        """
        if self._txn_id is not None:
            yield self._txn_id
            return
        txn_id = self.begin()
        try:
            yield txn_id
        except Exception:
            self.rollback()
            raise
        try:
            self.commit()
        except FaultError:
            # The commit force died: the transaction is still active in
            # the log, so autocommit semantics demand it unwind.
            self.rollback()
            raise


class _Statement:
    """A client statement in flight: its prepared form, then its Result."""

    __slots__ = ("prepared", "result")

    def __init__(self):
        self.prepared = None
        self.result = None


def _procedure_body_sql(create_sql):
    """Extract the body text following AS (kept verbatim in the catalog)."""
    upper = create_sql.upper()
    marker = upper.find(" AS ")
    if marker == -1:
        marker = upper.find("\nAS ")
    if marker == -1:
        raise SqlTypeError("CREATE PROCEDURE missing AS")
    return create_sql[marker + 4 :].strip().rstrip(";")
