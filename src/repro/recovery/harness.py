"""Deterministic crash harness: kill the server at a seeded point, restart
it, and verify committed-exactly recovery differentially.

The harness owns two servers built by the same factory (same seed, same
configuration).  On the *crash* server it arms the transaction log's
``crash_hook`` to raise :class:`SimulatedCrash` at the N-th hit of a
chosen crash site (``wal.append``, ``wal.commit_before_force``,
``wal.commit_after_force``, ``wal.force_page``, ``wal.checkpoint_mid``),
runs the workload until the process "dies", then crashes and restarts it
through restart recovery.  On the *reference* server it replays exactly
the statements that committed before the crash — no crash, no recovery.

Verification is differential: the recovered tables must hold exactly the
reference rows (committed-exactly), and the rebuilt indexes must agree
with their heaps.  Because everything runs on the SimClock with seeded
fault plans, two harness runs with the same seed produce byte-identical
post-recovery page images — which is the determinism half of the crash
matrix in ``tests/recovery/``.
"""

import collections
import dataclasses

from repro.common.errors import ReproError, SimulatedCrash

#: Where and when to kill the server: the crash fires on the
#: ``occurrence``-th hit of ``site`` (1-based) during the workload.
CrashPoint = collections.namedtuple("CrashPoint", ["site", "occurrence"])
CrashPoint.__new__.__defaults__ = (1,)

#: Workload sentinel: take a fuzzy checkpoint instead of running SQL
#: (the only way to stand inside the CKPT BEGIN/END window).
CHECKPOINT = "<checkpoint>"


class VerificationError(ReproError):
    """The recovered state differs from the committed reference state."""


def state_fingerprint(server):
    """Canonical text of every table's page images on ``server`` — the
    physical-determinism surface: two runs with the same seed and
    workload must produce byte-identical fingerprints.

    Also bound as ``harness.state_fingerprint()``, which fingerprints the
    harness's recovered (or promoted) ``server``.
    """
    server = getattr(server, "server", server)
    parts = []
    for table in sorted(server.catalog.tables(), key=lambda t: t.name):
        if table.storage is None:
            continue
        images = table.storage.page_images()
        for ordinal in sorted(images):
            parts.append("%s:%d %s" % (table.name, ordinal, images[ordinal]))
    return "\n".join(parts)


def check_indexes_match_heap(server):
    """Index ≡ heap, or :class:`VerificationError`: for every non-virtual
    index the ``(key, row_id)`` entries of the leaf chain are exactly the
    heap's, **and** every heap key is found by a root-to-leaf search (the
    leaf chain can hold an entry the root no longer routes to)."""
    for index in server.catalog.indexes():
        if index.virtual or index.btree is None:
            continue
        table = server.catalog.table(index.table_name)
        # Multisets, not sorted lists: keys may hold NULLs.
        heap_keys = collections.Counter(
            (index.key_of(row), row_id)
            for row_id, row in table.storage.scan()
        )
        index_keys = collections.Counter(
            (tuple(key), row_id) for key, row_id in index.btree.range_scan()
        )
        if heap_keys != index_keys:
            raise VerificationError(
                "index %r disagrees with heap %r: %d heap entries vs %d "
                "index entries"
                % (
                    index.name, table.name,
                    sum(heap_keys.values()), sum(index_keys.values()),
                )
            )
        for key, row_id in heap_keys:
            if row_id not in index.btree.search(key):
                raise VerificationError(
                    "index %r holds key %r of heap %r in its leaf chain "
                    "but a search from the root misses it"
                    % (index.name, key, table.name)
                )


def _table_rows(server, table_name):
    table = server.catalog.table(table_name)
    if table.storage is None:
        return []
    return sorted(row for __, row in table.storage.scan())


@dataclasses.dataclass
class CrashReport:
    """Everything one harness run learned (single-node restart and
    replicated fail-over alike; fields a scenario has no use for keep
    their defaults)."""

    crashed: bool = False
    crash_site: str = None
    statements_run: int = 0
    #: Statements acknowledged before the crash, per-session order.
    acked_statements: list = dataclasses.field(
        default_factory=list, repr=False
    )
    #: ``acked_statements`` plus the interrupted ones that survived.
    committed_statements: list = dataclasses.field(
        default_factory=list, repr=False
    )
    interrupted_statement: tuple = None
    interrupted_committed: bool = False
    #: Interrupted statements recovery adjudicated as committed.
    survivors: list = dataclasses.field(default_factory=list)
    recovery: object = None
    promoted_name: str = None
    failover_us: int = None
    torn_replica: str = None
    tables_verified: int = 0
    rows_verified: int = 0


class CrashHarness:
    """Drives crash → restart → differential verification.

    ``server_factory`` builds a fresh server (deterministic: same seed,
    same config each call).  ``schema`` is the list of statements that
    set both servers up and ``loads`` the ``(table, rows)`` bulk loads
    that follow it (the givens — assumed durable before the interesting
    workload begins; the harness checkpoints after applying them).
    ``workload`` is the list of statements to run on the
    crash server — plain SQL strings, ``(sql, params)`` pairs, or the
    :data:`CHECKPOINT` sentinel.
    """

    #: ``harness.state_fingerprint()``: the recovered server's.
    state_fingerprint = state_fingerprint

    def __init__(self, server_factory, schema, workload, crash_point=None,
                 tear_tail=None, loads=()):
        self.server_factory = server_factory
        self.schema = list(schema)
        #: ``[(table, rows), ...]`` bulk-loaded after the schema.
        self.loads = list(loads)
        self.workload = list(workload)
        self.crash_point = crash_point
        #: Force (True/False) or let the fault plan decide (None) whether
        #: the final log page tears during the crash.
        self.tear_tail = tear_tail
        self.server = None
        self.report = CrashReport()
        self._pending_at_crash = []
        self._interrupted_txn = None

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #

    def run(self):
        """Crash run, recovery, then differential verification."""
        report = self.report
        server = self._build()
        self._arm(server.txn_log)
        try:
            self._drive_workload(server.connect())
        finally:
            server.txn_log.crash_hook = None
        self.server, committed = self._recover(server)
        if report.interrupted_statement is not None:
            # The ambiguous statement: it died mid-execution, so its
            # transaction survives iff its COMMIT record reached the
            # device before the crash.
            report.interrupted_committed = self._interrupted_txn in committed
            if report.interrupted_committed:
                report.committed_statements.extend(
                    self._pending_at_crash + [report.interrupted_statement]
                )
        self._verify_exactly(report.committed_statements, [])
        return report

    # ------------------------------------------------------------------ #
    # the scenario (what a subclass may override)
    # ------------------------------------------------------------------ #

    def _build(self):
        """Build what runs the workload; returns the server whose log the
        crash point kills.  The givens are the experiment's premise: they
        are made durable so the crash only ever destroys workload
        effects."""
        self.server = self.server_factory()
        self._apply_givens(self.server)
        self.server.checkpoint()
        return self.server

    def _recover(self, primary):
        """Kill ``primary`` and bring the system back; returns the server
        to inspect and the transactions it holds committed."""
        if self.report.crashed:
            primary.crash(tear_tail=self.tear_tail)
            self.report.recovery = primary.restart()
        return primary, primary.txn_log.committed_txns()

    def _apply_givens(self, server):
        connection = server.connect()
        for sql in self.schema:
            connection.execute(sql)
        for table_name, rows in self.loads:
            server.load_table(table_name, rows)
        connection.close()

    def _arm(self, log):
        """Make ``log`` die on the crash point's N-th hit of its site."""
        if self.crash_point is None:
            return
        point = self.crash_point
        remaining = [point.occurrence]

        def hook(site):
            if site != point.site:
                return
            remaining[0] -= 1
            if remaining[0] <= 0:
                raise SimulatedCrash("crash point %s" % (site,))

        log.crash_hook = hook

    def _drive_workload(self, connection):
        """Run the workload, tracking which statements' effects committed.

        Autocommit statements commit when they return.  Statements inside
        an explicit BEGIN block are *pending* until the COMMIT statement
        succeeds (a ROLLBACK or a crash mid-transaction drops them).  The
        statement the crash interrupts is remembered for post-recovery
        adjudication against the durable log.
        """
        report = self.report
        server = self.server
        pending = []
        for item in self.workload:
            sql, params = item if isinstance(item, tuple) else (item, None)
            ambient_txn = connection._txn_id
            txn_before = server._next_txn_id
            try:
                if sql == CHECKPOINT:
                    server.checkpoint()
                else:
                    connection.execute(sql, params=params)
            except SimulatedCrash as crash:
                report.crashed = True
                report.crash_site = str(crash)
                if sql != CHECKPOINT:
                    report.interrupted_statement = (sql, params)
                    self._interrupted_txn = (
                        ambient_txn if ambient_txn is not None
                        else txn_before
                        if server._next_txn_id > txn_before else None
                    )
                    self._pending_at_crash = list(pending)
                return
            report.statements_run += 1
            if sql == CHECKPOINT:
                continue
            if connection._txn_id is not None:
                # BEGIN, or a statement inside the open transaction.
                pending.append((sql, params))
            elif ambient_txn is not None:
                # This statement closed the transaction.
                if sql.strip().upper().startswith("COMMIT"):
                    report.committed_statements.extend(
                        pending + [(sql, params)]
                    )
                pending = []
            else:
                report.committed_statements.append((sql, params))

    # ------------------------------------------------------------------ #
    # differential verification
    # ------------------------------------------------------------------ #

    def _reference_rows(self, statements):
        """Every table's sorted rows on a fresh reference server that ran
        the givens plus ``statements`` — no crash, no recovery."""
        reference = self.server_factory()
        self._apply_givens(reference)
        connection = reference.connect()
        try:
            for sql, params in statements:
                connection.execute(sql, params=params)
            return {
                table.name: _table_rows(reference, table.name)
                for table in reference.catalog.tables()
            }
        finally:
            connection.close()

    def _verify_exactly(self, settled, interrupted):
        """The surviving server must hold exactly the rows of a reference
        replay of ``settled`` plus some subset of the ``interrupted``
        statements (returned) — never a partial statement, never an
        invented row — and its indexes must agree with the heaps."""
        report = self.report
        actual = {
            table.name: _table_rows(self.server, table.name)
            for table in self.server.catalog.tables()
        }
        closest = None
        for mask in range(1 << len(interrupted)):
            subset = [
                statement
                for bit, statement in enumerate(interrupted)
                if mask & (1 << bit)
            ]
            expected = self._reference_rows(settled + subset)
            if expected == actual:
                report.tables_verified = len(actual)
                report.rows_verified = sum(map(len, actual.values()))
                check_indexes_match_heap(self.server)
                return subset
            if closest is None:
                closest = expected
        raise VerificationError(
            "surviving state matches no subset of the %d interrupted "
            "statements over the %d settled ones (partial or invented "
            "effects); against the settled ones alone: %s"
            % (
                len(interrupted), len(settled),
                _first_difference(closest, actual),
            )
        )


def _first_difference(expected, actual):
    """``(table, "missing" | "extra", row)`` for the first divergence."""
    for name in sorted(expected):
        rows = actual.get(name, [])
        for kind, here, there in (
            ("missing", expected[name], rows), ("extra", rows, expected[name])
        ):
            stray = next((row for row in here if row not in there), None)
            if stray is not None:
                return (name, kind, stray)
    return None


class GroupCommitCrashHarness(CrashHarness):
    """Crash inside a *batched* group-commit force and adjudicate acks.

    The single-connection :class:`CrashHarness` can only die inside a
    force that covers one commit.  This harness drives N scheduler
    sessions so several commits share one force, arms a crash point
    (typically ``wal.group_force``), and verifies the ack contract
    differentially:

    * **no acknowledged commit lost** — every statement whose
      ``execute`` returned before the crash (its session resumed its
      statement generator without a counted failure) must survive
      recovery, checked both at the log level (the acked transaction set
      is a subset of the recovered committed set) and at the heap level
      (differential replay);
    * **no unacknowledged commit reported durable** — a transaction the
      crash interrupted may or may not survive (its COMMIT record raced
      the dying force), but any survivor must have been in the crash-time
      batch, and the recovered tables must equal the reference plus the
      effects of exactly some subset of the interrupted statements —
      never a partial statement, never an invented row.

    ``sessions`` is a list of ``(name, [sql, ...])`` pairs; statements
    run autocommit on their session's own connection under the
    :class:`~repro.engine.scheduler.WorkloadScheduler`.

    A subclass changes the scenario, not the oracle, by overriding
    :meth:`_build` (what runs the workload), :meth:`_attach` (who else
    joins the schedule) and :meth:`_recover` (how it dies and comes
    back); ``server_factory`` is what a reference server is.
    """

    def __init__(self, server_factory, schema, sessions, crash_point=None,
                 seed=0, switch_rate=0.25, tear_tail=None, loads=()):
        super().__init__(
            server_factory, schema, workload=[], crash_point=crash_point,
            tear_tail=tear_tail, loads=loads,
        )
        self.sessions = [(name, list(stmts)) for name, stmts in sessions]
        self.seed = seed
        self.switch_rate = switch_rate
        self.scheduler = None
        #: Statements acknowledged before the crash, in per-session order.
        self.acked = {name: [] for name, __ in self.sessions}
        #: The statement each session had in flight when the run ended.
        self.inflight = {name: None for name, __ in self.sessions}
        #: Interrupted statements that recovery adjudicated as committed.
        self.survivors = []

    def _attach(self, scheduler):
        """Scenario hook: add non-workload actors to the schedule, once
        the workload sessions are in."""

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #

    def run(self):
        from repro.engine.scheduler import WorkloadScheduler

        report = self.report
        primary = self._build()
        log = primary.txn_log
        # Givens-era transactions live before the checkpoint; restart
        # recovery never rescans them, so the log-level adjudication
        # below only covers workload-era commits.
        givens_txns = log.committed_txns()
        self._arm(log)
        scheduler = WorkloadScheduler(
            primary, seed=self.seed, switch_rate=self.switch_rate
        )
        self.scheduler = scheduler
        for name, statements in self.sessions:
            scheduler.add_session(
                name, self._session_source(name, statements)
            )
        self._attach(scheduler)
        try:
            scheduler.run()
        except SimulatedCrash as crash:
            report.crashed = True
            report.crash_site = str(crash)
        finally:
            log.crash_hook = None
        report.statements_run = sum(
            s.statements_run for s in scheduler.sessions
        )
        report.acked_statements = [
            (sql, None)
            for name, __ in self.sessions
            for sql in self.acked[name]
        ]
        report.committed_statements = list(report.acked_statements)
        # Adjudicate at the instant of death, before recovery touches
        # anything: what was settled, and what was in flight?  A
        # transaction that appended its COMMIT record but was never acked
        # is still "active" in memory; only those and the crash-time
        # batch may surface as extra committed transactions.
        acked_txns = log.committed_txns() - givens_txns
        in_batch = {
            t.txn_id for t in primary.group_commit.pending_tickets()
        }
        allowed_extra = in_batch | set(log.active_txns())
        self.server, recovered = self._recover(primary)
        recovered = set(recovered) - givens_txns
        lost = acked_txns - recovered
        if lost:
            raise VerificationError(
                "acknowledged commits lost: txns %s" % sorted(lost)
            )
        stray = recovered - acked_txns - allowed_extra
        if stray:
            raise VerificationError(
                "transactions came back committed that were neither "
                "acknowledged nor in the crash-time batch: %s"
                % sorted(stray)
            )
        interrupted = [
            (self.inflight[name], None)
            for name, __ in self.sessions
            if self.inflight[name] is not None
        ]
        subset = self._verify_exactly(report.acked_statements, interrupted)
        self.survivors = [sql for sql, __ in subset]
        report.survivors = list(self.survivors)
        report.committed_statements.extend(subset)
        report.interrupted_committed = bool(subset)
        return report

    def _session_source(self, name, statements):
        def source(connection):
            session = next(
                s for s in self.scheduler.sessions if s.name == name
            )
            for sql in statements:
                self.inflight[name] = sql
                failed_before = session.statements_failed
                yield sql
                # The generator resumes only after ``execute`` returned —
                # but the scheduler absorbs statement-level casualties
                # (faults, memory quota, lock conflicts) and resumes it
                # anyway, so "resumed" only means "acknowledged durable"
                # when the statement did not fail.
                self.inflight[name] = None
                if session.statements_failed == failed_before:
                    self.acked[name].append(sql)
        return source
