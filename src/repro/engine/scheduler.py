"""Deterministic multi-session workload scheduler.

The paper's governors are built for *concurrent* load — the soft memory
limit is ``pool / multiprogramming_level`` (eq. 5) and the adaptive MPL
machinery reacts to contention between statements — but a single
connection can never produce that contention.  This module runs N
sessions (each a generator of SQL statements) against one server with
genuinely interleaved execution, while keeping every run bit-for-bit
deterministic.

**How determinism survives threads.**  Each session runs on its own
thread, but exactly one thread is ever runnable: a session parks on its
private :class:`threading.Event` and the *baton* is handed explicitly at
yield points (buffer-pool page misses, spill-file flushes, commit waits,
statement boundaries).  The decision to switch is drawn from the fault
plan's seeded ``sched.interleave`` substream (or a local seeded RNG when
no plan is armed), so the OS thread scheduler has no influence: the same
seed and workload produce byte-identical :meth:`WorkloadScheduler.trace_lines`.

**Admission control.**  Before each statement a session requests a slot
from the memory governor's :class:`~repro.exec.memory.AdmissionQueue`
(capacity = the live multiprogramming level, adaptive or not); saturated
sessions queue FIFO and are promoted as statements finish — the paper's
MPL knob finally gating real concurrency.

**Group commit.**  A committing session parks on its
:class:`~repro.storage.log.CommitTicket` instead of forcing the log
alone; the :class:`~repro.storage.log.GroupCommitCoordinator` flushes
once per batch, and this scheduler closes the batch early when every
runnable session has drained — no later commit can join it, so waiting
out the flush window would only add latency.
"""

import contextlib
import random
import threading

from repro.common.errors import (
    FaultError,
    MemoryQuotaExceededError,
    SchedulerAborted,
    SchedulerDeadlockError,
)
from repro.engine.locks import LockConflictError
from repro.faults.plan import LOCK_WAKEUP, SCHED_INTERLEAVE

# Session states.
READY = "ready"
RUNNING = "running"
WAITING_ADMISSION = "waiting-admission"
WAITING_COMMIT = "waiting-commit"
WAITING_LOCK = "waiting-lock"
WAITING_REPL = "waiting-repl"
DONE = "done"
FAILED = "failed"
ABORTED = "aborted"

#: Yield-point site names (literal, greppable — trace lines carry them).
YIELD_POOL_MISS = "pool.miss"
YIELD_SPILL = "exec.spill"
YIELD_STATEMENT = "sched.statement"
YIELD_LOCK = "lock.wait"
YIELD_REPL_APPLY = "repl.apply"

#: Consecutive no-progress dispatch attempts tolerated before the run is
#: declared deadlocked (each attempt may legitimately fail under a
#: hostile fault plan whose injected errors abort the inline flush).
MAX_STALLED_DISPATCHES = 16


def _lock_resolved(waiter):
    if waiter.granted:
        return "lock-granted"
    return "lock-victim" if waiter.victim else None


#: ``(blocked status, waiting_on -> trace event once the wait is over)``,
#: in the order :meth:`WorkloadScheduler._resolve_waiters` wakes them.
_RESOLVED = (
    (WAITING_COMMIT,
     lambda ticket: "commit-durable" if ticket.durable else None),
    (WAITING_LOCK, _lock_resolved),
    (WAITING_REPL, lambda ready_fn: "repl-ready" if ready_fn() else None),
)


class Session:
    """One scripted client: a name plus a source of statements.

    ``statements`` is an iterable of items — a SQL string, a
    ``(sql, params)`` pair, or a callable invoked with the session's
    :class:`~repro.engine.server.Connection` (one "statement" that may
    run arbitrary work under the scheduler's yield discipline, e.g. a
    sync round) — or a callable taking the Connection and returning such
    an iterable (generators welcome: they observe earlier results).
    """

    def __init__(self, name, statements, server=None):
        self.name = name
        self.statements = statements
        #: Foreign server this session connects to instead of the
        #: scheduler's own (replica apply actors).  Foreign sessions
        #: skip the primary's MPL admission queue — they compete for a
        #: different server's resources.
        self.server = server
        self.status = READY
        self.event = threading.Event()
        self.thread = None
        #: What a WAITING_COMMIT / WAITING_LOCK / WAITING_REPL session is
        #: parked on: its commit ticket, lock waiter or readiness predicate.
        self.waiting_on = None
        self.in_statement = False
        self.statements_run = 0
        self.statements_failed = 0
        self.errors = []
        self.error = None

    def __repr__(self):
        return "Session(%r, %s, run=%d)" % (
            self.name, self.status, self.statements_run
        )


class WorkloadScheduler:
    """Runs concurrent sessions over one server, deterministically."""

    def __init__(self, server, seed=0, switch_rate=0.25):
        self.server = server
        self.seed = int(seed)
        #: Probability of switching sessions at a pool-miss or spill
        #: yield point (statement boundaries always offer the baton).
        self.switch_rate = float(switch_rate)
        self.sanitize = bool(getattr(server, "sanitize", False))
        self._rng = random.Random("sched:%d" % self.seed)
        self._lock_rng = random.Random("sched-locks:%d" % self.seed)
        self._critical = 0
        self._sessions = []
        self._ready = []
        self._current = None
        self._driver_event = threading.Event()
        self._aborting = False
        self._fatal = None
        self._started = False
        #: Zero-argument callables consulted when every session is
        #: blocked and neither a flush nor a lock victim can help:
        #: return True after producing an event that can unblock a
        #: session (the replication cluster's hook advances the shared
        #: clock to the next in-flight frame arrival).
        self.progress_hooks = []
        self.trace = []
        self.switches = 0
        self._m_switches = server.metrics.counter("sched.switches")
        self._m_statements = server.metrics.counter("sched.statements")
        self._m_stmt_errors = server.metrics.counter(
            "sched.statement_errors"
        )
        self._m_admission_waits = server.metrics.counter(
            "sched.admission_waits"
        )
        self._m_commit_waits = server.metrics.counter("sched.commit_waits")
        self._m_lock_waits = server.metrics.counter("sched.lock_waits")
        self._m_repl_waits = server.metrics.counter("sched.repl_waits")

    # ------------------------------------------------------------------ #
    # workload definition
    # ------------------------------------------------------------------ #

    def add_session(self, name, statements, server=None):
        if self._started:
            raise SchedulerDeadlockError(
                "cannot add sessions to a started scheduler"
            )
        if any(s.name == name for s in self._sessions):
            raise ValueError("duplicate session name %r" % (name,))
        session = Session(
            name, statements,
            server=server if server is not self.server else None,
        )
        self._sessions.append(session)
        return session

    @property
    def sessions(self):
        return list(self._sessions)

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #

    def run(self):
        """Execute every session to completion; returns a report dict.

        A fatal error in any session (anything other than the absorbed
        statement-level fault/quota/lock aborts) tears the other sessions
        down through their own unwind paths, then re-raises here — a
        :class:`~repro.common.errors.SimulatedCrash` from an armed crash
        hook surfaces to the crash harness exactly like the
        single-session case.
        """
        if self._started:
            raise SchedulerDeadlockError("scheduler already ran")
        self._started = True
        if not self._sessions:
            return self.report()
        server = self.server
        previous_hook = server.pool.yield_hook
        server.scheduler = self
        server.pool.yield_hook = self._pool_miss_yield
        try:
            for session in self._sessions:
                session.thread = threading.Thread(
                    target=self._session_main,
                    args=(session,),
                    name="repro-session-%s" % session.name,
                    daemon=True,
                )
                session.thread.start()
            first = self._sessions[0]
            self._ready.extend(self._sessions[1:])
            first.status = RUNNING
            self._current = first
            self._trace(first, "start")
            first.event.set()
            self._driver_event.wait()
            for session in self._sessions:
                session.thread.join()
        finally:
            server.pool.yield_hook = previous_hook
            server.scheduler = None
            self._current = None
        if self._fatal is not None:
            raise self._fatal
        return self.report()

    def report(self):
        return {
            "sessions": len(self._sessions),
            "statements": sum(s.statements_run for s in self._sessions),
            "statement_errors": sum(
                s.statements_failed for s in self._sessions
            ),
            "switches": self.switches,
            "aborted_sessions": sum(
                1 for s in self._sessions if s.status == ABORTED
            ),
            "peak_admitted": self._admission().peak_admitted,
            "admission_waits": self._admission().total_waits,
        }

    def trace_lines(self):
        """Canonical text of the interleaving — two runs with the same
        seed and workload must produce byte-identical output."""
        return "\n".join(self.trace)

    # ------------------------------------------------------------------ #
    # yield points (called from engine code on the current session's
    # thread)
    # ------------------------------------------------------------------ #

    def yield_point(self, site, always=False):
        """Offer the baton to another session at ``site``."""
        session = self._current
        if session is None or self._aborting or self._critical:
            return
        if threading.current_thread() is not session.thread:
            # Engine work on the driver thread (setup, harness plumbing)
            # never switches.
            return
        if not always and not self._draw_switch():
            return
        self._resolve_waiters()
        nxt = self._take_ready()
        if nxt is None:
            return
        session.status = READY
        self._ready.append(session)
        self.switches += 1
        self._m_switches.inc()
        self._trace(session, "yield:%s -> %s" % (site, nxt.name))
        nxt.status = RUNNING
        self._handoff_to(nxt)
        self._park(session)

    def _pool_miss_yield(self, file, page_no):
        self.yield_point(YIELD_POOL_MISS)

    def spill_yield(self):
        self.yield_point(YIELD_SPILL)

    # ------------------------------------------------------------------ #
    # group-commit surface
    # ------------------------------------------------------------------ #

    def running_session(self):
        return self._current

    def can_wait(self):
        """Whether parking the caller (on a commit ticket, on a lock) can
        possibly be productive: the call must come from a session thread
        and at least one sibling must still be live — to join the commit
        batch, to release the lock, or just to run meanwhile."""
        if self._aborting:
            return False
        session = self._current
        if session is None or (
            threading.current_thread() is not session.thread
        ):
            return False
        return any(
            s is not session and s.status not in (DONE, FAILED, ABORTED)
            for s in self._sessions
        )

    def wait_for_commit(self, ticket, coordinator):
        """Park the current session until its commit ticket is durable."""
        self._block(
            self._current, WAITING_COMMIT, self._m_commit_waits,
            "wait:commit lsn=%d" % ticket.lsn, ticket,
        )

    # ------------------------------------------------------------------ #
    # replication surface
    # ------------------------------------------------------------------ #

    def wait_for_repl(self, ready_fn):
        """Park the current (replica apply) session until ``ready_fn()``.

        Apply actors have no work of their own to generate: between
        deliverable frames they park here instead of spinning on the
        baton, and ``_resolve_waiters`` re-readies them as soon as the
        predicate turns true (a frame arrived, or every producer
        session reached a terminal state and the actor should drain).
        """
        session = self._current
        if session is None or (
            threading.current_thread() is not session.thread
        ):
            return
        if ready_fn():
            return
        self._block(
            session, WAITING_REPL, self._m_repl_waits, "wait:repl", ready_fn
        )

    # ------------------------------------------------------------------ #
    # lock-manager surface
    # ------------------------------------------------------------------ #

    def wait_for_lock(self, waiter):
        """Park the current session until its lock request is granted or
        it is chosen as a deadlock victim.

        The admission slot is released while parked — a session blocked
        on a lock must not pin an MPL slot that the lock holder needs to
        finish its statement — and re-acquired after the wait resolves.
        """
        session = self._current
        waiter.session = session
        self._block(
            session, WAITING_LOCK, self._m_lock_waits,
            "wait:lock %s" % waiter.describe(), waiter,
            before_park=self._release_admission,
        )
        self._acquire_admission(session)
        self._assert_admitted(session)

    def draw_lock_wakeup(self, n):
        """Index of the waiter to wake among ``n`` grantable ones, drawn
        from the fault plan's seeded ``locks.wakeup`` stream (or the
        local lock RNG when no plan is armed)."""
        plan = self.server.fault_plan
        if plan is not None:
            return plan.draw_uniform(LOCK_WAKEUP, 0, n)
        return self._lock_rng.randrange(n)

    @contextlib.contextmanager
    def critical_section(self):
        """Suppress baton switches while lock metadata is mid-update.

        Pool misses inside the paged lock table would otherwise hand the
        baton off between a lock probe and its matching install."""
        self._critical += 1
        try:
            yield
        finally:
            self._critical -= 1

    def in_critical_section(self):
        """Whether baton switches are currently suppressed (used by the
        race sanitizer as an implicit guard token)."""
        return self._critical > 0

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def _admission(self):
        return self.server.memory_governor.admission

    def _acquire_admission(self, session):
        admission = self._admission()
        if not admission.request(session):
            self._block(
                session, WAITING_ADMISSION, self._m_admission_waits,
                "wait:admission depth=%d" % admission.queue_depth(),
            )

    def _release_admission(self, session):
        for promoted in self._admission().release(session):
            if promoted.status == WAITING_ADMISSION:
                promoted.status = READY
                self._ready.append(promoted)

    def _assert_admitted(self, session):
        """Sanitizer invariant: a session never executes while the
        admission queue still holds it."""
        if not self.sanitize:
            return
        admission = self._admission()
        if admission.queued(session) or not admission.admitted(session):
            from repro.analysis.sanitizers import SchedulerInvariantError

            raise SchedulerInvariantError(
                "session %r executing while %s the admission queue"
                % (
                    session.name,
                    "queued in" if admission.queued(session)
                    else "not admitted by",
                )
            )

    # ------------------------------------------------------------------ #
    # sanitizer surface
    # ------------------------------------------------------------------ #

    def pin_check_safe(self):
        """Whether a statement-boundary pin-leak assertion is sound now.

        A session suspended mid-statement legitimately holds pins; the
        pool-wide zero-pins check only applies when no *other* session is
        inside a statement.
        """
        if self._aborting:
            return False
        current = self._current
        return not any(
            s is not current and s.in_statement
            and s.status not in (DONE, FAILED, ABORTED)
            for s in self._sessions
        )

    # ------------------------------------------------------------------ #
    # internals: baton handoff
    # ------------------------------------------------------------------ #

    def _handoff_to(self, target):
        self._current = target
        target.event.set()

    def _park(self, session):
        session.event.wait()
        session.event.clear()
        if self._aborting:
            raise SchedulerAborted(
                "session %r torn down by a sibling's failure" % session.name
            )

    def _block(self, session, status, counter, event, waiting_on=None,
               before_park=None):
        """The one park-and-resume: mark ``session`` blocked in ``status``
        on ``waiting_on``, hand the baton onward and return once
        :meth:`_resolve_waiters` (or an admission promotion) has made it
        runnable again."""
        session.waiting_on = waiting_on
        session.status = status
        counter.inc()
        self._trace(session, event)
        if before_park is not None:
            before_park(session)
        try:
            if not self._dispatch_from(session):
                self._park(session)
        finally:
            session.waiting_on = None

    def _take_ready(self):
        while self._ready:
            session = self._ready.pop(0)
            if session.status == READY:
                return session
        return None

    def _resolve_waiters(self):
        """Re-ready every session whose wait is over.  The order is part
        of the trace: durable commits, then lock grants and victims, then
        replication readiness, then admission promotions — each in
        session order."""
        for status, resolved in _RESOLVED:
            for session in self._sessions:
                if session.status != status or session.waiting_on is None:
                    continue
                event = resolved(session.waiting_on)
                if event is not None:
                    session.status = READY
                    self._ready.append(session)
                    self._trace(session, event)
        for promoted in self._admission().promote():
            if promoted.status == WAITING_ADMISSION:
                promoted.status = READY
                self._ready.append(promoted)

    def _dispatch_from(self, session):
        """Hand the baton onward while ``session`` blocks.

        Returns True if the wait resolved before the session ever parked
        (it keeps the baton); False once the baton has been handed off
        and the caller must park.
        """
        stalled = 0
        while True:
            self._resolve_waiters()
            if session.status == READY:
                self._ready.remove(session)
                session.status = RUNNING
                return True
            nxt = self._take_ready()
            if nxt is not None:
                nxt.status = RUNNING
                self._handoff_to(nxt)
                return False
            if self._aborting:
                raise SchedulerAborted(
                    "session %r torn down while blocked" % session.name
                )
            if self._force_progress(session):
                stalled = 0
                continue
            stalled += 1
            if stalled >= MAX_STALLED_DISPATCHES:
                raise SchedulerDeadlockError(
                    "session %r blocked in %s with no runnable session "
                    "and no pending event"
                    % (session.name, session.status)
                )

    def _force_progress(self, session):
        """Every session is blocked: close the commit batch and flush.

        No parked session can add a commit, so waiting out the flush
        window would only add latency without growing the batch — the
        group closes early.  Returns whether any event that can unblock
        a session was produced."""
        coordinator = getattr(self.server, "group_commit", None)
        if coordinator is not None and coordinator.pending_count() > 0:
            if session.status == WAITING_COMMIT:
                # The blocked committer flushes for the whole batch; an
                # exhausted-retry IOFaultError is *its* statement's to
                # absorb.
                return coordinator.flush() > 0
            try:
                return coordinator.flush() > 0
            except FaultError:
                # Foreign work (this session only wants an admission
                # slot): the checkpoint-governor idiom — count the fault,
                # never kill the bystander.  The owning sessions retry at
                # the next dispatch round.
                plan = self.server.fault_plan
                if plan is not None:
                    plan.note_statement_abort()
                self._trace(session, "flush-fault-absorbed")
                return False
        for hook in self.progress_hooks:
            if hook():
                return True
        return self._break_lock_stall()

    def _break_lock_stall(self):
        """Every session is blocked and no commit is pending: a lock
        waiter whose holder lives outside the scheduler (a plain driver
        connection) can never be granted by a parked sibling.  Abort the
        first such waiter in session order — deterministic — rather than
        declaring the whole run deadlocked."""
        lock_manager = getattr(self.server, "lock_manager", None)
        if lock_manager is None:
            return False
        for candidate in self._sessions:
            waiter = candidate.waiting_on
            if (
                candidate.status == WAITING_LOCK
                and waiter is not None
                and not waiter.granted
                and not waiter.victim
            ):
                lock_manager.victimize_stalled(waiter)
                self._trace(candidate, "lock-stall-victim")
                return True
        return False

    # ------------------------------------------------------------------ #
    # internals: session lifecycle (run on session threads)
    # ------------------------------------------------------------------ #

    def _session_main(self, session):
        session.event.wait()
        session.event.clear()
        if self._aborting:
            session.status = ABORTED
            self._finish(session)
            return
        try:
            self._run_session(session)
            session.status = DONE
            self._trace(session, "done")
        except SchedulerAborted:
            session.status = ABORTED
            self._trace(session, "aborted")
        except BaseException as exc:
            # The backstop that makes a session failure a *run* failure:
            # recorded as the fatal error and re-raised by run() after
            # the surviving sessions unwind.
            session.status = FAILED
            session.error = exc
            self._trace(session, "failed:%s" % type(exc).__name__)
            if self._fatal is None:
                self._fatal = exc
            self._aborting = True
        finally:
            session.in_statement = False
        self._finish(session)

    def _run_session(self, session):
        foreign = session.server is not None
        conn = (session.server if foreign else self.server).connect()
        try:
            source = session.statements
            items = source(conn) if callable(source) else source
            for item in items:
                if callable(item):
                    call = item
                    sql = getattr(item, "__name__", "<callable>")
                    params = None
                else:
                    call = None
                    sql, params = (
                        item if isinstance(item, tuple) else (item, None)
                    )
                if not foreign:
                    self._acquire_admission(session)
                    self._assert_admitted(session)
                session.in_statement = True
                try:
                    if call is not None:
                        call(conn)
                    else:
                        conn.execute(sql, params=params)
                    session.statements_run += 1
                    self._m_statements.inc()
                except (
                    FaultError, MemoryQuotaExceededError, LockConflictError
                ) as exc:
                    # Statement-level casualties of the hostile
                    # environment or of contention: the session survives.
                    session.statements_failed += 1
                    session.errors.append(
                        (sql, "%s: %s" % (type(exc).__name__, exc))
                    )
                    self._m_stmt_errors.inc()
                    self._trace(
                        session, "stmt-error:%s" % type(exc).__name__
                    )
                    if conn._txn_id is not None:
                        conn.rollback()
                finally:
                    session.in_statement = False
                    if not foreign:
                        self._release_admission(session)
                self.yield_point(YIELD_STATEMENT, always=True)
        finally:
            if not self._aborting:
                conn.close()

    def _finish(self, session):
        """Runs on ``session``'s thread, holding the baton, after the
        session reached a terminal state: pass the baton on, drive the
        abort cascade, or wake the driver when everything is over."""
        self._admission().withdraw(session)
        while True:
            self._resolve_waiters()
            nxt = self._take_ready()
            if nxt is not None:
                nxt.status = RUNNING
                self._handoff_to(nxt)
                return
            if self._aborting:
                parked = self._next_parked()
                if parked is None:
                    break
                # Wake it where it parked; _park raises SchedulerAborted
                # so it unwinds through its own cleanup, then re-enters
                # _finish and continues the cascade.
                self._handoff_to(parked)
                return
            if all(
                s.status in (DONE, FAILED, ABORTED) for s in self._sessions
            ):
                break
            if not self._force_progress(session):
                if self._fatal is None:
                    self._fatal = SchedulerDeadlockError(
                        "sessions blocked with no runnable session after "
                        "%r finished" % (session.name,)
                    )
                self._aborting = True
        self._current = None
        self._driver_event.set()

    def _next_parked(self):
        for session in self._sessions:
            if session.status in (
                READY, WAITING_ADMISSION, WAITING_COMMIT, WAITING_LOCK,
                WAITING_REPL,
            ):
                return session
        return None

    # ------------------------------------------------------------------ #
    # internals: decisions and tracing
    # ------------------------------------------------------------------ #

    def _draw_switch(self):
        plan = self.server.fault_plan
        if plan is not None:
            return plan.should(SCHED_INTERLEAVE, self.switch_rate)
        return self._rng.random() < self.switch_rate

    def _trace(self, session, event):
        self.trace.append(
            "%012d %s %s" % (self.server.clock.now, session.name, event)
        )
