"""The memory governor (paper Section 4.3, eqs. 4 and 5).

Each task (unit of work) gets two quotas:

* a **hard limit**: ``(3/4 * maximum buffer pool size) / active requests``
  — exceeding it terminates the statement with an error;
* a **soft limit**: ``current buffer pool size / multiprogramming level``
  — reaching it makes the governor request that query operators free
  memory, starting at the highest consumer and moving *down* the execution
  tree, "prevent[ing] an input operator from being starved for memory by a
  consumer operator".

:meth:`Task.reserve` is the one place that rule is applied (DESIGN.md
§14).
"""

import collections

from repro.analysis.races import tap as _race_tap
from repro.common.control import Decision, decision_ring
from repro.common.errors import MemoryQuotaExceededError
from repro.profiling.metrics import NULL_METRICS


class AdmissionQueue:
    """FIFO statement admission gated by the multiprogramming level.

    The paper's soft limit is ``pool / multiprogramming_level`` — a quota
    that only means anything if at most that many statements actually run
    concurrently.  The workload scheduler asks for a slot before every
    statement; when the governor's (possibly adaptive) level is saturated
    the session queues and is promoted in arrival order as slots free up.
    Capacity is read live from the governor, so an MPL adaptation decision
    immediately widens or narrows the gate.
    """

    def __init__(self, governor, metrics=None):
        self._governor = governor
        self._admitted = set()
        self._queue = collections.deque()
        self.races = None  # RaceSanitizer, attached by the server
        self.total_admissions = 0
        self.total_waits = 0
        self.peak_admitted = 0
        metrics = metrics or NULL_METRICS
        self._m_admissions = metrics.counter("memgov.admissions")
        self._m_waits = metrics.counter("memgov.admission_waits")
        metrics.register_probe(
            "memgov.admitted_sessions", lambda: len(self._admitted)
        )
        metrics.register_probe(
            "memgov.admission_queue_depth", lambda: len(self._queue)
        )

    def capacity(self):
        """Live slot count: the governor's current multiprogramming level."""
        return self._governor.multiprogramming_level

    def admitted(self, who):
        return who in self._admitted

    def queued(self, who):
        return who in self._queue

    def queue_depth(self):
        return len(self._queue)

    def request(self, who):
        """Ask for a slot; returns True (admitted) or False (queued).

        Queue order is strict FIFO: a requester never jumps ahead of a
        session already waiting, even when a slot is free.
        """
        if who in self._admitted:
            return True
        with _race_tap(self.races, "admission", "slots", "w"):
            if who not in self._queue and not self._queue and (
                len(self._admitted) < self.capacity()
            ):
                self._admit(who)
                return True
            if who not in self._queue:
                self._queue.append(who)
                self.total_waits += 1
                self._m_waits.inc()
        return False

    def release(self, who):
        """Give the slot back and promote queued sessions FIFO; returns
        the sessions promoted by this release."""
        with _race_tap(self.races, "admission", "slots", "w"):
            self._admitted.discard(who)
            return self.promote()

    def promote(self):
        """Admit queue heads into any free slots (also called after an
        MPL adaptation raises capacity)."""
        promoted = []
        while self._queue and len(self._admitted) < self.capacity():
            head = self._queue.popleft()
            self._admit(head)
            promoted.append(head)
        return promoted

    def withdraw(self, who):
        """Forget ``who`` entirely (session teardown / abort cascade)."""
        with _race_tap(self.races, "admission", "slots", "w"):
            self._admitted.discard(who)
            try:
                self._queue.remove(who)
            except ValueError:
                pass

    def _admit(self, who):
        self._admitted.add(who)
        self.total_admissions += 1
        self.peak_admitted = max(self.peak_admitted, len(self._admitted))
        self._m_admissions.inc()


class Task:
    """One statement's unit of work, with its memory ledger.

    Memory consumers (operators) register with a *depth*: 0 is the top of
    the execution tree, larger depths are closer to the inputs.  Each
    exposes ``memory_pages`` and ``relinquish_memory() -> pages freed``.
    """

    def __init__(self, governor, task_id):
        self.governor = governor
        self.task_id = task_id
        self.used_pages = 0
        self._consumers = []  # [(depth, consumer)]
        self.soft_limit_hits = 0

    # -- consumer registry ----------------------------------------------- #

    def register_consumer(self, consumer, depth):
        self._consumers.append((depth, consumer))

    def unregister_consumer(self, consumer):
        self._consumers = [
            (depth, c) for depth, c in self._consumers if c is not consumer
        ]

    # -- quotas ------------------------------------------------------------ #

    @property
    def hard_limit_pages(self):
        return self.governor.hard_limit_pages()

    @property
    def soft_limit_pages(self):
        return self.governor.soft_limit_pages()

    # -- the ledger ---------------------------------------------------------- #

    def allocate(self, memory, pages):
        """Account ``pages`` more to ``memory`` (a ``WorkMemory``); raises
        :class:`MemoryQuotaExceededError` past the hard limit."""
        if self.used_pages + pages > self.hard_limit_pages:
            raise MemoryQuotaExceededError(
                "statement exceeded its hard memory limit",
                used_pages=self.used_pages + pages,
                limit_pages=self.hard_limit_pages,
            )
        self.used_pages += pages
        memory.pages_held += pages

    def release(self, memory, pages):
        memory.pages_held -= pages
        self.used_pages -= pages

    def reserve(self, memory, pages):
        """Account ``pages`` more to ``memory`` if they fit under the soft
        limit.  A request crossing it counts one hit and walks the
        consumers top first, skipping those holding no pages and asking
        the others to relinquish until it fits; reaching ``memory``'s
        owner holding pages, or the end, answers False: nothing is
        accounted, and the owner degrades itself."""
        if self.used_pages + pages > self.soft_limit_pages:
            self.soft_limit_hits += 1
            for __, consumer in sorted(self._consumers, key=lambda c: c[0]):
                if self.used_pages + pages <= self.soft_limit_pages or (
                    consumer is memory.owner and consumer.memory_pages
                ):
                    break
                if consumer.memory_pages:
                    consumer.relinquish_memory()
            if self.used_pages + pages > self.soft_limit_pages:
                return False
        self.allocate(memory, pages)
        return True


class MemoryGovernor:
    """Derives the quotas from the pool state and concurrency level."""

    #: Bounds for the adaptive multiprogramming level (Section 6 future
    #: work: "dynamically changing the server's multiprogramming level in
    #: response to database workload").
    MIN_MPL = 1
    MAX_MPL = 64

    #: Completed tasks per adaptation decision.
    ADAPT_WINDOW = 16

    #: Lock waits per completed task above which the window counts as
    #: lock-pressured: deep lock queues mean admitted statements are
    #: serialising on rows, so more of them only lengthens the queues.
    LOCK_WAIT_RATE_LIMIT = 0.5

    #: Operator spill events per completed task above which the window
    #: counts as spill-pressured: statements are overflowing their work
    #: memory onto the temp file, so each should get a larger share.
    SPILL_RATE_LIMIT = 0.5

    #: Mean commits per group-commit flush at or above which the window's
    #: commit traffic counts as bursty: transactions are queueing behind
    #: the log, and more concurrent statements drain the queue better.
    COMMIT_BURST_BATCH = 4.0

    def __init__(self, pool, max_pool_pages, multiprogramming_level=4,
                 adaptive=False, metrics=None, lock_stats_fn=None, *,
                 clock, decisions=None):
        self.pool = pool
        self.max_pool_pages = int(max_pool_pages)
        self.multiprogramming_level = max(1, int(multiprogramming_level))
        self.adaptive = adaptive
        #: ``fn() -> (cumulative lock waits, cumulative deadlocks)``; the
        #: server wires the lock manager's counters.
        self.lock_stats_fn = lock_stats_fn
        #: Cumulative signal readings at the last adaptation.
        self._seen = {}
        self._tasks = {}
        self._next_task_id = 0
        self._window_tasks = 0
        self._window_soft_hits = 0
        self._window_peak_concurrency = 0
        #: Adaptation decisions (:class:`~repro.common.control.Decision`),
        #: stamped from ``clock``.
        self._clock = clock
        self.decisions = decision_ring(decisions)
        #: Statement admission gate consumed by the workload scheduler.
        self._metrics = metrics = metrics or NULL_METRICS
        self.admission = AdmissionQueue(self, metrics=metrics)
        self._m_tasks = metrics.counter("memgov.tasks_completed")
        self._m_soft_hits = metrics.counter("memgov.soft_limit_hits")
        self._m_level_changes = metrics.counter("memgov.mpl_changes")
        metrics.register_probe(
            "memgov.active_tasks", lambda: len(self._tasks)
        )
        metrics.register_probe(
            "memgov.multiprogramming_level",
            lambda: self.multiprogramming_level,
        )
        metrics.register_probe(
            "memgov.soft_limit_pages", self.soft_limit_pages
        )
        metrics.register_probe(
            "memgov.hard_limit_pages", self.hard_limit_pages
        )

    # -- task lifecycle ------------------------------------------------------ #

    def begin_task(self):
        task = Task(self, self._next_task_id)
        self._tasks[self._next_task_id] = task
        self._next_task_id += 1
        self._window_peak_concurrency = max(
            self._window_peak_concurrency, len(self._tasks)
        )
        return task

    def end_task(self, task):
        self._tasks.pop(task.task_id, None)
        self._window_tasks += 1
        self._window_soft_hits += task.soft_limit_hits
        self._m_tasks.inc()
        if task.soft_limit_hits:
            self._m_soft_hits.inc(task.soft_limit_hits)
        if self.adaptive and self._window_tasks >= self.ADAPT_WINDOW:
            self.adapt_multiprogramming_level()

    def adapt_multiprogramming_level(self):
        """One adaptation decision over the completed-task window.

        Frequent soft-limit hits or operator spills mean statements are
        starved for work memory: lower the multiprogramming level so each
        gets a larger share of the pool.  Deep lock queues or deadlocks
        over the window mean admitted statements are serialising on rows —
        admitting more only lengthens the queues, so the level falls too.
        Absent any of that pressure, the level rises when concurrency
        exceeded it (parallelism left on the table) or when group-commit
        flushes carried bursty batches (transactions queueing behind the
        log; more concurrent statements drain the queue).
        """
        tasks = self._window_tasks
        if tasks == 0:
            return self.multiprogramming_level
        signals = dict(
            self._window_signals(), tasks=tasks,
            soft_limit_hits=self._window_soft_hits,
            peak_concurrency=self._window_peak_concurrency,
        )
        hit_rate = self._window_soft_hits / tasks
        flushes = signals["flushes"]
        commit_burst = signals["commits"] / flushes if flushes > 0 else 0.0
        old_level = self.multiprogramming_level
        if (
            hit_rate > 0.5
            or signals["spills"] / tasks > self.SPILL_RATE_LIMIT
            or signals["deadlocks"] > 0
            or signals["lock_waits"] / tasks > self.LOCK_WAIT_RATE_LIMIT
        ):
            action, level = "lower", max(self.MIN_MPL, old_level // 2)
        elif hit_rate < 0.05 and (
            self._window_peak_concurrency > old_level
            or commit_burst >= self.COMMIT_BURST_BATCH
        ):
            action, level = "raise", min(self.MAX_MPL, old_level * 2)
        else:
            action, level = "hold", old_level
        self.decisions.append(Decision(
            self._clock.now, "mpl", action, old_level, level, signals
        ))
        if level != old_level:
            self.multiprogramming_level = level
            self._m_level_changes.inc()
        self._window_tasks = 0
        self._window_soft_hits = 0
        self._window_peak_concurrency = len(self._tasks)
        return self.multiprogramming_level

    def _window_signals(self):
        """Lock waits, deadlocks, operator spills, group-commit flushes and
        the commits they carried since the last adaptation: deltas over
        the lock manager's counters and the shared registry's
        ``exec.spill_events`` / ``wal.group_commit.batch_size``.  Every
        delta is taken on every window, whichever way it decides."""
        waits, deadlocks = (
            self.lock_stats_fn() if self.lock_stats_fn is not None else (0, 0)
        )
        batches = self._metric_value("wal.group_commit.batch_size")
        if not isinstance(batches, dict):
            batches = {}
        now = {
            "lock_waits": waits, "deadlocks": deadlocks,
            "spills": self._metric_value("exec.spill_events"),
            "flushes": batches.get("count", 0),
            "commits": batches.get("sum", 0),
        }
        window = {key: now[key] - self._seen.get(key, 0) for key in now}
        self._seen = now
        return window

    def _metric_value(self, name, default=0):
        """A registry value, or ``default`` when the metric (or the whole
        registry) is absent — rig setups wire neither."""
        try:
            return self._metrics.value(name)
        except KeyError:
            return default

    @property
    def active_requests(self):
        return max(1, len(self._tasks))

    # -- the quota formulas (paper eqs. 4 and 5) ------------------------------ #

    def hard_limit_pages(self):
        return max(1, int(0.75 * self.max_pool_pages / self.active_requests))

    def soft_limit_pages(self):
        return max(1, int(self.pool.capacity_pages / self.multiprogramming_level))

    # -- introspection --------------------------------------------------------- #

    def total_used_pages(self):
        return sum(task.used_pages for task in self._tasks.values())
