"""Row and table locking on the disk-based lock table (Section 2.1).

Long-term (transaction-duration) exclusive row locks live in an
:class:`~repro.storage.exthash.ExtensibleHashTable` over ordinary pool
pages: the lock table has **no configured size and no escalation
thresholds** — a transaction may lock millions of rows and the structure
simply grows, its cold buckets spilling through the buffer pool like any
other page.

Two layers sit above the row locks:

* **Multi-granularity table locks.**  DML implicitly takes an intention
  (``IX``) lock on the table before its first row lock — a dictionary
  probe, not a paged hash probe — and DDL takes a table-exclusive
  (``X``) lock, so a DROP or REORGANIZE conflicts with in-flight writers
  without ever scanning the row lock table.
* **Blocking waits.**  Transactions *wait* on conflicting locks, as the
  paper's long-duration lock design assumes.  A blocked ``acquire``
  under an armed :class:`~repro.engine.scheduler.WorkloadScheduler`
  parks the session on the lock's release queue; when the holder
  releases, the waiter to wake is drawn from the seeded ``locks.wakeup``
  stream so contended wakeup order is byte-reproducible.  A waits-for
  graph is checked for cycles at block time and the youngest transaction
  in a cycle (largest txn id — deterministic) is aborted with
  :class:`LockDeadlockError`.  Without a scheduler (or with
  ``ServerConfig.blocking_locks=False``) conflicts keep the historical
  fail-fast behaviour and raise :class:`LockConflictError` immediately.
"""

import contextlib

from repro.analysis.races import tap as _race_tap
from repro.common.errors import ReproError
from repro.profiling.metrics import NULL_METRICS
from repro.storage.exthash import ExtensibleHashTable

# Table lock modes (multi-granularity; row locks are always exclusive).
IX = "IX"  # intent to lock rows exclusively (DML)
S = "S"    # shared table lock (utilities; no reader takes it today)
X = "X"    # table-exclusive (DDL)

_COMPATIBLE = {
    (IX, IX): True, (IX, S): False, (IX, X): False,
    (S, IX): False, (S, S): True, (S, X): False,
    (X, IX): False, (X, S): False, (X, X): False,
}
_MODE_RANK = {IX: 1, S: 1, X: 2}

#: Discriminator for table-lock keys in the waiter queues; row keys are
#: ``(table, page_ordinal, slot)`` 3-tuples, table keys ``(_TABLE, name)``.
_TABLE = "table"


class LockConflictError(ReproError):
    """The lock is held by another transaction (fail-fast path)."""

    def __init__(self, key, holder_txn, message=None):
        super().__init__(
            message
            or "lock %r is held by transaction(s) %r" % (key, holder_txn)
        )
        self.key = key
        self.holder_txn = holder_txn


class LockDeadlockError(LockConflictError):
    """This transaction was chosen as the deadlock (or stall) victim.

    Subclasses :class:`LockConflictError` so every statement-level abort
    path that already absorbs lock conflicts absorbs victims too.
    """

    def __init__(self, key, txn_id, cycle=()):
        super().__init__(
            key, None,
            message="transaction %r aborted as deadlock victim on %r"
            " (cycle %r)" % (txn_id, key, tuple(cycle)),
        )
        self.txn_id = txn_id
        self.cycle = tuple(cycle)


class LockWaiter:
    """One parked lock request, queued on the contended key."""

    __slots__ = ("txn_id", "key", "mode", "session", "granted", "victim")

    def __init__(self, txn_id, key, mode):
        self.txn_id = txn_id
        self.key = key
        self.mode = mode
        self.session = None
        self.granted = False
        self.victim = False

    def describe(self):
        if self.key[0] is _TABLE:
            return "table:%s mode=%s txn=%d" % (
                self.key[1], self.mode, self.txn_id
            )
        return "row:%s/%d.%d txn=%d" % (
            self.key[0], self.key[1], self.key[2], self.txn_id
        )

    def __repr__(self):
        return "LockWaiter(%s%s%s)" % (
            self.describe(),
            " granted" if self.granted else "",
            " victim" if self.victim else "",
        )


class LockManager:
    """Row and table locks per transaction, blocking under a scheduler."""

    def __init__(self, file, pool, metrics=None, scheduler_fn=None,
                 blocking=True, sanitize=False):
        self._table = ExtensibleHashTable(file, pool, name="lock-table")
        self._held = {}         # txn_id -> [row keys], acquisition order
        self._table_locks = {}  # table name -> {txn_id: mode}
        self._held_tables = {}  # txn_id -> [table names]
        self._waiters = {}      # key -> [LockWaiter], arrival order
        self._waits_for = {}    # blocked txn_id -> {txn ids it waits on}
        self.blocking = bool(blocking)
        self.sanitize = bool(sanitize)
        self._scheduler_fn = scheduler_fn or (lambda: None)
        self.races = None  # RaceSanitizer, attached by the server
        # Plain attributes mirror the counters so the manager is fully
        # inspectable without a registry.
        self.conflicts = 0
        self.waits = 0
        self.deadlocks = 0
        self.stalls = 0
        self.release_misses = 0
        metrics = metrics or NULL_METRICS
        self._m_conflicts = metrics.counter("locks.conflicts")
        self._m_waits = metrics.counter("locks.waits")
        self._m_deadlocks = metrics.counter("locks.deadlocks")
        self._m_stalls = metrics.counter("locks.stalls")
        self._m_release_miss = metrics.counter("locks.release_miss")
        metrics.register_probe(
            "locks.table_pages", lambda: self.lock_table_pages
        )

    # ------------------------------------------------------------------ #
    # acquisition
    # ------------------------------------------------------------------ #

    def acquire(self, txn_id, table_name, row_id):
        """Take an exclusive row lock; re-acquisition by the holder is free.

        The row lock is covered by an implicit table ``IX`` lock, taken
        on the transaction's first touch of the table.  On conflict the
        caller parks (scheduler armed) or raises (fail-fast).
        """
        self.acquire_table(txn_id, table_name, IX)
        key = (table_name, row_id.page_ordinal, row_id.slot)
        with self._critical(), _race_tap(
            self.races, "locks", key, "w", txn_id=txn_id
        ):
            holder = self._table.get(key)
            if holder == txn_id:
                return
            if holder is None and key not in self._waiters:
                self._install(key, txn_id, X)
                return
            blockers = set()
            if holder is not None:
                blockers.add(holder)
            blockers.update(
                w.txn_id for w in self._waiters.get(key, ())
                if w.txn_id != txn_id
            )
        self._wait(txn_id, key, X, blockers)

    def acquire_table(self, txn_id, table_name, mode=IX):
        """Take (or upgrade to) a table-level lock.

        Holding ``X`` covers any request; an ``IX`` holder upgrading to
        ``X`` waits for the other holders to drain (upgrade deadlocks are
        cycles like any other).  Queued incompatible waiters block new
        requests too — no barging past a parked DDL statement.
        """
        with self._critical(), _race_tap(
            self.races, "locks", (_TABLE, table_name), "w", txn_id=txn_id
        ):
            holders = self._table_locks.get(table_name, {})
            held = holders.get(txn_id)
            if held is not None and (held == X or held == mode):
                return
            key = (_TABLE, table_name)
            blockers = {
                t for t, m in holders.items()
                if t != txn_id and not _COMPATIBLE[(m, mode)]
            }
            blockers.update(
                w.txn_id for w in self._waiters.get(key, ())
                if w.txn_id != txn_id and not _COMPATIBLE[(w.mode, mode)]
            )
            if not blockers:
                self._install(key, txn_id, mode)
                return
        self._wait(txn_id, key, mode, blockers)

    # ------------------------------------------------------------------ #
    # release
    # ------------------------------------------------------------------ #

    def release_all(self, txn_id):
        """Drop every lock of ``txn_id`` (commit/rollback), handing each
        freed lock to a waiter drawn from the seeded wakeup stream."""
        for key in self._held.pop(txn_id, []):
            with self._critical(), _race_tap(
                self.races, "locks", key, "w", txn_id=txn_id
            ):
                try:
                    self._table.remove(key)
                except KeyError:
                    # _held says this txn holds the row but the lock
                    # table disagrees: bookkeeping divergence.  Counted,
                    # and fatal under the sanitizers.
                    self.release_misses += 1
                    self._m_release_miss.inc()
                    if self.sanitize:
                        from repro.analysis.sanitizers import (
                            LockInvariantError,
                        )

                        raise LockInvariantError(
                            "release of %r by txn %r missed the lock table"
                            % (key, txn_id)
                        )
                    continue
                self._grant_next(key)
        for table_name in self._held_tables.pop(txn_id, []):
            with self._critical(), _race_tap(
                self.races, "locks", (_TABLE, table_name), "w", txn_id=txn_id
            ):
                holders = self._table_locks.get(table_name)
                if holders is not None:
                    holders.pop(txn_id, None)
                    if not holders:
                        del self._table_locks[table_name]
                self._grant_next((_TABLE, table_name))
        if self._waits_for:
            for edges in self._waits_for.values():
                edges.discard(txn_id)

    # ------------------------------------------------------------------ #
    # blocking internals
    # ------------------------------------------------------------------ #

    def _wait(self, txn_id, key, mode, blockers):
        self.conflicts += 1
        self._m_conflicts.inc()
        scheduler = self._scheduler_fn()
        if (
            not self.blocking
            or scheduler is None
            or not scheduler.can_wait()
        ):
            raise LockConflictError(key, tuple(sorted(blockers)))
        waiter = LockWaiter(txn_id, key, mode)
        with _race_tap(self.races, "locks", key, "w", txn_id=txn_id):
            self._waiters.setdefault(key, []).append(waiter)
            self._waits_for[txn_id] = set(blockers)
        self.waits += 1
        self._m_waits.inc()
        cycle = self._find_cycle(txn_id)
        if cycle is not None:
            self._on_deadlock(txn_id, waiter, cycle)
        try:
            # The park *is* the protocol: the waiter queue and waits-for
            # edge must be published before the baton is handed over so
            # release_all can grant us and the detector can see the edge.
            scheduler.wait_for_lock(waiter)  # noqa: SIM011
        finally:
            if not waiter.granted:
                self._unqueue(waiter)
            self._waits_for.pop(txn_id, None)
        if waiter.victim:
            raise LockDeadlockError(key, txn_id)

    def _on_deadlock(self, txn_id, waiter, cycle):
        self.deadlocks += 1
        self._m_deadlocks.inc()
        victim = max(cycle)  # youngest transaction — deterministic
        if victim == txn_id:
            self._unqueue(waiter)
            self._waits_for.pop(txn_id, None)
            raise LockDeadlockError(waiter.key, txn_id, cycle)
        self._victimize(victim)

    def _victimize(self, victim_txn):
        waiter = self._find_waiter(victim_txn)
        if waiter is None:
            raise ReproError(
                "deadlock victim txn %r has no parked lock request"
                % (victim_txn,)
            )
        waiter.victim = True
        self._unqueue(waiter)
        self._waits_for.pop(victim_txn, None)

    def victimize_stalled(self, waiter):
        """Break an external-holder stall: the scheduler aborts a waiter
        whose holder lives outside the scheduled session set (a plain
        driver connection that will never run while sessions park)."""
        self.stalls += 1
        self._m_stalls.inc()
        waiter.victim = True
        self._unqueue(waiter)
        self._waits_for.pop(waiter.txn_id, None)

    def _find_cycle(self, start):
        """A waits-for cycle through ``start`` as a txn-id list, or None.

        Edges are only ever added from the blocking transaction, so any
        new cycle passes through ``start``; neighbours are explored in
        sorted order for a deterministic cycle report.
        """
        stack = [(start, (start,))]
        seen = set()
        while stack:
            node, path = stack.pop()
            for nxt in sorted(self._waits_for.get(node, ())):
                if nxt == start:
                    return list(path)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + (nxt,)))
        return None

    def _find_waiter(self, txn_id):
        for queue in self._waiters.values():
            for waiter in queue:
                if waiter.txn_id == txn_id and not waiter.granted:
                    return waiter
        return None

    def _unqueue(self, waiter):
        queue = self._waiters.get(waiter.key)
        if queue is None:
            return
        if waiter in queue:
            queue.remove(waiter)
        if not queue:
            del self._waiters[waiter.key]

    def _grant_next(self, key):
        """Grant a freed lock to queued waiters.

        Rows grant exactly one waiter (locks are exclusive); tables keep
        granting while the next drawn waiter stays compatible with the
        holders.  Remaining waiters re-point their waits-for edges at
        the new holder so the deadlock detector keeps seeing the truth.
        """
        queue = self._waiters.get(key)
        if not queue:
            return
        while queue:
            grantable = [w for w in queue if self._grantable(key, w)]
            if not grantable:
                return
            waiter = grantable[self._draw_wakeup(len(grantable))]
            self._install(key, waiter.txn_id, waiter.mode)
            queue.remove(waiter)
            if not queue:
                del self._waiters[key]
            waiter.granted = True
            self._waits_for.pop(waiter.txn_id, None)
            for other in queue:
                edges = self._waits_for.get(other.txn_id)
                if edges is not None:
                    edges.add(waiter.txn_id)

    def _grantable(self, key, waiter):
        if key[0] is not _TABLE or len(key) == 3:
            return self._table.get(key) is None
        holders = self._table_locks.get(key[1], {})
        return all(
            t == waiter.txn_id or _COMPATIBLE[(m, waiter.mode)]
            for t, m in holders.items()
        )

    def _install(self, key, txn_id, mode):
        if key[0] is not _TABLE or len(key) == 3:
            if self.sanitize:
                current = self._table.get(key)
                if current is not None and current != txn_id:
                    from repro.analysis.sanitizers import LockInvariantError

                    raise LockInvariantError(
                        "granting row lock %r to txn %r over live holder %r"
                        % (key, txn_id, current)
                    )
            self._table.put(key, txn_id)
            self._held.setdefault(txn_id, []).append(key)
            return
        table_name = key[1]
        holders = self._table_locks.setdefault(table_name, {})
        held = holders.get(txn_id)
        if held is None:
            holders[txn_id] = mode
            self._held_tables.setdefault(txn_id, []).append(table_name)
        elif _MODE_RANK[mode] > _MODE_RANK[held]:
            holders[txn_id] = mode

    def _draw_wakeup(self, n):
        if n <= 1:
            return 0
        scheduler = self._scheduler_fn()
        if scheduler is not None:
            return scheduler.draw_lock_wakeup(n)
        return 0

    def _critical(self):
        """Suppress scheduler switches while lock metadata is mid-update.

        Lock-table pages flow through the buffer pool, so a probe can
        miss and hit the pool's yield hook; a baton switch between a
        probe and its matching install would let two sessions grant
        themselves the same lock.
        """
        scheduler = self._scheduler_fn()
        if scheduler is None:
            return contextlib.nullcontext()
        return scheduler.critical_section()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def guard_tokens(self, txn_id):
        """Lockset tokens for the race sanitizer: every row and table
        lock ``txn_id`` currently holds."""
        tokens = set(self._held.get(txn_id, ()))
        tokens.update(
            (_TABLE, name) for name in self._held_tables.get(txn_id, ())
        )
        return tokens

    def total_locks(self):
        """Row locks across all transactions (table locks not counted)."""
        return len(self._table)

    def table_lock_mode(self, txn_id, table_name):
        return self._table_locks.get(table_name, {}).get(txn_id)

    def waiting_count(self):
        return sum(len(queue) for queue in self._waiters.values())

    @property
    def lock_table_pages(self):
        """Pages backing the lock table (grows on demand, never sized)."""
        return self._table.bucket_pages
