"""Server-wide coordination of row-version snapshots (MVCC-lite).

The storage layer keeps the per-table chains
(:class:`~repro.storage.rowstore.VersionEntry`); this manager owns the
transaction- and snapshot-level bookkeeping above them:

* writers call :meth:`note_write` just before each heap mutation, which
  records the before-image under the writer's transaction id;
* :meth:`commit` stamps those pending entries with the commit ticket's
  LSN — the WAL's own commit LSN is the version timestamp, no second
  clock — and :meth:`rollback` discards them;
* a read-only statement brackets execution with :meth:`open_snapshot` /
  :meth:`close_snapshot`; the snapshot *is* the last committed LSN, and
  resolution happens inside the storage scan, so readers take no locks
  and never queue behind writers;
* chains are purged up to the oldest open snapshot whenever a
  transaction or snapshot ends, bounding version memory.

Version-chain mutations are bracketed in race-sanitizer spans
(:mod:`repro.analysis.races`) when a sanitizer is attached, keyed by
``(storage, row)`` and guarded by the writer's held locks.
"""

from repro.analysis.races import tap as _race_tap
from repro.profiling.metrics import NULL_METRICS


class VersionManager:
    """Commit-LSN-keyed before-image versions across all tables."""

    def __init__(self, metrics=None):
        self._pending = {}   # txn_id -> [(storage, row_id), ...]
        self._storages = {}  # id(storage) -> storage with live chains
        self._snapshots = {}  # snapshot lsn -> open count
        self.races = None    # RaceSanitizer, attached by the server
        self.last_commit_lsn = 0
        self.recorded = 0
        self.purged = 0
        metrics = metrics or NULL_METRICS
        self._m_recorded = metrics.counter("versions.recorded")
        self._m_purged = metrics.counter("versions.purged")
        metrics.register_probe(
            "versions.active_snapshots",
            lambda: sum(self._snapshots.values()),
        )
        metrics.register_probe(
            "versions.rows_versioned", self.rows_versioned
        )

    # ------------------------------------------------------------------ #
    # writer side
    # ------------------------------------------------------------------ #

    def note_write(self, storage, row_id, before, txn_id):
        """Record the image ``txn_id`` is about to supersede at
        ``row_id`` (``before=None`` for an insert)."""
        with _race_tap(self.races, "versions", (id(storage), row_id),
                       "w", txn_id=txn_id):
            storage.remember_version(row_id, before, txn_id)
            self._pending.setdefault(txn_id, []).append((storage, row_id))
            self._storages[id(storage)] = storage
        self.recorded += 1
        self._m_recorded.inc()

    def commit(self, txn_id, commit_lsn):
        """Stamp ``txn_id``'s pending entries with its commit LSN and
        advance the snapshot horizon (also called with no pending work,
        e.g. bulk loads, purely to advance the horizon)."""
        for storage, row_id in self._pending.pop(txn_id, ()):
            with _race_tap(self.races, "versions", (id(storage), row_id),
                           "w", txn_id=txn_id):
                storage.stamp_version(row_id, txn_id, commit_lsn)
        if commit_lsn > self.last_commit_lsn:
            self.last_commit_lsn = commit_lsn
        self.purge()

    def rollback(self, txn_id):
        """Discard ``txn_id``'s pending entries (its heap mutations were
        undone by the compensation path, so the chains must forget it)."""
        for storage, row_id in self._pending.pop(txn_id, ()):
            with _race_tap(self.races, "versions", (id(storage), row_id),
                           "w", txn_id=txn_id):
                storage.discard_version(row_id, txn_id)
        self.purge()

    # ------------------------------------------------------------------ #
    # reader side
    # ------------------------------------------------------------------ #

    def open_snapshot(self):
        """Pin the current committed horizon; returns the snapshot LSN."""
        lsn = self.last_commit_lsn
        self._snapshots[lsn] = self._snapshots.get(lsn, 0) + 1
        return lsn

    def close_snapshot(self, lsn):
        count = self._snapshots.get(lsn, 0) - 1
        if count > 0:
            self._snapshots[lsn] = count
        else:
            self._snapshots.pop(lsn, None)
        self.purge()

    def oldest_snapshot(self):
        return min(self._snapshots) if self._snapshots else None

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def purge(self):
        """Drop version entries below the oldest open snapshot."""
        horizon = self.oldest_snapshot()
        dropped = 0
        for key in list(self._storages):
            storage = self._storages[key]
            dropped += storage.purge_versions(horizon)
            if not storage.has_versions():
                del self._storages[key]
        if dropped:
            self.purged += dropped
            self._m_purged.inc(dropped)
        return dropped

    def rows_versioned(self):
        return sum(s.version_count() for s in self._storages.values())

    def reset(self, last_commit_lsn=0):
        """Crash: chains and snapshots die with the process; the horizon
        restarts at the recovered log's durable LSN."""
        self._pending.clear()
        self._storages.clear()
        self._snapshots.clear()
        self.last_commit_lsn = int(last_commit_lsn)
