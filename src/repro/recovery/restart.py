"""Restart recovery: ARIES-lite analysis / redo / undo.

The recovery contract is *committed-exactly*: after a crash, restart
rebuilds the database so that every committed transaction's effects are
present and no loser's are.  The passes follow ARIES in miniature:

**analysis**
    The reopened log (scanned from the last complete checkpoint via the
    master record) names the loser transactions — those with a BEGIN but
    no COMMIT/ROLLBACK.  If a loser was already active at the checkpoint
    its change records may predate the scan window, so analysis falls
    back to a full log scan to get complete undo chains.

**redo**
    History repeats: *every* data-change record in the window — winners,
    losers, and the compensation records of runtime rollbacks — is
    reapplied through the per-page LSN guard
    (:meth:`~repro.storage.rowstore.TableStorage.redo_apply`), so pages
    that were flushed before the crash are never double-applied.

**undo**
    Losers are rolled back newest-first from their before-images.  Each
    undo write is itself logged as a compensation record before the
    loser's ROLLBACK, so a crash *during* recovery just re-runs redo over
    the compensations.  Loser slots cannot have been reused by winners:
    the locks guarding them died with the process, still held.

Indexes are volatile casualties of the crash; they are rebuilt from the
recovered heaps.  Recovery work is priced on the simulated clock by the
devices themselves, which is what lets the checkpoint governor compare
its recovery-time *estimate* against measured restarts.
"""

import dataclasses

from repro.analysis import sanitizers
from repro.storage.btree import BTree
from repro.storage.log import (
    DELETE as LOG_DELETE,
    INSERT as LOG_INSERT,
    TransactionLog,
    UPDATE as LOG_UPDATE,
)

_CHANGE_KINDS = (LOG_INSERT, LOG_UPDATE, LOG_DELETE)

#: Inverse record shapes for undo compensation logging:
#: kind -> (compensation kind, before from, after from).
_INVERSE = {
    LOG_INSERT: LOG_DELETE,
    LOG_DELETE: LOG_INSERT,
    LOG_UPDATE: LOG_UPDATE,
}


@dataclasses.dataclass
class RecoveryReport:
    """What one restart recovery did (returned by ``Server.restart``)."""

    log_records_scanned: int = 0
    full_rescan: bool = False
    torn_pages_dropped: int = 0
    redo_records: int = 0
    redo_applied: int = 0
    undo_records: int = 0
    losers_aborted: int = 0
    tables_rebuilt: int = 0
    indexes_rebuilt: int = 0
    duration_us: int = 0


class RecoveryManager:
    """Runs the restart passes against a crashed server's surviving state.

    The server has already been through ``Server.crash()``: the pool is
    empty, the log was reopened from its durable pages, and every table's
    storage was reattached to the surviving file pages.
    """

    def __init__(self, server):
        self.server = server

    def run(self):
        server = self.server
        start_us = server.clock.now
        report = RecoveryReport()
        log = self._analysis(report)
        losers = log.active_txns()
        records = log.loaded_records()
        report.log_records_scanned = len(records)
        report.torn_pages_dropped = log.torn_pages_dropped

        self._redo(records, report)
        if server.sanitize:
            self._assert_redo_idempotent(records)
        self._undo(records, losers, report)
        self._rebuild(report)
        self._bump_txn_ids(records)
        server.checkpoint()

        report.duration_us = server.clock.now - start_us
        self._publish(report, losers)
        return report

    # ------------------------------------------------------------------ #
    # passes
    # ------------------------------------------------------------------ #

    def _analysis(self, report):
        """Pick the log window undo can trust, rescanning if needed."""
        server = self.server
        log = server.txn_log
        ckpt = log.last_checkpoint
        if (
            log.base_lsn > 0
            and ckpt is not None
            and log.active_txns() & set(ckpt.after["active"])
        ):
            # A loser predates the checkpoint: its undo chain may extend
            # before the scan window.  Reread the whole log.
            log = TransactionLog.open(
                server.log_file, metrics=server.metrics,
                fault_plan=server.fault_plan, full_scan=True,
            )
            server.txn_log = log
            report.full_rescan = True
        return log

    def _redo(self, records, report):
        catalog = self.server.catalog
        for record in records:
            if record.kind not in _CHANGE_KINDS:
                continue
            if not catalog.has_table(record.table):
                # DDL is not logged; records for since-dropped tables
                # have nothing to land on.
                continue
            report.redo_records += 1
            if catalog.table(record.table).storage.redo_apply(record):
                report.redo_applied += 1

    def _undo(self, records, losers, report):
        server = self.server
        log = server.txn_log
        loser_changes = [
            record for record in records
            if record.txn_id in losers and record.kind in _CHANGE_KINDS
        ]
        for record in reversed(loser_changes):
            if not server.catalog.has_table(record.table):
                continue
            storage = server.catalog.table(record.table).storage
            lsn = log.peek_next_lsn()
            storage.undo_apply(record, lsn)
            log.log_change(
                record.txn_id, _INVERSE[record.kind], record.table,
                record.row_id, before=record.after, after=record.before,
            )
            report.undo_records += 1
        for txn_id in sorted(losers):
            log.rollback(txn_id)
            report.losers_aborted += 1
        if losers:
            log.force()

    def _rebuild(self, report):
        """Rescan heap metadata and rebuild every index from the rows."""
        server = self.server
        for table in server.catalog.tables():
            if table.storage is None:
                continue
            rows = table.storage.rescan_metadata()
            report.tables_rebuilt += 1
            indexes = [
                index
                for index in server.catalog.indexes_on(table.name)
                if not index.virtual and index.btree is not None
            ]
            for index in indexes:
                server.pool.discard(index.btree.file)
                index.btree.file.truncate()
                index.btree = BTree(
                    index.btree.file, server.pool, name=index.name
                )
                report.indexes_rebuilt += 1
            for row_id, row in rows:
                server._index_insert(table, row, row_id)

    def _bump_txn_ids(self, records):
        """New transactions must not collide with any logged id."""
        highest = 0
        for record in records:
            if isinstance(record.txn_id, int):
                highest = max(highest, record.txn_id)
        self.server._next_txn_id = max(self.server._next_txn_id, highest + 1)

    # ------------------------------------------------------------------ #
    # sanitizer: redo must be idempotent
    # ------------------------------------------------------------------ #

    def _assert_redo_idempotent(self, records):
        """Replaying redo a second time must change no page image."""
        server = self.server
        before = {
            table.name: table.storage.page_images()
            for table in server.catalog.tables()
            if table.storage is not None
        }
        reapplied = []
        for record in records:
            if record.kind not in _CHANGE_KINDS:
                continue
            if not server.catalog.has_table(record.table):
                continue
            if server.catalog.table(record.table).storage.redo_apply(record):
                reapplied.append(record.lsn)
        after = {
            table.name: table.storage.page_images()
            for table in server.catalog.tables()
            if table.storage is not None
        }
        if reapplied or before != after:
            changed = [
                "%s:%d" % (name, ordinal)
                for name, images in after.items()
                for ordinal, image in images.items()
                if before.get(name, {}).get(ordinal) != image
            ]
            raise sanitizers.RecoveryIdempotenceError(
                "redo is not idempotent: second pass reapplied LSNs %r and "
                "changed pages %r" % (reapplied[:10], changed[:10])
            )

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def _publish(self, report, losers):
        server = self.server
        metrics = server.metrics
        metrics.counter("recovery.runs").inc()
        metrics.counter("recovery.redo_records").inc(report.redo_records)
        metrics.counter("recovery.redo_applied").inc(report.redo_applied)
        metrics.counter("recovery.undo_records").inc(report.undo_records)
        metrics.counter("recovery.losers_aborted").inc(report.losers_aborted)
        metrics.gauge("recovery.last_duration_us").set(report.duration_us)
        metrics.gauge("recovery.last_records_scanned").set(
            report.log_records_scanned
        )
        if server.tracer is not None:
            server.tracer.record_system(
                "recovery", server.clock.now,
                "scanned=%d redo=%d undone=%d losers=%d duration_us=%d"
                % (
                    report.log_records_scanned, report.redo_applied,
                    report.undo_records, report.losers_aborted,
                    report.duration_us,
                ),
            )
