"""Synchronization sessions between a remote and a consolidated server.

The protocol is log-shipping by logical primary key:

1. **Upload**: committed data changes in the remote's transaction log past
   the last synchronized LSN are replayed against the consolidated
   database, keyed by primary key (physical row ids differ per site).
2. **Download**: the consolidated side's changes past its own watermark
   are replayed against the remote the same way.
3. **Conflicts**: an upload UPDATE whose pre-image no longer matches the
   consolidated row (someone changed it there since the last sync) is a
   conflict, resolved by policy: ``consolidated-wins`` discards the remote
   change (the consolidated value flows down), ``remote-wins`` applies it
   anyway.

Changes applied *by* synchronization are logged normally (they must be as
durable as any other write) but are remembered by transaction id so the
next session does not echo them back.
"""

from repro.common.errors import ExecutionError, ReproError
from repro.storage.log import DELETE as LOG_DELETE
from repro.storage.log import INSERT as LOG_INSERT
from repro.storage.log import UPDATE as LOG_UPDATE


class ConflictPolicy:
    CONSOLIDATED_WINS = "consolidated-wins"
    REMOTE_WINS = "remote-wins"


class SyncConflict:
    """One detected update/update (or update/delete) conflict."""

    def __init__(self, table, pk, remote_row, consolidated_row, resolution):
        self.table = table
        self.pk = pk
        self.remote_row = remote_row
        self.consolidated_row = consolidated_row
        self.resolution = resolution

    def __repr__(self):
        return "SyncConflict(%s pk=%r -> %s)" % (
            self.table, self.pk, self.resolution
        )


class SyncStats:
    """Outcome of one synchronization session."""

    def __init__(self):
        self.uploaded = 0
        self.downloaded = 0
        self.conflicts = []

    def __repr__(self):
        return "SyncStats(up=%d, down=%d, conflicts=%d)" % (
            self.uploaded, self.downloaded, len(self.conflicts)
        )


class SyncSession:
    """A persistent subscription between one remote and one consolidated
    server, covering a set of tables (each table must have a primary key
    and identical schemas on both sides)."""

    def __init__(self, remote, consolidated, tables,
                 conflict_policy=ConflictPolicy.CONSOLIDATED_WINS):
        self.remote = remote
        self.consolidated = consolidated
        self.tables = list(tables)
        self.conflict_policy = conflict_policy
        self._remote_watermark = -1
        self._consolidated_watermark = -1
        #: Transaction ids created by sync application, per server id,
        #: excluded from future uploads/downloads (no echo).
        self._sync_txns = {id(remote): set(), id(consolidated): set()}
        for table_name in self.tables:
            for server in (remote, consolidated):
                schema = server.catalog.table(table_name)
                if not schema.primary_key:
                    raise ReproError(
                        "synchronized table %r needs a primary key"
                        % (table_name,)
                    )

    # ------------------------------------------------------------------ #
    # the session
    # ------------------------------------------------------------------ #

    def synchronize(self):
        """One full upload+download round; returns :class:`SyncStats`.

        Both sides must be quiescent (no open transactions touching the
        subscribed tables), as in a real synchronization window.
        """
        stats = SyncStats()
        upload = self._changes_since(self.remote, self._remote_watermark)
        download = self._changes_since(
            self.consolidated, self._consolidated_watermark
        )
        # Upload first; conflicts are decided against the consolidated
        # database's pre-sync state ("the consolidated database is the
        # system of record").
        self._apply(
            upload, self.consolidated, stats, direction="upload",
        )
        stats.uploaded = len(upload)
        self._apply(
            download, self.remote, stats, direction="download",
        )
        stats.downloaded = len(download)
        # Watermarks advance past everything now in the logs (including
        # the rows sync itself just wrote, which are filtered by txn id).
        self._remote_watermark = self.remote.txn_log.durable_lsn
        self._consolidated_watermark = self.consolidated.txn_log.durable_lsn
        return stats

    # ------------------------------------------------------------------ #
    # change capture
    # ------------------------------------------------------------------ #

    def _changes_since(self, server, watermark):
        excluded = self._sync_txns[id(server)]
        return [
            record
            for record in server.txn_log.redo_records()
            if record.lsn > watermark
            and record.table in self.tables
            and record.txn_id not in excluded
        ]

    # ------------------------------------------------------------------ #
    # change application
    # ------------------------------------------------------------------ #

    def _apply(self, records, target, stats, direction):
        if not records:
            return
        connection = target.connect()
        try:
            txn_id = connection.begin()
            self._sync_txns[id(target)].add(txn_id)
            for record in records:
                self._apply_one(record, target, txn_id, stats, direction)
            connection.commit()
        except Exception:
            connection.rollback()
            raise
        finally:
            connection.close()

    def _apply_one(self, record, target, txn_id, stats, direction):
        table = target.catalog.table(record.table)
        pk_of = _pk_extractor(table)
        if record.kind == LOG_INSERT:
            pk = pk_of(record.after)
            existing = _find_by_pk(target, table, pk)
            if existing is not None:
                # Insert/insert conflict: treat as an update of the row.
                self._resolve_update(
                    record, target, table, pk, existing, txn_id, stats,
                    direction,
                )
                return
            target.apply_change(txn_id, table, None, None, record.after)
        elif record.kind == LOG_UPDATE:
            pk = pk_of(record.after)
            existing = _find_by_pk(target, table, pk_of(record.before))
            if existing is None:
                # Update/delete conflict: the row vanished on the target.
                resolution = self._record_conflict(
                    record.table, pk, record.after, None, stats
                )
                if resolution == ConflictPolicy.REMOTE_WINS and (
                    direction == "upload"
                ):
                    target.apply_change(
                        txn_id, table, None, None, record.after
                    )
                return
            row_id, current = existing
            if direction == "upload" and tuple(current) != tuple(record.before):
                # Update/update conflict: the target diverged too.
                self._resolve_update(
                    record, target, table, pk, existing, txn_id, stats,
                    direction,
                )
                return
            self._do_write(target, table, row_id, record.after, txn_id)
        elif record.kind == LOG_DELETE:
            existing = _find_by_pk(target, table, pk_of(record.before))
            if existing is None:
                return  # deleted on both sides: nothing to do
            self._do_write(target, table, existing[0], None, txn_id)

    def _resolve_update(self, record, target, table, pk, existing, txn_id,
                        stats, direction):
        row_id, current = existing
        resolution = self._record_conflict(
            record.table, pk, record.after, current, stats
        )
        remote_change_applies = (
            resolution == ConflictPolicy.REMOTE_WINS
            if direction == "upload"
            else resolution == ConflictPolicy.CONSOLIDATED_WINS
        )
        if remote_change_applies:
            self._do_write(target, table, row_id, record.after, txn_id)

    def _record_conflict(self, table_name, pk, remote_row, consolidated_row,
                         stats):
        conflict = SyncConflict(
            table_name, pk, remote_row, consolidated_row,
            self.conflict_policy,
        )
        stats.conflicts.append(conflict)
        return self.conflict_policy

    # -- scheduler integration -------------------------------------------- #

    def scheduled_statement(self):
        """This session as a workload-scheduler statement item.

        Scheduled as a callable session item, the whole round runs under
        the scheduler's yield discipline on the scheduled thread: its
        row-lock acquisitions park at the lock-wait yield point and its
        commits park at the group-commit yield point — so the crash
        harness can kill the server mid-sync, inside a commit or while
        lock queues are deep.
        """
        def run_sync(conn):
            self.synchronize()
        run_sync.__name__ = "sync.synchronize"
        return run_sync

    # -- writes on the target ---------------------------------------------- #

    def _do_write(self, target, table, row_id, new_row, txn_id):
        """Overwrite the row at ``row_id`` (``new_row=None`` deletes it)."""
        target.lock_manager.acquire(txn_id, table.name, row_id)
        # The acquire may have parked this session: the row may have
        # changed (or vanished) while it waited, so re-read under the lock.
        old_row = table.storage.get(row_id)
        target.apply_change(txn_id, table, row_id, old_row, new_row)


# --------------------------------------------------------------------- #
# primary-key plumbing
# --------------------------------------------------------------------- #

def _pk_extractor(table):
    indexes = [table.column_index(name) for name in table.primary_key]

    def extract(row):
        return tuple(row[i] for i in indexes)

    return extract


def _find_by_pk(server, table, pk):
    """(row_id, row) for the primary key, via the pk index if present."""
    pk_index_name = "pk_%s" % table.name
    try:
        index = server.catalog.index(pk_index_name)
    except Exception:
        index = None
    if index is not None and index.btree is not None:
        for __, row_id in index.btree.prefix_scan(pk):
            try:
                return row_id, table.storage.get(row_id)
            except ExecutionError:
                continue
    extract = _pk_extractor(table)
    for row_id, row in table.storage.scan():
        if extract(row) == pk:
            return row_id, row
    return None
