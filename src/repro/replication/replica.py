"""The replica: a standby server applying a shipped WAL stream.

A :class:`Replica` wraps a full :class:`~repro.engine.server.Server`
that shares the cluster's simulated clock but owns its own disk, buffer
pool, catalog, and metrics registry.  It never runs transactions of its
own; instead it:

* **receives** frames from its network link — the mirrored page image is
  written into the replica's own log file *immediately* (durable
  receipt, what the primary's commit ack waits for), while the frame
  queues in the inbox until its simulated arrival time (latency delays
  apply visibility, never durability);
* **applies** deliverable frames strictly in LSN order through the same
  per-page-LSN idempotent redo recovery uses
  (:meth:`~repro.storage.rowstore.TableStorage.redo_apply`), driving the
  row-version chains from the record stream so snapshot reads on the
  replica see exactly the committed prefix at its applied-LSN watermark;
* **checkpoints** on its own cadence: dirty applied pages are flushed
  and the mirrored log's master record is pointed at the newest shipped
  checkpoint pair wholly at or below the applied LSN, bounding how much
  of the mirrored log a promotion must rescan;
* **promotes** by reusing the crash/restart machinery wholesale: the
  mirrored log *is* a crashed primary's log, so
  ``server.crash(tear_tail=False)`` + ``server.restart()`` recovers the
  committed prefix, rolls back in-flight losers with compensation
  records appended past the dead primary's tail, and rebuilds indexes.

Standby indexes are never maintained during apply (redo is heap-only),
so a standby server plans no index access at all — no index scan, no
index nested-loops join, no hash-join alternate — until promotion's
restart rebuilds its B-trees.
"""

import collections

from repro.common.errors import ReproError
from repro.storage.log import (
    BEGIN,
    CKPT_BEGIN,
    CKPT_END,
    COMMIT,
    DELETE,
    INSERT,
    ROLLBACK,
    UPDATE,
    LogRecord,
    master_image,
    page_for_lsn,
    tear_page,
)

_Inflight = collections.namedtuple("_Inflight", ["arrival_us", "frame"])


class ReplicationProtocolError(ReproError):
    """A frame arrived out of order — the link contract was violated."""


class Replica:
    """One standby node: mirrored log, continuous redo, snapshot reads."""

    def __init__(self, name, server, checkpoint_every_frames=32):
        self.name = name
        self.server = server
        #: Kept open for the replica's lifetime: the server must never
        #: see its connection count hit zero, or auto-shutdown would
        #: write checkpoint records into the mirrored log.
        self._conn = server.connect()
        self.inbox = collections.deque()
        #: Highest LSN durably received (mirrored into the log file).
        self.received_lsn = -1
        #: Highest LSN applied to the replica's pages and version chains.
        self.applied_lsn = -1
        self.frames_received = 0
        self.records_applied = 0
        self.checkpoints = 0
        self.promoted = False
        self.committed = set()
        self._page_index = []
        self._pending_ckpt_begin = None
        self._ckpt_pairs = []
        self._frames_since_ckpt = 0
        self.checkpoint_every_frames = int(checkpoint_every_frames)
        self._start_us = server.clock.now
        # Standby pool discipline: dirty applied pages carry the apply
        # watermark, and write-back needs no log force — every record
        # a page image reflects is already durable in the mirrored log.
        server.pool.lsn_fn = lambda: self.applied_lsn + 1
        server.pool.wal_fn = lambda: 0
        metrics = server.metrics
        self._m_frames = metrics.counter("repl.frames_received")
        self._m_records = metrics.counter("repl.records_applied")
        self._m_ckpts = metrics.counter("repl.checkpoints")
        metrics.register_probe("repl.lag_lsn", self.lag_lsn)
        metrics.register_probe("repl.lag_us", self.lag_us)
        metrics.register_probe("repl.apply_rate", self.apply_rate)

    def __repr__(self):
        return "Replica(%r, received=%d, applied=%d, promoted=%r)" % (
            self.name, self.received_lsn, self.applied_lsn, self.promoted
        )

    # ------------------------------------------------------------------ #
    # standby setup
    # ------------------------------------------------------------------ #

    def execute_ddl(self, sql):
        """Apply one setup statement (DDL) through the kept connection."""
        return self._conn.execute(sql)

    def enter_standby(self):
        """Plan without indexes for the standby's lifetime: apply is
        heap-only redo, so the B-trees go stale with the first shipped
        DML and stay stale until promotion rebuilds them."""
        self.server.standby = True

    # ------------------------------------------------------------------ #
    # receive (durable) and apply (deferred to arrival)
    # ------------------------------------------------------------------ #

    def receive(self, frame, arrival_us):
        """Durably mirror one frame; queue it for apply at ``arrival_us``."""
        if frame.first_lsn != self.received_lsn + 1:
            raise ReplicationProtocolError(
                "replica %r received frame at LSN %d, expected %d"
                % (self.name, frame.first_lsn, self.received_lsn + 1)
            )
        log_file = self.server.log_file
        if log_file.page_count == 0:
            page_no = log_file.allocate_page()
            log_file.write(page_no, master_image(-1, -1))
        while log_file.page_count <= frame.page_no:
            log_file.allocate_page()
        log_file.write(frame.page_no, frame.payload)
        self.inbox.append(_Inflight(arrival_us, frame))
        self.received_lsn = frame.last_lsn
        self.frames_received += 1
        self._m_frames.inc()

    def has_deliverable(self):
        return bool(self.inbox) and (
            self.inbox[0].arrival_us <= self.server.clock.now
        )

    def next_arrival_us(self):
        return self.inbox[0].arrival_us if self.inbox else None

    def apply_one(self):
        """Apply the oldest deliverable frame; returns records applied."""
        if not self.has_deliverable():
            return 0
        return self._apply_frame(self.inbox.popleft().frame)

    def apply_pending(self):
        """Apply every frame whose arrival time has passed."""
        applied = 0
        while self.has_deliverable():
            applied += self.apply_one()
        return applied

    def drain(self):
        """Apply every received frame regardless of arrival time (used at
        failover and at end-of-run verification: the frames are already
        durable here, only their apply visibility was still in flight)."""
        applied = 0
        while self.inbox:
            applied += self._apply_frame(self.inbox.popleft().frame)
        return applied

    def _apply_frame(self, frame):
        server = self.server
        applied = 0
        for raw in frame.payload["records"]:
            record = LogRecord(*raw)
            kind = record.kind
            if kind in (INSERT, UPDATE, DELETE):
                try:
                    table = server.catalog.table(record.table)
                except Exception:
                    table = None
                if table is not None and table.storage is not None:
                    # Version chain first, heap second — the same order
                    # the primary's writers use, so snapshot readers on
                    # the replica never see a stamped heap image without
                    # its before-image.
                    server.versions.note_write(
                        table.storage, record.row_id, record.before,
                        record.txn_id,
                    )
                    table.storage.redo_apply(record)
                    # The stream applies each record exactly once in LSN
                    # order, so slot bookkeeping can ride along instead
                    # of waiting for promotion's full rescan — the
                    # standby's optimizer then costs real cardinalities.
                    if kind == INSERT:
                        table.storage.row_count += 1
                    elif kind == DELETE:
                        table.storage.row_count -= 1
            elif kind == COMMIT:
                server.versions.commit(record.txn_id, record.lsn)
                self.committed.add(record.txn_id)
            elif kind == ROLLBACK:
                server.versions.rollback(record.txn_id)
                self.committed.discard(record.txn_id)
            elif kind == CKPT_BEGIN:
                self._pending_ckpt_begin = record
            elif kind == CKPT_END:
                pending = self._pending_ckpt_begin
                if (
                    pending is not None
                    and pending.lsn == record.after["begin_lsn"]
                ):
                    self._ckpt_pairs.append((pending.lsn, record.lsn))
                self._pending_ckpt_begin = None
            elif kind == BEGIN:
                pass
            self.applied_lsn = record.lsn
            applied += 1
        self.records_applied += applied
        self._m_records.inc(applied)
        self._page_index.append((frame.page_no, frame.first_lsn))
        self._frames_since_ckpt += 1
        if self._frames_since_ckpt >= self.checkpoint_every_frames:
            self.checkpoint()
        return applied

    # ------------------------------------------------------------------ #
    # replica checkpoints
    # ------------------------------------------------------------------ #

    def checkpoint(self):
        """Flush applied pages and republish the mirrored master record.

        The master may only name a checkpoint whose BEGIN/END pair is
        *wholly* applied: every page dirtied before that BEGIN is on the
        replica's volume after this flush, so a promotion scanning from
        there redoes nothing it cannot redo idempotently.
        """
        self._frames_since_ckpt = 0
        flushed = self.server.pool.flush_all()
        chosen = None
        for begin_lsn, end_lsn in reversed(self._ckpt_pairs):
            if end_lsn <= self.applied_lsn:
                chosen = begin_lsn
                break
        if chosen is not None:
            page_no = page_for_lsn(self._page_index, chosen)
            if page_no is not None:
                self.server.log_file.write(
                    0, master_image(chosen, page_no)
                )
        self.checkpoints += 1
        self._m_ckpts.inc()
        return flushed

    # ------------------------------------------------------------------ #
    # promotion and damage injection
    # ------------------------------------------------------------------ #

    def promote(self):
        """Become the primary: recover the mirrored log as if this node
        were a crashed primary.  Returns the RecoveryReport."""
        self.drain()
        server = self.server
        server.crash(tear_tail=False)
        report = server.restart()
        server.standby = False
        self.promoted = True
        self.applied_lsn = server.txn_log.durable_lsn
        # Union, not replace: a replica checkpoint may have moved the
        # mirrored master forward, so the post-restart scan only confirms
        # post-checkpoint commits; the apply-time set still holds the
        # full committed history of the received stream.
        self.committed |= set(server.txn_log.committed_txns())
        return report

    def tear_tail(self):
        """Corrupt the last mirrored log page, as a receive interrupted by
        this replica's own death would: copy-on-write into this node's
        volume only (the frame object is shared with the primary)."""
        return bool(self._page_index) and tear_page(
            self.server.log_file, self._page_index[-1][0]
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def lag_lsn(self):
        """Records durably received but not yet applied."""
        return max(0, self.received_lsn - self.applied_lsn)

    def lag_us(self):
        """Age of the oldest deliverable-but-unapplied frame."""
        if not self.inbox:
            return 0
        return max(0, self.server.clock.now - self.inbox[0].arrival_us)

    def apply_rate(self):
        """Applied records per simulated second since standby start."""
        elapsed = max(1, self.server.clock.now - self._start_us)
        return int(self.records_applied * 1_000_000 / elapsed)
