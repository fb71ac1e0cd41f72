"""Transaction log (write-ahead logging) with durable page framing.

Each database has "a separate transaction log file" (paper Section 1).
The log is an append-only sequence of records packed into checksummed,
LSN-stamped *log pages*:

``page 0``
    the **master record** — it remembers where the last complete
    checkpoint's BEGIN record lives so restart can start scanning there
    instead of at the head of the log;
``pages 1..n``
    data pages framed as ``{"first_lsn", "records", "checksum"}``.  The
    checksum (CRC-32 over the canonical repr) plus a first-LSN
    continuity check is what lets :meth:`TransactionLog.open` detect a
    *torn tail*: the page a crash interrupted mid-write fails
    validation and is dropped, along with everything after it.

COMMIT forces the tail to the device; the buffer pool's write-ahead
hook forces it again before any dirty data page is written back, so the
volume never holds a page image whose log records are not durable.

Fuzzy checkpoints are a CKPT_BEGIN/CKPT_END record pair: BEGIN carries
the active-transaction list and the dirty-page table, END seals the
pair and republishes the master record.  Restart recovery
(:mod:`repro.recovery.restart`) replays history from the last complete
checkpoint's BEGIN.
"""

import collections
import dataclasses
import zlib

from repro.analysis.races import tap as _race_tap
from repro.common.errors import IOFaultError, TransactionError
from repro.profiling.metrics import NULL_METRICS

#: Log record kinds.
BEGIN = "BEGIN"
COMMIT = "COMMIT"
ROLLBACK = "ROLLBACK"
INSERT = "INSERT"
DELETE = "DELETE"
UPDATE = "UPDATE"
CHECKPOINT = "CHECKPOINT"
CKPT_BEGIN = "CKPT_BEGIN"
CKPT_END = "CKPT_END"

LogRecord = collections.namedtuple(
    "LogRecord", ["lsn", "txn_id", "kind", "table", "row_id", "before", "after"]
)

#: Log records per log page (controls how often appends charge an I/O).
RECORDS_PER_PAGE = 32

# --------------------------------------------------------------------- #
# crash-hook sites (consumed by repro.recovery.harness.CrashHarness)
# --------------------------------------------------------------------- #

CRASH_APPEND = "wal.append"
CRASH_COMMIT_EARLY = "wal.commit_before_force"
CRASH_COMMIT_LATE = "wal.commit_after_force"
CRASH_FORCE_PAGE = "wal.force_page"
CRASH_CKPT_MID = "wal.checkpoint_mid"
#: Fires per page only when the force was issued by the group-commit
#: coordinator — a kill here lands mid-batch, with some sessions' COMMIT
#: records durable and others torn away.
CRASH_GROUP_FORCE = "wal.group_force"

CRASH_SITES = (
    CRASH_APPEND, CRASH_COMMIT_EARLY, CRASH_COMMIT_LATE, CRASH_FORCE_PAGE,
    CRASH_CKPT_MID, CRASH_GROUP_FORCE,
)


def _page_checksum(first_lsn, records):
    """CRC-32 over the canonical text form of a log page's contents."""
    return zlib.crc32(
        repr((first_lsn, records)).encode("utf-8", "backslashreplace")
    )


def _frame_page(first_lsn, records):
    return {
        "first_lsn": first_lsn,
        "records": records,
        "checksum": _page_checksum(first_lsn, records),
    }


def _validate_page(payload, expected_first_lsn):
    """Whether ``payload`` is a well-formed log page continuing the scan.

    ``expected_first_lsn`` of ``None`` accepts any starting LSN (the
    first page of a from-checkpoint scan).
    """
    if not isinstance(payload, dict):
        return False
    try:
        first_lsn = payload["first_lsn"]
        records = payload["records"]
        checksum = payload["checksum"]
    except KeyError:
        return False
    if not isinstance(records, list) or not records:
        return False
    if expected_first_lsn is not None and first_lsn != expected_first_lsn:
        return False
    return _page_checksum(first_lsn, records) == checksum


class TransactionLog:
    """An append-only WAL on a paged file, recoverable after a crash."""

    def __init__(self, log_file, metrics=None, fault_plan=None):
        self._file = log_file
        self._records = []
        #: LSN of ``self._records[0]`` — non-zero after a from-checkpoint
        #: :meth:`open` (the scan does not load pre-checkpoint history).
        self._base_lsn = 0
        self._durable_lsn = -1
        self._active = set()
        self._committed = set()
        self._next_lsn = 0
        #: Next data page to write; pages past a torn tail are rewritten.
        self._next_page = 1
        #: ``(page_no, first_lsn)`` of every durable data page, in order.
        self._page_index = []
        #: CKPT_BEGIN record of the last *complete* checkpoint, if any.
        self.last_checkpoint = None
        self.last_checkpoint_end_lsn = -1
        self._pending_ckpt_begin = None
        #: Data pages discarded by torn-tail detection at the last open.
        self.torn_pages_dropped = 0
        self.fault_plan = fault_plan
        #: CrashHarness hook: ``fn(site)`` called at each CRASH_* site;
        #: raising from it simulates the process dying right there.
        self.crash_hook = None
        #: Replication stream taps: ``fn(page_no, first_lsn, payload)``
        #: called once per data page the instant it becomes durable.
        #: Taps must never raise — the durable LSN has already advanced,
        #: so a tap failure must not be able to unwind a local commit
        #: (the synchronous-replication ack gate lives in the group
        #: commit coordinator instead, see ``GroupCommitCoordinator``).
        self.stream_taps = []
        self.attach_metrics(metrics or NULL_METRICS)

    def attach_metrics(self, registry):
        """Publish ``wal.*`` counters (idempotent across log reopen)."""
        self._m_forces = registry.counter("wal.forces")
        self._m_pages = registry.counter("wal.pages_written")
        self._m_force_retries = registry.counter("wal.force_retries")
        self._m_torn = registry.counter("wal.torn_pages_dropped")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def durable_lsn(self):
        """Highest LSN guaranteed on the device."""
        return self._durable_lsn

    @property
    def base_lsn(self):
        """LSN of the first loaded record (non-zero after a
        from-checkpoint :meth:`open` — the window is partial history)."""
        return self._base_lsn

    def record_count(self):
        """Total records appended over the log's lifetime (durable or not)."""
        return self._next_lsn

    def peek_next_lsn(self):
        """The LSN the next append will receive (no side effects).

        The engine stamps a data page with this value *before* applying a
        change, then appends the matching record — so a page's LSN always
        covers every record that touched it.
        """
        return self._next_lsn

    def active_txns(self):
        """Transactions with a BEGIN but no COMMIT/ROLLBACK (losers,
        when read after :meth:`open`)."""
        return set(self._active)

    def committed_txns(self):
        return set(self._committed)

    def records_since_checkpoint(self):
        """Records appended after the last complete checkpoint's END —
        the governor's measure of how much log a restart must replay."""
        return self._next_lsn - (self.last_checkpoint_end_lsn + 1)

    def loaded_records(self):
        """The in-memory record window (full history unless the log was
        opened from a checkpoint)."""
        return list(self._records)

    def records_from(self, lsn):
        """Loaded records with ``record.lsn >= lsn``, in LSN order."""
        start = max(0, lsn - self._base_lsn)
        return self._records[start:]

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #

    def begin(self, txn_id):
        if txn_id in self._active:
            raise TransactionError("transaction %r already active" % (txn_id,))
        self._active.add(txn_id)
        return self._append(txn_id, BEGIN, None, None, None, None)

    def log_change(self, txn_id, kind, table, row_id, before=None, after=None):
        """Append a data-change record for an active transaction."""
        if txn_id not in self._active:
            raise TransactionError("transaction %r is not active" % (txn_id,))
        if kind not in (INSERT, DELETE, UPDATE):
            raise TransactionError("unknown change kind %r" % (kind,))
        self._crash_point(CRASH_APPEND)
        return self._append(txn_id, kind, table, row_id, before, after)

    def commit(self, txn_id):
        """Append COMMIT and force the log tail to disk.

        The transaction only counts as committed once the force
        succeeds; a failed force leaves it active so the commit can be
        retried (a later COMMIT record for the same transaction is
        harmless to recovery).

        Group commit decomposes this into :meth:`append_commit` →
        ``force`` (one shared force per batch) → :meth:`finish_commit`;
        this method keeps the one-transaction path, with an identical
        crash-site sequence.
        """
        record = self.append_commit(txn_id)
        self.force()
        self.finish_commit(txn_id)
        return record

    def append_commit(self, txn_id):
        """First half of a commit: the COMMIT record enters the tail.

        The transaction is *not* yet committed — its record is volatile
        until a force covers it and :meth:`finish_commit` runs.
        """
        if txn_id not in self._active:
            raise TransactionError("transaction %r is not active" % (txn_id,))
        record = self._append(txn_id, COMMIT, None, None, None, None)
        self._crash_point(CRASH_COMMIT_EARLY)
        return record

    def finish_commit(self, txn_id):
        """Second half: bookkeeping once the COMMIT record is durable."""
        self._active.discard(txn_id)
        self._committed.add(txn_id)
        self._crash_point(CRASH_COMMIT_LATE)

    def rollback(self, txn_id):
        """Append ROLLBACK; undo entries are served from :meth:`undo_chain`."""
        if txn_id not in self._active:
            raise TransactionError("transaction %r is not active" % (txn_id,))
        record = self._append(txn_id, ROLLBACK, None, None, None, None)
        self._active.discard(txn_id)
        return record

    # ------------------------------------------------------------------ #
    # checkpoints
    # ------------------------------------------------------------------ #

    def checkpoint_begin(self, active_txns, dirty_page_table):
        """Open a fuzzy checkpoint: durable BEGIN carrying the snapshots.

        ``dirty_page_table`` is ``{(file_id, page_no): rec_lsn}`` from
        the buffer pool; it travels in the record (sorted, for
        deterministic page images).
        """
        snapshot = {
            "active": sorted(active_txns),
            "dpt": sorted(
                (file_id, page_no, rec_lsn)
                for (file_id, page_no), rec_lsn in dirty_page_table.items()
            ),
        }
        record = self._append(None, CKPT_BEGIN, None, None, None, snapshot)
        self._pending_ckpt_begin = record
        self.force()
        return record

    def checkpoint_end(self, begin_record):
        """Seal the checkpoint and republish the master record."""
        record = self._append(
            None, CKPT_END, None, None, None,
            {"begin_lsn": begin_record.lsn},
        )
        self.force()
        self.last_checkpoint = begin_record
        self.last_checkpoint_end_lsn = record.lsn
        self._pending_ckpt_begin = None
        self._write_master(begin_record.lsn)
        return record

    def checkpoint(self):
        """Convenience: an empty fuzzy checkpoint (no snapshots)."""
        begin = self.checkpoint_begin((), {})
        return self.checkpoint_end(begin)

    def _write_master(self, ckpt_begin_lsn):
        ckpt_page = self._page_for_lsn(ckpt_begin_lsn)
        if ckpt_page is None:
            return
        self._ensure_master_page()
        self._write_log_page(0, {
            "kind": "master",
            "ckpt_begin_lsn": ckpt_begin_lsn,
            "ckpt_page": ckpt_page,
            "checksum": zlib.crc32(
                repr((ckpt_begin_lsn, ckpt_page)).encode("utf-8")
            ),
        })

    def _page_for_lsn(self, lsn):
        """The durable data page holding ``lsn``, or None."""
        found = None
        for page_no, first_lsn in self._page_index:
            if first_lsn <= lsn:
                found = page_no
            else:
                break
        return found

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _append(self, txn_id, kind, table, row_id, before, after):
        record = LogRecord(self._next_lsn, txn_id, kind, table, row_id, before, after)
        self._next_lsn += 1
        self._records.append(record)
        return record

    def _crash_point(self, site):
        if self.crash_hook is not None:
            self.crash_hook(site)

    def crash_point(self, site):
        """Public crash-site trigger (the server fires CRASH_CKPT_MID)."""
        self._crash_point(site)

    def _ensure_master_page(self):
        if self._file.page_count == 0:
            page_no = self._file.allocate_page()
            self._file.write(page_no, {
                "kind": "master",
                "ckpt_begin_lsn": -1,
                "ckpt_page": -1,
                "checksum": zlib.crc32(repr((-1, -1)).encode("utf-8")),
            })

    def _allocate_data_page(self):
        """Next data page number: reuse the slots past a torn tail before
        growing the file, keeping page order equal to LSN order."""
        if self._next_page < self._file.page_count:
            page_no = self._next_page
        else:
            page_no = self._file.allocate_page()
        self._next_page += 1
        return page_no

    def _write_log_page(self, page_no, payload):
        """One log-device write, with its own injected-fault site.

        ``wal.force_error`` models the log device specifically (distinct
        from the generic disk-fault sites, which also fire here through
        the FaultyDisk wrapper).  Failed attempts burn bounded
        exponential backoff on the simulated clock; an exhausted budget
        surfaces as :class:`IOFaultError` and aborts only the statement
        whose commit (or eviction) forced the log.
        """
        from repro.faults.plan import LOG_FORCE_ERROR

        plan = self.fault_plan
        attempt = 0
        while plan is not None and plan.should(
            LOG_FORCE_ERROR, plan.rates.log_force_error
        ):
            plan.record(LOG_FORCE_ERROR, "page=%d" % (page_no,))
            attempt += 1
            if attempt > plan.rates.io_retry_limit:
                raise IOFaultError(
                    "log page %d still failing after %d retries"
                    % (page_no, plan.rates.io_retry_limit)
                )
            plan.note_retry(LOG_FORCE_ERROR)
            self._m_force_retries.inc()
            self._file.volume.disk.clock.advance(
                int(plan.rates.io_retry_backoff_us * (2 ** (attempt - 1)))
            )
        self._file.write(page_no, payload)

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #

    def force(self, extra_site=None):
        """Write all undurable records to the log file.

        The durable LSN advances page by page, so a crash mid-force
        loses only the pages not yet written.  ``extra_site`` names an
        additional crash site fired per page (the coordinator passes
        ``CRASH_GROUP_FORCE`` so the harness can kill inside a *batched*
        force specifically).
        """
        first = self._durable_lsn + 1
        last = self._base_lsn + len(self._records) - 1
        if last < first:
            return 0
        self._ensure_master_page()
        pages_written = 0
        for lsn in range(first, last + 1, RECORDS_PER_PAGE):
            chunk = self._records[
                lsn - self._base_lsn : lsn - self._base_lsn + RECORDS_PER_PAGE
            ]
            self._crash_point(CRASH_FORCE_PAGE)
            if extra_site is not None:
                self._crash_point(extra_site)
            page_no = self._allocate_data_page()
            payload = _frame_page(lsn, [tuple(record) for record in chunk])
            self._write_log_page(page_no, payload)
            self._page_index.append((page_no, lsn))
            self._durable_lsn = lsn + len(chunk) - 1
            pages_written += 1
            for tap in self.stream_taps:
                tap(page_no, lsn, payload)
        self._m_forces.inc()
        self._m_pages.inc(pages_written)
        return pages_written

    # ------------------------------------------------------------------ #
    # restart: reading the durable log back
    # ------------------------------------------------------------------ #

    @classmethod
    def open(cls, log_file, metrics=None, fault_plan=None, full_scan=False):
        """Rebuild a log object from the durable pages of ``log_file``.

        Scans data pages in order (each read charges device time — this
        is the log-scan half of restart cost), validating structure,
        checksum, and first-LSN continuity.  The first invalid page is a
        torn tail: it and everything after it are dropped and will be
        overwritten by future forces.  Unless ``full_scan`` is set, the
        scan starts at the master record's checkpoint page and the
        reconstructed log holds only post-checkpoint history.
        """
        log = cls(log_file, metrics=metrics, fault_plan=fault_plan)
        if log_file.page_count == 0:
            return log
        start_page, master_lsn = 1, None
        if not full_scan:
            master = log_file.read(0)
            if (
                isinstance(master, dict)
                and master.get("kind") == "master"
                and master.get("ckpt_page", -1) >= 1
                and master.get("checksum") == zlib.crc32(
                    repr(
                        (master.get("ckpt_begin_lsn"), master.get("ckpt_page"))
                    ).encode("utf-8")
                )
            ):
                start_page, master_lsn = master["ckpt_page"], master["ckpt_begin_lsn"]
        expected_lsn = 0 if start_page == 1 else None
        scanned_any = False
        for page_no in range(start_page, log_file.page_count):
            payload = log_file.read(page_no)
            if not _validate_page(payload, expected_lsn):
                dropped = log_file.page_count - page_no
                log.torn_pages_dropped = dropped
                log._m_torn.inc(dropped)
                if not scanned_any and start_page > 1:
                    # The master pointed into the torn region: the
                    # checkpoint cannot be trusted, rescan everything.
                    return cls.open(
                        log_file, metrics=metrics, fault_plan=fault_plan,
                        full_scan=True,
                    )
                break
            if not scanned_any:
                log._base_lsn = payload["first_lsn"]
                log._next_lsn = payload["first_lsn"]
                scanned_any = True
            for raw in payload["records"]:
                log._admit(LogRecord(*raw))
            log._page_index.append((page_no, payload["first_lsn"]))
            expected_lsn = payload["first_lsn"] + len(payload["records"])
            log._next_page = page_no + 1
        log._durable_lsn = log._next_lsn - 1
        if master_lsn is not None and (
            log.last_checkpoint is None or log.last_checkpoint.lsn != master_lsn
        ):
            # The master named a checkpoint the scan could not confirm
            # complete (e.g. END fell in the torn tail): rescan from the
            # head so no pre-checkpoint history is missing.
            if not full_scan:
                return cls.open(
                    log_file, metrics=metrics, fault_plan=fault_plan,
                    full_scan=True,
                )
        return log

    def _admit(self, record):
        """Replay one scanned record into the in-memory bookkeeping."""
        self._records.append(record)
        self._next_lsn = record.lsn + 1
        if record.kind == BEGIN:
            self._active.add(record.txn_id)
        elif record.kind == COMMIT:
            self._active.discard(record.txn_id)
            self._committed.add(record.txn_id)
        elif record.kind == ROLLBACK:
            # A ROLLBACK after a COMMIT happens when the commit's force
            # failed and the statement gave up: the compensations that
            # precede the ROLLBACK make redo-all-history correct, but the
            # transaction must not be reported as committed.
            self._active.discard(record.txn_id)
            self._committed.discard(record.txn_id)
        elif record.kind == CKPT_BEGIN:
            self._active.update(record.after["active"])
            self._pending_ckpt_begin = record
        elif record.kind == CKPT_END:
            pending = self._pending_ckpt_begin
            if pending is not None and pending.lsn == record.after["begin_lsn"]:
                self.last_checkpoint = pending
                self.last_checkpoint_end_lsn = record.lsn
            self._pending_ckpt_begin = None

    def tear_inflight_page(self):
        """Write the half-finished page of the force the crash interrupted.

        Log pages are written once and never rewritten, so the only page
        a crash can tear is the one being written at the instant of
        death — and its records were, by definition, never acknowledged
        durable.  The next free data-page slot receives an image with a
        bad checksum (the write never completed); :meth:`open` drops it
        and the slot is reused.  Mutates the volume's payload store
        directly (no device time — the damage happened *during* the
        crash).
        """
        first = self._durable_lsn + 1
        chunk = self._records[
            first - self._base_lsn : first - self._base_lsn + RECORDS_PER_PAGE
        ]
        image = _frame_page(
            first, [tuple(record) for record in chunk] or [("inflight",)]
        )
        image["checksum"] ^= 0x5A5A5A5A
        self._ensure_master_page()
        page_no = self._allocate_data_page()
        self._file.volume._store[self._file.global_page(page_no)] = image
        return True

    def tear_last_page(self):
        """Corrupt the last durable data page, as a lying device (write
        acknowledged before it was stable) would: drop its final record
        but keep the stale checksum.

        Mutates the volume's payload store directly (no device time — the
        damage happened *during* the crash).  :meth:`open` will detect
        and drop the page.
        """
        if not self._page_index:
            return False
        page_no, first_lsn = self._page_index[-1]
        store = self._file.volume
        image = store.peek_payload(self._file.global_page(page_no))
        if not isinstance(image, dict):
            return False
        torn = dict(image)
        if len(torn.get("records", [])) > 1:
            torn["records"] = torn["records"][:-1]  # checksum now stale
        else:
            torn["checksum"] = torn.get("checksum", 0) ^ 0x5A5A5A5A
        store._store[self._file.global_page(page_no)] = torn
        return True

    # ------------------------------------------------------------------ #
    # recovery support
    # ------------------------------------------------------------------ #

    def undo_chain(self, txn_id):
        """Data-change records of ``txn_id`` in reverse order (for UNDO)."""
        return [
            record
            for record in reversed(self._records)
            if record.txn_id == txn_id and record.kind in (INSERT, DELETE, UPDATE)
        ]

    def redo_records(self):
        """Durable data changes of committed transactions, in LSN order."""
        durable = self._records[: self._durable_lsn + 1 - self._base_lsn]
        committed = {
            record.txn_id for record in durable if record.kind == COMMIT
        }
        return [
            record
            for record in durable
            if record.kind in (INSERT, DELETE, UPDATE)
            and record.txn_id in committed
        ]

    def simulate_crash(self):
        """Drop every record past the durable LSN, as a crash would."""
        self._records = self._records[: self._durable_lsn + 1 - self._base_lsn]
        self._next_lsn = self._base_lsn + len(self._records)
        self._active.clear()


# --------------------------------------------------------------------- #
# group commit
# --------------------------------------------------------------------- #


@dataclasses.dataclass
class GroupCommitConfig:
    """Tunables for the adaptive group-commit coordinator."""

    enabled: bool = True
    #: Latency ceiling: a commit never waits longer than this for
    #: companions, regardless of what the tuner wants.
    max_window_us: int = 2_000
    #: Flush as soon as this many commits are pending (window or not).
    target_batch: int = 8
    #: Damping factors for the window retune (the paper's eq. 2 idiom,
    #: shared with the buffer and checkpoint governors).
    damping_new: float = 0.9
    damping_old: float = 0.1
    #: Mean commit inter-arrival gap at or above which the system counts
    #: as idle: the window collapses toward zero and commits force
    #: immediately (no latency tax on a quiet server).
    idle_threshold_us: int = 5_000
    #: Inter-arrival gaps remembered for the rate estimate.
    arrival_history: int = 16


class CommitTicket:
    """One session's pending commit, from enqueue to durable ack."""

    __slots__ = ("txn_id", "lsn", "enqueued_at_us", "durable")

    def __init__(self, txn_id, lsn, enqueued_at_us):
        self.txn_id = txn_id
        self.lsn = lsn
        self.enqueued_at_us = enqueued_at_us
        self.durable = False

    def __repr__(self):
        return "CommitTicket(txn=%r, lsn=%d, durable=%r)" % (
            self.txn_id, self.lsn, self.durable
        )


class GroupCommitCoordinator:
    """Coalesces concurrent commits into shared log forces.

    A committing session appends its COMMIT record, takes a
    :class:`CommitTicket`, and — when other sessions are runnable —
    parks in the scheduler until a single :meth:`flush` forces the tail
    for the whole batch.  The flush window self-tunes from the observed
    commit-arrival rate with the paper's damped-feedback equation: an
    idle system collapses the window to zero (force immediately, no
    latency tax), a bursty one widens it toward
    ``mean_gap * (target_batch - 1)`` capped at ``max_window_us``.

    Without a scheduler (single-connection workloads, recovery, bulk
    load) every commit flushes inline, preserving the classic
    force-per-commit sequence byte for byte.

    The ack invariant — enforced under ``REPRO_SANITIZE=1`` — is that
    :meth:`commit` returns only after the log's durable LSN covers the
    ticket: no acknowledged commit can be lost by a crash, and no
    unacknowledged one is ever reported durable.
    """

    def __init__(self, log_fn, clock, config=None, metrics=None,
                 scheduler_fn=None, sanitize=False):
        self._log_fn = log_fn
        self._clock = clock
        self.config = config if config is not None else GroupCommitConfig()
        self._scheduler_fn = scheduler_fn
        self.sanitize = bool(sanitize)
        self.races = None  # RaceSanitizer, attached by the server
        #: LogStreamPublisher when this server replicates synchronously:
        #: a ticket settles only once its LSN is both locally durable
        #: *and* durably received by at least one replica, so no acked
        #: commit can be lost to a primary failure.
        self.replication = None
        self._pending = []
        self._arrival_gaps = collections.deque(
            maxlen=max(2, self.config.arrival_history)
        )
        self._last_arrival_us = None
        #: Current tuned flush window; starts at zero (idle behaviour)
        #: and only widens once arrivals prove the system is bursty.
        self.window_us = 0
        self.batches = 0
        self.committed = 0
        metrics = metrics or NULL_METRICS
        self._m_batches = metrics.counter("wal.group_commit.batches")
        self._m_batch_size = metrics.histogram("wal.group_commit.batch_size")
        self._m_latency = metrics.histogram("txn.commit_latency_us")
        metrics.register_probe(
            "wal.group_commit.window_us", lambda: self.window_us
        )
        metrics.register_probe(
            "wal.group_commit.pending", lambda: len(self._pending)
        )

    # ------------------------------------------------------------------ #
    # the commit path
    # ------------------------------------------------------------------ #

    def commit(self, txn_id):
        """Commit ``txn_id`` through the group: returns once durable."""
        log = self._log_fn()
        record = log.append_commit(txn_id)
        ticket = CommitTicket(txn_id, record.lsn, self._clock.now)
        self._observe_arrival()
        with _race_tap(self.races, "group_commit", "tickets", "w"):
            self._pending.append(ticket)
        scheduler = (
            self._scheduler_fn() if self._scheduler_fn is not None else None
        )
        try:
            # Group commit *requires* the straddle: the ticket is
            # published to _pending precisely so a sibling's force (or
            # the window park below) can settle it while we are off the
            # baton; the except arm unpublishes it on failure.
            if (
                not self.config.enabled
                or self.window_us <= 0
                or len(self._pending) >= self.config.target_batch
                or scheduler is None
                or not scheduler.can_wait()
            ):
                self.flush()  # noqa: SIM011
            else:
                scheduler.wait_for_commit(ticket, self)  # noqa: SIM011
                if not ticket.durable:
                    self.flush()  # noqa: SIM011
        except BaseException:
            # The force died under us (injected I/O fault) or the session
            # was torn down: the commit did not happen, so the ticket
            # must not linger to be "committed" by a later batch.
            with _race_tap(self.races, "group_commit", "tickets", "w"):
                self._pending = [t for t in self._pending if t is not ticket]
            raise
        if self.sanitize:
            self._assert_acked(log, ticket)
        self._m_latency.observe(self._clock.now - ticket.enqueued_at_us)
        return ticket

    def flush(self):
        """Force the tail once and settle every covered pending ticket."""
        log = self._log_fn()
        if not self._pending:
            return 0
        try:
            log.force(extra_site=CRASH_GROUP_FORCE)
        except BaseException:
            # A partial force may still have covered some tickets (the
            # durable LSN advances page by page): settle those so their
            # sessions can ack, and leave the rest pending for a retry.
            # A replication-ship failure here must not mask the force
            # error — leaving tickets pending is always safe.
            try:
                self._settle(log)
            except IOFaultError:
                # Only the sync replication ship inside _settle raises
                # this; count it so the absorbed fault stays visible.
                if self.replication is not None:
                    self.replication.record_fault()
            raise
        return self._settle(log)

    def _settle(self, log):
        durable = log.durable_lsn
        if self.replication is not None:
            # Synchronous ship: retransmit until every locally durable
            # page is on at least one replica (or the bounded retry
            # budget dies, degrading this commit statement only).
            durable = min(durable, self.replication.ensure_acked(durable))
        with _race_tap(self.races, "group_commit", "tickets", "w"):
            done = [t for t in self._pending if t.lsn <= durable]
            self._pending = [t for t in self._pending if t.lsn > durable]
        for ticket in done:
            log.finish_commit(ticket.txn_id)
            ticket.durable = True
        if done:
            self.batches += 1
            self.committed += len(done)
            self._m_batches.inc()
            self._m_batch_size.observe(len(done))
        return len(done)

    # ------------------------------------------------------------------ #
    # scheduling surface
    # ------------------------------------------------------------------ #

    def pending_count(self):
        return len(self._pending)

    def pending_tickets(self):
        """Snapshot of the not-yet-durable tickets (crash adjudication)."""
        return list(self._pending)

    def deadline_us(self):
        """When the oldest pending commit's window expires (None: empty)."""
        if not self._pending:
            return None
        return self._pending[0].enqueued_at_us + self.window_us

    def reset(self):
        """Drop pending tickets (their sessions died with the process)."""
        self._pending = []
        self._last_arrival_us = None

    # ------------------------------------------------------------------ #
    # window tuning
    # ------------------------------------------------------------------ #

    def _observe_arrival(self):
        now = self._clock.now
        if self._last_arrival_us is not None:
            self._arrival_gaps.append(now - self._last_arrival_us)
        self._last_arrival_us = now
        self._retune()

    def _retune(self):
        if not self._arrival_gaps:
            return
        cfg = self.config
        mean_gap = sum(self._arrival_gaps) / len(self._arrival_gaps)
        if mean_gap >= cfg.idle_threshold_us:
            ideal = 0.0
        else:
            ideal = min(
                float(cfg.max_window_us),
                mean_gap * max(1, cfg.target_batch - 1),
            )
        self.window_us = int(
            cfg.damping_new * ideal + cfg.damping_old * self.window_us
        )

    # ------------------------------------------------------------------ #
    # sanitizer hook
    # ------------------------------------------------------------------ #

    def _assert_acked(self, log, ticket):
        if ticket.durable and ticket.lsn <= log.durable_lsn:
            return
        from repro.analysis.sanitizers import GroupCommitInvariantError

        raise GroupCommitInvariantError(
            "commit ack for txn %r at LSN %d before durable LSN %d covered it"
            % (ticket.txn_id, ticket.lsn, log.durable_lsn)
        )
