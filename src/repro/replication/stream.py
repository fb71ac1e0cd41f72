"""WAL frame publication: the primary side of log shipping.

:class:`LogStreamPublisher` is installed as a
:attr:`~repro.storage.log.TransactionLog.stream_taps` entry on the
primary's log: every data page the log makes durable is framed and
appended to the publication sequence, then shipped best-effort down each
attached link.  Shipping keeps one cursor per link over the shared frame
list; a failed send leaves the cursor in place and the next pump resends
from there (go-back-N, degenerate because sends are synchronous).

The tap itself must never raise — by the time it fires, the primary's
durable LSN has already advanced, so a network failure here cannot be
allowed to unwind a local commit.  The *synchronous* half of replication
lives in :meth:`ensure_acked` instead, called by the group-commit
coordinator while settling tickets: it retransmits (advancing the
simulated clock past partitions or through bounded backoff) until every
locally durable frame is durably received by at least one replica, or a
bounded retry budget dies and the commit statement degrades with
:class:`~repro.common.errors.IOFaultError` — the same
statement-not-server failure contract every other injected fault obeys.

Because per-link reception is gap-free and in LSN order (the cursor only
advances on success), the replica with the highest received LSN holds
*every* frame any replica holds — which is why failover promoting the
max-applied replica can never lose an acknowledged commit.
"""

from repro.common.errors import IOFaultError
from repro.faults.plan import NET_SEND_DROP, FaultRates
from repro.profiling.metrics import NULL_METRICS


class ReplicationFrame:
    """One durable WAL data page, as shipped: ``payload`` is the exact
    framed page image (first_lsn, records, checksum) the primary wrote."""

    __slots__ = ("page_no", "first_lsn", "last_lsn", "payload")

    def __init__(self, page_no, first_lsn, payload):
        self.page_no = page_no
        self.first_lsn = first_lsn
        self.last_lsn = first_lsn + len(payload["records"]) - 1
        self.payload = payload

    def __repr__(self):
        return "ReplicationFrame(page=%d, lsn=%d..%d)" % (
            self.page_no, self.first_lsn, self.last_lsn
        )


class LogStreamPublisher:
    """Frames the primary's durable log pages and ships them per link."""

    def __init__(self, clock, fault_plan=None, rates=None, metrics=None):
        self.clock = clock
        self.fault_plan = fault_plan
        if rates is None:
            rates = (
                fault_plan.rates if fault_plan is not None else FaultRates()
            )
        self.rates = rates
        self.links = []
        self.frames = []
        self._cursors = {}
        self.ship_retries = 0
        self.sync_stalls = 0
        metrics = metrics or NULL_METRICS
        self._m_published = metrics.counter("repl.frames_published")
        self._m_retries = metrics.counter("repl.ship_retries")
        metrics.register_probe("repl.acked_lsn", self.acked_lsn)
        metrics.register_probe(
            "repl.frames_pending",
            lambda: len(self.frames) * len(self.links) - sum(
                self._cursors.values()
            ),
        )

    def attach(self, link):
        self.links.append(link)
        self._cursors[link.name] = 0
        return link

    # ------------------------------------------------------------------ #
    # the tap (asynchronous half)
    # ------------------------------------------------------------------ #

    def tap(self, page_no, first_lsn, payload):
        """Stream-tap target: publish one durable page, ship best-effort.

        Never raises — failed sends stay queued behind their link cursor
        for the next pump (or for :meth:`ensure_acked` at commit time).
        """
        self.frames.append(ReplicationFrame(page_no, first_lsn, payload))
        self._m_published.inc()
        self.pump()

    def pump(self):
        """One best-effort ship round; returns frames delivered."""
        shipped = 0
        for link in self.links:
            cursor = self._cursors[link.name]
            while cursor < len(self.frames):
                if link.send(self.frames[cursor]) is None:
                    break
                cursor += 1
                shipped += 1
            self._cursors[link.name] = cursor
        return shipped

    # ------------------------------------------------------------------ #
    # the ack gate (synchronous half)
    # ------------------------------------------------------------------ #

    def acked_lsn(self):
        """Highest LSN durably received by at least one replica."""
        best = -1
        for link in self.links:
            cursor = self._cursors[link.name]
            if cursor:
                best = max(best, self.frames[cursor - 1].last_lsn)
        return best

    def link_cursor(self, link):
        """Frames delivered down ``link`` so far (test introspection)."""
        return self._cursors[link.name]

    def ensure_acked(self, lsn):
        """Block (on the simulated clock) until ``lsn`` is replica-durable.

        Retransmits with bounded retries: when every link is partitioned
        the clock jumps to the earliest heal time (nothing else can make
        progress); otherwise each retry burns one backoff quantum.  An
        exhausted budget raises :class:`IOFaultError`, degrading the
        commit statement that needed the ack — the server survives and
        the transaction unwinds through the normal failed-force path.
        """
        if lsn < 0 or not self.links:
            return lsn
        attempts = 0
        limit = self.rates.net_ship_retry_limit
        while self.acked_lsn() < lsn:
            self.pump()
            if self.acked_lsn() >= lsn:
                break
            attempts += 1
            if attempts > limit:
                raise IOFaultError(
                    "replication ship of LSN %d still unacked after %d "
                    "retries" % (lsn, limit)
                )
            self.ship_retries += 1
            self._m_retries.inc()
            if self.fault_plan is not None:
                self.fault_plan.note_retry(NET_SEND_DROP)
            self.stall()
        return self.acked_lsn()

    def record_fault(self):
        """Count a ship fault a caller absorbed — e.g. a sync-ack
        failure surfaced while the group force itself was already
        failing: the force error wins, but the absorbed fault must
        still show in ``repl.ship_retries`` so seed-replay accounting
        balances."""
        self.ship_retries += 1
        self._m_retries.inc()

    def stall(self):
        """Advance the clock toward the next event that can free a send."""
        now = self.clock.now
        heals = [
            link.partitioned_until
            for link in self.links
            if link.partitioned_until > now
        ]
        if heals and len(heals) == len(self.links):
            # Every link is down: only healing can help, so jump there.
            self.sync_stalls += 1
            self.clock.advance(min(heals) - now)
        else:
            self.clock.advance(self.rates.io_retry_backoff_us)
