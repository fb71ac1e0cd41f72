"""The deterministic fault plan.

The paper's thesis is self-management under hostile, shifting conditions:
competing processes grabbing RAM, slow or flaky media, cache sizes the
governor must track "without seriously degrading performance".  This
module makes that hostility *reproducible*: a :class:`FaultPlan` is a
seeded source of injection decisions, measured on the simulated clock
(never wall time — SIM001), that drives the injectors in
:mod:`repro.faults.injectors` and keeps a byte-replayable log of every
fault it fires.

Determinism contract: each injection *site* owns an independent RNG
stream derived from ``(seed, site)``, so the decision sequence at one
site never depends on how often another site was consulted.  Replaying
the same seed against the same workload yields an identical
:meth:`FaultPlan.log_lines` text.
"""

import collections
import dataclasses
import random

from repro.common.units import MiB
from repro.profiling.metrics import NULL_METRICS

# --------------------------------------------------------------------- #
# injection sites (literal, greppable — mirrors the metric-name rule)
# --------------------------------------------------------------------- #

DISK_READ_ERROR = "disk.read_error"
DISK_WRITE_ERROR = "disk.write_error"
DISK_READ_LATENCY = "disk.read_latency"
DISK_WRITE_LATENCY = "disk.write_latency"
WORKING_SET_OUTAGE = "ossim.working_set_outage"
HOSTILE_GRAB = "ossim.hostile_grab"
SPILL_WRITE_ERROR = "exec.spill_write"
LOG_FORCE_ERROR = "wal.force_error"
LOG_TORN_TAIL = "wal.torn_tail"
CKPT_CRASH = "wal.checkpoint_crash"
#: Not an injection site but a *decision* stream: the workload scheduler
#: draws its yield-or-continue choices here, so interleavings are seeded
#: exactly like faults (same seed → byte-identical session traces) while
#: never appearing in the injection log (``should`` does not record).
SCHED_INTERLEAVE = "sched.interleave"
#: Decision stream like ``sched.interleave``: which grantable waiter a
#: freed lock wakes.  Seeded so contended wakeup order is part of the
#: same-seed determinism contract, never recorded in the injection log.
LOCK_WAKEUP = "locks.wakeup"
#: Replication network faults: one shipped WAL frame dropped in flight
#: (go-back-N retransmits it), and a bounded link partition (every send
#: fails until the seeded heal time).  Per-link decision streams are
#: suffixed ``site#link`` so one link's draws never disturb another's;
#: ``record`` logs the canonical site with a ``link=`` detail.
NET_SEND_DROP = "net.send_drop"
NET_PARTITION = "net.partition"
#: Decision stream like ``sched.interleave``: per-link latency draws for
#: the simulated network.  Never recorded in the injection log.
NET_LATENCY = "net.latency"

ALL_SITES = (
    DISK_READ_ERROR, DISK_WRITE_ERROR, DISK_READ_LATENCY,
    DISK_WRITE_LATENCY, WORKING_SET_OUTAGE, HOSTILE_GRAB, SPILL_WRITE_ERROR,
    LOG_FORCE_ERROR, LOG_TORN_TAIL, CKPT_CRASH, SCHED_INTERLEAVE,
    LOCK_WAKEUP, NET_SEND_DROP, NET_PARTITION, NET_LATENCY,
)

#: One injected fault, as recorded in the replayable log.
FaultRecord = collections.namedtuple(
    "FaultRecord", ["sequence", "time_us", "site", "detail"]
)


@dataclasses.dataclass
class FaultRates:
    """Per-site injection probabilities and shapes.

    The defaults are the *chaos-CI* rates: low enough that every fault is
    absorbed by a bounded retry (abort probability per I/O is
    ``rate ** (retry limit + 1)``), high enough that a full test-suite
    run injects thousands of faults.  Tests crank individual rates to
    force the abort paths.
    """

    #: Probability of a transient error per device read / write attempt.
    disk_read_error: float = 0.003
    disk_write_error: float = 0.003
    #: Probability of a latency spike per device transfer, and its cost.
    disk_latency: float = 0.002
    latency_spike_us: int = 1500
    #: Simulated time a *failed* I/O attempt still burns.
    error_latency_us: int = 200
    #: Probability that one OS working-set probe blacks out.
    working_set_outage: float = 0.01
    #: Probability that one spill-file page write fails.
    spill_write_error: float = 0.003
    #: Probability that one log-force page write fails transiently.
    log_force_error: float = 0.002
    #: Probability the final log page tears during a simulated crash, and
    #: that a checkpoint dies between its BEGIN and END records.  Both
    #: default to 0: they only make sense under the crash harness, which
    #: raises them (or forces the outcome) explicitly.
    torn_tail: float = 0.0
    ckpt_crash: float = 0.0
    #: Hostile-process burst schedule; ``hostile_interval_us = 0``
    #: disables the injector (the default: memory-grab bursts perturb
    #: governor behaviour and are opted into by tests/experiments).
    hostile_interval_us: int = 0
    hostile_interval_jitter_us: int = 0
    hostile_hold_us: int = 2_000_000
    hostile_grab_bytes: int = 64 * MiB
    #: Bounded-retry budgets for the graceful-degradation paths.
    io_retry_limit: int = 5
    io_retry_backoff_us: int = 100
    spill_retry_limit: int = 4
    #: Replication network shape: per-frame drop probability, per-send
    #: partition-onset probability with bounded seeded duration, and the
    #: per-frame delivery latency band.  Drop/partition default to 0 so
    #: nothing outside the replication tier ever draws on them.
    net_send_drop: float = 0.0
    net_partition: float = 0.0
    net_partition_min_us: int = 5_000
    net_partition_max_us: int = 40_000
    net_latency_min_us: int = 50
    net_latency_max_us: int = 400
    #: Bounded retransmission budget for one synchronous ship (per
    #: commit-settle attempt); exhaustion degrades the statement, not
    #: the server.
    net_ship_retry_limit: int = 8


class FaultPlan:
    """A seeded, clock-stamped schedule of injected faults.

    Construct with a seed (and optionally custom :class:`FaultRates`),
    hand it to ``ServerConfig(fault_plan=...)`` — or export
    ``REPRO_FAULTS=<seed>`` and let every server build its own plan.
    The server :meth:`bind`\\ s the plan to its clock, metrics registry,
    and tracer; injectors then consult :meth:`should` and call
    :meth:`record` for every fault that fires.
    """

    def __init__(self, seed, rates=None, budgets=None):
        self.seed = int(seed)
        self.rates = rates if rates is not None else FaultRates()
        #: Optional ``{site: max injections}`` caps.  A site at budget
        #: stops drawing entirely, so long soak runs can bound total
        #: injected aborts.  The budget map is part of the determinism
        #: configuration: two runs compare equal only with equal budgets.
        self.budgets = dict(budgets) if budgets else {}
        self._site_counts = collections.Counter()
        self._rngs = {}
        #: The replayable injection log: a list of :class:`FaultRecord`.
        self.log = []
        self._sequence = 0
        # Plain attributes mirror the metric counters so the plan is
        # fully inspectable without a registry.
        self.injected = 0
        self.retries = 0
        self.statement_aborts = 0
        self.bind(clock=None)  # unbound: no clock, no tracer, null metrics

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def bind(self, clock, metrics=None, tracer_fn=None):
        """Attach the plan to a server's clock, metrics, and tracer.

        ``tracer_fn`` is a zero-argument callable returning the server's
        current tracer (or None) — evaluated per injection, so a tracer
        attached mid-run still sees later faults.
        """
        self._clock = clock
        self._tracer_fn = tracer_fn
        metrics = metrics or NULL_METRICS
        self._m_injected = metrics.counter("faults.injected")
        self._m_retries = metrics.counter("faults.retries")
        self._m_aborts = metrics.counter("faults.statement_aborts")
        return self

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #

    def _rng(self, site):
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random("%d:%s" % (self.seed, site))
        return rng

    def should(self, site, probability):
        """One seeded draw on ``site``'s private stream.

        A site whose budget is exhausted returns False *without drawing*,
        keeping the remaining decision sequence at every site unchanged.
        """
        if probability <= 0.0:
            return False
        if self.site_budget_remaining(site) == 0:
            return False
        return self._rng(site).random() < probability

    def site_budget_remaining(self, site):
        """Injections left in ``site``'s budget (None = unbounded)."""
        budget = self.budgets.get(site)
        if budget is None:
            return None
        return max(0, budget - self._site_counts[site])

    def draw_uniform(self, site, low, high):
        """A uniform integer draw on ``site``'s stream (burst shaping)."""
        if high <= low:
            return int(low)
        return self._rng(site).randrange(int(low), int(high))

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @property
    def now_us(self):
        return self._clock.now if self._clock is not None else -1

    def record(self, site, detail=""):
        """Log one fired injection; returns its :class:`FaultRecord`."""
        record = FaultRecord(self._sequence, self.now_us, site, detail)
        self._sequence += 1
        self.log.append(record)
        self._site_counts[site] += 1
        self.injected += 1
        self._m_injected.inc()
        if self._tracer_fn is not None:
            tracer = self._tracer_fn()
            if tracer is not None and hasattr(tracer, "record_fault"):
                tracer.record_fault(
                    record.sequence, record.time_us, site, detail
                )
        return record

    def note_retry(self, site):
        """Count one bounded-retry recovery attempt at ``site``."""
        self.retries += 1
        self._m_retries.inc()

    def note_statement_abort(self):
        """Count one statement terminated by a fault-typed error."""
        self.statement_aborts += 1
        self._m_aborts.inc()

    # ------------------------------------------------------------------ #
    # replay / post-mortem surface
    # ------------------------------------------------------------------ #

    def log_lines(self):
        """Canonical text form of the injection log.

        Two runs with the same seed and workload must produce
        byte-identical output — the determinism tests compare exactly
        this string.
        """
        return "\n".join(
            "%06d %12d %s %s" % (r.sequence, r.time_us, r.site, r.detail)
            for r in self.log
        )

    def injections_by_site(self):
        """``{site: count}`` summary of the log."""
        summary = {}
        for record in self.log:
            summary[record.site] = summary.get(record.site, 0) + 1
        return summary

    def __repr__(self):
        return "FaultPlan(seed=%d, injected=%d, retries=%d, aborts=%d)" % (
            self.seed, self.injected, self.retries, self.statement_aborts
        )
