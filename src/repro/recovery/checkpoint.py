"""The checkpoint governor: feedback control over restart-recovery time.

The paper's buffer-pool controller (Section 2) retargets a resource with
a damped adjustment toward an ideal; the checkpoint governor applies the
same shape to durability.  Its reference input is the **estimated
restart-recovery time** — the log that must be rescanned and replayed
since the last complete checkpoint plus the dirty pages that must be
flushed, each priced through the catalog's DTT cost model — and its
actuator is the decision to take a fuzzy checkpoint now or wait.

Control law per poll:

* estimate over target → checkpoint immediately (*urgent*);
* server idle since the last poll with replayable log pending →
  checkpoint for free (*idle* — recovery debt is paid when no statement
  is waiting behind the flush);
* otherwise hold, and retune the polling interval from the estimate's
  observed slope with the paper's damping (eq. 2): the governor polls
  faster as the estimate climbs toward the target and relaxes toward
  the configured maximum when the log is quiet.

``adaptive=False`` degrades the governor to a fixed-interval
checkpointer — the baseline the E18 benchmark compares against.
"""

import collections
import dataclasses

from repro.common.errors import IOFaultError
from repro.common.units import SECOND
from repro.dtt.model import READ, WRITE
from repro.profiling.metrics import NULL_METRICS
from repro.storage.log import RECORDS_PER_PAGE

CkptSample = collections.namedtuple(
    "CkptSample",
    [
        "time_us",
        "estimate_us",
        "records_pending",
        "dirty_pages",
        "action",
        "interval_us",
    ],
)

#: Actions recorded in the sample history.
CKPT_URGENT = "ckpt-urgent"
CKPT_IDLE = "ckpt-idle"
CKPT_FIXED = "ckpt-fixed"
HOLD = "hold"
HOLD_RECOVERY = "hold-recovery"


@dataclasses.dataclass
class CheckpointConfig:
    """Checkpoint-governor tunables."""

    #: Hard ceiling on estimated restart time before a checkpoint is forced.
    recovery_time_target_us: int = 2 * SECOND
    #: Polling interval bounds; the adaptive law moves inside them.
    min_poll_interval_us: int = 5 * SECOND
    max_poll_interval_us: int = 60 * SECOND
    #: eq. 2 damping, shared with the buffer governor.
    damping_new: float = 0.9
    damping_old: float = 0.1
    #: False = checkpoint on every poll at ``max_poll_interval_us`` (the
    #: fixed-interval baseline for the E18 benchmark).
    adaptive: bool = True
    #: Sequential band assumed for the restart log scan (log pages are
    #: laid out in extent order).
    log_scan_band_bytes: int = 64 * 4096


class CheckpointGovernor:
    """Schedules fuzzy checkpoints against a recovery-time bound.

    Wired with callables rather than the server object so tests can
    drive it against any log/pool pair: ``log_fn`` returns the current
    transaction log, ``checkpoint_fn`` takes one fuzzy checkpoint,
    ``statements_fn`` reports cumulative statements executed (for idle
    detection), ``in_recovery_fn`` gates polls while restart recovery
    itself is running.
    """

    def __init__(self, clock, log_fn, pool, model, page_size, checkpoint_fn,
                 statements_fn, config=None, metrics=None,
                 in_recovery_fn=None):
        self.clock = clock
        self.log_fn = log_fn
        self.pool = pool
        self.model = model
        self.page_size = page_size
        self.checkpoint_fn = checkpoint_fn
        self.statements_fn = statements_fn
        self.in_recovery_fn = (
            in_recovery_fn if in_recovery_fn is not None else lambda: False
        )
        self.config = config if config is not None else CheckpointConfig()
        self.history = []
        self._interval_us = self.config.max_poll_interval_us
        self._last_estimate_us = 0
        self._last_poll_us = None
        self._last_statements = statements_fn()
        self._running = False
        metrics = metrics or NULL_METRICS
        self._m_polls = metrics.counter("ckpt.polls")
        self._m_actions = {
            action: metrics.counter("ckpt.action.%s" % action)
            for action in (CKPT_URGENT, CKPT_IDLE, CKPT_FIXED, HOLD,
                           HOLD_RECOVERY)
        }
        self._m_estimate = metrics.gauge("ckpt.est_recovery_us")
        self._m_io_faults = metrics.counter("ckpt.io_faults")

    # ------------------------------------------------------------------ #
    # lifecycle (mirrors the buffer governor)
    # ------------------------------------------------------------------ #

    def start(self):
        """Begin periodic polling on the simulated clock."""
        if self._running:
            return
        self._running = True
        self.clock.call_after(self._interval_us, self._on_timer)

    def stop(self):
        """Stop scheduling further polls (pending timers become no-ops)."""
        self._running = False

    def _on_timer(self):
        if not self._running:
            return
        sample = self.poll_once()
        self.clock.call_after(sample.interval_us, self._on_timer)

    # ------------------------------------------------------------------ #
    # the control loop body
    # ------------------------------------------------------------------ #

    def estimate_recovery_us(self):
        """Price a restart-if-crashed-now through the DTT model.

        Three durably-charged components: rescanning the log written
        since the last complete checkpoint (sequential reads), replaying
        each of its records against a data page (random read+write), and
        flushing the pool's current dirty pages (random writes).  Index
        rebuild cost is excluded: it is paid by every restart regardless
        of checkpoint placement, so it cannot inform the decision.
        """
        log = self.log_fn()
        records = max(0, log.records_since_checkpoint())
        log_pages = (records + RECORDS_PER_PAGE - 1) // RECORDS_PER_PAGE
        scan_us = log_pages * self.model.cost_us(
            READ, self.page_size, self.config.log_scan_band_bytes
        )
        replay_us = records * (
            self.model.cost_us(READ, self.page_size, self.page_size)
            + self.model.cost_us(WRITE, self.page_size, self.page_size)
        )
        flush_us = self.pool.dirty_page_count() * self.model.cost_us(
            WRITE, self.page_size, self.page_size
        )
        return int(scan_us + replay_us + flush_us)

    def poll_once(self):
        """One controller iteration; returns the recorded sample."""
        config = self.config
        log = self.log_fn()
        estimate = self.estimate_recovery_us()
        records = log.records_since_checkpoint()
        dirty = self.pool.dirty_page_count()
        statements = self.statements_fn()
        idle = statements == self._last_statements

        if self.in_recovery_fn():
            # Restart recovery takes its own checkpoint when it finishes;
            # a governor poll firing off a clock advance mid-recovery
            # must not interleave another one.
            action = HOLD_RECOVERY
        elif not config.adaptive:
            action = CKPT_FIXED if records > 0 else HOLD
        elif estimate >= config.recovery_time_target_us:
            action = CKPT_URGENT
        elif idle and records > 0:
            action = CKPT_IDLE
        else:
            action = HOLD

        if action in (CKPT_URGENT, CKPT_IDLE, CKPT_FIXED):
            try:
                self.checkpoint_fn()
            except IOFaultError:
                # The checkpoint's log force or page flush kept failing.
                # Count it and retry at the next poll — a governor timer
                # must never kill the statement whose clock advance
                # happened to fire it.
                self._m_io_faults.inc()
            estimate_after = self.estimate_recovery_us()
        else:
            estimate_after = estimate

        interval = self._retune_interval(estimate)
        sample = CkptSample(
            time_us=self.clock.now,
            estimate_us=estimate,
            records_pending=records,
            dirty_pages=dirty,
            action=action,
            interval_us=interval,
        )
        self.history.append(sample)
        self._m_polls.inc()
        self._m_actions[action].inc()
        self._m_estimate.set(estimate_after)
        self._last_estimate_us = estimate_after
        self._last_poll_us = self.clock.now
        self._last_statements = statements
        return sample

    def _retune_interval(self, estimate):
        """Damped interval retargeting from the estimate's slope.

        The ideal interval is half the predicted time for the estimate
        to climb from here to the target (sample twice before it can be
        crossed); with a flat or falling estimate the governor relaxes
        toward the maximum.  eq. 2 damping smooths the transitions.
        """
        config = self.config
        if not config.adaptive:
            self._interval_us = config.max_poll_interval_us
            return self._interval_us
        ideal = config.max_poll_interval_us
        if self._last_poll_us is not None:
            elapsed = self.clock.now - self._last_poll_us
            growth = estimate - self._last_estimate_us
            if elapsed > 0 and growth > 0:
                headroom = max(
                    0, config.recovery_time_target_us - estimate
                )
                time_to_target = headroom * elapsed / growth
                ideal = int(time_to_target / 2)
        ideal = min(
            max(ideal, config.min_poll_interval_us),
            config.max_poll_interval_us,
        )
        self._interval_us = int(
            config.damping_new * ideal + config.damping_old * self._interval_us
        )
        return self._interval_us
