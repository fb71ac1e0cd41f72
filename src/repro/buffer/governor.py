"""The buffer-pool sizing governor (paper Section 2, Figure 1).

A feedback controller that polls the operating system and retargets the
buffer pool:

* reference inputs: the server's OS **working-set size** and the amount of
  **free physical memory** (plus the pool's own miss counter);
* target: working set + free memory, keeping 5 MB in reserve for the OS;
* a 64 KB deadband suppresses micro-adjustments;
* the target is clamped to fixed lower/upper bounds, and to the *soft*
  upper bound ``min(database size + main heap size, upper bound)``
  (eq. 1) — database size includes temporary files, so large intermediate
  results automatically unconstrain the pool;
* growth is gated on buffer misses having occurred since the last poll
  (an idle or fully-resident server gains nothing from growth); shrinking
  is always allowed;
* resizes are damped: ``0.9 * ideal + 0.1 * current`` (eq. 2);
* polling is nominally one minute, dropping to 20 seconds at startup and
  after significant database growth;
* on CE-like systems without working-set reporting, the controller falls
  back to using the current pool size as its reference input: it grows
  only when free memory increases and shrinks under memory pressure.
"""

import collections
import dataclasses

from repro.common.errors import IOFaultError
from repro.common.units import KiB, MiB, MINUTE, SECOND, bytes_to_pages
from repro.ossim.memory import WorkingSetProbeOutage, WorkingSetUnavailable
from repro.profiling.metrics import NULL_METRICS

GovernorSample = collections.namedtuple(
    "GovernorSample",
    [
        "time_us",
        "working_set",
        "free_memory",
        "misses",
        "ideal_bytes",
        "new_pool_bytes",
        "action",
        "interval_us",
    ],
)

#: Actions recorded in the sample history.
GROW = "grow"
SHRINK = "shrink"
HOLD_DEADBAND = "hold-deadband"
HOLD_NO_MISSES = "hold-no-misses"
HOLD = "hold"


@dataclasses.dataclass
class GovernorConfig:
    """Tunables, defaulted to the paper's constants."""

    poll_interval_us: int = 1 * MINUTE
    fast_poll_interval_us: int = 20 * SECOND
    deadband_bytes: int = 64 * KiB
    os_reserve_bytes: int = 5 * MiB
    lower_bound_bytes: int = 2 * MiB
    upper_bound_bytes: int = 1024 * MiB
    damping_new: float = 0.9
    damping_old: float = 0.1
    #: Database growth (fractional, between polls) considered "significant",
    #: which switches the controller into fast polling.
    significant_growth_fraction: float = 0.25
    #: Number of fast polls performed at startup.
    startup_fast_polls: int = 5


class BufferGovernor:
    """Drives :class:`~repro.buffer.pool.BufferPool` sizing from OS inputs."""

    def __init__(
        self,
        clock,
        os,
        server_process,
        pool,
        database_size_fn,
        heap_size_fn=None,
        config=None,
        metrics=None,
    ):
        self.clock = clock
        self.os = os
        self.server_process = server_process
        self.pool = pool
        self._database_size_fn = database_size_fn
        self._heap_size_fn = heap_size_fn if heap_size_fn is not None else lambda: 0
        self.config = config if config is not None else GovernorConfig()
        self.history = []
        self._miss_mark = pool.mark()
        self._fast_polls_left = self.config.startup_fast_polls
        self._last_database_size = database_size_fn()
        self._last_free_memory = None
        #: Last successful working-set probe, used to ride out injected
        #: probe outages without falling back to the CE control law.
        self._last_working_set = None
        self._running = False
        metrics = metrics or NULL_METRICS
        self._m_polls = metrics.counter("governor.polls")
        self._m_actions = {
            action: metrics.counter("governor.action.%s" % action)
            for action in (GROW, SHRINK, HOLD_DEADBAND, HOLD_NO_MISSES, HOLD)
        }
        self._m_pool_bytes = metrics.gauge("governor.pool_bytes")
        self._m_ws_outages = metrics.counter("governor.ws_probe_outages")
        self._m_resize_faults = metrics.counter("governor.resize_io_faults")
        self._sync_process_allocation()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self):
        """Begin periodic polling on the simulated clock."""
        if self._running:
            return
        self._running = True
        self.clock.call_after(self._next_interval(), self._on_timer)

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

    def poll_once(self):
        """One controller iteration; returns the recorded sample."""
        config = self.config
        misses = self.pool.misses_since(self._miss_mark)
        self._miss_mark = self.pool.mark()

        free = self.os.free_memory()
        current = self.pool.size_bytes()
        try:
            working_set = self.os.working_set(self.server_process)
            self._last_working_set = working_set
            ideal = working_set + free - config.os_reserve_bytes
        except WorkingSetUnavailable:
            working_set = None
            ideal = self._ce_ideal(current, free)
        except WorkingSetProbeOutage:
            # Injected transient outage: ride it out on the last good
            # reading rather than degrading to the CE control law.
            self._m_ws_outages.inc()
            working_set = self._last_working_set
            if working_set is not None:
                ideal = working_set + free - config.os_reserve_bytes
            else:
                ideal = self._ce_ideal(current, free)

        ideal = self._clamp(ideal)
        action, new_size = self._decide(current, ideal, misses)
        if new_size != current:
            try:
                self.pool.set_capacity(
                    bytes_to_pages(new_size, self.pool.page_size)
                )
            except IOFaultError:
                # A shrink's dirty-page writeback kept failing.  The pool
                # stays at whatever size the partial eviction reached;
                # count it and let the next poll try again — a governor
                # timer must never kill the statement whose clock advance
                # happened to fire it.
                self._m_resize_faults.inc()
            self._sync_process_allocation()

        interval = self._next_interval()
        sample = GovernorSample(
            time_us=self.clock.now,
            working_set=working_set,
            free_memory=free,
            misses=misses,
            ideal_bytes=ideal,
            new_pool_bytes=self.pool.size_bytes(),
            action=action,
            interval_us=interval,
        )
        self.history.append(sample)
        self._m_polls.inc()
        self._m_actions[action].inc()
        self._m_pool_bytes.set(self.pool.size_bytes())
        if self._fast_polls_left > 0:
            self._fast_polls_left -= 1
        self._note_database_growth()
        self._last_free_memory = free
        return sample

    # ------------------------------------------------------------------ #
    # pieces of the control law
    # ------------------------------------------------------------------ #

    def _ce_ideal(self, current, free):
        """CE variant: reference input is the current buffer-pool size.

        Grow only by the *increase* in free memory since the last poll;
        shrink when free memory has fallen below the OS reserve (other
        applications allocated memory).
        """
        if self._last_free_memory is None:
            return current
        delta_free = free - self._last_free_memory
        if delta_free > 0:
            return current + delta_free
        if free < self.config.os_reserve_bytes:
            return current - (self.config.os_reserve_bytes - free)
        return current

    def _clamp(self, ideal):
        config = self.config
        soft_cap = min(
            self._database_size_fn() + self._heap_size_fn(),
            config.upper_bound_bytes,
        )
        ideal = min(ideal, soft_cap)
        ideal = max(ideal, config.lower_bound_bytes)
        return ideal

    def _decide(self, current, ideal, misses):
        config = self.config
        if abs(ideal - current) < config.deadband_bytes:
            return HOLD_DEADBAND, current
        damped = int(config.damping_new * ideal + config.damping_old * current)
        if damped > current:
            if misses == 0:
                # "If there are no buffer pool misses between polling
                # times, the buffer pool governor will not permit the
                # buffer pool to grow."
                return HOLD_NO_MISSES, current
            return GROW, damped
        if damped < current:
            # "the buffer pool is always allowed to shrink"
            return SHRINK, damped
        return HOLD, current

    def _next_interval(self):
        if self._fast_polls_left > 0:
            return self.config.fast_poll_interval_us
        return self.config.poll_interval_us

    def _note_database_growth(self):
        size = self._database_size_fn()
        previous = max(1, self._last_database_size)
        if (size - self._last_database_size) / previous >= (
            self.config.significant_growth_fraction
        ):
            # "the server will decrease its sampling period to 20 seconds
            # ... when the database grows significantly"
            self._fast_polls_left = max(
                self._fast_polls_left, self.config.startup_fast_polls
            )
        self._last_database_size = size

    def _sync_process_allocation(self):
        """Reflect the pool size in the server's OS allocation so the
        working-set feedback observes the resize."""
        overhead = self._heap_size_fn()
        self.server_process.set_allocation(self.pool.size_bytes() + overhead)
