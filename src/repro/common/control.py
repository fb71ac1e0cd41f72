"""The one feedback-loop shape of every self-tuning component.

The paper's Figure 1 is one block diagram: measure, compute an ideal,
clamp it, hold inside a deadband, damp the step (eq. 2).  The buffer and
checkpoint governors, the group-commit window, the adaptive MPL and DTT
recalibration share :func:`damped` (the one eq. 2 step), the
:class:`Decision` record kept in one bounded ring, and — for the two
polled governors — the :class:`PollLoop` timer.
"""

import collections

#: eq. 2 weights, (new ideal, current value).
EQ2_WEIGHTS = (0.9, 0.1)

#: Decisions a ring keeps; the oldest fall off the front.
DECISION_RING_CAP = 1024

#: What ``loop`` decided (``action``), the actuated value ``before`` and
#: ``after``, and the measurements it decided from (``inputs``, a dict).
Decision = collections.namedtuple(
    "Decision", ["time_us", "loop", "action", "before", "after", "inputs"]
)


def damped(ideal, current, weights=EQ2_WEIGHTS):
    """One damped step from ``current`` toward ``ideal`` (eq. 2)."""
    w_new, w_old = weights
    return int(w_new * ideal + w_old * current)


def decision_ring(ring=None):
    """``ring`` when a caller shares one, else a new empty ring of
    :class:`Decision` records."""
    return ring if ring is not None else collections.deque(
        maxlen=DECISION_RING_CAP
    )


class PollLoop:
    """Periodic polling on the simulated clock, and the poll record.

    A subclass defines ``poll_once()``, which returns the Decision built
    by :meth:`_record` with the delay to the next poll in
    ``inputs["interval_us"]``, and ``_next_interval()``, the delay to the
    first poll after :meth:`start`.  ``polls`` and ``actions`` (action ->
    counter) are its registered metrics.
    """

    def __init__(self, clock, loop, polls, actions, decisions=None):
        self.clock = clock
        self.loop = loop
        self.decisions = decision_ring(decisions)
        self._m_polls = polls
        self._m_actions = actions
        self._running = False
        #: Carried by every scheduled timer and bumped by :meth:`stop`,
        #: so a timer from before a stop() fires as a no-op.
        self._generation = 0

    def start(self):
        """Begin periodic polling on the simulated clock."""
        if not self._running:
            self._running = True
            self._schedule(self._next_interval(), self._generation)

    def stop(self):
        """Stop scheduling further polls (pending timers become no-ops)."""
        self._running = False
        self._generation += 1

    def _schedule(self, delay_us, generation):
        self.clock.call_after(delay_us, lambda: self._on_timer(generation))

    def _on_timer(self, generation):
        if generation == self._generation:
            decision = self.poll_once()
            self._schedule(decision.inputs["interval_us"], generation)

    def _record(self, action, before, after, **inputs):
        """Append one poll's decision to the ring and count it."""
        decision = Decision(
            self.clock.now, self.loop, action, before, after, inputs
        )
        self.decisions.append(decision)
        self._m_polls.inc()
        self._m_actions[action].inc()
        return decision
