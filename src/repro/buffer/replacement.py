"""Page replacement policies.

The paper's pool uses "a modified generalized 'clock' algorithm": the pool
is conceptually ordered by time of last reference and divided into eight
segments; a page's *score* is incremented as it moves from segment to
segment (i.e. as it keeps being re-referenced after aging), scores decay
exponentially so every page eventually becomes a candidate, and a
*lookaside queue* of immediately reusable pages (heap/temp) short-circuits
the clock entirely.  The paper implements the queue with a lock-free array
to avoid semaphores; in this single-threaded simulation a deque carries the
same semantics.

LRU and FIFO are provided as baselines for the replacement-policy
experiment (E13).
"""

import collections
import math

from repro.common.errors import BufferPoolExhaustedError

#: Number of reference-time segments (from the paper).
SEGMENTS = 8

#: Cap on a page's score: a page can climb at most one increment per
#: segment boundary it crosses, so SEGMENTS is the natural ceiling.
MAX_SCORE = float(SEGMENTS)

#: Multiplier applied when the clock hand passes a surviving page.  A
#: gentle decay preserves the score gap between re-referenced pages and
#: scan pages across many hand rotations (scan resistance).
DECAY = 0.9

#: Scores below this make a page a replacement candidate: a freshly
#: inserted scan page (score 1.0) survives roughly five hand rotations,
#: a fully promoted page (score 8.0) about twenty-five.
_EPSILON = 0.6


class ReplacementPolicy:
    """Interface: the pool tells the policy about frame lifecycle events."""

    def on_insert(self, frame, tick):
        raise NotImplementedError

    def on_reference(self, frame, tick):
        raise NotImplementedError

    def on_remove(self, frame):
        raise NotImplementedError

    def choose_victim(self, frames, tick):
        """Pick an unpinned frame among ``frames`` — the pool's live view
        of its resident frames, not a copy — to evict, or raise."""
        raise NotImplementedError

    def note_reusable(self, frame):
        """Hint that ``frame`` can be reused immediately (no-op by default)."""


class GClockPolicy(ReplacementPolicy):
    """The paper's modified generalized clock with a lookaside queue."""

    def __init__(self):
        self._ring = []  # frames in insertion order; hand cycles this list
        self._hand = 0
        #: The same frames in reference order, oldest first.  The pool's
        #: ticks never decrease, so reference order is ``last_ref_tick``
        #: order and the first entry carries the ring's minimum.
        self._by_reference = collections.OrderedDict()
        self._lookaside = collections.deque()

    # -- lifecycle ------------------------------------------------------- #

    def on_insert(self, frame, tick):
        frame.score = 1.0
        frame.last_ref_tick = tick
        frame.insert_tick = tick
        self._ring.append(frame)
        self._by_reference[frame] = None

    def on_reference(self, frame, tick):
        # A re-reference bumps the score only if the page has aged out of
        # the newest segment since its last reference — the "moves from
        # segment to segment" rule, which keeps a tight re-reference loop
        # (e.g. repeated hits during one table scan) from inflating scores.
        if self._segment_of(frame, tick) > 0:
            frame.score = min(MAX_SCORE, frame.score + 1.0)
        frame.last_ref_tick = tick
        self._by_reference.move_to_end(frame)

    def on_remove(self, frame):
        try:
            index = self._ring.index(frame)
        except ValueError:
            return
        del self._ring[index]
        del self._by_reference[frame]
        # Removing a frame below the hand shifts the ring left under it;
        # follow the shift or the hand silently skips the next frame.
        if index < self._hand:
            self._hand -= 1
        if self._hand >= len(self._ring):
            self._hand = 0

    def note_reusable(self, frame):
        if frame.kind.is_immediately_reusable and not frame.pinned:
            self._lookaside.append(frame)

    # -- victim selection -------------------------------------------------- #

    def choose_victim(self, frames, tick):
        # Fast path: the lookaside queue is checked before the clock runs.
        while self._lookaside:
            frame = self._lookaside.popleft()
            # Every resident frame is in the reference order (on_insert
            # / on_remove), so residency is a probe of the policy's own
            # dict, not a scan of the pool's view.
            if frame in self._by_reference and not frame.pinned:
                return frame
        if not self._ring:
            raise BufferPoolExhaustedError("empty pool has no victim")
        # Generalized clock: sweep, decaying survivors exponentially,
        # until an unpinned page scores below the threshold.  The bound is
        # the rotations needed to decay MAX_SCORE under the threshold,
        # plus slack.
        rotations = math.ceil(
            math.log(_EPSILON / (MAX_SCORE * 2)) / math.log(DECAY)
        ) + 2
        max_steps = len(self._ring) * rotations
        for __ in range(max_steps):
            if self._hand >= len(self._ring):
                self._hand = 0
            frame = self._ring[self._hand]
            self._hand += 1
            if frame.pinned:
                continue
            if frame.score < _EPSILON:
                return frame
            frame.score *= DECAY
        raise BufferPoolExhaustedError(
            "no replaceable frame among %d (all pinned?)" % (len(self._ring),)
        )

    # -- internals -------------------------------------------------------- #

    def _segment_of(self, frame, tick):
        """Which of the 8 reference-time segments the frame occupies.

        Segment 0 is the newest eighth of the reference-time span; 7 the
        oldest.
        """
        if not self._ring:
            return 0
        oldest = next(iter(self._by_reference)).last_ref_tick
        span = max(1, tick - oldest)
        age = tick - frame.last_ref_tick
        return min(SEGMENTS - 1, (age * SEGMENTS) // span)

    def lookaside_depth(self):
        """Number of queued immediately-reusable frames (diagnostics)."""
        return len(self._lookaside)


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used baseline."""

    def on_insert(self, frame, tick):
        frame.last_ref_tick = tick
        frame.insert_tick = tick

    def on_reference(self, frame, tick):
        frame.last_ref_tick = tick

    def on_remove(self, frame):
        pass

    def choose_victim(self, frames, tick):
        candidates = [frame for frame in frames if not frame.pinned]
        if not candidates:
            raise BufferPoolExhaustedError("all frames pinned")
        return min(candidates, key=lambda frame: frame.last_ref_tick)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out baseline."""

    def on_insert(self, frame, tick):
        frame.insert_tick = tick

    def on_reference(self, frame, tick):
        pass

    def on_remove(self, frame):
        pass

    def choose_victim(self, frames, tick):
        candidates = [frame for frame in frames if not frame.pinned]
        if not candidates:
            raise BufferPoolExhaustedError("all frames pinned")
        return min(candidates, key=lambda frame: frame.insert_tick)
