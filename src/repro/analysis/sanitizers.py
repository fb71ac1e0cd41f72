"""Runtime sanitizers: debug-mode invariant checks for the engine.

The static SIM rules (:mod:`repro.analysis.rules`) prove what the AST can
show; these sanitizers check the invariants only execution can reach:

* **pin leaks** — :class:`SanitizedBufferPool` records the call site of
  every pin and the server asserts zero pinned frames at each statement
  boundary, reporting where the leaked pins were taken; the same
  boundary recounts the pool's per-file resident-frame counters;
* **governor accounting** — :class:`SanitizedTask` cross-checks
  ``used_pages`` against the registered consumers' ``memory_pages`` after
  every allocate/release, and :class:`SanitizedMemoryGovernor` asserts a
  finished task holds nothing;
* **one clock** — :class:`SanitizedSimClock` asserts monotonicity;
* **replacement sanity** — :class:`SanitizedGClockPolicy` asserts hand
  validity on every sweep (the exact invariant whose violation caused the
  PR 1 hand-drift bug) and that its reference order still is
  ``last_ref_tick`` order — on sweeps, removals and statement
  boundaries, never on a hit, so sanitized lanes keep the O(1) hit path;
* **page images** — :class:`SanitizedVolume` re-checks, a row at a time,
  what the volume's copy decides a page at a time: after every page
  read and write the durable image equals the frame's payload and shares
  no dict, list or set with it.

Enable them with ``Server(sanitize=True)``, the ``REPRO_SANITIZE``
environment variable, or :func:`set_sanitizers_enabled` (the pytest
fixture in ``tests/conftest.py`` turns them on for the whole suite).
They are assertions, not recovery: a failure raises
:class:`SanitizerError` at the first observation of a broken invariant.
"""

import collections
import os
import sys

from repro.analysis.sanitizer_base import (  # noqa: F401  (re-exports)
    SanitizerError,
    sanitizers_enabled,
    set_sanitizers_enabled,
)
from repro.buffer.governor import GROW, SHRINK, BufferGovernor
from repro.buffer.pool import BufferPool
from repro.buffer.replacement import GClockPolicy
from repro.common.clock import SimClock
from repro.exec.memory import MemoryGovernor, Task
from repro.storage.pagedfile import Volume

# --------------------------------------------------------------------- #
# errors (base class in repro.analysis.sanitizer_base)
# --------------------------------------------------------------------- #


class PinLeakError(SanitizerError):
    """Frames were still pinned at a statement boundary."""


class QuotaAccountingError(SanitizerError):
    """Task page accounting and consumer registry disagree."""


class ClockError(SanitizerError):
    """The simulated clock moved backwards."""


class ReplacementError(SanitizerError):
    """The GClock hand or victim left its valid range, or its reference
    order stopped being ``last_ref_tick`` order."""


class ResidentCountError(SanitizerError):
    """The pool's per-file resident counts disagree with a recount."""


class GovernorDriftError(SanitizerError):
    """The buffer governor's pool size drifted from the OS allocation."""


class LockInvariantError(SanitizerError):
    """Lock bookkeeping diverged: a release missed the lock table or a
    grant would overwrite a live holder."""


class RecoveryIdempotenceError(SanitizerError):
    """A second redo pass changed page images (redo is not idempotent)."""


class SchedulerInvariantError(SanitizerError):
    """A session ran a statement while the admission queue held it."""


class GroupCommitInvariantError(SanitizerError):
    """A commit was acknowledged before its LSN was durable."""


class PageImageError(SanitizerError):
    """A page image differs from its source, or the durable image and
    the frame's payload share a mutable container."""


def _call_site():
    """The innermost caller outside the pool/sanitizer plumbing."""
    frame = sys._getframe(1)
    skip = (os.sep + "pool.py", os.sep + "sanitizers.py")
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith(skip):
            return "%s:%d in %s" % (
                filename, frame.f_lineno, frame.f_code.co_name
            )
        frame = frame.f_back
    return "<unknown>"


# --------------------------------------------------------------------- #
# pin-leak detector
# --------------------------------------------------------------------- #


class SanitizedBufferPool(BufferPool):
    """A BufferPool that remembers who pinned what.

    Every pin-acquiring call records its (non-pool) call site; unpins pop
    them.  :meth:`assert_no_pins` raises :class:`PinLeakError` naming the
    origin sites of any surviving pins — the statement-boundary check the
    server runs after every execute/fetch when sanitizing.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pin_sites = {}  # frame key -> [call site, ...]

    def _record_pin(self, frame):
        self._pin_sites.setdefault(frame.key, []).append(_call_site())

    def fetch(self, file, page_no, kind=None):
        if kind is None:
            frame = super().fetch(file, page_no)
        else:
            frame = super().fetch(file, page_no, kind)
        self._record_pin(frame)
        return frame

    def new_page(self, file, kind=None, payload=None):
        if kind is None:
            frame = super().new_page(file, payload=payload)
        else:
            frame = super().new_page(file, kind, payload=payload)
        self._record_pin(frame)
        return frame

    def allocate_heap_frame(self, heap_ref, payload=None):
        frame = super().allocate_heap_frame(heap_ref, payload)
        self._record_pin(frame)
        return frame

    def unspill_heap_frame(self, heap_ref, temp_page):
        frame = super().unspill_heap_frame(heap_ref, temp_page)
        self._record_pin(frame)
        return frame

    def repin(self, frame):
        super().repin(frame)
        self._record_pin(frame)

    def unpin(self, frame, dirty=False):
        super().unpin(frame, dirty=dirty)
        sites = self._pin_sites.get(frame.key)
        if sites:
            sites.pop()
        if frame.pin_count == 0:
            self._pin_sites.pop(frame.key, None)

    def release_frame(self, frame):
        super().release_frame(frame)
        self._pin_sites.pop(frame.key, None)

    def discard(self, file):
        super().discard(file)
        for key in list(self._pin_sites):
            if key not in self._frames:
                del self._pin_sites[key]

    def drop_all(self):
        super().drop_all()
        self._pin_sites.clear()

    # -- the statement-boundary check ---------------------------------- #

    def pin_origins(self):
        """``{frame key: [origin site, ...]}`` for every pinned frame."""
        origins = {}
        for key, frame in self._frames.items():
            if frame.pinned:
                origins[key] = list(self._pin_sites.get(key, []))
        return origins

    def assert_bookkeeping(self, context="statement end"):
        """The incrementally maintained state equals a recount: per-file
        resident counts here, reference order in the policy."""
        recount = collections.Counter(
            frame.owner for frame in self._frames.values()
            if frame.owner is not None
        )
        if dict(recount) != self._resident:
            raise ResidentCountError(
                "resident counts drifted at %s: counted %r, maintained %r"
                % (
                    context,
                    {f.name: n for f, n in recount.items()},
                    {f.name: n for f, n in self._resident.items()},
                )
            )
        check = getattr(self.policy, "check_reference_order", None)
        if check is not None:
            check(context)

    def assert_no_pins(self, context="statement end"):
        self.assert_bookkeeping(context)
        pinned = [f for f in self._frames.values() if f.pinned]
        if not pinned:
            return
        details = []
        for frame in pinned:
            sites = self._pin_sites.get(frame.key) or ["<unrecorded>"]
            details.append(
                "%r held %d pin%s, taken at: %s"
                % (
                    frame.key,
                    frame.pin_count,
                    "" if frame.pin_count == 1 else "s",
                    "; ".join(sites),
                )
            )
        raise PinLeakError(
            "pin leak at %s: %d frame%s still pinned — %s"
            % (
                context,
                len(pinned),
                "" if len(pinned) == 1 else "s",
                " | ".join(details),
            )
        )


# --------------------------------------------------------------------- #
# governor accounting cross-check
# --------------------------------------------------------------------- #


class SanitizedTask(Task):
    """A Task that audits its page accounting after every transition.

    Registered consumers' ``memory_pages`` must never exceed
    ``used_pages`` (unregistered allocations — spill buffers, sort runs in
    flight — legitimately make the task total larger, never smaller), and
    a release may not return more pages than the task holds: both are the
    signatures of double-release / lost-registration bugs that
    ``Task.release``'s clamp would otherwise silently absorb.
    """

    def _audit(self, event):
        consumer_pages = sum(
            consumer.memory_pages for __, consumer in self._consumers
        )
        if consumer_pages > self.used_pages:
            raise QuotaAccountingError(
                "task %d accounting mismatch after %s: registered consumers"
                " hold %d pages but used_pages=%d (origin: %s)"
                % (
                    self.task_id, event, consumer_pages, self.used_pages,
                    _call_site(),
                )
            )

    def allocate(self, pages):
        super().allocate(pages)
        self._audit("allocate(%d)" % (pages,))

    def release(self, pages):
        if int(pages) > self.used_pages:
            raise QuotaAccountingError(
                "task %d over-release: release(%d) with used_pages=%d "
                "(origin: %s)"
                % (self.task_id, int(pages), self.used_pages, _call_site())
            )
        super().release(pages)
        self._audit("release(%d)" % (pages,))

    def unregister_consumer(self, consumer):
        super().unregister_consumer(consumer)
        self._audit("unregister_consumer")


class SanitizedMemoryGovernor(MemoryGovernor):
    """Issues :class:`SanitizedTask` and audits task teardown.

    A statement that finishes — normally or by unwinding through
    ``MemoryQuotaExceededError`` — must leave its task with zero pages
    and no registered consumers, or the governor's ``active_requests``
    and quota formulas drift for every later statement.
    """

    def begin_task(self):
        task = SanitizedTask(self, self._next_task_id)
        self._tasks[task.task_id] = task
        self._next_task_id += 1
        self._window_peak_concurrency = max(
            self._window_peak_concurrency, len(self._tasks)
        )
        return task

    def end_task(self, task):
        stale = [
            type(consumer).__name__ for __, consumer in task._consumers
        ]
        if task.used_pages != 0 or stale:
            raise QuotaAccountingError(
                "task %d torn down dirty: used_pages=%d, stale consumers=%r"
                % (task.task_id, task.used_pages, stale)
            )
        super().end_task(task)


# --------------------------------------------------------------------- #
# buffer-governor drift check
# --------------------------------------------------------------------- #


class SanitizedBufferGovernor(BufferGovernor):
    """Asserts the pool size and the OS allocation agree after a resize.

    The governor's control law reads the working set *through* the
    process allocation it maintains itself; if a resize forgets
    ``_sync_process_allocation`` the two drift apart and every later
    poll steers on a stale reference input.  The check runs only when
    the poll itself resized (GROW/SHRINK) — tests legitimately call
    ``pool.set_capacity`` directly, which the governor only observes at
    its next poll.
    """

    def poll_once(self):
        sample = super().poll_once()
        if sample.action in (GROW, SHRINK):
            expected = self.pool.size_bytes() + self._heap_size_fn()
            allocated = self.server_process.allocated
            if allocated != expected:
                raise GovernorDriftError(
                    "governor drift after %s: process allocation %d != "
                    "pool %d + heap %d"
                    % (
                        sample.action, allocated,
                        self.pool.size_bytes(), self._heap_size_fn(),
                    )
                )
        return sample


# --------------------------------------------------------------------- #
# clock and replacement-policy sanitizers
# --------------------------------------------------------------------- #


class SanitizedSimClock(SimClock):
    """Asserts the virtual clock never observes time moving backwards."""

    def __init__(self, start=0):
        super().__init__(start)
        self._watermark = self._now

    def advance(self, delta_us):
        if self._now < self._watermark:
            raise ClockError(
                "clock moved backwards: now=%d < watermark=%d"
                % (self._now, self._watermark)
            )
        super().advance(delta_us)
        if self._now < self._watermark:
            raise ClockError(
                "advance(%r) moved the clock backwards: now=%d < "
                "watermark=%d" % (delta_us, self._now, self._watermark)
            )
        self._watermark = self._now


class SanitizedGClockPolicy(GClockPolicy):
    """Asserts the clock hand and chosen victims stay valid.

    The PR 1 hand-drift bug (`on_remove` forgetting to shift the hand)
    produced exactly the states these checks reject: a hand past the end
    of the ring, or a victim that is pinned or no longer resident.

    ``_segment_of`` reads the oldest reference tick off the head of the
    reference order instead of scanning the ring; :meth:`check_reference_order`
    recounts that on every sweep, removal and statement boundary.
    ``on_reference`` is deliberately not overridden: a hit costs the same
    with sanitizers on.
    """

    def check_reference_order(self, event):
        order = list(self._by_reference)
        if len(order) != len(self._ring) or set(order) != set(self._ring):
            raise ReplacementError(
                "GClock ring (%d frames) and reference order (%d frames) "
                "hold different frames after %s"
                % (len(self._ring), len(order), event)
            )
        if not order:
            return
        ticks = [frame.last_ref_tick for frame in order]
        if ticks[0] != min(ticks):
            raise ReplacementError(
                "GClock reference-order head has tick %d but the oldest "
                "frame in the ring has %d after %s (a reference skipped "
                "move_to_end?)" % (ticks[0], min(ticks), event)
            )
        if ticks != sorted(ticks):
            raise ReplacementError(
                "GClock reference order is not last_ref_tick order after "
                "%s: the policy was handed a decreasing tick" % (event,)
            )

    def _check_hand(self, event):
        if not (0 <= self._hand <= len(self._ring)):
            raise ReplacementError(
                "GClock hand out of range after %s: hand=%d, ring size=%d"
                % (event, self._hand, len(self._ring))
            )

    def on_insert(self, frame, tick):
        super().on_insert(frame, tick)
        self._check_hand("on_insert")

    def on_remove(self, frame):
        super().on_remove(frame)
        self._check_hand("on_remove")
        if frame in self._ring:
            raise ReplacementError(
                "removed frame %r still in the GClock ring" % (frame,)
            )
        self.check_reference_order("on_remove")

    def choose_victim(self, frames, tick):
        self._check_hand("sweep start")
        self.check_reference_order("sweep start")
        victim = super().choose_victim(frames, tick)
        self._check_hand("sweep end")
        if victim.pinned:
            raise ReplacementError(
                "GClock chose a pinned victim: %r" % (victim,)
            )
        if victim not in frames:
            raise ReplacementError(
                "GClock chose a non-resident victim: %r" % (victim,)
            )
        return victim


# --------------------------------------------------------------------- #
# page-image sanitizer
# --------------------------------------------------------------------- #


_CONTAINERS = (dict, list, tuple, set)


def _mutable_containers(value, found):
    """Collect ``id -> object`` for every dict, list and set reachable
    from ``value`` (through tuples too) into ``found``."""
    if isinstance(value, (dict, list, set)):
        found[id(value)] = value
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return found  # set members are hashable: nothing mutable below
    for item in value:
        if isinstance(item, _CONTAINERS):
            _mutable_containers(item, found)
    return found


class SanitizedVolume(Volume):
    """Asserts every page transfer leaves two separate, equal images.

    ``Volume`` shares whatever its copy takes for a value and decides
    that for a whole page at once; this walks source and copy element by
    element after each transfer.  A shared container would make a frame's
    next in-place update durable with no writeback — invisible until a
    crash recovers the wrong page.
    """

    def _check_image(self, event, global_page, source, image):
        if image != source:
            raise PageImageError(
                "page %d: image after %s differs from its source: %r != %r"
                % (global_page, event, image, source)
            )
        ours = _mutable_containers(source, {})
        shared = [
            item for key, item in _mutable_containers(image, {}).items()
            if key in ours
        ]
        if shared:
            raise PageImageError(
                "page %d: durable image and frame share %d mutable "
                "container(s) after %s, e.g. %r"
                % (global_page, len(shared), event, shared[0])
            )

    def read_payload(self, global_page):
        image = super().read_payload(global_page)
        self._check_image(
            "read_payload", global_page, self._store.get(global_page), image
        )
        return image

    def write_payload(self, global_page, payload):
        super().write_payload(global_page, payload)
        self._check_image(
            "write_payload", global_page, payload, self._store[global_page]
        )
