"""Unit tests for page replacement policies."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.buffer import FIFOPolicy, GClockPolicy, LRUPolicy, PageKind
from repro.buffer.frames import Frame
from repro.buffer.replacement import SEGMENTS
from repro.common.errors import BufferPoolExhaustedError


def make_frame(kind=PageKind.TABLE, key=0):
    frame = Frame(kind, heap_ref=("test", key))
    return frame


class TestGClock:
    def test_new_frame_gets_score_one(self):
        policy = GClockPolicy()
        frame = make_frame()
        policy.on_insert(frame, tick=1)
        assert frame.score == 1.0

    def test_victim_is_cold_page(self):
        policy = GClockPolicy()
        hot = make_frame(key=1)
        cold = make_frame(key=2)
        policy.on_insert(cold, 1)
        policy.on_insert(hot, 2)
        # Re-reference the hot page many ticks apart so it climbs segments.
        for tick in range(10, 100, 10):
            policy.on_reference(hot, tick)
        victim = policy.choose_victim({hot, cold}, 100)
        assert victim is cold

    def test_pinned_frames_skipped(self):
        policy = GClockPolicy()
        pinned = make_frame(key=1)
        pinned.pin_count = 1
        other = make_frame(key=2)
        policy.on_insert(pinned, 1)
        policy.on_insert(other, 2)
        assert policy.choose_victim({pinned, other}, 3) is other

    def test_all_pinned_raises(self):
        policy = GClockPolicy()
        frame = make_frame()
        frame.pin_count = 1
        policy.on_insert(frame, 1)
        with pytest.raises(BufferPoolExhaustedError):
            policy.choose_victim({frame}, 2)

    def test_scores_decay_so_everything_becomes_candidate(self):
        # "Page scores are decayed exponentially to ensure that all pages
        # can eventually become candidates for replacement."
        policy = GClockPolicy()
        frames = [make_frame(key=i) for i in range(4)]
        for i, frame in enumerate(frames):
            policy.on_insert(frame, i)
            for tick in range(10 * (i + 1), 200, 7):
                policy.on_reference(frame, tick)
        # Even with every page warm, a victim is always found.
        victim = policy.choose_victim(set(frames), 300)
        assert victim in frames

    def test_lookaside_preferred_over_clock(self):
        policy = GClockPolicy()
        table = make_frame(PageKind.TABLE, key=1)
        heap = make_frame(PageKind.HEAP, key=2)
        policy.on_insert(table, 1)
        policy.on_insert(heap, 2)
        policy.note_reusable(heap)
        assert policy.lookaside_depth() == 1
        assert policy.choose_victim({table, heap}, 3) is heap

    def test_lookaside_only_for_reusable_kinds(self):
        policy = GClockPolicy()
        table = make_frame(PageKind.TABLE, key=1)
        policy.on_insert(table, 1)
        policy.note_reusable(table)
        assert policy.lookaside_depth() == 0

    def test_lookaside_skips_stale_entries(self):
        policy = GClockPolicy()
        heap = make_frame(PageKind.HEAP, key=1)
        other = make_frame(PageKind.TEMP, key=2)
        policy.on_insert(heap, 1)
        policy.on_insert(other, 2)
        policy.note_reusable(heap)
        policy.on_remove(heap)
        policy.note_reusable(other)
        # heap was evicted already: the queue entry is stale and skipped.
        assert policy.choose_victim({other}, 3) is other

    def test_remove_below_hand_keeps_hand_on_same_frame(self):
        # Regression: removing a frame below the hand shifted the ring
        # left under it, so the hand silently skipped the next frame and
        # the sweep stopped being fair.
        policy = GClockPolicy()
        a = make_frame(key=1)
        b = make_frame(key=2)
        c = make_frame(key=3)
        for tick, frame in enumerate((a, b, c), start=1):
            policy.on_insert(frame, tick)
        policy._hand = 1  # the hand points at b
        policy.on_remove(a)
        assert policy._ring[policy._hand] is b
        # With equal scores the sweep's first victim is the frame under
        # the hand — b, not the skipped-over c.
        assert policy.choose_victim({b, c}, 10) is b

    def test_remove_above_hand_leaves_hand_alone(self):
        policy = GClockPolicy()
        a = make_frame(key=1)
        b = make_frame(key=2)
        c = make_frame(key=3)
        for tick, frame in enumerate((a, b, c), start=1):
            policy.on_insert(frame, tick)
        policy._hand = 1
        policy.on_remove(c)  # above the hand: indexes below are unmoved
        assert policy._ring[policy._hand] is b

    def test_remove_last_frame_wraps_hand(self):
        policy = GClockPolicy()
        a = make_frame(key=1)
        b = make_frame(key=2)
        policy.on_insert(a, 1)
        policy.on_insert(b, 2)
        policy._hand = 1
        policy.on_remove(b)
        assert policy._hand == 0

    def test_rapid_rereference_does_not_inflate_score(self):
        # Adjacent references during a table scan must not pump the score.
        policy = GClockPolicy()
        frame = make_frame()
        policy.on_insert(frame, 100)
        policy.on_reference(frame, 100)
        policy.on_reference(frame, 100)
        assert frame.score == 1.0


class ScanningGClockPolicy(GClockPolicy):
    """The reference: ``_segment_of`` as it was defined before the
    reference order existed — the oldest tick found by scanning the ring."""

    def _segment_of(self, frame, tick):
        if not self._ring:
            return 0
        oldest = min(f.last_ref_tick for f in self._ring)
        span = max(1, tick - oldest)
        age = tick - frame.last_ref_tick
        return min(SEGMENTS - 1, (age * SEGMENTS) // span)


_KINDS = (PageKind.TABLE, PageKind.INDEX, PageKind.HEAP, PageKind.TEMP)

#: One step: (operation, frame picker, tick advance).  The picker indexes
#: the resident frames modulo their number (few values, so the same frame
#: is hit again and again); advances mix long gaps with short ones — a
#: short gap after a long one is what tells segment 0 from the rest — and
#: may be zero because the policy only needs ticks that never decrease.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "reference", "reference", "reference",
             "pin", "unpin", "remove", "victim"]
        ),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([0, 1, 1, 2, 3, 50, 400]),
    ),
    min_size=20,  # hypothesis averages ~5 elements when min_size is 0
    max_size=120,
)


class TestGClockReferenceOrderIsExact:
    """Differential test: the O(1) oldest-tick lookup and the ring scan it
    replaced give the same score after every step and the same victims."""

    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS)
    @example(steps=[
        # Re-referencing the oldest frame moves the minimum: a policy that
        # kept the head where it was would see segment 7 on the last step.
        ("insert", 0, 0), ("insert", 0, 0),
        ("reference", 0, 50), ("reference", 0, 1),
    ])
    def test_same_scores_and_victims_as_the_ring_scan(self, steps):
        fast, scan = GClockPolicy(), ScanningGClockPolicy()
        resident = []  # [(frame under fast, frame under scan)]
        tick = 0
        for n, (op, pick, advance) in enumerate(steps):
            tick += advance
            if op == "insert" or not resident:
                pair = tuple(
                    make_frame(_KINDS[pick % len(_KINDS)], key=n)
                    for __ in range(2)
                )
                resident.append(pair)
                fast.on_insert(pair[0], tick)
                scan.on_insert(pair[1], tick)
                continue
            pair = resident[pick % len(resident)]
            if op == "reference":
                fast.on_reference(pair[0], tick)
                scan.on_reference(pair[1], tick)
            elif op == "pin":
                for frame in pair:
                    frame.pin_count += 1
            elif op == "unpin":
                for frame, policy in zip(pair, (fast, scan)):
                    frame.pin_count = max(0, frame.pin_count - 1)
                    policy.note_reusable(frame)
            elif op == "remove":
                resident.remove(pair)
                fast.on_remove(pair[0])
                scan.on_remove(pair[1])
            else:
                outcomes = []
                for side, policy in enumerate((fast, scan)):
                    try:
                        victim = policy.choose_victim(
                            {p[side] for p in resident}, tick
                        )
                    except BufferPoolExhaustedError:
                        outcomes.append(None)
                    else:
                        outcomes.append(victim.key)
                        policy.on_remove(victim)
                assert outcomes[0] == outcomes[1]
                resident = [p for p in resident if p[0].key != outcomes[0]]
            assert [p[0].score for p in resident] == [
                p[1].score for p in resident
            ]
            assert [p[0].last_ref_tick for p in resident] == [
                p[1].last_ref_tick for p in resident
            ]
            assert fast._hand == scan._hand


class TestLRU:
    def test_evicts_least_recent(self):
        policy = LRUPolicy()
        a, b = make_frame(key=1), make_frame(key=2)
        policy.on_insert(a, 1)
        policy.on_insert(b, 2)
        policy.on_reference(a, 5)
        assert policy.choose_victim({a, b}, 6) is b

    def test_all_pinned_raises(self):
        policy = LRUPolicy()
        frame = make_frame()
        frame.pin_count = 2
        policy.on_insert(frame, 1)
        with pytest.raises(BufferPoolExhaustedError):
            policy.choose_victim({frame}, 2)


class TestFIFO:
    def test_evicts_first_inserted_despite_references(self):
        policy = FIFOPolicy()
        a, b = make_frame(key=1), make_frame(key=2)
        policy.on_insert(a, 1)
        policy.on_insert(b, 2)
        policy.on_reference(a, 10)
        assert policy.choose_victim({a, b}, 11) is a
