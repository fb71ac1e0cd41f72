"""``ExecutionContext.charge``: CPU time kept exactly, in integer
picoseconds, in one carry that cloned contexts share — so the simulated
clock cannot depend on how an operator groups its rows into calls."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import SimClock
from repro.exec.executor import ExecutionContext
from repro.optimizer.costmodel import (
    CPU_HASH_BUILD_BATCH_US,
    CPU_HASH_PROBE_BATCH_US,
    CPU_HASH_PROBE_US,
    CPU_PREDICATE_BATCH_US,
    CPU_ROW_BATCH_US,
    CPU_ROW_US,
    CPU_SORT_FACTOR_BATCH_US,
)

#: The engine's per-row constants, plus a few that are not dyadic
#: (``0.075 * 256`` is not ``19.2`` in binary floating point).
UNITS = [
    CPU_HASH_BUILD_BATCH_US, CPU_HASH_PROBE_BATCH_US, CPU_HASH_PROBE_US,
    CPU_PREDICATE_BATCH_US, CPU_ROW_BATCH_US, CPU_ROW_US,
    CPU_SORT_FACTOR_BATCH_US, 0.075, 0.3, 2.4, 17.123456,
]


def context():
    return ExecutionContext(None, None, None, SimClock(), None)


def picoseconds(ctx):
    return ctx.clock.now * 1_000_000 + ctx.carry_ps[0]


@st.composite
def split_charges(draw):
    """``(history, charges, pieces)``: charges made before, the charges
    as ``(unit, count)`` pairs, and the same charges cut into pieces at
    drawn points and put in a drawn order."""
    history = draw(st.lists(st.sampled_from(UNITS), max_size=20))
    charges = draw(st.lists(
        st.tuples(st.sampled_from(UNITS), st.integers(0, 300)), max_size=8
    ))
    pieces = []
    for unit, count in charges:
        cuts = sorted(draw(st.lists(st.integers(0, count), max_size=4)))
        bounds = [0] + cuts + [count]
        pieces += [(unit, b - a) for a, b in zip(bounds, bounds[1:])]
    return history, charges, draw(st.permutations(pieces))


@settings(max_examples=300, deadline=None)
@given(split_charges())
def test_any_split_of_the_same_charges_leaves_the_same_clock(case):
    """One call per charge, the drawn pieces in the drawn order, and one
    call per row leave ``clock.now`` and the carry equal, from whatever
    carry the history left behind — and every picosecond is on the
    clock or in the carry."""
    history, charges, pieces = case
    whole, split, rowwise = context(), context(), context()
    for ctx in (whole, split, rowwise):
        for amount in history:
            ctx.charge(amount)
    for unit, count in charges:
        whole.charge(unit, count)
        for __ in range(count):
            rowwise.charge(unit)
    for unit, count in pieces:
        split.charge(unit, count)
    for ctx in (split, rowwise):
        assert ctx.clock.now == whole.clock.now
        assert ctx.carry_ps == whole.carry_ps
    assert 0 <= whole.carry_ps[0] < 1_000_000
    assert picoseconds(whole) == sum(
        round(unit * 1_000_000) * count
        for unit, count in [(u, 1) for u in history] + charges
    )


def test_a_clone_carries_into_its_parent():
    """A procedure body's context (``with_params``) shares the carry:
    half a microsecond charged on each side is one microsecond."""
    ctx = context()
    ctx.charge(0.5)
    ctx.with_params({"p": 1}).charge(0.5)
    assert ctx.clock.now == 1
    assert ctx.carry_ps == [0]
