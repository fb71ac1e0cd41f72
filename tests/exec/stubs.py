"""The stub world the operator differentials in this package show both
the engine's operator and its reference: column references, conjuncts
and quantifiers to build a plan from, a child that yields prepared
batches and records the clock at every pull, and the batches."""

from repro.exec.batch import Batch
from repro.exec.operators import Operator
from repro.sql import ast
from repro.sql.binder import Conjunct

#: Added to a batch's quantifier id for the second quantifier a batch
#: from :func:`chunked` may carry.
EXTRA_QID = 7


def column(qid, index, type_name="INT"):
    ref = ast.ColumnRef(None, "c%d" % index)
    ref.quantifier_id, ref.column_index, ref.type_name = qid, index, type_name
    return ref


def conjunct(expr):
    """A join predicate over quantifiers 1 and 2."""
    return Conjunct(expr, {1, 2})


class StubQuantifier:
    def __init__(self, qid, n_columns):
        self.id = qid
        self.columns = [None] * n_columns


class StubChild(Operator):
    """Yields prepared batches; each pull records the clock as the
    operator above left it, under ``name``, then moves it the way a
    scan's page fetch would.  Before the pulls named in
    ``relinquish_before`` the memory governor asks ``owner`` to give its
    memory back."""

    def __init__(self, name, batches, trace, relinquish_before=()):
        self.name, self.batches, self.trace = name, batches, trace
        self.relinquish_before = relinquish_before
        self.owner = None

    def execute_batches(self, ctx):
        for number, batch in enumerate(self.batches):
            if number in self.relinquish_before:
                freed = self.owner.relinquish_memory()
                self.trace.append(("relinquished", freed, ctx.clock.now,
                                   ctx.carry_ps[0]))
            self.trace.append((self.name, ctx.clock.now, ctx.carry_ps[0]))
            ctx.clock.advance(3)
            ctx.charge(0.3)
            yield batch
        self.trace.append((self.name + "-end", ctx.clock.now, ctx.carry_ps[0]))


def chunked(qid, rows, size, extra_every=0, columnar=False):
    """``rows`` as row-backed batches of ``size``; every
    ``extra_every``-th batch carries a second quantifier
    (``qid + EXTRA_QID``), so the input changes layout — a batch of
    columns with ``columnar``, of flat rows without."""
    batches = []
    for number, start in enumerate(range(0, len(rows), size)):
        chunk = rows[start:start + size]
        batch = Batch.from_rows(qid, chunk)
        if extra_every and number % extra_every == 0:
            width = len(chunk[0])
            layout = ((qid, 0, width), (qid + EXTRA_QID, width, 1))
            if columnar:
                batch = Batch(
                    layout, batch.columns + [[number] * len(chunk)], len(chunk)
                )
            else:
                batch = Batch.from_flat_rows(
                    layout, [row + (number,) for row in chunk]
                )
        batches.append(batch)
    return batches
