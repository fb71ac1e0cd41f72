"""Aggregation, distinct, sorting, projection, and limit operators.

The memory-intensive operators here honour the memory governor's soft
limit and implement the paper's low-memory fallbacks: hash group by falls
back to "a temporary table containing partially computed groups with an
index on the grouping columns" (Section 4.3); sort degrades to external
run merging.
"""

import collections
import functools
import heapq
import itertools
import operator

from repro.common.errors import ExecutionError
from repro.exec.batch import Batch, pack
from repro.exec.expr import (
    NUMBERS,
    evaluate_batch,
    evaluate_predicate_batch,
)
from repro.exec.spill import SpillFile, WorkMemory
from repro.sql import ast
from repro.optimizer.costmodel import (
    CPU_HASH_BUILD_BATCH_US,
    CPU_ROW_BATCH_US,
    CPU_SORT_FACTOR_BATCH_US,
)
from repro.exec.operators import Operator
from repro.storage.btree import BTree
from repro.storage.rowstore import RowId


# --------------------------------------------------------------------- #
# aggregate accumulators
# --------------------------------------------------------------------- #

#: What folding one value into an :class:`AggState` does.
_COUNT_STAR, _COUNT, _TOTAL, _MIN, _MAX = range(5)
_FOLD_KINDS = {
    "COUNT": _COUNT, "SUM": _TOTAL, "AVG": _TOTAL, "MIN": _MIN, "MAX": _MAX,
}

#: Rows whose argument values may wait unfolded in a hash group-by: a
#: bound on pending memory whatever the group count.
PENDING_ROWS = 4096

#: A batch with more distinct group keys than ``1 / SPARSE_BATCH_KEYS``
#: of its rows folds row at a time: at a row or two a group, a pending
#: list per group costs more than the per-row calls it saves.
SPARSE_BATCH_KEYS = 4

#: A hash join's batch folds from its pieces (:class:`_PieceFold`) only
#: when they average this many joined rows or more: below it, the work
#: per piece and per build list costs more than the rows it skips.
PIECE_ROWS = 4


def _kind_of(call):
    """What folding a value into ``call``'s state does (None: unknown)."""
    if call.name == "COUNT" and call.star:
        return _COUNT_STAR
    return _FOLD_KINDS.get(call.name)


class AggState:
    """Partial state of one aggregate; serializable as a plain tuple so
    fallback groups can live in temporary-table rows."""

    __slots__ = ("call", "count", "total", "extreme", "distinct", "_kind")

    def __init__(self, call):
        self.call = call
        self.count = 0
        self.total = None
        self.extreme = None
        self.distinct = set() if call.distinct else None
        # Resolved here, once, so the fold compares no strings per value.
        self._kind = _kind_of(call)

    @property
    def counts_rows(self):
        """COUNT(*): folding counts the values and reads none of them."""
        return self._kind == _COUNT_STAR

    def accumulate_value(self, value):
        """Fold one argument value in (argument columns are evaluated
        once per batch, then folded here row by row, in row order)."""
        kind = self._kind
        if kind == _COUNT_STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.distinct is not None:
            if value in self.distinct:
                return
            self.distinct.add(value)
        self.count += 1
        if kind == _TOTAL:
            if type(value) not in NUMBERS:
                self._not_a_number(value)
            total = self.total
            self.total = value if total is None else total + value
        elif kind == _MIN:
            extreme = self.extreme
            self.extreme = value if extreme is None else min(extreme, value)
        elif kind == _MAX:
            extreme = self.extreme
            self.extreme = value if extreme is None else max(extreme, value)

    def fold(self, values):
        """Fold a sequence of argument values in, leaving exactly the
        state that ``accumulate_value`` over each of them in order
        leaves: SUM / AVG add left to right (``functools.reduce``, never
        ``sum()``, whose float summation is compensated from Python
        3.12), MIN / MAX start from the current extreme and keep the
        earliest of equal values (``min(1, 1.0)`` is ``1``), DISTINCT
        keeps a value's first occurrence.  No Python call per value."""
        kind = self._kind
        if kind == _COUNT_STAR:
            self.count += len(values)
            return
        if None in values:
            values = [value for value in values if value is not None]
        if self.distinct is not None:
            seen = self.distinct
            values = [v for v in dict.fromkeys(values) if v not in seen]
            seen.update(values)
        if not values:
            return
        self.count += len(values)
        if kind == _TOTAL:
            total = self.total
            try:
                total = (
                    functools.reduce(operator.add, values) if total is None
                    else functools.reduce(operator.add, values, total)
                )
            except TypeError:
                total = None
            # Over SQL values only numbers add up to a number ('a' + 'b'
            # is a str); a sum that is not one names a value that is not.
            if type(total) not in NUMBERS:
                self._not_a_number(next(
                    value for value in values if type(value) not in NUMBERS
                ))
            self.total = total
        elif kind == _MIN:
            extreme = self.extreme
            self.extreme = (
                min(values) if extreme is None else min(extreme, *values)
            )
        elif kind == _MAX:
            extreme = self.extreme
            self.extreme = (
                max(values) if extreme is None else max(extreme, *values)
            )

    def _not_a_number(self, value):
        raise ExecutionError(
            "cannot %s %r values" % (self.call.name, type(value).__name__)
        )

    def merge_serialized(self, data):
        """Merge a serialized partial state (from a fallback temp row)."""
        count, total, extreme, distinct = data
        if self.distinct is not None and distinct is not None:
            new_values = set(distinct) - self.distinct
            self.distinct |= new_values
            self.count += len(new_values)
        else:
            self.count += count
        if total is not None:
            self.total = total if self.total is None else self.total + total
        if extreme is not None:
            if self.call.name == "MIN":
                self.extreme = (
                    extreme if self.extreme is None else min(self.extreme, extreme)
                )
            else:
                self.extreme = (
                    extreme if self.extreme is None else max(self.extreme, extreme)
                )

    def serialize(self):
        return (
            self.count,
            self.total,
            self.extreme,
            tuple(self.distinct) if self.distinct is not None else None,
        )

    def finalize(self):
        name = self.call.name
        if name == "COUNT":
            return self.count
        if name == "SUM":
            return self.total
        if name == "AVG":
            if self.count == 0:
                return None
            return self.total / self.count
        return self.extreme


class HashGroupByOp(Operator):
    """Hash aggregation with the indexed-temp-table low-memory fallback."""

    def __init__(self, child, group_keys, aggregates):
        self.child = child
        self.group_keys = group_keys      # [(expr, name, type)]
        self.aggregates = aggregates      # [FunctionCall]
        self.fallback_engaged = False
        self.fallback_rows_written = 0
        self._memory = None
        self._groups = None
        self._fallback = None
        self._pieces = None
        self._emitting = False

    @property
    def memory_pages(self):
        return self._memory.pages_held if self._memory is not None else 0

    def relinquish_memory(self):
        """Asked by the governor to free memory: engage the fallback.

        Declined while the groups are being emitted — the dict is under
        iteration and cannot be drained into the temp table.
        """
        if self._groups is None or self.fallback_engaged or self._emitting:
            return 0
        before = self._memory.pages_held
        self._engage_fallback()
        return before - self._memory.pages_held

    def spill_event_count(self):
        return 1 if self.fallback_engaged else 0

    def adaptive_event_count(self):
        return 1 if self.fallback_engaged else 0

    def execute_batches(self, ctx):
        """Group keys and aggregate arguments vectorize once per batch.
        A batch's new groups are created in first-row order, so the
        soft-limit checks and the row that engages the temp-table
        fallback are those of a row-at-a-time fold, wherever batch
        boundaries fall.  Each row's argument values then wait in its
        group's pending list and are folded a group at a time
        (:meth:`_fold_pending`); a batch of mostly distinct keys, and
        every row from the one that engages the fallback, go row at a
        time (:meth:`_accumulate_rows`).  A batch a hash join emitted as
        pieces folds from them unexpanded when it creates no group
        (:class:`_PieceFold`)."""
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size, self)
        self._groups = {}
        self._pending_rows = 0
        group_bytes = 32 + 24 * len(self.aggregates)
        # A pending row holds the values of the aggregates that take an
        # argument: one value bare, several as a tuple.  With none (only
        # COUNT(*)), a group's pending rows are just counted.
        arguments = [
            position for position, call in enumerate(self.aggregates)
            if not (call.name == "COUNT" and call.star)
        ]
        self._counting = not arguments
        self._pending = (
            collections.Counter() if self._counting
            else collections.defaultdict(list)
        )
        self._single_argument = len(arguments) == 1
        # One group key: groups are keyed by the value itself, a 1-tuple
        # only where a key leaves the dict (emit, temp table).  A dict
        # treats ``x`` and ``(x,)`` alike: 1, 1.0 and True collide, NaN
        # matches by identity, insertion order is kept.
        self._single_key = len(self.group_keys) == 1
        self._pieces = _PieceFold.over(self, ctx.params)
        # SUM and AVG: a float folded on the row path makes a later
        # integer partial inexact (``(f + 1) + 1`` is not ``f + 2``), and
        # a string would raise when a piece fold first folds the pending
        # rows, before the row path would: only ints fold from pieces.
        totals = [
            position for position, call in enumerate(self.aggregates)
            if call.name in ("SUM", "AVG")
        ]
        try:
            for batch in self.child.execute_batches(ctx):
                count = batch.count
                ctx.charge(count * CPU_HASH_BUILD_BATCH_US)
                pieces = self._pieces
                if pieces is not None:
                    folding = pieces.prepare(batch, self._groups)
                    if folding is not None:
                        # The row path's pending rows come first.
                        if self._pending_rows:
                            self._fold_pending()
                        pieces.apply(folding)
                        continue
                    if pieces.pending:
                        self._fold_pending()
                key_columns = [
                    evaluate_batch(expr, batch, ctx.params)
                    for expr, __, __t in self.group_keys
                ]
                value_columns = [
                    [None] * count if call.name == "COUNT" and call.star
                    else evaluate_batch(call.args[0], batch, ctx.params)
                    for call in self.aggregates
                ]
                if pieces is not None and not all(
                    _INTS.issuperset(map(type, value_columns[i]))
                    for i in totals
                ):
                    self._pieces = None
                # zip() of no columns is empty, not batch.count empties.
                no_values = [()] * count
                if self._single_key:
                    keys = key_columns[0]
                else:
                    keys = list(zip(*key_columns)) if key_columns else no_values
                rows = zip(*value_columns) if value_columns else no_values
                if self.fallback_engaged:
                    self._accumulate_rows(keys, rows, group_bytes)
                    continue
                distinct = dict.fromkeys(keys)
                if len(distinct) * SPARSE_BATCH_KEYS > count:
                    if self._pending_rows:
                        self._fold_pending()
                    self._accumulate_rows(keys, rows, group_bytes)
                    continue
                groups = self._groups
                stop = count
                for key in distinct:
                    if key in groups:
                        continue
                    if not self._memory.reserve(group_bytes):
                        # This key's first row engages the fallback; the
                        # rows before it belong to groups that exist.
                        stop = keys.index(key)
                        break
                    groups[key] = list(map(AggState, self.aggregates))
                argument_columns = [value_columns[i] for i in arguments]
                pending = (
                    argument_columns[0] if self._single_argument
                    else zip(*argument_columns) if arguments else None
                )
                if stop < count:
                    self._defer(keys[:stop], pending)
                    self._accumulate_rows(
                        keys[stop:], itertools.islice(rows, stop, None),
                        group_bytes,
                    )
                else:
                    self._defer(keys, pending)
            self._fold_pending()
            self._emitting = True
            yield from pack(self._emit(ctx), ctx.batch_rows)
        finally:
            self._memory.release_all()
            if self._fallback is not None:
                self._fallback.free()

    def _accumulate_rows(self, keys, rows, group_bytes):
        """The row-at-a-time fold: group creation, the soft-limit check
        and the fallback per row, in row order.  Callers fold pending
        values first, so no group sees a row ahead of an earlier one."""
        # Engaging the fallback replaces ``self._groups``; from then on
        # every row takes the first branch and ``groups`` is not read.
        groups, memory, aggregates = self._groups, self._memory, self.aggregates
        for key, values in zip(keys, rows):
            if self.fallback_engaged:
                self._fallback_accumulate(key, values)
                continue
            states = groups.get(key)
            if states is None:
                if not memory.reserve(group_bytes):
                    self._engage_fallback()
                    self._fallback_accumulate(key, values)
                    continue
                states = groups[key] = list(map(AggState, aggregates))
            for state, value in zip(states, values):
                state.accumulate_value(value)

    def _defer(self, keys, pending):
        """Append each row's pending entry to its group's list (one
        C-level pass; ``pending`` may run longer than ``keys``), or with
        no argument (``pending`` None) count the rows per group, folding
        once ``PENDING_ROWS`` rows wait."""
        if self._counting:
            self._pending.update(keys)
        else:
            lists = map(self._pending.__getitem__, keys)
            collections.deque(map(list.append, lists, pending), maxlen=0)
        self._pending_rows += len(keys)
        if self._pending_rows >= PENDING_ROWS:
            self._fold_pending()

    def _fold_pending(self):
        """Fold every group's pending rows, a column per aggregate, in
        row order — or the pending piece partials (never both at once)."""
        groups = self._groups
        if self._pieces is not None:
            self._pieces.distribute(groups)
        if not self._pending_rows:
            return
        if self._counting:
            for key, rows in self._pending.items():
                for state in groups[key]:
                    state.count += rows
        else:
            single = self._single_argument
            for key, rows in self._pending.items():
                columns = iter((rows,) if single else zip(*rows))
                for state in groups[key]:
                    state.fold(rows if state.counts_rows else next(columns))
        self._pending.clear()
        self._pending_rows = 0

    # -- fallback ------------------------------------------------------- #

    def _engage_fallback(self):
        """Flush in-memory groups to an indexed temporary table."""
        self._fold_pending()
        self._pieces = None
        self.fallback_engaged = True
        self._ctx.note("group_by_fallback")
        self._fallback = _TempGroupStore(
            self._ctx, len(self.group_keys), len(self.aggregates)
        )
        for key, states in self._groups.items():
            self._fallback.insert(
                self._key_tuple(key), [s.serialize() for s in states]
            )
            self.fallback_rows_written += 1
        self._groups = {}
        self._memory.release_all()

    def _fallback_accumulate(self, key, values):
        """Fold one row's argument values into its temp-table group."""
        key = self._key_tuple(key)
        states = [AggState(call) for call in self.aggregates]
        for state, value in zip(states, values):
            state.accumulate_value(value)
        existing = self._fallback.lookup(key)
        if existing is not None:
            for state, partial in zip(states, existing):
                state.merge_serialized(partial)
            self._fallback.update(key, [s.serialize() for s in states])
        else:
            self._fallback.insert(key, [s.serialize() for s in states])
            self.fallback_rows_written += 1

    def _key_tuple(self, key):
        """A group key as the tuple the temp table and the output hold."""
        return (key,) if self._single_key else key

    # -- output ------------------------------------------------------------ #

    def _emit(self, ctx):
        """``(layout, key + finals)`` per group, under ``GROUP_ENV``."""
        from repro.sql.binder import GROUP_ENV

        layout = (
            (GROUP_ENV, 0, len(self.group_keys) + len(self.aggregates)),
        )
        emitted = False
        if self.fallback_engaged:
            for key, serialized in self._fallback.scan():
                states = [AggState(call) for call in self.aggregates]
                for state, partial in zip(states, serialized):
                    state.merge_serialized(partial)
                emitted = True
                ctx.charge(CPU_ROW_BATCH_US)
                yield layout, key + tuple(s.finalize() for s in states)
        else:
            for key, states in self._groups.items():
                emitted = True
                ctx.charge(CPU_ROW_BATCH_US)
                yield layout, (
                    self._key_tuple(key) + tuple(s.finalize() for s in states)
                )
        if not emitted and not self.group_keys:
            # Scalar aggregation over zero rows yields one row.
            states = [AggState(call) for call in self.aggregates]
            yield layout, tuple(s.finalize() for s in states)


#: The side of a join piece an expression reads (``_PROBE`` too for one
#: that reads no column).
_PROBE, _BUILD = 0, 1
#: The argument value types a piece fold takes: over ints, COUNT, SUM,
#: MIN and MAX come out the same in any order and grouping (``bool`` is
#: left out: ``min(1, True)`` depends on which came first).
_INTS = frozenset((int, type(None)))


class _PieceFold:
    """Folds a batch a hash join emitted as pieces (:meth:`Batch.pieces`)
    into the group-by without expanding it: eager aggregation (Yan &
    Larson, VLDB 1995) applied per batch inside the operator, so the
    plan, every charge and the clock stay the row path's.

    A batch folds here (:meth:`prepare` then :meth:`apply`) only if
    every piece has a build list (an INNER or LEFT join: semi and anti
    rows have none), the group keys are columns of one side, every
    aggregate is a non-DISTINCT COUNT(*), COUNT, SUM, AVG, MIN or MAX
    whose argument reads one side, every argument value is an ``int`` or
    NULL, and every key the batch carries already has a group — so group
    creation, the soft-limit checks and the fallback stay on the row
    path.  Anything the pieces cannot evaluate is left to the row path,
    which raises the reference error.

    A fold adds partials ``[count, total, extreme]`` per group key.
    *Keys on the probe side*: a piece adds its probe row's key; a probe
    value counts ``stop - start`` times, a build argument adds its list's
    partial (computed once per list) or, for a piece a batch cut, its
    slice's.  *Keys on the build side*: each build list has its key ->
    multiplicity map (computed once); a whole piece only bumps its list's
    piece count and probe partials, which :meth:`distribute` scales by
    each key's multiplicity when the group-by folds its pending rows.

    Groups are independent and over ints the partials are exact whatever
    the grouping, so the states equal the row path's; a group-by that
    folded a float into a SUM or AVG drops its piece fold, and the row
    path's pending rows and the piece partials never wait together.
    Caches are keyed by list identity and hold the list, per execution.
    """

    def __init__(self, group_by, params):
        self.key_exprs = [expr for expr, __, __t in group_by.group_keys]
        self.single_key = len(self.key_exprs) == 1
        self.kinds = list(map(_kind_of, group_by.aggregates))
        self.arguments = [
            None if kind == _COUNT_STAR else call.args[0]
            for kind, call in zip(self.kinds, group_by.aggregates)
        ]
        self.params = params
        #: ``(layout, probe width)`` -> :class:`_PiecePlan` or None.
        self._plans = {}
        #: Per key side, ``id(build list)`` -> :class:`_BuildList`.
        self._lists = ({}, {})
        #: ``id(build list)`` -> the list, for lists holding an argument
        #: value that is not an int (held, so no id is reused).
        self._refused = {}
        #: Ids of the build lists whose every key has a group (build-side
        #: keys; a group, once made, stays while the piece fold runs).
        self._known = set()
        #: Keys on the build side: ``id(build list)`` -> ``[entry, whole
        #: pieces, probe-side partials, argument sides]``.
        self._per_list = {}
        #: Group key -> one partial per aggregate.
        self._partials = {}

    @classmethod
    def over(cls, group_by, params):
        """A piece fold for ``group_by``, or None when no batch could
        take it (a DISTINCT, another aggregate, a key not a column)."""
        for call in group_by.aggregates:
            if call.distinct or _kind_of(call) is None:
                return None
        for expr, __, __t in group_by.group_keys:
            if not isinstance(expr, ast.ColumnRef):
                return None
        return cls(group_by, params)

    @property
    def pending(self):
        return bool(self._partials or self._per_list)

    # -- which batches fold ---------------------------------------------- #

    def _plan(self, layout, probe_width):
        key = (layout, probe_width)
        if key not in self._plans:
            self._plans[key] = self._make_plan(layout, probe_width)
        return self._plans[key]

    def _make_plan(self, layout, probe_width):
        probe, build = [], []
        for entry in layout:
            key, offset, width = entry
            if offset + width <= probe_width:
                probe.append(entry)
            elif offset >= probe_width:
                build.append((key, offset - probe_width, width))
            else:
                return None
        side_of = dict.fromkeys([key for key, __, __w in probe], _PROBE)
        side_of.update(dict.fromkeys([key for key, __, __w in build], _BUILD))
        key_sides = set()
        for expr in self.key_exprs:
            key_sides |= _sides_read(expr, side_of)
        if len(key_sides) > 1 or None in key_sides:
            return None
        sides = []
        for expr in self.arguments:
            read = set() if expr is None else _sides_read(expr, side_of)
            if len(read) > 1 or None in read:
                return None
            sides.append(read.pop() if read else _PROBE)
        return _PiecePlan(
            key_sides.pop() if key_sides else _PROBE,
            tuple(probe), tuple(build), sides,
        )

    def prepare(self, batch, groups):
        """What :meth:`apply` needs to fold ``batch``, or None when the
        batch goes the row path."""
        found = batch.pieces()
        if found is None:
            return None
        pieces, probe_width = found
        if batch.count < PIECE_ROWS * len(pieces):
            return None
        plan = self._plan(batch.layout, probe_width)
        if plan is None:
            return None
        lists = [piece[1] for piece in pieces]
        if None in lists:
            return None
        try:
            return self._prepare(plan, pieces, lists, groups)
        except Exception:
            # The row path evaluates the same values over the joined rows
            # and raises the reference error, or (a build list's row
            # outside this batch's slice) none.
            return None

    def _prepare(self, plan, pieces, lists, groups):
        probe = None
        values = []
        for kind, side, expr in zip(self.kinds, plan.sides, self.arguments):
            if kind == _COUNT_STAR or side == _BUILD:
                values.append(None)
                continue
            if probe is None:
                probe = Batch.from_flat_rows(
                    plan.probe_layout, [piece[0] for piece in pieces]
                )
            column = evaluate_batch(expr, probe, self.params)
            if not _INTS.issuperset(map(type, column)):
                return None
            values.append(column)
        ids = list(map(id, lists))
        distinct = dict(zip(ids, lists))
        refused = self._refused.keys()
        if not refused.isdisjoint(distinct):
            return None
        cache = self._lists[plan.key_side]
        new = [rows for key, rows in distinct.items() if key not in cache]
        if new:
            for entry in self._build_lists(plan, new):
                if entry.ints:
                    cache[id(entry.rows)] = entry
                else:
                    self._refused[id(entry.rows)] = entry.rows
            if not refused.isdisjoint(distinct):
                return None
        if plan.key_side == _BUILD:
            known = self._known
            if not known.issuperset(distinct):
                for key in distinct:
                    if key not in known:
                        if not all(map(
                            groups.__contains__, cache[key].multiplicity
                        )):
                            return None
                        known.add(key)
            return plan, pieces, values, ids, None
        if probe is None and self.key_exprs:
            probe = Batch.from_flat_rows(
                plan.probe_layout, [piece[0] for piece in pieces]
            )
        keys = self._keys(probe, len(pieces))
        if not all(map(groups.__contains__, keys)):
            return None
        return plan, pieces, values, ids, keys

    def _build_lists(self, plan, lists):
        """A :class:`_BuildList` per list in ``lists``, their rows
        evaluated as one batch."""
        rows = [row for candidates in lists for row in candidates]
        batch = Batch.from_flat_rows(plan.build_layout, rows)
        columns = [
            evaluate_batch(expr, batch, self.params)
            if side == _BUILD and kind != _COUNT_STAR else None
            for kind, side, expr in zip(self.kinds, plan.sides, self.arguments)
        ]
        keys = (
            self._keys(batch, len(rows)) if plan.key_side == _BUILD else None
        )
        start = 0
        for candidates in lists:
            stop = start + len(candidates)
            yield _BuildList(
                self.kinds, candidates,
                [None if column is None else column[start:stop]
                 for column in columns],
                None if keys is None else keys[start:stop],
            )
            start = stop

    def _keys(self, batch, count):
        """The group key of each of ``batch``'s rows, as the row path
        keys them."""
        columns = [
            evaluate_batch(expr, batch, self.params) for expr in self.key_exprs
        ]
        if self.single_key:
            return columns[0]
        return list(zip(*columns)) if columns else [()] * count

    # -- folding ------------------------------------------------------- #

    def apply(self, folding):
        """Add a prepared batch's pieces to the pending partials."""
        plan, pieces, values, ids, keys = folding
        kinds, sides = self.kinds, plan.sides
        aggregates = list(enumerate(zip(kinds, sides)))
        partials = self._partials
        cache = self._lists[plan.key_side]
        if keys is None:
            per_list = self._per_list
            probe_sided = [
                (values[j], j, kind) for j, (kind, side) in aggregates
                if kind != _COUNT_STAR and side == _PROBE
            ]
            for i, (piece, key) in enumerate(zip(pieces, ids)):
                __, rows, start, stop = piece
                if stop - start == len(rows):
                    acc = per_list.get(key)
                    if acc is None:
                        acc = per_list[key] = [
                            cache[key], 0, [[0, None, None] for __ in kinds],
                            sides,
                        ]
                    acc[1] += 1
                    for column, j, kind in probe_sided:
                        value = column[i]
                        if value is not None:
                            _add(acc[2][j], kind, value, 1)
                    continue
                # A piece the batch cut: its rows one by one.
                entry = cache[key]
                for r in range(start, stop):
                    group = entry.keys[r]
                    parts = partials.get(group)
                    if parts is None:
                        parts = partials[group] = [
                            [0, None, None] for __ in kinds
                        ]
                    for j, (kind, side) in aggregates:
                        if kind == _COUNT_STAR:
                            parts[j][0] += 1
                            continue
                        value = (values[j][i] if side == _PROBE
                                 else entry.values[j][r])
                        if value is not None:
                            _add(parts[j], kind, value, 1)
            return
        for i, (piece, key) in enumerate(zip(pieces, ids)):
            __, rows, start, stop = piece
            times = stop - start
            parts = partials.get(keys[i])
            if parts is None:
                parts = partials[keys[i]] = [[0, None, None] for __ in kinds]
            for j, (kind, side) in aggregates:
                if kind == _COUNT_STAR:
                    parts[j][0] += times
                elif side == _PROBE:
                    value = values[j][i]
                    if value is not None:
                        _add(parts[j], kind, value, times)
                else:
                    entry = cache[key]
                    _merge(parts[j], kind, (
                        entry.whole[j] if times == len(rows)
                        else _partial(kind, entry.values[j][start:stop])
                    ), 1)

    def distribute(self, groups):
        """Fold every pending partial into its group's states: the build
        lists' ones scaled by each key's multiplicity first."""
        partials, kinds = self._partials, self.kinds
        for entry, whole, probe_parts, sides in self._per_list.values():
            for key, multiplicity in entry.multiplicity.items():
                parts = partials.get(key)
                if parts is None:
                    parts = partials[key] = [[0, None, None] for __ in kinds]
                for j, kind in enumerate(kinds):
                    if kind == _COUNT_STAR:
                        parts[j][0] += multiplicity * whole
                    elif sides[j] == _PROBE:
                        _merge(parts[j], kind, probe_parts[j], multiplicity)
                    else:
                        _merge(parts[j], kind, entry.keyed[key][j], whole)
        self._per_list.clear()
        for key, parts in partials.items():
            for state, (count, total, extreme) in zip(groups[key], parts):
                state.merge_serialized((count, total, extreme, None))
        partials.clear()


_PiecePlan = collections.namedtuple(
    "_PiecePlan", "key_side probe_layout build_layout sides"
)


class _BuildList:
    """What a piece fold reads of one build list, computed once: its
    build-side argument values and, by key side, each argument's partial
    over the whole list (probe-side keys) or each row's key, each key's
    multiplicity and each key's argument partials (build-side keys).
    ``ints``: every argument value is an int or NULL."""

    __slots__ = (
        "rows", "values", "ints", "whole", "keys", "multiplicity", "keyed",
    )

    def __init__(self, kinds, rows, values, keys):
        self.rows = rows  # held: the cache is keyed by its id
        self.values = values
        self.ints = all(
            column is None or _INTS.issuperset(map(type, column))
            for column in values
        )
        self.whole = self.keys = self.multiplicity = self.keyed = None
        if not self.ints:
            return
        if keys is None:
            self.whole = [
                None if column is None else _partial(kind, column)
                for kind, column in zip(kinds, values)
            ]
            return
        self.keys = keys
        self.multiplicity = collections.Counter(keys)
        if values.count(None) == len(values):
            return
        by_key = {}
        for r, key in enumerate(keys):
            by_key.setdefault(key, []).append(r)
        self.keyed = {
            key: [
                None if column is None
                else _partial(kind, [column[r] for r in positions])
                for kind, column in zip(kinds, values)
            ]
            for key, positions in by_key.items()
        }


def _sides_read(expr, side_of):
    """The sides whose columns ``expr`` reads (None: a column of
    neither)."""
    found = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ColumnRef):
            found.add(side_of.get(node.quantifier_id) if node.bound else None)
        stack.extend(node.children())
    return found


def _partial(kind, values):
    """``[count, total, extreme]`` of the non-NULL int ``values`` (ints:
    ``sum`` and ``min`` are exact in any order)."""
    if None in values:
        values = [value for value in values if value is not None]
    if not values:
        return [0, None, None]
    return [
        len(values),
        sum(values) if kind == _TOTAL else None,
        min(values) if kind == _MIN else max(values) if kind == _MAX
        else None,
    ]


def _add(part, kind, value, times):
    """Fold the int ``value`` into ``part`` ``times`` times."""
    part[0] += times
    if kind == _TOTAL:
        value *= times
        part[1] = value if part[1] is None else part[1] + value
    elif kind == _MIN:
        part[2] = value if part[2] is None else min(part[2], value)
    elif kind == _MAX:
        part[2] = value if part[2] is None else max(part[2], value)


def _merge(part, kind, other, times):
    """Fold the partial ``other`` into ``part`` ``times`` times."""
    count, total, extreme = other
    if not count:
        return
    part[0] += count * times
    if total is not None:
        total *= times
        part[1] = total if part[1] is None else part[1] + total
    if extreme is not None:
        part[2] = extreme if part[2] is None else (
            min(part[2], extreme) if kind == _MIN else max(part[2], extreme)
        )


class _TempGroupStore:
    """Partially-computed groups in a temp table indexed on the keys."""

    def __init__(self, ctx, n_keys, n_aggs):
        self.ctx = ctx
        self._schema = _TempSchema(n_keys + 1)
        from repro.storage.rowstore import TableStorage
        from repro.buffer.frames import PageKind

        self._rows = TableStorage(
            self._schema, ctx.temp_file, ctx.pool, page_kind=PageKind.TEMP
        )
        self._index = BTree(ctx.temp_file, ctx.pool, name="groupby-fallback")
        self.n_keys = n_keys

    def _charge_probe(self):
        from repro.optimizer.costmodel import CPU_ROW_US, INDEX_NODE_US

        self.ctx.charge(self._index.height * INDEX_NODE_US + CPU_ROW_US)

    def lookup(self, key):
        self._charge_probe()
        row_ids = self._index.search(key)
        if not row_ids:
            return None
        row = self._rows.get(row_ids[0])
        return row[-1]

    def insert(self, key, serialized_states):
        self._charge_probe()
        row_id = self._rows.insert(key + (tuple(serialized_states),))
        self._index.insert(key, row_id)

    def update(self, key, serialized_states):
        self._charge_probe()
        row_ids = self._index.search(key)
        if not row_ids:
            raise ExecutionError("fallback group vanished")
        self._rows.update(row_ids[0], key + (tuple(serialized_states),))

    def scan(self):
        for __, row in self._rows.scan():
            yield tuple(row[:-1]), row[-1]

    def free(self):
        pass  # temp pages are reclaimed with the temp file


class _TempSchema:
    """Minimal schema stand-in for temp-table storage."""

    def __init__(self, n_columns):
        self.name = "#temp"
        self.columns = [None] * n_columns

    def row_bytes(self):
        return 16 * len(self.columns) + 16


class HashDistinctOp(Operator):
    """Duplicate elimination over projected tuples, spilling via an
    indexed temp structure when the soft limit is reached."""

    ROW_BYTES = 48

    def __init__(self, child):
        self.child = child
        self.fallback_engaged = False
        self._memory = None
        self._ctx = None
        self._seen = None
        self._fallback_index = None

    @property
    def memory_pages(self):
        return self._memory.pages_held if self._memory is not None else 0

    def relinquish_memory(self):
        """Asked by the governor to free memory: engage the fallback."""
        if self._seen is None or self.fallback_engaged:
            return 0
        before = self._memory.pages_held
        self._engage_fallback()
        return before - self._memory.pages_held

    def spill_event_count(self):
        return 1 if self.fallback_engaged else 0

    def adaptive_event_count(self):
        return 1 if self.fallback_engaged else 0

    def execute_batches(self, ctx):
        """Probe keys materialize once per batch; the seen-set probes,
        soft-limit checks and the indexed-temp fallback run per position
        in row order.  Survivors leave as one mask-take per input batch."""
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size, self)
        self._seen = set()
        try:
            for batch in self.child.execute_batches(ctx):
                if batch.count == 0:
                    continue
                ctx.charge(batch.count * CPU_HASH_BUILD_BATCH_US)
                keys = batch.flat_rows()
                mask = [False] * batch.count
                for position, key in enumerate(keys):
                    if key in self._seen:
                        continue
                    if self._fallback_index is not None:
                        if self._fallback_index.search(key):
                            continue
                        self._fallback_index.insert(key, RowId(0, 0))
                        mask[position] = True
                        continue
                    if not self._memory.reserve(self.ROW_BYTES):
                        self._engage_fallback()
                        self._fallback_index.insert(key, RowId(0, 0))
                        mask[position] = True
                        continue
                    self._seen.add(key)
                    mask[position] = True
                survivors = batch.take(mask)
                if survivors.count:
                    yield survivors
        finally:
            self._memory.release_all()

    def _engage_fallback(self):
        """Move the seen-set to an indexed temp structure and free memory."""
        self.fallback_engaged = True
        self._ctx.note("distinct_fallback")
        self._fallback_index = BTree(
            self._ctx.temp_file, self._ctx.pool, name="distinct-fallback"
        )
        for existing in self._seen:
            self._fallback_index.insert(existing, RowId(0, 0))
        self._seen = set()
        self._memory.release_all()


class SortOp(Operator):
    """External merge sort under the memory quota.

    Batches in and out.  Each absorbed row is one *entry*, ``(sort key
    values..., flat row, layout)``: the keys are evaluated a batch at a
    time and no environment dict is built.  The per-row memory check and
    run-spill decision stay per row, so the spilled runs do not depend on
    where batch boundaries fall.  A run is sorted by C-level keys, one
    stable pass per sort key, last key first (:meth:`_sort`).  A spilled
    run holds the same entries; the merge compares their stored key
    values through :class:`_OrderedValue`.  Sorted or merged, the
    entries leave through :func:`~repro.exec.batch.pack`.
    """

    ROW_BYTES = 80

    def __init__(self, child, sort_keys):
        self.child = child
        self.sort_keys = sort_keys  # [(expr, ascending)]
        self.runs_spilled = 0
        self._memory = None
        self._ctx = None
        self._current = None
        self._runs = None
        self._merging = False

    @property
    def memory_pages(self):
        return self._memory.pages_held if self._memory is not None else 0

    def relinquish_memory(self):
        """Asked by the governor to free memory: spill the current run.

        Declined once merging has started — the buffered rows are being
        consumed by the merge and can no longer move to disk.
        """
        if not self._current or self._merging:
            return 0
        before = self._memory.pages_held
        self._flush_current_run()
        return before - self._memory.pages_held

    def spill_event_count(self):
        return self.runs_spilled

    def execute_batches(self, ctx):
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size, self)
        self._current = []
        self._runs = []
        try:
            for batch in self.child.execute_batches(ctx):
                ctx.charge(batch.count * CPU_SORT_FACTOR_BATCH_US * 4)
                rows = batch.flat_rows()
                if not rows:
                    continue
                key_columns = [
                    evaluate_batch(expr, batch, ctx.params)
                    for expr, __ in self.sort_keys
                ]
                layouts = itertools.repeat(batch.layout)
                for entry in zip(*key_columns, rows, layouts):
                    self._absorb(entry)
            self._merging = True
            self._sort(self._current)
            entries = self._merged(ctx) if self._runs else self._current
            yield from pack(
                ((entry[-1], entry[-2]) for entry in entries), ctx.batch_rows
            )
        finally:
            self._memory.release_all()

    def _absorb(self, entry):
        if not self._memory.reserve(self.ROW_BYTES):
            if self._current:
                self._flush_current_run()
            self._memory.add(self.ROW_BYTES)
        self._current.append(entry)

    def _sort(self, entries):
        """Sort ``entries`` in place: ascending keys NULL first,
        descending keys NULL last, ties in arrival order — the order the
        merge's :class:`_OrderedValue` keys give."""
        for position in reversed(range(len(self.sort_keys))):
            key = operator.itemgetter(position)
            if None in map(key, entries):
                key = _null_first(position)
            entries.sort(key=key, reverse=not self.sort_keys[position][1])

    def _merged(self, ctx):
        """The spilled runs and the sorted in-memory entries, merged."""
        directions = [ascending for __, ascending in self.sort_keys]
        n_keys = len(directions)

        def tagged(entries, index):
            # Equal keys merge in run order, so the run index must be
            # bound per stream: the entries themselves need not order.
            return (
                (
                    tuple(map(_OrderedValue, entry[:n_keys], directions)),
                    index, entry,
                )
                for entry in entries
            )

        runs = self._runs
        streams = [
            tagged(run.read_all(), index) for index, run in enumerate(runs)
        ]
        streams.append(tagged(self._current, len(runs)))
        for __, __i, entry in heapq.merge(*streams):
            ctx.charge(CPU_ROW_BATCH_US)
            yield entry

    def _flush_current_run(self):
        """Spill the rows buffered so far as one sorted run.

        The buffer list is cleared in place so callers holding a
        reference (the merge phase) observe the same empty list.
        """
        self._runs.append(self._spill_run(self._ctx, self._current))
        self.runs_spilled += 1
        del self._current[:]
        self._memory.remove(self._memory.bytes_used)

    def _spill_run(self, ctx, entries):
        self._sort(entries)
        run = SpillFile.for_context(ctx, 80)
        for entry in entries:
            run.append(entry)
        run.finish_writing()
        return run


def _null_first(position):
    """A sort key for entry ``position`` that puts NULL before values."""

    def key(entry):
        value = entry[position]
        return (value is not None, value)

    return key


class _OrderedValue:
    """Sort key wrapper: NULLs first, descending inverts comparisons."""

    __slots__ = ("value", "ascending")

    def __init__(self, value, ascending):
        self.value = value
        self.ascending = ascending

    def __lt__(self, other):
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return self.ascending
        if b is None:
            return not self.ascending
        if self.ascending:
            return a < b
        return b < a

    def __eq__(self, other):
        return self.value == other.value


class HavingOp(Operator):
    def __init__(self, child, conjunct_exprs):
        self.child = child
        self.conjunct_exprs = conjunct_exprs

    def execute_batches(self, ctx):
        for batch in self.child.execute_batches(ctx):
            for expr in self.conjunct_exprs:
                if batch.count == 0:
                    break
                mask = evaluate_predicate_batch(expr, batch, ctx.params)
                if not all(mask):
                    batch = batch.take(mask)
            if batch.count:
                yield batch


class ProjectOp(Operator):
    """Evaluates the select list; output rows are plain tuples."""

    def __init__(self, child, items):
        self.child = child
        self.items = items  # [(expr, name, type)]

    def execute_batches(self, ctx):
        """Vectorized select list: each item evaluates as one whole
        column; the output batch is tuple-shaped (``layout is None``)."""
        for batch in self.child.execute_batches(ctx):
            ctx.charge(batch.count * CPU_ROW_BATCH_US)
            columns = [
                evaluate_batch(expr, batch, ctx.params)
                for expr, __, __t in self.items
            ]
            yield Batch.from_columns(None, columns, batch.count)


class LimitOp(Operator):
    def __init__(self, child, limit):
        self.child = child
        self.limit = limit

    def execute_batches(self, ctx):
        if self.limit <= 0:
            return
        remaining = self.limit
        for batch in self.child.execute_batches(ctx):
            if batch.count >= remaining:
                yield batch if batch.count == remaining else batch.slice(
                    0, remaining
                )
                return
            remaining -= batch.count
            yield batch
