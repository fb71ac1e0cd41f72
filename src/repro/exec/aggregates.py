"""Aggregation, distinct, sorting, projection, and limit operators.

The memory-intensive operators here honour the memory governor's soft
limit and implement the paper's low-memory fallbacks: hash group by falls
back to "a temporary table containing partially computed groups with an
index on the grouping columns" (Section 4.3); sort degrades to external
run merging.
"""

import heapq

from repro.common.errors import ExecutionError
from repro.exec.batch import Batch, rows_to_batches
from repro.exec.expr import (
    evaluate,
    evaluate_batch,
    evaluate_predicate_batch,
)
from repro.exec.spill import SpillFile, WorkMemory
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
        self._kind = (
            _COUNT_STAR if call.name == "COUNT" and call.star
            else _FOLD_KINDS.get(call.name)
        )

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
            total = self.total
            self.total = value if total is None else total + value
        elif kind == _MIN:
            extreme = self.extreme
            self.extreme = value if extreme is None else min(extreme, value)
        elif kind == _MAX:
            extreme = self.extreme
            self.extreme = value if extreme is None else max(extreme, value)

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

    def estimated_bytes(self):
        base = 48
        if self.distinct is not None:
            base += 16 * len(self.distinct)
        return base


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
        """Group keys and aggregate arguments vectorize once per batch;
        group insertion, soft-limit checks and the temp-table fallback
        run per row in row order, so fallback engagement does not depend
        on where batch boundaries fall."""
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size)
        self._groups = {}
        ctx.task.register_consumer(self, depth=getattr(self, "depth", 1))
        group_bytes = 32 + 24 * len(self.aggregates)
        try:
            for batch in self.child.execute_batches(ctx):
                ctx.charge(batch.count * CPU_HASH_BUILD_BATCH_US)
                key_columns = [
                    evaluate_batch(expr, batch, ctx.params)
                    for expr, __, __t in self.group_keys
                ]
                value_columns = [
                    [None] * batch.count if call.name == "COUNT" and call.star
                    else evaluate_batch(call.args[0], batch, ctx.params)
                    for call in self.aggregates
                ]
                # zip() of no columns is empty, not batch.count empties.
                no_values = [()] * batch.count
                keys = zip(*key_columns) if key_columns else no_values
                rows = zip(*value_columns) if value_columns else no_values
                for key, values in zip(keys, rows):
                    if self.fallback_engaged:
                        self._fallback_accumulate(key, values)
                        continue
                    states = self._groups.get(key)
                    if states is None:
                        if self._memory.would_exceed_soft(group_bytes):
                            self._engage_fallback()
                            self._fallback_accumulate(key, values)
                            continue
                        states = [AggState(call) for call in self.aggregates]
                        self._groups[key] = states
                        self._memory.add(group_bytes)
                    for state, value in zip(states, values):
                        state.accumulate_value(value)
            self._emitting = True
            yield from rows_to_batches(self._emit(ctx), ctx.batch_rows)
        finally:
            ctx.task.unregister_consumer(self)
            self._memory.release_all()
            if self._fallback is not None:
                self._fallback.free()

    # -- fallback ------------------------------------------------------- #

    def _engage_fallback(self):
        """Flush in-memory groups to an indexed temporary table."""
        self.fallback_engaged = True
        self._ctx.note("group_by_fallback")
        self._fallback = _TempGroupStore(
            self._ctx, len(self.group_keys), len(self.aggregates)
        )
        for key, states in self._groups.items():
            self._fallback.insert(key, [s.serialize() for s in states])
            self.fallback_rows_written += 1
        self._groups = {}
        self._memory.release_all()

    def _fallback_accumulate(self, key, values):
        """Fold one row's argument values into its temp-table group."""
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

    # -- output ------------------------------------------------------------ #

    def _emit(self, ctx):
        from repro.sql.binder import GROUP_ENV

        emitted = False
        if self.fallback_engaged:
            for key, serialized in self._fallback.scan():
                states = [AggState(call) for call in self.aggregates]
                for state, partial in zip(states, serialized):
                    state.merge_serialized(partial)
                emitted = True
                ctx.charge(CPU_ROW_BATCH_US)
                yield {GROUP_ENV: key + tuple(s.finalize() for s in states)}
        else:
            for key, states in self._groups.items():
                emitted = True
                ctx.charge(CPU_ROW_BATCH_US)
                yield {GROUP_ENV: key + tuple(s.finalize() for s in states)}
        if not emitted and not self.group_keys:
            # Scalar aggregation over zero rows yields one row.
            states = [AggState(call) for call in self.aggregates]
            yield {GROUP_ENV: tuple(s.finalize() for s in states)}


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
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size)
        self._seen = set()
        ctx.task.register_consumer(self, depth=getattr(self, "depth", 1))
        try:
            for batch in self.child.execute_batches(ctx):
                if batch.count == 0:
                    continue
                ctx.charge(batch.count * CPU_HASH_BUILD_BATCH_US)
                keys = list(zip(*batch.columns))
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
                    if self._memory.would_exceed_soft(self.ROW_BYTES):
                        self._engage_fallback()
                        self._fallback_index.insert(key, RowId(0, 0))
                        mask[position] = True
                        continue
                    self._seen.add(key)
                    self._memory.add(self.ROW_BYTES)
                    mask[position] = True
                survivors = batch.take(mask)
                if survivors.count:
                    yield survivors
        finally:
            ctx.task.unregister_consumer(self)
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
    """External merge sort under the memory quota."""

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
        """Batched transport in and out; run-spilling decisions stay
        per row, so the spilled runs do not depend on where batch
        boundaries fall."""
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size)
        self._current = []
        self._runs = []
        ctx.task.register_consumer(self, depth=getattr(self, "depth", 1))
        try:
            for batch in self.child.execute_batches(ctx):
                ctx.charge(batch.count * CPU_SORT_FACTOR_BATCH_US * 4)
                for env in batch.rows():
                    self._absorb(env)
            self._merging = True
            yield from rows_to_batches(self._merge_emit(ctx), ctx.batch_rows)
        finally:
            ctx.task.unregister_consumer(self)
            self._memory.release_all()

    def _absorb(self, env):
        if self._memory.would_exceed_soft(self.ROW_BYTES) and self._current:
            self._flush_current_run()
        self._current.append(env)
        self._memory.add(self.ROW_BYTES)

    def _merge_emit(self, ctx):
        key_of = self._key_function(ctx)
        current = self._current
        current.sort(key=key_of)
        runs = self._runs
        if not runs:
            for env in current:
                yield env
            return
        streams = [
            ((key_of(env), index, env) for env in self._read_run(run))
            for index, run in enumerate(runs)
        ]
        streams.append((key_of(env), len(runs), env) for env in current)
        for __, __i, env in heapq.merge(*streams):
            ctx.charge(CPU_ROW_BATCH_US)
            yield env

    def _flush_current_run(self):
        """Spill the rows buffered so far as one sorted run.

        The buffer list is cleared in place so callers holding a
        reference (the merge phase) observe the same empty list.
        """
        self._runs.append(self._spill_run(self._ctx, self._current))
        self.runs_spilled += 1
        del self._current[:]
        self._memory.release_all()

    def _spill_run(self, ctx, rows):
        rows.sort(key=self._key_function(ctx))
        run = SpillFile(
            ctx.temp_file, 80, ctx.pool.page_size,
            fault_plan=getattr(ctx, "fault_plan", None),
            yield_hook=getattr(ctx, "yield_hook", None),
        )
        for env in rows:
            run.append(env)
        run.finish_writing()
        return run

    @staticmethod
    def _read_run(run):
        yield from run.read_all()

    def _key_function(self, ctx):
        keys = self.sort_keys
        params = ctx.params

        def key_of(env):
            return tuple(
                _OrderedValue(evaluate(expr, env, params), ascending)
                for expr, ascending in keys
            )

        return key_of


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
