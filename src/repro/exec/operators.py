"""Scan and join operators."""

from itertools import compress, islice

from repro.common.errors import ExecutionError
from repro.common.hashing import hash_for_types, stable_hash
from repro.exec.batch import Batch, concat_layouts, layout_of, pack
from repro.exec.expr import (
    evaluate_batch,
    evaluate_predicate_batch,
    sarg_value,
)
from repro.exec.spill import (
    SpillFile,
    SpillableBuffer,
    WorkMemory,
    row_bytes,
)
from repro.optimizer.costmodel import (
    CPU_HASH_BUILD_BATCH_US,
    CPU_HASH_PROBE_BATCH_US,
    CPU_HASH_PROBE_US,
    CPU_PREDICATE_BATCH_US,
    CPU_PREDICATE_US,
    CPU_ROW_BATCH_US,
    CPU_ROW_US,
    INDEX_NODE_US,
)
from repro.sql.binder import Quantifier
from repro.sql.predicates import (
    CMP,
    LIKE,
    NO_VALUE,
    NULL,
    range_bounds,
    static_value,
)

#: Hash-join partitions ("buckets are divided uniformly into a small,
#: fixed, number of partitions").
HASH_PARTITIONS = 8


class Operator:
    """Base class.  One protocol: ``execute_batches(ctx)`` yields
    column-major :class:`~repro.exec.batch.Batch` slabs — flat rows under
    a layout below Project, plain tuples (``layout is None``) from Project
    upward.  Result rows leave the tree only at :meth:`Executor.rows`.
    """

    def execute_batches(self, ctx):
        raise NotImplementedError

    #: Distance from the top of the execution tree (set by the executor).
    depth = 1

    # memory-governor consumer protocol (overridden by memory users)
    memory_pages = 0

    def relinquish_memory(self):
        return 0

    # observability protocol (read by the EXPLAIN ANALYZE instrumentation)

    def spill_event_count(self):
        """Cumulative temp-file spill events this operator has taken."""
        return 0

    def adaptive_event_count(self):
        """Cumulative adaptive fallbacks/strategy switches taken."""
        return 0


class SingleRowOp(Operator):
    """One row with no columns (FROM-less SELECT)."""

    def execute_batches(self, ctx):
        yield Batch.empty_row()


class SeqScanOp(Operator):
    """Sequential scan with pushed-down filters and statistics feedback."""

    def __init__(self, quantifier, conjuncts):
        self.quantifier = quantifier
        self.conjuncts = conjuncts

    def execute_batches(self, ctx):
        """Vectorized scan: pack column-major slabs, filter whole columns.

        Conjunct *i* sees only rows surviving conjuncts < *i*, so the
        feedback counters carry the predicate conditioning
        :meth:`_send_feedback` checks for; feedback is sent only when the
        scan ran to completion.
        """
        storage = self.quantifier.schema.storage
        qid = self.quantifier.id
        counters = [[0, 0] for __ in self.conjuncts]  # [scanned, matched]
        completed = False
        try:
            pages = storage.scan(
                snapshot=ctx.snapshot_lsn, snapshot_txn=ctx.snapshot_txn
            ).pages()
            for rows in _page_chunks(pages, ctx.batch_rows):
                batch = self._filter_batch(ctx, qid, rows, counters)
                if batch.count:
                    yield batch
            completed = True
        finally:
            if completed and ctx.feedback_enabled:
                self._send_feedback(ctx, storage, counters)

    def _filter_batch(self, ctx, qid, rows, counters):
        n_conjuncts = len(self.conjuncts)
        ctx.charge(
            len(rows)
            * (CPU_ROW_BATCH_US + n_conjuncts * CPU_PREDICATE_BATCH_US)
        )
        batch = Batch.from_rows(qid, rows)
        for index, conjunct in enumerate(self.conjuncts):
            if batch.count == 0:
                break
            counters[index][0] += batch.count
            mask = evaluate_predicate_batch(conjunct.expr, batch, ctx.params)
            matched = mask.count(True)
            counters[index][1] += matched
            if matched != batch.count:
                batch = batch.take(mask)
        return batch

    def _send_feedback(self, ctx, storage, counters):
        table_rows = storage.row_count
        table_name = self.quantifier.schema.name
        for (scanned, matched), conjunct in zip(counters, self.conjuncts):
            if scanned == 0:
                continue
            if scanned != table_rows:
                # The conjunct was only evaluated on rows surviving earlier
                # filters: a conditioned sample that would corrupt the
                # histogram.  This is the "almost" in the paper's
                # "(almost) any predicate ... can lead to an update".
                continue
            # Local conjuncts reference this quantifier only, so the
            # reading the binder took is a reading on this scan's table.
            classified = classify_predicate(conjunct.column, ctx.params)
            if classified is None:
                continue
            kind, column_index, payload = classified
            if kind == "eq":
                ctx.stats.feedback_eq(
                    table_name, column_index, payload, matched, scanned,
                    table_rows,
                )
            elif kind == "range":
                low, high, low_inc, high_inc = payload
                ctx.stats.feedback_range(
                    table_name, column_index, low, high, matched, scanned,
                    table_rows, low_inc, high_inc,
                )
            elif kind == "null":
                ctx.stats.feedback_null(
                    table_name, column_index, matched, scanned, table_rows
                )
            elif kind == "like":
                ctx.stats.feedback_like(
                    table_name, column_index, payload, matched, scanned,
                    table_rows,
                )


class IndexScanOp(Operator):
    """Sargable B+-tree range scan plus residual filters."""

    def __init__(self, quantifier, index_schema, sarg, residual_conjuncts):
        self.quantifier = quantifier
        self.index_schema = index_schema
        self.sarg = sarg
        self.residual = residual_conjuncts

    def execute_batches(self, ctx):
        qid = self.quantifier.id
        # The sarg is evaluated once per execution; the tree scan and the
        # snapshot re-check share these bounds.
        bounds = self._bounds(ctx)
        btree = self.index_schema.btree
        if "eq" in self.sarg:
            entries = btree.prefix_scan(bounds[0])
        else:
            entries = btree.range_scan(*bounds)
        rows = index_rows(
            ctx, self.quantifier.schema.storage, self.index_schema, entries,
            bounds, INDEX_NODE_US / 4.0 + CPU_ROW_US,
        )
        for chunk in _chunks(rows, ctx.batch_rows):
            batch = filter_rows(
                Batch.from_rows(qid, chunk), self.residual, ctx.params
            )
            if batch.count:
                yield batch

    def _bounds(self, ctx):
        if "eq" in self.sarg:
            values = tuple(
                sarg_value(expr, ctx.params) for expr in self.sarg["eq"]
            )
            return values, values, True, True
        low = high = None
        low_inc = self.sarg.get("low_inclusive", True)
        high_inc = self.sarg.get("high_inclusive", True)
        if "low" in self.sarg:
            low = (sarg_value(self.sarg["low"], ctx.params),)
        if "high" in self.sarg:
            high = (sarg_value(self.sarg["high"], ctx.params),)
        return low, high, low_inc, high_inc


def index_rows(ctx, storage, index, entries, bounds, entry_us):
    """The rows an index read returns: the one path from tree entries
    ``(key, row_id)`` to table rows, charging ``entry_us`` per entry.

    Without a snapshot each entry's latest heap row is the answer.  At a
    snapshot the tree holds the *latest* keys, so each entry resolves to
    its visible image and is kept only if that image's key is still
    inside ``bounds``; the rows the tree can no longer lead to — their
    entry removed or re-keyed after the snapshot — are exactly the rows
    whose visible image comes from the version chain and whose entry
    this read did not visit, and those follow, in bounds, at
    ``CPU_ROW_US`` each.  Purge keeps their chains while the snapshot is
    open.
    """
    snapshot = ctx.snapshot_lsn
    if snapshot is None:
        for __, row_id in entries:
            ctx.charge(entry_us)
            yield storage.get(row_id)
        return
    txn = ctx.snapshot_txn
    visited = set()
    for __, row_id in entries:
        ctx.charge(entry_us)
        visited.add(row_id)
        row = storage.get_visible(row_id, snapshot, txn)
        if row is not None and key_in_bounds(index.key_of(row), bounds):
            yield row
    for row_id, row in storage.superseded(snapshot, txn):
        if row_id not in visited and key_in_bounds(index.key_of(row), bounds):
            ctx.charge(CPU_ROW_US)
            yield row


def key_in_bounds(key, bounds):
    """Whether an index ``key`` satisfies ``(low, high, low_inc,
    high_inc)``; a bound shorter than the key constrains its prefix."""
    low, high, low_inc, high_inc = bounds
    # SQL comparison with NULL is unknown: a NULL in the compared prefix
    # (or in a bound, e.g. ``col = NULL``) can never satisfy a sarg.
    if low is not None:
        prefix = key[: len(low)]
        if any(value is None for value in prefix + low):
            return False
        if prefix < low or (prefix == low and not low_inc):
            return False
    if high is not None:
        prefix = key[: len(high)]
        if any(value is None for value in prefix + high):
            return False
        if prefix > high or (prefix == high and not high_inc):
            return False
    return True


class DerivedScanOp(Operator):
    """Evaluates a sub-plan and exposes its tuples as a quantifier."""

    def __init__(self, quantifier, sub_operator, conjuncts):
        self.quantifier = quantifier
        self.sub_operator = sub_operator
        self.conjuncts = conjuncts

    def execute_batches(self, ctx):
        qid = self.quantifier.id
        for batch in self.sub_operator.execute_batches(ctx):
            ctx.charge(CPU_ROW_US, batch.count)
            batch = filter_rows(
                batch.as_quantifier(qid), self.conjuncts, ctx.params
            )
            if batch.count:
                yield batch


class ProcedureScanOp(Operator):
    """A stored procedure in FROM: run its body, record its statistics."""

    def __init__(self, quantifier, body_operator):
        self.quantifier = quantifier
        self.body_operator = body_operator

    def execute_batches(self, ctx):
        procedure = self.quantifier.procedure
        no_row = Batch.empty_row()
        args = [
            evaluate_batch(arg, no_row, ctx.params)[0]
            for arg in (self.quantifier.procedure_args or [])
        ]
        body_params = dict(zip(procedure.parameters, args))
        started = ctx.clock.now
        cardinality = 0
        qid = self.quantifier.id
        body_ctx = ctx.with_params(body_params)
        for batch in self.body_operator.execute_batches(body_ctx):
            cardinality += batch.count
            ctx.charge(CPU_ROW_US, batch.count)
            yield batch.as_quantifier(qid)
        if ctx.stats is not None:
            ctx.stats.procedure_stats(procedure.name).record(
                tuple(args), ctx.clock.now - started, cardinality
            )


class RecursiveRefScanOp(Operator):
    """Scan of the recursive CTE's working table (set by the executor)."""

    def __init__(self, quantifier):
        self.quantifier = quantifier

    def execute_batches(self, ctx):
        rows = ctx.cte_tables.get(self.quantifier.cte_name)
        if rows is None:
            raise ExecutionError(
                "recursive reference %r outside RECURSIVE UNION"
                % (self.quantifier.cte_name,)
            )
        qid = self.quantifier.id
        for chunk in _chunks(rows, ctx.batch_rows):
            ctx.charge(CPU_ROW_US, len(chunk))
            yield Batch.from_rows(qid, chunk)


class FilterOp(Operator):
    def __init__(self, child, conjuncts):
        self.child = child
        self.conjuncts = conjuncts

    def execute_batches(self, ctx):
        n_conjuncts = len(self.conjuncts)
        for batch in self.child.execute_batches(ctx):
            ctx.charge(batch.count * n_conjuncts * CPU_PREDICATE_BATCH_US)
            batch = filter_rows(batch, self.conjuncts, ctx.params)
            if batch.count:
                yield batch


class NLJoinOp(Operator):
    """Nested loops; the inner input is materialized (spillable)."""

    def __init__(self, left, right, join_type, conjuncts,
                 right_quantifiers):
        self.left = left
        self.right = right
        self.join_type = join_type
        self.conjuncts = conjuncts
        #: What an unmatched LEFT row is extended with.
        self._null_layout, self._null_row = null_side(right_quantifiers)
        #: Whether the materialized inner input overflowed to the temp file.
        self.inner_spilled = False

    def spill_event_count(self):
        return 1 if self.inner_spilled else 0

    def execute_batches(self, ctx):
        inner = SpillableBuffer(ctx, self.depth)
        try:
            for batch in self.right.execute_batches(ctx):
                layout = batch.layout
                for row in batch.flat_rows():
                    inner.append((layout, row))
            inner.seal()
            self.inner_spilled = inner.spilled
            yield from pack(self._joined(ctx, inner), ctx.batch_rows)
        finally:
            inner.free()

    def _joined(self, ctx, inner):
        """``(layout, row)`` per output row; each pair is checked against
        the join predicates as a one-row batch."""
        conjuncts, join_type = self.conjuncts, self.join_type
        pair_us = CPU_ROW_US + len(conjuncts) * CPU_PREDICATE_US
        for batch in self.left.execute_batches(ctx):
            left_layout = batch.layout
            for left_row in batch.flat_rows():
                matched = False
                for right_layout, right_row in inner.scan():
                    ctx.charge(pair_us)
                    if conjuncts and not satisfies(
                        conjuncts, concat_layouts(left_layout, right_layout),
                        left_row + right_row, ctx.params,
                    ):
                        continue
                    matched = True
                    if join_type == Quantifier.SEMI:
                        yield left_layout, left_row
                        break
                    if join_type == Quantifier.ANTI:
                        break
                    yield join_rows(
                        left_layout, left_row, right_layout, right_row
                    )
                if not matched:
                    if join_type == Quantifier.ANTI:
                        yield left_layout, left_row
                    elif join_type == Quantifier.LEFT:
                        yield join_rows(
                            left_layout, left_row,
                            self._null_layout, self._null_row,
                        )


class IndexNLJoinOp(Operator):
    """Probe the inner table's index once per outer row."""

    def __init__(self, left, quantifier, index_schema, probe_keys,
                 join_type, conjuncts, local_conjuncts):
        self.left = left
        self.quantifier = quantifier
        self.index_schema = index_schema
        self.probe_keys = probe_keys
        self.join_type = join_type
        self.conjuncts = conjuncts
        self.local_conjuncts = local_conjuncts
        #: Local conjuncts first, then the join's.
        self._predicates = list(local_conjuncts) + list(conjuncts)
        self._null_layout, self._null_row = null_side([quantifier])

    def execute_batches(self, ctx):
        return pack(self._joined(ctx), ctx.batch_rows)

    def _joined(self, ctx):
        for batch in self.left.execute_batches(ctx):
            layout = batch.layout
            for row in batch.flat_rows():
                yield from self.probe(ctx, layout, row)

    def probe(self, ctx, left_layout, left_row):
        """``(layout, row)`` per output row for one outer row (shared
        with the hash join's alternate-strategy switch).  The index rows
        are read an entry at a time, so the outer row and each entry are
        evaluated as one-row batches."""
        btree = self.index_schema.btree
        qid = self.quantifier.id
        params = ctx.params
        left = Batch.from_flat_rows(left_layout, [left_row])
        values = tuple(
            evaluate_batch(expr, left, params)[0] for expr in self.probe_keys
        )
        ctx.charge(btree.height * INDEX_NODE_US)
        matched = False
        if all(value is not None for value in values):
            for row in index_rows(
                ctx, self.quantifier.schema.storage, self.index_schema,
                btree.prefix_scan(values), (values, values, True, True),
                CPU_ROW_US,
            ):
                right_layout = ((qid, 0, len(row)),)
                if self._predicates and not satisfies(
                    self._predicates,
                    concat_layouts(left_layout, right_layout),
                    left_row + row, params,
                ):
                    continue
                matched = True
                if self.join_type == Quantifier.SEMI:
                    yield left_layout, left_row
                    return
                if self.join_type == Quantifier.ANTI:
                    break
                yield join_rows(left_layout, left_row, right_layout, row)
        if not matched:
            if self.join_type == Quantifier.ANTI:
                yield left_layout, left_row
            elif self.join_type == Quantifier.LEFT:
                yield join_rows(
                    left_layout, left_row, self._null_layout, self._null_row
                )


class HashJoinOp(Operator):
    """Partitioned hash join with the paper's adaptive behaviours.

    * memory is accounted against the statement's task; when the soft
      limit is reached, the **partition with the most rows is evicted** to
      the temporary file ("by selecting the partition with the most rows,
      the governor frees up the most memory for future processing");
    * after the build completes, if the optimizer attached an
      **index-nested-loops alternate** and the true build cardinality is
      below the crossover threshold, execution switches strategies and the
      probe side is never scanned.

    Build rows are kept as flat value tuples under the build input's one
    layout, and the probe gathers each probe row's whole match list into
    output columns (:class:`_JoinOutput`): no environment dict is built
    per joined row.
    """

    def __init__(self, left, right, join_type, conjuncts, build_keys,
                 probe_keys, right_quantifiers, alternate=None,
                 alternate_threshold=None):
        self.left = left
        self.right = right
        self.join_type = join_type
        self.conjuncts = conjuncts
        self.build_keys = build_keys
        self.probe_keys = probe_keys
        self.right_quantifiers = right_quantifiers
        self.alternate = alternate
        self.alternate_threshold = alternate_threshold
        self.residual = [c for c in conjuncts if c.equi is None]
        #: Hash of a NULL-free key, bound once per join from the key
        #: columns' types: partition placement — which partition spills,
        #: hence simulated time — must not depend on the process's hash
        #: salt, and INT keys should still pay only the builtin.
        self._hash_key = hash_for_types(
            getattr(expr, "type_name", None)
            for expr in list(build_keys) + list(probe_keys)
        )
        #: What an unmatched LEFT row is extended with: the one build
        #: "row" it joins to.
        self._null_layout, null_row = null_side(right_quantifiers)
        self._null_candidates = [null_row]
        # observability
        self.partitions_evicted = 0
        self.switched_to_alternate = False
        self.build_row_count = 0
        self.probe_rows_spilled = 0
        self._memory = None
        self._partitions = None
        self._partition_rows = None
        self._spills = None
        self._row_bytes = 64
        self._right_layout = None

    # -- memory-governor consumer protocol ------------------------------- #

    @property
    def memory_pages(self):
        return self._memory.pages_held if self._memory is not None else 0

    # -- observability protocol ------------------------------------------- #

    def spill_event_count(self):
        return self.partitions_evicted

    def adaptive_event_count(self):
        return 1 if self.switched_to_alternate else 0

    def _evict_largest(self):
        """Evict the in-memory partition with the most rows (the lowest
        index on ties) to the temp file; the pages freed."""
        counts = self._partition_rows
        largest = max(range(HASH_PARTITIONS), key=counts.__getitem__)
        if not counts[largest]:
            return 0
        return self._evict_partition(largest)

    #: Asked by the governor, the join evicts as it does for itself.
    relinquish_memory = _evict_largest

    def _evict_partition(self, index):
        spill = SpillFile.for_context(self._ctx, self._row_bytes)
        for key, rows in self._partitions[index].items():
            for row in rows:
                spill.append((key, row))
        spill.finish_writing()
        self._spills[index] = spill
        self._partitions[index] = None
        evicted_bytes = self._row_bytes * self._partition_rows[index]
        self._partition_rows[index] = 0
        before = self._memory.pages_held
        self._memory.remove(evicted_bytes)
        self.partitions_evicted += 1
        return before - self._memory.pages_held

    # -- execution ---------------------------------------------------------- #

    def execute_batches(self, ctx):
        """Vectorized key evaluation and column-major emission; memory
        accounting, partition placement, eviction and the
        alternate-strategy switch stay per row, so spill and adaptive
        decisions do not depend on where batch boundaries fall."""
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size, self)
        self._partitions = [dict() for __ in range(HASH_PARTITIONS)]
        self._partition_rows = [0] * HASH_PARTITIONS
        self._spills = [None] * HASH_PARTITIONS
        try:
            self._build(ctx)
            semi_switchable = (
                self.join_type == Quantifier.SEMI and not self.residual
            )
            if (
                self.alternate is not None
                and self.alternate_threshold is not None
                and self.build_row_count <= self.alternate_threshold
                and (self.join_type == Quantifier.INNER or semi_switchable)
            ):
                self.switched_to_alternate = True
                ctx.note("hash_join_switched")
                yield from pack(self._execute_alternate(ctx), ctx.batch_rows)
                return
            yield from self._probe(ctx)
        finally:
            self._memory.release_all()
            for spill in self._spills:
                if spill is not None:
                    spill.free()

    def _build(self, ctx):
        hash_key = self._hash_key
        partitions, spills = self._partitions, self._spills
        partition_rows = self._partition_rows
        for batch in self.right.execute_batches(ctx):
            ctx.charge(batch.count * CPU_HASH_BUILD_BATCH_US)
            key_columns = [
                evaluate_batch(expr, batch, ctx.params)
                for expr in self.build_keys
            ]
            if batch.layout != self._right_layout:
                if self._right_layout is not None:
                    raise ExecutionError(
                        "hash join build input changed its row layout"
                    )
                self._right_layout = batch.layout
            # Every row of a batch has the batch's shape: one sizes all.
            self._row_bytes = max(
                self._row_bytes, row_bytes(len(batch.flat_rows()[0]))
            )
            self.build_row_count += batch.count
            for key, row in zip(zip(*key_columns), batch.flat_rows()):
                index = (
                    stable_hash(key) if None in key else hash_key(key)
                ) % HASH_PARTITIONS
                if partitions[index] is not None and not (
                    self._memory.reserve(self._row_bytes)
                ):
                    self._evict_largest()  # perhaps this very partition
                    if partitions[index] is not None:
                        self._memory.add(self._row_bytes)
                partition = partitions[index]
                if partition is None:
                    spills[index].append((key, row))
                else:
                    partition.setdefault(key, []).append(row)
                    partition_rows[index] += 1

    def _execute_alternate(self, ctx):
        """The index-NL switch: build rows become the outer input.

        For a **semi** join the build rows are deduplicated by key first:
        a semi join must emit each probe-side row at most once, and each
        probe row joins exactly one key value, so probing once per
        *distinct* key preserves the semantics (the alternate probes with
        inner-join emission, so the probe-side rows flow out).
        """
        layout = self._right_layout
        if self.join_type == Quantifier.SEMI:
            seen_keys = set()
            for key, row in self._all_build_rows():
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                yield from self.alternate.probe(ctx, layout, row)
        else:
            for __, row in self._all_build_rows():
                yield from self.alternate.probe(ctx, layout, row)

    def _all_build_rows(self):
        for partition in self._partitions:
            if partition is None:
                continue
            for key, rows in partition.items():
                for row in rows:
                    yield key, row
        for spill in self._spills:
            if spill is not None:
                yield from spill.read_all()

    def _probe(self, ctx):
        """Vectorized probe-key columns and piece-wise emission; spill
        routing is per row."""
        hash_key = self._hash_key
        partitions = self._partitions
        probe_spills = [None] * HASH_PARTITIONS
        out = _JoinOutput(ctx, CPU_ROW_BATCH_US)
        size = out.batch_rows
        # A matched row of an INNER or LEFT join without a residual is
        # buffered right here, as one piece — no Python call per probe
        # row; every other row goes through ``_join_row``.
        plain = not self.residual and self.join_type in (
            Quantifier.INNER, Quantifier.LEFT
        )
        for batch in self.left.execute_batches(ctx):
            ctx.charge(batch.count * CPU_HASH_PROBE_BATCH_US)
            key_columns = [
                evaluate_batch(expr, batch, ctx.params)
                for expr in self.probe_keys
            ]
            layout = batch.layout
            shape = (layout, self._right_layout)
            for key, row in zip(zip(*key_columns), batch.flat_rows()):
                null_key = None in key
                index = (
                    stable_hash(key) if null_key else hash_key(key)
                ) % HASH_PARTITIONS
                table = partitions[index]
                if table is None:
                    # The append may write a temp page, and a disk write
                    # reads the clock: every emitted row's charge must be
                    # on it first.
                    out.settle()
                    if probe_spills[index] is None:
                        probe_spills[index] = SpillFile.for_context(
                            ctx, self._row_bytes
                        )
                    probe_spills[index].append((key, layout, row))
                    self.probe_rows_spilled += 1
                    continue
                candidates = None if null_key else table.get(key)
                if plain and candidates and out.shape == shape:
                    # ``_JoinOutput.add`` for a row of the buffered shape.
                    count = len(candidates)
                    out.pieces.append((row, candidates, 0, count))
                    out.count += count
                    out.owed += count
                    if out.count >= size:
                        out.cut()
                else:
                    self._join_row(out, layout, row, candidates)
                if out.ready:
                    yield from out.drain()
            out.settle()
        # Spilled partitions: reload the build side and re-probe.  Spill
        # files read rows back one at a time (lazily, a page read per
        # page), so this leg charges the unamortized row constants and
        # settles after every probe row.
        out.row_cost = CPU_ROW_US
        for index in range(HASH_PARTITIONS):
            probe_spill = probe_spills[index]
            if probe_spill is None:
                if self._spills[index] is not None:
                    self._spills[index].free()
                continue
            build_table = {}
            if self._spills[index] is not None:
                for key, row in self._spills[index].read_all():
                    build_table.setdefault(key, []).append(row)
                self._spills[index].free()
            for key, layout, row in probe_spill.read_all():
                ctx.charge(CPU_HASH_PROBE_US)
                self._join_row(
                    out, layout, row,
                    None if None in key else build_table.get(key),
                )
                if out.ready:
                    yield from out.drain()
                out.settle()
            probe_spill.free()
        if out.count:
            yield out.take_all()

    def _join_row(self, out, left_layout, row, candidates):
        """Buffer in ``out`` what one probe row (flat values ``row``)
        joins to; ``candidates`` are the build rows under its key."""
        if self.join_type in (Quantifier.SEMI, Quantifier.ANTI):
            matched = bool(candidates) and (
                not self.residual
                or self._any_match(left_layout, row, candidates)
            )
            if matched == (self.join_type == Quantifier.SEMI):
                out.add(left_layout, (), row, None, owes=False)
            return
        if candidates:
            if self.residual:
                candidates = self._survivors(out, left_layout, row, candidates)
            if candidates:
                out.add(
                    left_layout, self._right_layout, row, candidates,
                    owes=True,
                )
                return
        if self.join_type == Quantifier.LEFT:
            out.add(
                left_layout, self._null_layout, row, self._null_candidates,
                owes=False,
            )

    def _survivors(self, out, left_layout, row, candidates):
        """The candidates that satisfy every residual conjunct, evaluated
        over the one piece ``row`` x ``candidates``; conjunct *i* sees
        only the survivors of conjuncts < *i*, as in :func:`filter_rows`."""
        layout = concat_layouts(left_layout, self._right_layout)
        width = len(row) + len(candidates[0])
        params = self._ctx.params
        batch = None
        for conjunct in self.residual:
            if batch is None:
                count = len(candidates)
                batch = Batch.from_source(
                    layout, width, count,
                    _Pieces([(row, candidates, 0, count)], len(row)),
                )
            mask = evaluate_predicate_batch(conjunct.expr, batch, params)
            if not all(mask):
                candidates = list(compress(candidates, mask))
                if not candidates:
                    break
                batch = None
        return candidates

    def _any_match(self, left_layout, row, candidates):
        """Does some candidate satisfy the residual?  Semi and anti joins
        stop at the first that does, and a candidate past it may be one
        the residual raises on — so this one case evaluates a candidate
        at a time, as a one-row batch."""
        layout = concat_layouts(left_layout, self._right_layout)
        params = self._ctx.params
        return any(
            satisfies(self.residual, layout, row + candidate, params)
            for candidate in candidates
        )


class _JoinOutput:
    """Output buffer of one hash-join probe, kept as *pieces*.

    A piece ``(row, candidates, start, stop)`` is one probe row (flat
    values) joined to ``candidates[start:stop]``, the build rows under its
    key (``candidates`` is None for a semi / anti row, which carries no
    build side).  Whole match lists go in (:meth:`add`) and batches of
    exactly ``ctx.batch_rows`` rows come out (:meth:`drain`), a change of
    row shape flushing early — the batches :func:`~repro.exec.batch.pack`
    makes of the same rows handed over one at a time.  An output column is gathered from
    the pieces only when a consumer reads it (:class:`_Pieces`); the build
    lists a piece points at are never changed after the build, so a
    partition evicted after the yield still gathers the same values.

    The per-row emit charge is applied per batch under one rule: wherever
    anything else can read or advance the clock — a yield to the
    consumer, a pull from a child, a spill-file read or write — the clock
    holds exactly the charges a row-at-a-time join would have made by
    then.  So :meth:`drain` charges a batch's outstanding rows
    immediately before yielding it, and the probe calls :meth:`settle`
    before it pulls or spills.
    """

    def __init__(self, ctx, row_cost):
        self.ctx = ctx
        self.batch_rows = ctx.batch_rows
        self.row_cost = row_cost
        self.shape = None  # (left layout, right layout) of buffered rows
        self.layout = None
        self.left_width = 0
        self.width = 0
        self.pieces = []
        self.count = 0
        #: Buffered rows whose emit charge is not on the clock yet.
        self.owed = 0
        #: Completed batches: ``(batch, rows to charge before its yield)``.
        self.ready = []

    def add(self, left_layout, right_layout, row, candidates, owes):
        """Buffer probe row ``row`` joined to the build rows
        ``candidates`` (None: the probe row alone).  ``owes``: whether
        they carry the emit charge (matched INNER / LEFT rows do;
        NULL-extended and semi / anti rows never did)."""
        count = 1 if candidates is None else len(candidates)
        owed = count if owes else 0
        if (left_layout, right_layout) != self.shape:
            if self.count:
                # A row-at-a-time packer sees a shape change only once it
                # is handed the first row of the new shape — by then
                # charged.
                lead = 1 if owes else 0
                self.ready.append((self.take_all(), self.owed + lead))
                self.owed = 0
                owed -= lead
            self.shape = (left_layout, right_layout)
            self.layout = concat_layouts(left_layout, right_layout)
            self.left_width = len(row)
            self.width = sum(width for __, __o, width in self.layout)
        self.pieces.append((row, candidates, 0, count))
        self.count += count
        self.owed += owed
        if self.count >= self.batch_rows:
            self.cut()

    def cut(self):
        """Move every full batch of buffered rows to ``ready``."""
        size = self.batch_rows
        while self.count >= size:
            # The buffer was short of a batch before the last piece came
            # in, so the rows beyond each cut are that piece's: all owe.
            beyond = self.count - size
            self.ready.append((self._cut(size), self.owed - beyond))
            self.owed = beyond

    def _cut(self, size):
        """The first ``size`` buffered rows as a batch, splitting the
        piece the cut falls in."""
        pieces = self.pieces
        taken, need = 0, size
        for __, __c, start, stop in pieces:
            if stop - start >= need:
                break
            need -= stop - start
            taken += 1
        # The cut falls in piece ``taken``: its first ``need`` rows go.
        row, candidates, start, stop = pieces[taken]
        cut = pieces[:taken]
        cut.append((row, candidates, start, start + need))
        if start + need == stop:
            taken += 1
        else:
            pieces[taken] = (row, candidates, start + need, stop)
        del pieces[:taken]
        self.count -= size
        return self._batch(cut, size)

    def _batch(self, pieces, count):
        return Batch.from_source(
            self.layout, self.width, count,
            _Pieces(pieces, self.left_width),
        )

    def drain(self):
        """Yield the completed batches, each one's outstanding rows
        charged immediately before it."""
        ready, self.ready = self.ready, []
        for batch, due in ready:
            self.ctx.charge(self.row_cost, due)
            yield batch

    def settle(self):
        """Charge the buffered rows that still owe (nothing is ready)."""
        if self.owed:
            self.ctx.charge(self.row_cost, self.owed)
            self.owed = 0

    def take_all(self):
        """The buffered rows as one batch; the buffer is left empty."""
        batch = self._batch(self.pieces, self.count)
        self.pieces = []
        self.count = 0
        return batch


class _Pieces:
    """The column source of one join output batch over ``pieces``, whose
    probe rows are ``left_width`` values wide: probe-side columns repeat
    each piece's probe value, build-side columns are slices of the
    pieces' transposed build lists."""

    __slots__ = ("pieces", "left_width", "transposed")

    def __init__(self, pieces, left_width):
        self.pieces = pieces
        self.left_width = left_width
        #: ``id(candidates)`` -> (candidates, their columns): a list is
        #: transposed once per batch, when the batch first reads its side.
        self.transposed = {}

    def column(self, position):
        out = []
        if position < self.left_width:
            for row, __, start, stop in self.pieces:
                out += [row[position]] * (stop - start)
            return out
        position -= self.left_width
        transposed = self.transposed
        for __, candidates, start, stop in self.pieces:
            entry = transposed.get(id(candidates))
            if entry is None:
                entry = transposed[id(candidates)] = (
                    candidates, list(map(list, zip(*candidates))),
                )
            out += entry[1][position][start:stop]
        return out

    def flat_rows(self):
        out = []
        for row, candidates, start, stop in self.pieces:
            if candidates is None:
                out.append(row)
            else:
                out += map(row.__add__, candidates[start:stop])
        return out


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #

def _chunks(rows, size):
    """Lists of up to ``size`` consecutive items of ``rows``."""
    rows = iter(rows)
    while True:
        chunk = list(islice(rows, size))
        if not chunk:
            return
        yield chunk


def _page_chunks(pages, size):
    """Lists of exactly ``size`` consecutive live rows (the last one
    shorter) cut from :meth:`HeapScan.pages`.

    A page is pulled only when the chunk being filled needs another row,
    and a full chunk is handed over before the next pull: where a page
    fetch falls on the simulated clock must not depend on the scan
    reading a page at a time.
    """
    chunk = []
    for __, rows in pages:
        rows = [row for row in rows if row is not None]
        start = 0
        while len(chunk) + len(rows) - start >= size:
            end = start + size - len(chunk)
            chunk += rows[start:end]
            yield chunk
            chunk = []
            start = end
        chunk += rows[start:]
    if chunk:
        yield chunk


def filter_rows(batch, conjuncts, params):
    """Rows of ``batch`` satisfying every conjunct.  Conjunct *i* only
    sees rows surviving conjuncts < *i* — the evaluation set of a
    short-circuiting row-at-a-time ``all``."""
    for conjunct in conjuncts:
        if batch.count == 0:
            break
        mask = evaluate_predicate_batch(conjunct.expr, batch, params)
        if not all(mask):
            batch = batch.take(mask)
    return batch


def satisfies(conjuncts, layout, row, params):
    """Whether the one row ``row`` (flat values under ``layout``)
    satisfies every conjunct, as :func:`filter_rows` decides it."""
    return filter_rows(
        Batch.from_flat_rows(layout, [row]), conjuncts, params
    ).count == 1


def join_rows(left_layout, left_row, right_layout, right_row):
    """``(layout, row)`` of a left row joined to a right row."""
    return concat_layouts(left_layout, right_layout), left_row + right_row


def null_side(quantifiers):
    """``(layout, row)`` of the NULLs a left-outer join appends for the
    null-supplied ``quantifiers``."""
    layout = layout_of(
        (quantifier.id, max(1, len(quantifier.columns)))
        for quantifier in quantifiers
    )
    return layout, (None,) * sum(width for __, __o, width in layout)


def classify_predicate(predicate, params):
    """Map a recognised column predicate (``Conjunct.column``) onto a
    histogram-updatable shape, or None.

    Returns ('eq', column_index, value) / ('range', ci, (low, high, li, hi))
    / ('null', ci, None) / ('like', ci, pattern).
    """
    # Operand policy: parameters resolve to their values; a NULL or
    # non-constant operand, and every negated shape, teaches nothing.
    if predicate is None or predicate.negated:
        return None
    values = [static_value(operand, params) for operand in predicate.operands]
    if any(value is NO_VALUE or value is None for value in values):
        return None
    column_index = predicate.column.column_index
    if predicate.kind == NULL:
        return ("null", column_index, None)
    if predicate.kind == LIKE:
        if isinstance(values[0], str):
            return ("like", column_index, values[0])
        return None
    if predicate.kind == CMP and predicate.op == "=":
        return ("eq", column_index, values[0])
    bounds = range_bounds(predicate, values)
    if bounds is None:
        return None
    return ("range", column_index, bounds)
