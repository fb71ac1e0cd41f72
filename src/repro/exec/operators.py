"""Scan and join operators."""

from itertools import islice

from repro.common.errors import ExecutionError
from repro.common.hashing import hash_for_types, stable_hash
from repro.exec.batch import (
    Batch,
    concat_layouts,
    env_of,
    layout_of,
    rows_to_batches,
)
from repro.exec.expr import (
    evaluate,
    evaluate_batch,
    evaluate_predicate,
    evaluate_predicate_batch,
)
from repro.exec.spill import (
    SpillFile,
    SpillableBuffer,
    WorkMemory,
    env_row_bytes,
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
    column-major :class:`~repro.exec.batch.Batch` slabs — environment
    layouts below Project, plain tuples (``layout is None``) from Project
    upward.  Rows exist only above the tree, at :meth:`Executor.rows`.
    """

    def execute_batches(self, ctx):
        raise NotImplementedError

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
    """One empty environment (FROM-less SELECT)."""

    def execute_batches(self, ctx):
        yield Batch.from_columns((), [], 1)


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
            matched = sum(1 for keep in mask if keep)
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
            batch = _filter(
                Batch.from_rows(qid, chunk), self.residual, ctx.params
            )
            if batch.count:
                yield batch

    def _bounds(self, ctx):
        if "eq" in self.sarg:
            values = tuple(
                evaluate(expr, {}, ctx.params) for expr in self.sarg["eq"]
            )
            return values, values, True, True
        low = high = None
        low_inc = self.sarg.get("low_inclusive", True)
        high_inc = self.sarg.get("high_inclusive", True)
        if "low" in self.sarg:
            low = (evaluate(self.sarg["low"], {}, ctx.params),)
        if "high" in self.sarg:
            high = (evaluate(self.sarg["high"], {}, ctx.params),)
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
            for __ in range(batch.count):
                ctx.charge(CPU_ROW_US)
            batch = _filter(
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
        args = [
            evaluate(arg, {}, ctx.params)
            for arg in (self.quantifier.procedure_args or [])
        ]
        body_params = dict(zip(procedure.parameters, args))
        started = ctx.clock.now
        cardinality = 0
        qid = self.quantifier.id
        body_ctx = ctx.with_params(body_params)
        for batch in self.body_operator.execute_batches(body_ctx):
            cardinality += batch.count
            for __ in range(batch.count):
                ctx.charge(CPU_ROW_US)
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
            for __ in chunk:
                ctx.charge(CPU_ROW_US)
            yield Batch.from_rows(qid, chunk)


class FilterOp(Operator):
    def __init__(self, child, conjuncts):
        self.child = child
        self.conjuncts = conjuncts

    def execute_batches(self, ctx):
        n_conjuncts = len(self.conjuncts)
        for batch in self.child.execute_batches(ctx):
            ctx.charge(batch.count * n_conjuncts * CPU_PREDICATE_BATCH_US)
            batch = _filter(batch, self.conjuncts, ctx.params)
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
        #: Quantifiers supplied by the right child (for NULL extension).
        self.right_quantifiers = right_quantifiers
        #: Whether the materialized inner input overflowed to the temp file.
        self.inner_spilled = False

    def spill_event_count(self):
        return 1 if self.inner_spilled else 0

    def execute_batches(self, ctx):
        inner = SpillableBuffer(ctx)
        try:
            for batch in self.right.execute_batches(ctx):
                for env in batch.rows():
                    inner.append(env)
            inner.seal()
            self.inner_spilled = inner.spilled
            yield from rows_to_batches(
                self._joined(ctx, inner), ctx.batch_rows
            )
        finally:
            inner.free()

    def _joined(self, ctx, inner):
        for batch in self.left.execute_batches(ctx):
            for left_env in batch.rows():
                matched = False
                for right_env in inner.scan():
                    ctx.charge(
                        CPU_ROW_US + len(self.conjuncts) * CPU_PREDICATE_US
                    )
                    merged = {**left_env, **right_env}
                    if all(
                        evaluate_predicate(c.expr, merged, ctx.params)
                        for c in self.conjuncts
                    ):
                        matched = True
                        if self.join_type == Quantifier.SEMI:
                            yield left_env
                            break
                        if self.join_type == Quantifier.ANTI:
                            break
                        yield merged
                if not matched:
                    if self.join_type == Quantifier.ANTI:
                        yield left_env
                    elif self.join_type == Quantifier.LEFT:
                        yield null_extend(left_env, self.right_quantifiers)


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

    def execute_batches(self, ctx):
        return rows_to_batches(self._joined(ctx), ctx.batch_rows)

    def _joined(self, ctx):
        for batch in self.left.execute_batches(ctx):
            for left_env in batch.rows():
                yield from self.probe(ctx, left_env)

    def probe(self, ctx, left_env):
        """Probe for one outer environment (shared with the hash join's
        alternate-strategy switch)."""
        btree = self.index_schema.btree
        qid = self.quantifier.id
        values = tuple(
            evaluate(expr, left_env, ctx.params) for expr in self.probe_keys
        )
        ctx.charge(btree.height * INDEX_NODE_US)
        matched = False
        if all(value is not None for value in values):
            for row in index_rows(
                ctx, self.quantifier.schema.storage, self.index_schema,
                btree.prefix_scan(values), (values, values, True, True),
                CPU_ROW_US,
            ):
                merged = {**left_env, qid: row}
                keep = all(
                    evaluate_predicate(c.expr, merged, ctx.params)
                    for c in self.local_conjuncts
                ) and all(
                    evaluate_predicate(c.expr, merged, ctx.params)
                    for c in self.conjuncts
                )
                if not keep:
                    continue
                matched = True
                if self.join_type == Quantifier.SEMI:
                    yield left_env
                    return
                if self.join_type == Quantifier.ANTI:
                    break
                yield merged
        if not matched:
            if self.join_type == Quantifier.ANTI:
                yield left_env
            elif self.join_type == Quantifier.LEFT:
                yield null_extend(left_env, [self.quantifier])


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
        #: What :func:`null_extend` appends to an unmatched LEFT row.
        self._null_layout = layout_of(
            (quantifier.id, max(1, len(quantifier.columns)))
            for quantifier in right_quantifiers
        )
        self._null_values = (None,) * sum(
            width for __, __o, width in self._null_layout
        )
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

    def relinquish_memory(self):
        """Evict the in-memory partition with the most rows (the lowest
        index on ties) to the temp file."""
        if not self._partitions:
            return 0
        counts = self._partition_rows
        largest = max(range(HASH_PARTITIONS), key=counts.__getitem__)
        if not counts[largest]:
            return 0
        return self._evict_partition(largest)

    def _evict_partition(self, index):
        spill = self._spill_file()
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

    def _spill_file(self):
        ctx = self._ctx
        return SpillFile(
            ctx.temp_file, self._row_bytes, ctx.pool.page_size,
            fault_plan=getattr(ctx, "fault_plan", None),
            yield_hook=getattr(ctx, "yield_hook", None),
        )

    # -- execution ---------------------------------------------------------- #

    def execute_batches(self, ctx):
        """Vectorized key evaluation and column-major emission; memory
        accounting, partition placement, eviction and the
        alternate-strategy switch stay per row, so spill and adaptive
        decisions do not depend on where batch boundaries fall."""
        self._ctx = ctx
        self._memory = WorkMemory(ctx.task, ctx.pool.page_size)
        self._partitions = [dict() for __ in range(HASH_PARTITIONS)]
        self._partition_rows = [0] * HASH_PARTITIONS
        self._spills = [None] * HASH_PARTITIONS
        ctx.task.register_consumer(self, depth=getattr(self, "depth", 1))
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
                yield from rows_to_batches(
                    self._execute_alternate(ctx), ctx.batch_rows
                )
                return
            yield from self._probe(ctx)
        finally:
            ctx.task.unregister_consumer(self)
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
                self._row_bytes, env_row_bytes(batch.env_at(0))
            )
            self.build_row_count += batch.count
            for key, row in zip(zip(*key_columns), zip(*batch.columns)):
                index = (
                    stable_hash(key) if None in key else hash_key(key)
                ) % HASH_PARTITIONS
                if partitions[index] is None:
                    spills[index].append((key, row))
                    continue
                self._memory.add(self._row_bytes)
                # The allocation may have reclaimed (evicted) this very
                # partition; rows then go straight to its spill file.
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
                yield from self.alternate.probe(ctx, env_of(layout, row))
        else:
            for __, row in self._all_build_rows():
                yield from self.alternate.probe(ctx, env_of(layout, row))

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
        """Vectorized probe-key columns and column-major emission; spill
        routing is per row."""
        hash_key = self._hash_key
        partitions = self._partitions
        probe_spills = [None] * HASH_PARTITIONS
        out = _JoinOutput(ctx, CPU_ROW_BATCH_US)
        for batch in self.left.execute_batches(ctx):
            ctx.charge(batch.count * CPU_HASH_PROBE_BATCH_US)
            key_columns = [
                evaluate_batch(expr, batch, ctx.params)
                for expr in self.probe_keys
            ]
            layout = batch.layout
            for key, row in zip(zip(*key_columns), zip(*batch.columns)):
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
                        probe_spills[index] = self._spill_file()
                    probe_spills[index].append((key, layout, row))
                    self.probe_rows_spilled += 1
                    continue
                self._join_row(
                    out, layout, row, None if null_key else table.get(key)
                )
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
                out.add(left_layout, (), zip(row), 1, owes=False)
            return
        if candidates:
            count = len(candidates)
            columns = [[value] * count for value in row]
            columns.extend(zip(*candidates))
            if self.residual:
                survivors = _filter(
                    Batch(
                        concat_layouts(left_layout, self._right_layout),
                        columns, count,
                    ),
                    self.residual, self._ctx.params,
                )
                columns, count = survivors.columns, survivors.count
            if count:
                out.add(
                    left_layout, self._right_layout, columns, count,
                    owes=True,
                )
                return
        if self.join_type == Quantifier.LEFT:
            out.add(
                left_layout, self._null_layout,
                zip(row + self._null_values), 1, owes=False,
            )

    def _any_match(self, left_layout, row, candidates):
        """Does some candidate satisfy the residual?  Semi and anti joins
        stop at the first that does, and a candidate past it may be one
        the residual raises on — so this one case evaluates a candidate
        at a time, on merged environments."""
        left_env = env_of(left_layout, row)
        params = self._ctx.params
        for candidate in candidates:
            merged = {**left_env, **env_of(self._right_layout, candidate)}
            if all(
                evaluate_predicate(c.expr, merged, params)
                for c in self.residual
            ):
                return True
        return False


class _JoinOutput:
    """Column-major output buffer of one hash-join probe.

    Whole match lists go in (:meth:`add`) and batches of exactly
    ``ctx.batch_rows`` rows come out (:meth:`drain`), a change of row
    shape flushing early — the batches :class:`BatchBuilder` packs from
    the same rows one at a time.

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
        self.columns = []
        self.count = 0
        #: Buffered rows whose emit charge is not on the clock yet.
        self.owed = 0
        #: Completed batches: ``(batch, rows to charge before its yield)``.
        self.ready = []

    def add(self, left_layout, right_layout, columns, count, owes):
        """Buffer ``count`` rows given as one value sequence per output
        column.  ``owes``: whether they carry the emit charge (matched
        INNER / LEFT rows do; NULL-extended and semi / anti rows never
        did)."""
        owed = count if owes else 0
        if (left_layout, right_layout) != self.shape:
            if self.count:
                # BatchBuilder saw a shape change only once it was handed
                # the first row of the new shape — by then charged.
                lead = 1 if owes else 0
                self.ready.append((self.take_all(), self.owed + lead))
                self.owed = 0
                owed -= lead
            self.shape = (left_layout, right_layout)
            self.layout = concat_layouts(left_layout, right_layout)
            self.columns = [list(values) for values in columns]
        else:
            for column, values in zip(self.columns, columns):
                column.extend(values)
        self.count += count
        self.owed += owed
        size = self.batch_rows
        if self.count >= size:
            # The buffer was short of a batch before this call, so the
            # rows beyond each cut are this call's rows: all of them owe.
            start = 0
            while self.count - start >= size:
                beyond = self.count - start - size
                self.ready.append((
                    Batch(
                        self.layout,
                        [c[start:start + size] for c in self.columns],
                        size,
                    ),
                    self.owed - beyond,
                ))
                self.owed = beyond
                start += size
            self.columns = [column[start:] for column in self.columns]
            self.count -= start

    def drain(self):
        """Yield the completed batches, each one's outstanding rows
        charged immediately before it."""
        ready, self.ready = self.ready, []
        for batch, due in ready:
            self.ctx.charge_rows(due, self.row_cost)
            yield batch

    def settle(self):
        """Charge the buffered rows that still owe (nothing is ready)."""
        if self.owed:
            self.ctx.charge_rows(self.owed, self.row_cost)
            self.owed = 0

    def take_all(self):
        """The buffered rows as one batch; the buffer is left empty."""
        batch = Batch(self.layout, self.columns, self.count)
        self.columns = [[] for __ in self.columns]
        self.count = 0
        return batch


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


def _filter(batch, conjuncts, params):
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


def null_extend(env, quantifiers):
    """Left-outer NULL extension for the null-supplied side."""
    extended = dict(env)
    for quantifier in quantifiers:
        extended[quantifier.id] = (None,) * max(1, len(quantifier.columns))
    return extended


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
