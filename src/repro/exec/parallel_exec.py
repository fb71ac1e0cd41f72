"""Engine integration of intra-query parallelism (Section 4.4).

When the server's ``max_query_tasks`` option allows it, plans whose join
core is a left-deep chain of **hash joins over base-table scans** execute
their build and probe phases through the FCFS worker pipeline of
:mod:`repro.exec.parallel` instead of the serial Volcano operators — the
same eligibility the paper describes (the technique extends to arbitrary
compositions of hash joins; other shapes simply run serially).

Division of labour:

* leaf scans are materialized through the ordinary scan operators (I/O is
  charged serially — the paper keeps table scans sequential on the single
  disk and parallelizes the CPU-side build/probe work);
* the pipeline charges the parallel phases' CPU to simulated workers and
  advances the clock by the *critical path*, not the total work;
* everything above the join core (aggregation, sort, projection) runs
  serially on the joined rows.
"""

from repro.exec.batch import Batch, concat_layouts, env_of
from repro.exec.expr import evaluate
from repro.exec.operators import Operator
from repro.exec.parallel import JoinStage, ParallelPipeline
from repro.optimizer import plans as p
from repro.optimizer.costmodel import (
    CPU_HASH_BUILD_BATCH_US,
    CPU_HASH_PROBE_BATCH_US,
    CPU_ROW_BATCH_US,
)
from repro.sql.binder import Quantifier


def parallelizable_join_core(plan):
    """The topmost hash-join chain runnable in parallel, or None.

    Walks down through the serial wrapper nodes (project, group by,
    having, sort, distinct, limit, filter); accepts a left-deep chain of
    INNER hash joins whose right children and leftmost leaf are base-table
    scans.  Returns (join chain bottom-up, leaf).
    """
    node = plan
    while isinstance(node, (
        p.ProjectPlan, p.HashGroupByPlan, p.HavingPlan, p.SortPlan,
        p.HashDistinctPlan, p.LimitPlan, p.FilterPlan,
    )):
        node = node.children[0]
    joins = []
    while isinstance(node, p.HashJoinPlan):
        if node.join_type != Quantifier.INNER:
            return None
        if not isinstance(node.right, (p.SeqScanPlan, p.IndexScanPlan)):
            return None
        if node.conjuncts and any(c.equi is None for c in node.conjuncts):
            return None
        joins.append(node)
        node = node.left
    if not joins:
        return None
    if not isinstance(node, (p.SeqScanPlan, p.IndexScanPlan)):
        return None
    joins.reverse()  # bottom-up: first join applies to the leaf scan
    return joins, node


class _Replay(Operator):
    """Replays the join core's rows, computed by the pipeline, as
    batches."""

    def __init__(self, layout, rows):
        self.layout = layout
        self.rows = rows

    def execute_batches(self, ctx):
        rows, size = self.rows, ctx.batch_rows
        for start in range(0, len(rows), size):
            yield Batch.from_flat_rows(self.layout, rows[start:start + size])


def execute_parallel(plan, executor, ctx, n_workers):
    """Run ``plan`` with its join core parallelized; returns its rows, or
    None when the plan shape is not eligible (the caller runs it
    serially)."""
    core = parallelizable_join_core(plan)
    if core is None or n_workers < 2:
        return None
    joins, leaf = core
    ctx.metrics.counter("exec.parallel_queries").inc()
    ctx.metrics.gauge("exec.parallel_workers").set(n_workers)

    # 1. Materialize the leaf (probe) input and every build input through
    #    the ordinary scan operators: scan I/O stays serial and sequential.
    layout, probe_rows = _materialize(executor, leaf, ctx)
    stages = []
    for depth, join in enumerate(joins):
        build_layout, build_rows = _materialize(executor, join.right, ctx)
        stages.append(_make_stage(
            join, layout, depth, build_layout, build_rows, ctx.params
        ))
        layout = concat_layouts(layout, build_layout)

    # 2. Parallel build + probe via the FCFS worker pipeline.  Workers
    #    fetch whole batches FCFS: the per-morsel fetch and probe
    #    constants amortize exactly like the serial operators'.
    pipeline = ParallelPipeline(
        probe_rows, stages,
        probe_fetch_us=CPU_ROW_BATCH_US,
        probe_us=CPU_HASH_PROBE_BATCH_US,
    )
    output, stats = pipeline.run(n_workers=n_workers, ctx=ctx)
    ctx.notes["parallel_workers"] = n_workers
    ctx.notes["parallel_wall_us"] = int(stats.wall_clock_us)

    # 3. Flatten the pipeline's nested (probe, build) pairs into flat
    #    rows; the executor builds the serial remainder of the plan with
    #    the join core's node replaying them.
    executor.materialized[id(joins[-1])] = _Replay(
        layout, [_flatten(item, len(joins)) for item in output]
    )
    return executor.rows(executor.build(plan, depth=0), ctx)


def _materialize(executor, plan, ctx):
    """``(layout, flat rows)`` of a scan plan's output; a scan's batches
    share one layout (``()`` stands in when there are none)."""
    batches = list(executor.build(plan, depth=1).execute_batches(ctx))
    layout = batches[0].layout if batches else ()
    return layout, [row for batch in batches for row in batch.flat_rows()]


def _make_stage(join, probe_layout, depth, build_layout, build_rows, params):
    """The pipeline stage of ``join``, whose probe items are nested
    ``depth`` joins deep and flatten to rows under ``probe_layout``."""
    build_keys = join.build_keys
    probe_keys = join.probe_keys

    def build_key(row):
        env = env_of(build_layout, row)
        return tuple(evaluate(expr, env, params) for expr in build_keys)

    def probe_key(item):
        env = env_of(probe_layout, _flatten(item, depth))
        return tuple(evaluate(expr, env, params) for expr in probe_keys)

    return JoinStage(
        build_rows, build_key, probe_key,
        row_fetch_us=CPU_ROW_BATCH_US,
        build_us=CPU_HASH_BUILD_BATCH_US,
    )


def _flatten(item, depth):
    """The flat row of a pipeline item ``depth`` joins deep: the probe
    row, then each join's build row (``((probe, build), build)``...)."""
    if depth == 0:
        return item
    left, right = item
    return _flatten(left, depth - 1) + right
