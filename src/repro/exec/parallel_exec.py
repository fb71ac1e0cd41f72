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

from repro.exec.batch import rows_to_batches
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
    scans.  Returns (wrapper chain top-down, join chain bottom-up, leaf).
    """
    wrappers = []
    node = plan
    while isinstance(node, (
        p.ProjectPlan, p.HashGroupByPlan, p.HavingPlan, p.SortPlan,
        p.HashDistinctPlan, p.LimitPlan, p.FilterPlan,
    )):
        wrappers.append(node)
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
    return wrappers, joins, node


class _MaterializedRows(Operator):
    """Feeds pre-computed environment rows into the serial operator tree."""

    def __init__(self, rows):
        self.rows = rows

    def execute_batches(self, ctx):
        return rows_to_batches(self.rows, ctx.batch_rows)


def execute_parallel(plan, executor, ctx, n_workers):
    """Run ``plan`` with its join core parallelized; returns (rows, stats).

    Returns (None, None) when the plan shape is not eligible — the caller
    falls back to the serial path.
    """
    core = parallelizable_join_core(plan)
    if core is None or n_workers < 2:
        return None, None
    wrappers, joins, leaf = core
    ctx.metrics.counter("exec.parallel_queries").inc()
    ctx.metrics.gauge("exec.parallel_workers").set(n_workers)

    # 1. Materialize the leaf (probe) input and every build input through
    #    the ordinary scan operators: scan I/O stays serial and sequential.
    probe_rows = list(executor.rows(executor.build(leaf, depth=1), ctx))
    stages = []
    for join in joins:
        build_rows = list(
            executor.rows(executor.build(join.right, depth=1), ctx)
        )
        stages.append(_make_stage(join, build_rows, ctx.params))

    # 2. Parallel build + probe via the FCFS worker pipeline.  Workers
    #    fetch whole batches FCFS: the per-morsel fetch and probe
    #    constants amortize exactly like the serial operators'.
    pipeline = ParallelPipeline(
        probe_rows, stages,
        probe_fetch_us=CPU_ROW_BATCH_US,
        probe_us=CPU_HASH_PROBE_BATCH_US,
    )
    output, stats = pipeline.run(n_workers=n_workers, ctx=ctx)

    # 3. Flatten the pipeline's nested (probe, build) tuples back into
    #    environment rows and run the serial remainder of the plan.
    joined_envs = [_flatten_env(item) for item in output]
    serial_top = _rebuild_serial(wrappers, executor, joined_envs)
    return list(executor.rows(serial_top, ctx)), stats


def _make_stage(join, build_envs, params):
    build_keys = join.build_keys
    probe_keys = join.probe_keys

    def build_key(env):
        return tuple(evaluate(expr, env, params) for expr in build_keys)

    def probe_key(item):
        return tuple(
            evaluate(expr, _flatten_env(item), params) for expr in probe_keys
        )

    return JoinStage(
        build_envs, build_key, probe_key,
        row_fetch_us=CPU_ROW_BATCH_US,
        build_us=CPU_HASH_BUILD_BATCH_US,
    )


def _flatten_env(item):
    """Merge the pipeline's nested ((env, env), env) tuples into one env."""
    if isinstance(item, dict):
        return item
    left, right = item
    merged = dict(_flatten_env(left))
    merged.update(_flatten_env(right))
    return merged


def _rebuild_serial(wrappers, executor, joined_envs):
    """Re-hang the serial wrapper chain over the materialized join rows."""
    operator = _MaterializedRows(joined_envs)
    for wrapper in reversed(wrappers):
        operator = _build_wrapper(wrapper, operator)
    return operator


def _build_wrapper(wrapper, child_operator):
    from repro.exec.aggregates import (
        HashDistinctOp, HashGroupByOp, HavingOp, LimitOp, ProjectOp, SortOp,
    )
    from repro.exec.operators import FilterOp

    if isinstance(wrapper, p.ProjectPlan):
        return ProjectOp(child_operator, wrapper.items)
    if isinstance(wrapper, p.HashGroupByPlan):
        operator = HashGroupByOp(
            child_operator, wrapper.group_keys, wrapper.aggregates
        )
        operator.depth = 0
        return operator
    if isinstance(wrapper, p.HavingPlan):
        return HavingOp(child_operator, wrapper.conjunct_exprs)
    if isinstance(wrapper, p.SortPlan):
        operator = SortOp(child_operator, wrapper.sort_keys)
        operator.depth = 0
        return operator
    if isinstance(wrapper, p.HashDistinctPlan):
        operator = HashDistinctOp(child_operator)
        operator.depth = 0
        return operator
    if isinstance(wrapper, p.LimitPlan):
        return LimitOp(child_operator, wrapper.limit)
    if isinstance(wrapper, p.FilterPlan):
        return FilterOp(child_operator, wrapper.conjuncts)
    raise AssertionError("unexpected wrapper %r" % (type(wrapper).__name__,))
