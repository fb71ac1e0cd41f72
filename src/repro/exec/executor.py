"""Plan interpretation: plan trees -> operator trees -> row streams."""

from repro.common.errors import ExecutionError
from repro.exec.batch import DEFAULT_BATCH_ROWS
from repro.exec.aggregates import (
    HashDistinctOp,
    HashGroupByOp,
    HavingOp,
    LimitOp,
    ProjectOp,
    SortOp,
)
from repro.exec.instrument import ExecStatsCollector, InstrumentedOp
from repro.exec.operators import (
    DerivedScanOp,
    FilterOp,
    HashJoinOp,
    IndexNLJoinOp,
    IndexScanOp,
    NLJoinOp,
    ProcedureScanOp,
    RecursiveRefScanOp,
    SeqScanOp,
    SingleRowOp,
)
from repro.exec.parallel import ParallelCoreOp, parallelizable_join_core
from repro.optimizer import plans as p
from repro.profiling.metrics import NULL_METRICS

#: Bound on recursive-union iterations (runaway-recursion backstop).
MAX_RECURSION_DEPTH = 200


class ExecutionContext:
    """Everything operators need at run time."""

    def __init__(self, pool, temp_file, stats, clock, task, params=None,
                 feedback_enabled=True, metrics=None, fault_plan=None,
                 yield_hook=None, snapshot_lsn=None, snapshot_txn=None,
                 batch_rows=DEFAULT_BATCH_ROWS):
        self.pool = pool
        self.temp_file = temp_file
        self.stats = stats
        self.clock = clock
        self.task = task
        self.params = params
        self.feedback_enabled = feedback_enabled
        self.metrics = metrics or NULL_METRICS
        self.fault_plan = fault_plan
        #: Rows per batch the operators build.
        self.batch_rows = batch_rows
        #: Workload-scheduler yield point, fired at spill-file flushes so
        #: concurrent sessions can interleave at I/O boundaries.
        self.yield_hook = yield_hook
        #: Snapshot reads: scans resolve rows as of this commit LSN
        #: (``None`` reads the latest heap).  ``snapshot_txn`` keeps the
        #: reading transaction's own uncommitted writes visible.
        self.snapshot_lsn = snapshot_lsn
        self.snapshot_txn = snapshot_txn
        self.cte_tables = {}
        self.notes = {}
        #: Picoseconds charged but not yet on the clock (always below one
        #: microsecond), in a cell that :meth:`with_params` clones share.
        self.carry_ps = [0]

    def charge(self, us, count=1):
        """Charge ``count`` x ``us`` of CPU time to the simulated clock.

        The charge is kept exactly, in integer picoseconds: the whole
        microseconds go to the clock and the remainder waits in the
        carry, so the clock never depends on how the charges are grouped
        into calls."""
        carry = self.carry_ps
        total = carry[0] + count * round(us * 1_000_000)
        carry[0] = total % 1_000_000
        if total >= 1_000_000:
            self.clock.advance(total // 1_000_000)

    def note(self, event):
        self.notes[event] = self.notes.get(event, 0) + 1

    def with_params(self, params):
        clone = ExecutionContext(
            self.pool, self.temp_file, self.stats, self.clock, self.task,
            params, self.feedback_enabled, metrics=self.metrics,
            fault_plan=self.fault_plan, yield_hook=self.yield_hook,
            snapshot_lsn=self.snapshot_lsn, snapshot_txn=self.snapshot_txn,
            batch_rows=self.batch_rows,
        )
        clone.cte_tables = self.cte_tables
        clone.notes = self.notes
        clone.carry_ps = self.carry_ps
        return clone


class Executor:
    """Builds operator trees from plans and runs them.

    ``plan_block_fn`` and ``bind_recursive_arm_fn`` are engine callbacks
    used by the adaptive RECURSIVE UNION, which re-binds and re-optimizes
    its recursive arm every iteration ("possibly using a different
    [strategy] for each recursive iteration").
    """

    def __init__(self, plan_block_fn=None, bind_recursive_arm_fn=None,
                 max_tasks=1):
        self.plan_block_fn = plan_block_fn
        self.bind_recursive_arm_fn = bind_recursive_arm_fn
        #: Every built operator is wrapped so EXPLAIN ANALYZE has
        #: per-operator actuals and the registry its spill counts.
        self.exec_stats = ExecStatsCollector()
        #: The ``max_query_tasks`` option: above 1, an eligible hash-join
        #: core's CPU is charged to simulated workers (Section 4.4).
        self.max_tasks = max_tasks
        #: The top join of the statement's parallel core, if it has one.
        self.parallel_join = None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, result, ctx):
        """Execute an OptimizerResult for a SELECT; yields result tuples.

        Under ``max_tasks > 1`` an eligible hash-join core charges its
        CPU to simulated FCFS workers; other shapes run serially."""
        ctx.metrics.counter("exec.queries").inc()
        if result.recursive_cte is not None:
            self._materialize_cte(result.recursive_cte, ctx)
        elif self.max_tasks > 1:
            self.parallel_join = parallelizable_join_core(result.plan)
            if self.parallel_join is not None:
                ctx.metrics.counter("exec.parallel_queries").inc()
                ctx.metrics.gauge("exec.parallel_workers").set(self.max_tasks)
        yield from self.rows(self.build(result.plan, depth=0), ctx)

    @staticmethod
    def rows(operator, ctx):
        """The one batch -> row boundary: a plan's output, whose top
        batches Project made plain tuples, as result rows."""
        for batch in operator.execute_batches(ctx):
            yield from batch.flat_rows()

    def _materialize_cte(self, cte, ctx):
        base_result = self.plan_block_fn(cte.base_block)
        base_operator = self.build(base_result.plan, depth=0)
        working = [tuple(row) for row in self.rows(base_operator, ctx)]
        delta = list(working)
        iterations = 0
        strategies = []
        while delta:
            iterations += 1
            if iterations > MAX_RECURSION_DEPTH:
                raise ExecutionError(
                    "recursive union exceeded %d iterations" % MAX_RECURSION_DEPTH
                )
            # Adaptive: the arm is re-bound and re-optimized per iteration,
            # with the working-table statistics at their current values.
            arm_block = self.bind_recursive_arm_fn(cte)
            arm_result = self.plan_block_fn(arm_block)
            strategies.append(type(arm_result.plan).__name__)
            ctx.cte_tables[cte.name] = delta
            arm_operator = self.build(arm_result.plan, depth=0)
            delta = [tuple(row) for row in self.rows(arm_operator, ctx)]
            working.extend(delta)
        ctx.cte_tables[cte.name] = working
        ctx.notes["recursive_iterations"] = iterations
        return working

    # ------------------------------------------------------------------ #
    # plan -> operator tree
    # ------------------------------------------------------------------ #

    def build(self, plan, depth=0):
        """Build and instrument one plan node."""
        operator = self._build_operator(plan, depth)
        if plan is self.parallel_join:
            operator = ParallelCoreOp(operator, self.max_tasks)
        return InstrumentedOp(operator, self.exec_stats.stats_for(plan))

    def _build_operator(self, plan, depth):
        if isinstance(plan, p.SeqScanPlan):
            return SeqScanOp(plan.quantifier, plan.local_conjuncts)
        if isinstance(plan, p.IndexScanPlan):
            return IndexScanOp(
                plan.quantifier, plan.index_schema, plan.sarg,
                plan.local_conjuncts,
            )
        if isinstance(plan, p.DerivedScanPlan):
            sub = self.build(plan.sub_plan, depth + 1)
            return DerivedScanOp(plan.quantifier, sub, plan.local_conjuncts)
        if isinstance(plan, p.ProcedureScanPlan):
            body = self.build(plan.body_plan, depth + 1)
            return ProcedureScanOp(plan.quantifier, body)
        if isinstance(plan, p.RecursiveRefScanPlan):
            return RecursiveRefScanOp(plan.quantifier)
        if isinstance(plan, p.FilterPlan):
            return FilterOp(self.build(plan.child, depth + 1), plan.conjuncts)
        if isinstance(plan, p.NLJoinPlan):
            left = self.build(plan.left, depth + 1)
            right = self.build(plan.right, depth + 1)
            return NLJoinOp(
                left, right, plan.join_type, plan.conjuncts,
                _plan_quantifiers(plan.right),
            )
        if isinstance(plan, p.IndexNLJoinPlan):
            left = self.build(plan.left, depth + 1)
            return IndexNLJoinOp(
                left, plan.quantifier, plan.index_schema, plan.probe_keys,
                plan.join_type, plan.conjuncts,
                getattr(plan, "local_conjuncts", []),
            )
        if isinstance(plan, p.HashJoinPlan):
            left = self.build(plan.left, depth + 1)
            right = self.build(plan.right, depth + 1)
            alternate = None
            if plan.alternate is not None:
                alternate = IndexNLJoinOp(
                    None,
                    plan.alternate.quantifier,
                    plan.alternate.index_schema,
                    plan.alternate.probe_keys,
                    plan.alternate.join_type,
                    plan.alternate.conjuncts,
                    getattr(plan.alternate, "local_conjuncts", []),
                )
            operator = HashJoinOp(
                left, right, plan.join_type, plan.conjuncts,
                plan.build_keys, plan.probe_keys,
                _plan_quantifiers(plan.right),
                alternate=alternate,
                alternate_threshold=plan.alternate_threshold,
            )
            operator.depth = depth
            return operator
        if isinstance(plan, p.HashGroupByPlan):
            operator = HashGroupByOp(
                self.build(plan.child, depth + 1), plan.group_keys,
                plan.aggregates,
            )
            operator.depth = depth
            return operator
        if isinstance(plan, p.HavingPlan):
            return HavingOp(self.build(plan.child, depth + 1), plan.conjunct_exprs)
        if isinstance(plan, p.SortPlan):
            operator = SortOp(self.build(plan.child, depth + 1), plan.sort_keys)
            operator.depth = depth
            return operator
        if isinstance(plan, p.ProjectPlan):
            return ProjectOp(self.build(plan.child, depth + 1), plan.items)
        if isinstance(plan, p.HashDistinctPlan):
            operator = HashDistinctOp(self.build(plan.child, depth + 1))
            operator.depth = depth
            return operator
        if isinstance(plan, p.LimitPlan):
            return LimitOp(self.build(plan.child, depth + 1), plan.limit)
        if plan.__class__.__name__ in ("ProjectSource", "SingleRow"):
            return SingleRowOp()
        raise ExecutionError("no operator for plan node %r" % (type(plan).__name__,))


def _plan_quantifiers(plan):
    """All quantifiers produced by a plan subtree (for NULL extension)."""
    quantifiers = []
    for node in plan.walk():
        quantifier = getattr(node, "quantifier", None)
        if quantifier is not None:
            quantifiers.append(quantifier)
    return quantifiers
