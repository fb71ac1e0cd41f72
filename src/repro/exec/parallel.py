"""Intra-query parallelism (paper Section 4.4) as a charging policy.

Under ``max_query_tasks = N > 1`` the executor runs an eligible join
core — the topmost left-deep chain of inner hash joins over base-table
scans (:func:`parallelizable_join_core`) — as the ordinary serial
operators: the same :class:`~repro.exec.operators.HashJoinOp`, with its
``WorkMemory``, soft-limit spills, NULL-key rule and index-NL alternate,
under the statement's task and instrumentation.  What changes is who
pays for the core's CPU:

* the core runs under a clone of the statement's context whose
  ``charge(us, count)`` dispatches ``count x round(us * 10**6)``
  picoseconds as one morsel to the earliest-available simulated worker
  (Manegold et al.'s first-come, first-serve work sharing, which balances
  the load "independent of the number of joins in the plan");
* I/O is not CPU: the core's scans read the one disk sequentially, and
  their page reads and the spill files' reads and writes stay on the
  statement's clock as they happen;
* when the core is exhausted or its cursor closes, the statement's clock
  is charged the critical path — the busiest worker's setup and
  morsels — once, through ``ctx.charge``.

The engine never pulls workers mid-query.  :meth:`WorkerPool.reduce_to`
is the schedule the paper's graceful adaptation describes ("if the
number of threads is dynamically reduced to one, then the total cost of
the query is only slightly worse than if it was never set up to use
parallelism"); E9b replays the morsels the engine dispatches on it.
"""

import copy

from repro.exec.operators import Operator
from repro.optimizer import plans as p
from repro.sql.binder import Quantifier

#: Per-worker setup cost: what a parallel core costs beyond its morsels.
WORKER_SETUP_US = 50.0

#: One picosecond in µs: ``ctx.charge(PICOSECOND_US, n)`` charges exactly
#: ``n`` picoseconds.
PICOSECOND_US = 1e-6


class WorkerPool:
    """Deterministic FCFS worker simulation; each worker's busy time is
    an exact integer count of picoseconds."""

    def __init__(self, n_workers):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self._ps = [0] * n_workers
        #: Every worker sets itself up on its own timeline: the critical
        #: path carries one setup, the total work all of them.
        self.setup_us = n_workers * WORKER_SETUP_US
        self.reductions = 0

    @property
    def n_workers(self):
        return len(self._ps)

    def dispatch(self, cost_ps):
        """Run one morsel of ``cost_ps`` picoseconds on the
        earliest-available worker (FCFS)."""
        index = min(range(len(self._ps)), key=self._ps.__getitem__)
        self._ps[index] += cost_ps

    def charge(self, us, count=1):
        """``ExecutionContext.charge`` for a worker context: ``count`` x
        ``us`` of CPU time as one morsel."""
        self.dispatch(count * round(us * 1_000_000))

    def reduce_to(self, n_workers):
        """Drop to ``n_workers``; survivors inherit the stragglers' frontier.

        Remaining work after a reduction is simply dispatched over fewer
        workers; the time already spent is preserved by folding the
        removed workers' busy time into the survivors' start offset.
        """
        if n_workers < 1:
            raise ValueError("cannot reduce below one worker")
        if n_workers >= len(self._ps):
            return
        self.reductions += 1
        frontier = max(self._ps)
        self._ps = [max(ps, frontier) for ps in self._ps[:n_workers]]

    def worker_ps(self):
        """Each worker's busy time, in picoseconds."""
        return list(self._ps)

    def wall_clock_ps(self):
        """The critical path, in picoseconds: the busiest worker's
        setup and morsels."""
        return max(self._ps) + round(WORKER_SETUP_US * 1_000_000)

    def wall_clock_us(self):
        return self.wall_clock_ps() / 1_000_000

    def total_work_us(self):
        return sum(self._ps) / 1_000_000 + self.setup_us

    def imbalance(self):
        """max/mean busy time: 1.0 is perfect balance."""
        mean = sum(self._ps) / len(self._ps)
        if mean == 0:
            return 1.0
        return max(self._ps) / mean


def parallelizable_join_core(plan):
    """The top join of ``plan``'s parallel core, or None.

    Walks down through the serial wrapper nodes (project, group by,
    having, sort, distinct, limit, filter); accepts a left-deep chain of
    INNER hash joins whose right children and leftmost leaf are base-table
    scans.
    """
    node = plan
    while isinstance(node, (
        p.ProjectPlan, p.HashGroupByPlan, p.HavingPlan, p.SortPlan,
        p.HashDistinctPlan, p.LimitPlan, p.FilterPlan,
    )):
        node = node.children[0]
    top = node
    scans = (p.SeqScanPlan, p.IndexScanPlan)
    if not isinstance(node, p.HashJoinPlan):
        return None
    while isinstance(node, p.HashJoinPlan):
        if node.join_type != Quantifier.INNER:
            return None
        if not isinstance(node.right, scans):
            return None
        if node.conjuncts and any(c.equi is None for c in node.conjuncts):
            return None
        node = node.left
    return top if isinstance(node, scans) else None


class ParallelCoreOp(Operator):
    """The top join of a parallel core, run with its inputs' CPU on
    ``n_workers`` simulated workers (a hash join hands its context to
    its inputs, so every join and scan below charges the workers)."""

    def __init__(self, inner, n_workers):
        self.inner = inner
        self.n_workers = n_workers

    # The wrapped join's counters, so EXPLAIN ANALYZE and ``exec.*`` see
    # its spills and its switch to the alternate.
    def spill_event_count(self):
        return self.inner.spill_event_count()

    def adaptive_event_count(self):
        return self.inner.adaptive_event_count()

    def execute_batches(self, ctx):
        workers = WorkerPool(self.n_workers)
        on_workers = copy.copy(ctx)
        # The clone shares the statement's task, notes and carry; only
        # its CPU charges go to the workers.
        on_workers.charge = workers.charge
        try:
            yield from self.inner.execute_batches(on_workers)
        finally:
            critical_ps = workers.wall_clock_ps()
            ctx.charge(PICOSECOND_US, critical_ps)
            ctx.notes["parallel_workers"] = self.n_workers
            ctx.notes["parallel_wall_us"] = critical_ps // 1_000_000
            ctx.notes["parallel_pool"] = workers
