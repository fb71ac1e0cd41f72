"""Per-operator execution statistics (the EXPLAIN ANALYZE substrate).

The executor wraps every operator it builds in an :class:`InstrumentedOp`
that records, per plan node:

* **rows out** — tuples the operator actually produced;
* **pages touched** — buffer-pool accesses (hits + misses) attributed
  while the operator (and its inputs) were producing;
* **elapsed simulated µs** — clock time spent inside the operator's
  generator, *inclusive* of its children (consumer time between pulls is
  excluded, because the clock is re-read around every ``next()``);
* **spill events** and **adaptive fallbacks** — read from the operator's
  observability protocol (:meth:`Operator.spill_event_count` /
  :meth:`Operator.adaptive_event_count`) after execution.

Rows *in* are derived at render time as the sum of the children's rows
out, so the collector stores nothing redundant.

Stats are keyed by plan node, so ``Result.explain(analyze=True)`` can
interleave the optimizer's estimates with what actually happened — the
estimate-versus-actual comparison every adaptive component in the paper
feeds on.
"""

from repro.exec.operators import Operator


class OperatorStats:
    """What one operator actually did during execution."""

    __slots__ = (
        "label", "executions", "rows_out", "batches", "elapsed_us",
        "pages_touched", "spill_events", "adaptive_events",
    )

    def __init__(self, label):
        self.label = label
        self.executions = 0
        self.rows_out = 0
        #: Batches produced.
        self.batches = 0
        self.elapsed_us = 0
        self.pages_touched = 0
        self.spill_events = 0
        self.adaptive_events = 0


class InstrumentedOp(Operator):
    """Transparent wrapper recording an operator's runtime behaviour.

    The wrapper has no part in the memory-consumer protocol: the wrapped
    operator registers *itself* with the task, so the governor's reclaim
    calls go to it directly.
    """

    def __init__(self, inner, stats):
        self.inner = inner
        self.stats = stats

    def spill_event_count(self):
        return self.inner.spill_event_count()

    def adaptive_event_count(self):
        return self.inner.adaptive_event_count()

    def execute_batches(self, ctx):
        stats = self.stats
        stats.executions += 1
        clock = ctx.clock
        pool = ctx.pool
        iterator = self.inner.execute_batches(ctx)
        try:
            while True:
                before_us = clock.now
                before_pages = pool.hits + pool.misses
                try:
                    batch = next(iterator)
                except StopIteration:
                    stats.elapsed_us += clock.now - before_us
                    stats.pages_touched += (
                        pool.hits + pool.misses - before_pages
                    )
                    break
                stats.elapsed_us += clock.now - before_us
                stats.pages_touched += pool.hits + pool.misses - before_pages
                stats.rows_out += batch.count
                stats.batches += 1
                yield batch
        finally:
            iterator.close()
            self._harvest(ctx)

    def _harvest(self, ctx):
        """Fold the operator's cumulative spill/adaptive counters in.

        The inner counters are cumulative across executions, so the stats
        are *assigned* (not added) and the registry receives only the
        delta since the last harvest.
        """
        stats = self.stats
        spills = self.inner.spill_event_count()
        adaptive = self.inner.adaptive_event_count()
        new_spills = spills - stats.spill_events
        new_adaptive = adaptive - stats.adaptive_events
        stats.spill_events = spills
        stats.adaptive_events = adaptive
        if new_spills > 0:
            ctx.metrics.counter("exec.spill_events").inc(new_spills)
        if new_adaptive > 0:
            ctx.metrics.counter("exec.adaptive_fallbacks").inc(new_adaptive)


class ExecStatsCollector:
    """Stats for every operator of one statement, keyed by plan node."""

    def __init__(self):
        self._by_node = {}  # id(plan_node) -> OperatorStats

    def stats_for(self, plan_node):
        key = id(plan_node)
        stats = self._by_node.get(key)
        if stats is None:
            stats = self._by_node[key] = OperatorStats(plan_node.describe())
        return stats

    def lookup(self, plan_node):
        """The recorded stats for ``plan_node``, or None if never built."""
        return self._by_node.get(id(plan_node))

    def rows_into(self, plan_node):
        """Rows the node consumed: the sum of its children's rows out."""
        total = 0
        for child in plan_node.children:
            stats = self.lookup(child)
            if stats is not None:
                total += stats.rows_out
        return total

    # -- rendering ------------------------------------------------------- #

    def render(self, plan):
        """EXPLAIN ANALYZE text: the plan tree annotated with actuals."""
        lines = []
        self._render_node(plan, 0, lines)
        return "\n".join(lines)

    def _render_node(self, node, indent, lines):
        base = "%s%s  (rows=%.0f, cost=%.0fus)" % (
            "  " * indent, node.describe(), node.est_rows, node.est_cost_us
        )
        stats = self.lookup(node)
        if stats is None or stats.executions == 0:
            lines.append(base + "  [never executed]")
        else:
            actual = (
                "  [actual rows=%d rows_in=%d pages=%d elapsed=%dus"
                " spills=%d adaptive=%d"
            ) % (
                stats.rows_out, self.rows_into(node), stats.pages_touched,
                stats.elapsed_us, stats.spill_events, stats.adaptive_events,
            )
            if stats.batches:
                actual += " batches=%d rows_per_batch=%.1f" % (
                    stats.batches, stats.rows_out / stats.batches,
                )
            lines.append(base + actual + "]")
        for child in node.children:
            self._render_node(child, indent + 1, lines)
