"""Physical plan nodes.

Plans are small descriptive trees the executor interprets.  Every node
carries the optimizer's estimates (``est_rows``, ``est_cost_us``) so
adaptive operators can compare predictions with reality at run time —
the hash join's alternate index-nested-loops strategy (Section 4.3) is an
annotation placed here by the optimizer.
"""

from repro.sql import ast
from repro.sql.predicates import CMP, range_bounds


class PlanNode:
    """Base class for plan nodes."""

    def __init__(self):
        self.est_rows = 0.0
        self.est_cost_us = 0.0
        #: Memory annotation from the optimizer (pages this operator may
        #: use), derived from the memory governor's predicted soft limit.
        self.memory_pages = None

    @property
    def children(self):
        return []

    def tree_lines(self, indent=0):
        """Human-readable plan rendering."""
        label = "%s%s  (rows=%.0f, cost=%.0fus)" % (
            "  " * indent, self.describe(), self.est_rows, self.est_cost_us
        )
        lines = [label]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1))
        return lines

    def describe(self):
        return type(self).__name__

    def explain(self):
        return "\n".join(self.tree_lines())

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class SeqScanPlan(PlanNode):
    """Sequential scan of a base table, with pushed-down local filters."""

    def __init__(self, quantifier, local_conjuncts):
        super().__init__()
        self.quantifier = quantifier
        self.local_conjuncts = local_conjuncts

    def describe(self):
        return "SeqScan(%s%s)" % (
            self.quantifier.alias,
            ", %d filters" % len(self.local_conjuncts) if self.local_conjuncts else "",
        )


class IndexScanPlan(PlanNode):
    """B+-tree scan with sargable bounds from local predicates."""

    def __init__(self, quantifier, index_schema, sarg, local_conjuncts):
        super().__init__()
        self.quantifier = quantifier
        self.index_schema = index_schema
        #: Sarg: dict with optional 'eq' (list of bound exprs for leading
        #: columns), 'low'/'high' (bound expr, inclusive flags).
        self.sarg = sarg
        self.local_conjuncts = local_conjuncts  # residual filters

    def describe(self):
        return "IndexScan(%s via %s)" % (
            self.quantifier.alias, self.index_schema.name
        )


def sarg_for(predicate, column_index=None):
    """The :attr:`IndexScanPlan.sarg` a recognised column predicate gives
    an index led by its column (``column_index``, when given, must be that
    column), or None: ``{"eq": [operand]}`` for an equality, the present
    ends of ``low`` / ``high`` with their ``*_inclusive`` flags for a range.
    """
    if predicate is None or predicate.negated:
        return None
    if column_index not in (None, predicate.column.column_index):
        return None
    # Operand policy: Literal / Parameter nodes only — the scan evaluates
    # its bounds once, without a row (so ``k > -5`` is not sargable).
    if not all(
        isinstance(operand, (ast.Literal, ast.Parameter))
        for operand in predicate.operands
    ):
        return None
    if predicate.kind == CMP and predicate.op == "=":
        return {"eq": list(predicate.operands)}
    bounds = range_bounds(predicate)
    if bounds is None:
        return None
    low, high, low_inclusive, high_inclusive = bounds
    sarg = {}
    if low is not None:
        sarg.update(low=low, low_inclusive=low_inclusive)
    if high is not None:
        sarg.update(high=high, high_inclusive=high_inclusive)
    return sarg


class DerivedScanPlan(PlanNode):
    """Materialized scan of a derived table / view (its own sub-plan)."""

    def __init__(self, quantifier, sub_plan, local_conjuncts):
        super().__init__()
        self.quantifier = quantifier
        self.sub_plan = sub_plan
        self.local_conjuncts = local_conjuncts

    @property
    def children(self):
        return [self.sub_plan]

    def describe(self):
        return "DerivedScan(%s)" % (self.quantifier.alias,)


class ProcedureScanPlan(PlanNode):
    """A stored procedure evaluated in FROM (its body plan is nested)."""

    def __init__(self, quantifier, body_plan):
        super().__init__()
        self.quantifier = quantifier
        self.body_plan = body_plan

    @property
    def children(self):
        return [self.body_plan]

    def describe(self):
        return "ProcedureScan(%s)" % (self.quantifier.alias,)


class RecursiveRefScanPlan(PlanNode):
    """Scan of the recursive CTE's working table."""

    def __init__(self, quantifier):
        super().__init__()
        self.quantifier = quantifier

    def describe(self):
        return "RecursiveRefScan(%s)" % (self.quantifier.alias,)


class FilterPlan(PlanNode):
    def __init__(self, child, conjuncts):
        super().__init__()
        self.child = child
        self.conjuncts = conjuncts

    @property
    def children(self):
        return [self.child]

    def describe(self):
        return "Filter(%d conjuncts)" % (len(self.conjuncts),)


class _JoinPlan(PlanNode):
    """Common bits of the three join nodes.

    ``join_type`` is 'inner' | 'left' | 'semi' | 'anti'.
    """

    def __init__(self, left, right, join_type, conjuncts):
        super().__init__()
        self.left = left
        self.right = right
        self.join_type = join_type
        self.conjuncts = conjuncts

    @property
    def children(self):
        # Index-NL joins probe a base table directly: no right child plan.
        return [child for child in (self.left, self.right) if child is not None]


class NLJoinPlan(_JoinPlan):
    def describe(self):
        return "NestedLoopJoin(%s)" % (self.join_type,)


class IndexNLJoinPlan(_JoinPlan):
    """Index nested loops: probe the right side's index per outer row."""

    def __init__(self, left, right, join_type, conjuncts, index_schema,
                 probe_keys):
        super().__init__(left, right, join_type, conjuncts)
        self.index_schema = index_schema
        #: Bound expressions (over the outer row) producing probe values
        #: for the index's leading columns.
        self.probe_keys = probe_keys

    def describe(self):
        return "IndexNLJoin(%s via %s)" % (self.join_type, self.index_schema.name)


class HashJoinPlan(_JoinPlan):
    """Hash join; build side is the RIGHT child (the new quantifier).

    ``alternate`` may hold an :class:`IndexNLJoinPlan` the executor can
    switch to when the build input turns out small enough that index
    nested loops would have been cheaper (Section 4.3).
    """

    def __init__(self, left, right, join_type, conjuncts, build_keys,
                 probe_keys):
        super().__init__(left, right, join_type, conjuncts)
        self.build_keys = build_keys  # exprs over right (build) rows
        self.probe_keys = probe_keys  # exprs over left (probe) rows
        self.alternate = None
        #: Build-row threshold below which the alternate wins (set by the
        #: optimizer from its cost crossover).
        self.alternate_threshold = None

    def describe(self):
        suffix = ", alt=indexNL" if self.alternate is not None else ""
        return "HashJoin(%s%s)" % (self.join_type, suffix)


class HashGroupByPlan(PlanNode):
    def __init__(self, child, group_keys, aggregates):
        super().__init__()
        self.child = child
        self.group_keys = group_keys    # [(expr, name, type)]
        self.aggregates = aggregates    # [FunctionCall]

    @property
    def children(self):
        return [self.child]

    def describe(self):
        return "HashGroupBy(%d keys, %d aggs)" % (
            len(self.group_keys), len(self.aggregates)
        )


class HashDistinctPlan(PlanNode):
    def __init__(self, child):
        super().__init__()
        self.child = child

    @property
    def children(self):
        return [self.child]


class SortPlan(PlanNode):
    def __init__(self, child, sort_keys):
        super().__init__()
        self.child = child
        self.sort_keys = sort_keys  # [(expr, ascending)]

    @property
    def children(self):
        return [self.child]

    def describe(self):
        return "Sort(%d keys)" % (len(self.sort_keys),)


class ProjectPlan(PlanNode):
    def __init__(self, child, items):
        super().__init__()
        self.child = child
        self.items = items  # [(expr, name, type)]

    @property
    def children(self):
        return [self.child]

    def describe(self):
        return "Project(%s)" % (", ".join(name for __, name, __t in self.items),)


class HavingPlan(PlanNode):
    def __init__(self, child, conjunct_exprs):
        super().__init__()
        self.child = child
        self.conjunct_exprs = conjunct_exprs

    @property
    def children(self):
        return [self.child]


class LimitPlan(PlanNode):
    def __init__(self, child, limit):
        super().__init__()
        self.child = child
        self.limit = limit

    @property
    def children(self):
        return [self.child]

    def describe(self):
        return "Limit(%d)" % (self.limit,)


class RecursiveUnionPlan(PlanNode):
    """Adaptive RECURSIVE UNION (Section 4.3): base plan plus a recursive
    arm re-planned/re-run per iteration against the working table."""

    def __init__(self, cte, base_plan):
        super().__init__()
        self.cte = cte
        self.base_plan = base_plan
        self.body_plan = None  # attached to the consuming block's plan

    @property
    def children(self):
        return [self.base_plan]

    def describe(self):
        return "RecursiveUnion(%s)" % (self.cte.name,)
