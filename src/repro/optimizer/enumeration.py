"""Branch-and-bound, depth-first join enumeration with the optimizer
governor (paper Section 4.1).

The search space is a tree: the root is the empty join strategy; each node
at level *k* is a ``(quantifier, access method, join method)`` 3-tuple
extending the level-*(k-1)* prefix of a left-deep processing tree.  The
enumerator:

* ranks candidate quantifiers heuristically and **defers Cartesian
  products** by preferring quantifiers connected to the placed prefix;
* **costs prefixes incrementally** and prunes as soon as a prefix's cost
  meets the best complete plan's cost (any extension only adds cost);
* respects **outer/semi-join ordering constraints** (preserved side before
  null-supplied side);
* is governed by a **quota of node visits**, split unevenly across
  children — half to the most promising child, half of the remainder to
  the next, and so on — with unused quota returned upward on prunes and a
  full redistribution whenever a new best plan improves the incumbent by
  at least 20%;
* keeps its state on the recursion stack (depth-first search "has the
  significant advantage of using very little memory"), and accounts that
  memory so the 100-way-join experiment can report it.
"""

import math

from repro.common.errors import OptimizerError
from repro.optimizer.costmodel import OPTIMIZER_NODE_US
from repro.sql.binder import Quantifier

#: Improvement ratio that triggers quota redistribution from the root.
REDISTRIBUTION_IMPROVEMENT = 0.20

#: Floor for the cost-proportional effort cap: a search never stops on
#: effort grounds before this many nodes, so small queries (whose spaces
#: complete naturally well under it) are unaffected.
MIN_EFFORT_NODES = 128

#: Rough per-stack-frame bytes for optimizer memory accounting.
_FRAME_BYTES = 320
_CANDIDATE_BYTES = 96


class EnumerationStats:
    """Observability for the search (drives experiments E5/E6)."""

    def __init__(self):
        self.nodes_visited = 0
        self.plans_completed = 0
        self.prunes = 0
        self.quota_denials = 0
        self.effort_stops = 0
        self.improvements = 0
        self.first_plan_cost = None
        self.best_cost_trace = []  # [(nodes_visited, best_cost)]
        self.peak_memory_bytes = 0
        self.max_depth = 0

    def note_memory(self, depth, candidate_count):
        self.max_depth = max(self.max_depth, depth)
        in_use = depth * _FRAME_BYTES + candidate_count * _CANDIDATE_BYTES
        self.peak_memory_bytes = max(self.peak_memory_bytes, in_use)


class OptimizerGovernor:
    """Distributes the visit quota across the search tree.

    ``mode='governor'`` is the paper's scheme (halving allocation plus
    redistribution on big improvements); ``mode='fifo'`` is the ablation
    baseline that hands the whole remaining quota to each child in order
    (plain early halting).
    """

    def __init__(self, quota, mode="governor", effort_factor=None):
        if mode not in ("governor", "fifo"):
            raise ValueError("mode must be 'governor' or 'fifo'")
        self.initial_quota = quota
        self.mode = mode
        #: Cost-proportional effort cap (Section 4.1: "query optimization
        #: must therefore be cheap"): once a complete strategy exists, stop
        #: searching when the simulated time already spent optimizing
        #: (``nodes_visited * OPTIMIZER_NODE_US``) exceeds ``effort_factor``
        #: times the incumbent plan's own estimated cost — past that point
        #: the search can no longer pay for itself.  ``None`` disables the
        #: cap (exhaustive/ablation rigs construct their own governors).
        self.effort_factor = effort_factor

    def child_quota(self, remaining, child_rank):
        if self.mode == "fifo":
            return remaining
        # Half to the first child, half of the remainder to the second...
        return max(1, remaining // 2)


class _Step:
    """One placed 3-tuple of the left-deep strategy."""

    __slots__ = (
        "quantifier", "access", "index_schema", "sarg", "join_method",
        "probe_info", "out_rows", "step_cost", "new_conjuncts",
    )

    def __init__(self, quantifier, access, index_schema, sarg, join_method,
                 probe_info, out_rows, step_cost, new_conjuncts):
        self.quantifier = quantifier
        self.access = access              # 'seq' | 'index' | 'derived' | ...
        self.index_schema = index_schema
        self.sarg = sarg
        self.join_method = join_method    # None | 'nlj' | 'inlj' | 'hash'
        self.probe_info = probe_info      # for inlj: (index, probe exprs)
        self.out_rows = out_rows
        self.step_cost = step_cost
        self.new_conjuncts = new_conjuncts


class JoinEnumerator:
    """Enumerates left-deep join strategies for one query block."""

    def __init__(self, block, cost_model, estimator, catalog,
                 governor=None, quantifier_info=None, use_indexes=True):
        self.block = block
        self.cost_model = cost_model
        self.estimator = estimator
        self.catalog = catalog
        #: When False, index-NL probe steps are never generated (the
        #: force-heap-scan plan-variation mode used by the NoREC oracle).
        self.use_indexes = use_indexes
        self.governor = governor if governor is not None else OptimizerGovernor(5000)
        self.stats = EnumerationStats()
        #: qid -> _QuantifierInfo (precomputed sizes and local conjuncts).
        self.info = quantifier_info if quantifier_info is not None else {}
        self._best_steps = None
        self._best_cost = math.inf
        self._redistribute_requested = False
        #: qid -> join conjuncts referencing it, precomputed once: the
        #: candidate scan walks this short list instead of re-filtering
        #: every block conjunct at every node of the search.
        self._join_conjuncts = {}
        for quantifier in self.block.quantifiers:
            self._join_conjuncts[quantifier.id] = [
                conjunct for conjunct in self.block.conjuncts
                if conjunct.is_join and quantifier.id in conjunct.refs
            ]

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def enumerate(self):
        """Returns (best step list, stats); raises if no plan was found."""
        quantifiers = list(self.block.quantifiers)
        if not quantifiers:
            return [], self.stats
        self._recurse(frozenset(), [], 1.0, 0.0, self.governor.initial_quota)
        if self._best_steps is None:
            raise OptimizerError(
                "no join strategy found for %d quantifiers (quota %d)"
                % (len(quantifiers), self.governor.initial_quota)
            )
        return self._best_steps, self.stats

    # ------------------------------------------------------------------ #
    # depth-first search
    # ------------------------------------------------------------------ #

    def _recurse(self, placed, steps, prefix_rows, prefix_cost, quota):
        """Explore extensions of ``steps``; returns unused quota."""
        self.stats.nodes_visited += 1
        quota -= 1
        if len(placed) == len(self.block.quantifiers):
            self._complete(steps, prefix_cost)
            return quota
        if self._effort_exhausted():
            self.stats.effort_stops += 1
            return quota
        candidates = self._candidates(placed, steps, prefix_rows, prefix_cost)
        self.stats.note_memory(len(steps) + 1, len(candidates))
        for rank, (step, total_cost) in enumerate(candidates):
            if total_cost >= self._best_cost:
                # Candidates are cost-ordered: every later one prunes too.
                self.stats.prunes += 1
                break
            if quota <= 0:
                self.stats.quota_denials += 1
                break
            # The halving schedule limits breadth, but a child always gets
            # at least enough quota to dive to one complete plan — without
            # this floor no strategy would ever complete on deep joins,
            # and the paper guarantees "the first join strategy generated"
            # exists.
            levels_remaining = len(self.block.quantifiers) - len(placed)
            child_quota = min(
                quota,
                max(self.governor.child_quota(quota, rank), levels_remaining),
            )
            unused = self._recurse(
                placed | {step.quantifier.id},
                steps + [step],
                step.out_rows,
                total_cost,
                child_quota,
            )
            quota -= child_quota - unused
            if self._redistribute_requested:
                # A >=20% improvement somewhere below: restart this node's
                # allocation pattern from its full remaining quota (the
                # redistribution propagates up to the root as the stack
                # unwinds).
                self._redistribute_requested = len(steps) > 0
        return max(0, quota)

    def _effort_exhausted(self):
        """True when the cost-proportional effort cap says to stop: a
        complete strategy exists and the simulated optimization time spent
        so far exceeds ``effort_factor`` times the incumbent's cost."""
        factor = self.governor.effort_factor
        if factor is None or self._best_steps is None:
            return False
        if self.stats.nodes_visited < MIN_EFFORT_NODES:
            return False
        budget_nodes = factor * self._best_cost / OPTIMIZER_NODE_US
        return self.stats.nodes_visited >= budget_nodes

    def _complete(self, steps, cost):
        self.stats.plans_completed += 1
        if self.stats.first_plan_cost is None:
            self.stats.first_plan_cost = cost
        if cost < self._best_cost:
            if self._best_cost < math.inf and cost <= self._best_cost * (
                1.0 - REDISTRIBUTION_IMPROVEMENT
            ):
                self.stats.improvements += 1
                self._redistribute_requested = True
            self._best_cost = cost
            self._best_steps = list(steps)
            self.stats.best_cost_trace.append(
                (self.stats.nodes_visited, cost)
            )

    # ------------------------------------------------------------------ #
    # candidate generation (the 3-tuples)
    # ------------------------------------------------------------------ #

    def _candidates(self, placed, steps, prefix_rows, prefix_cost):
        eligible = [
            quantifier
            for quantifier in self.block.quantifiers
            if quantifier.id not in placed
            and quantifier.required_predecessors <= placed
        ]
        if not eligible:
            return []
        if placed:
            connected = [
                quantifier for quantifier in eligible
                if self._connects(quantifier, placed)
            ]
            # Defer Cartesian products: only fall back to disconnected
            # quantifiers when nothing connects.
            if connected:
                eligible = connected
        candidates = []
        for quantifier in eligible:
            for step in self._steps_for(quantifier, placed, steps, prefix_rows):
                candidates.append((step, prefix_cost + step.step_cost))
        candidates.sort(key=lambda pair: pair[1])
        return candidates

    def _connects(self, quantifier, placed):
        for conjunct in self._joinable_conjuncts(quantifier, placed):
            return True
        return bool(quantifier.on_conjuncts) and any(
            ref in placed for c in quantifier.on_conjuncts for ref in c.refs
        )

    def _joinable_conjuncts(self, quantifier, placed):
        """WHERE conjuncts that become fully placed by adding
        ``quantifier``."""
        for conjunct in self._join_conjuncts[quantifier.id]:
            if conjunct.refs - {quantifier.id} <= placed:
                yield conjunct

    def _steps_for(self, quantifier, placed, steps, prefix_rows):
        info = self.info[quantifier.id]
        new_conjuncts = list(self._joinable_conjuncts(quantifier, placed))
        on_conjuncts = list(quantifier.on_conjuncts) if placed else []
        join_selectivity = self._join_selectivity(
            quantifier, placed, new_conjuncts + on_conjuncts
        )
        out_rows = self._out_rows(
            quantifier, placed, prefix_rows, info.filtered_rows,
            join_selectivity,
        )
        produced = []
        if not placed:
            # Level 1: pure access-method choice.
            produced.append(_Step(
                quantifier, info.access_kind, None, None, None, None,
                info.filtered_rows, info.seq_scan_cost, [],
            ))
            for index_schema, sarg, cost, rows in info.index_access_options:
                produced.append(_Step(
                    quantifier, "index", index_schema, sarg, None, None,
                    rows, cost, [],
                ))
            return produced
        n_predicates = len(new_conjuncts) + len(on_conjuncts)
        # A LEFT quantifier's match condition is its ON clause alone:
        # WHERE conjuncts filter after NULL-extension, so they may not
        # drive index probes or hash keys.
        if quantifier.join_type == Quantifier.LEFT:
            condition_conjuncts = on_conjuncts
        else:
            condition_conjuncts = new_conjuncts + on_conjuncts
        # Nested-loop join: rescan the inner per outer row (with the
        # optimistic half-pool buffering for the repeated scans).
        nlj_cost = self.cost_model.nested_loop_join(
            prefix_rows, info.repeat_scan_cost, n_predicates, out_rows
        )
        produced.append(_Step(
            quantifier, info.access_kind, None, None, "nlj", None,
            out_rows, nlj_cost, new_conjuncts,
        ))
        # Index nested loops via an equi conjunct on an indexed column.
        for index_schema, probe_exprs, cold, warm, warmup in (
            self._probe_options(quantifier, placed, condition_conjuncts)
        ):
            cost = self.cost_model.index_nl_join(
                prefix_rows, cold, warm, warmup, out_rows
            )
            produced.append(_Step(
                quantifier, "index", index_schema, None, "inlj",
                (index_schema, probe_exprs), out_rows, cost, new_conjuncts,
            ))
        # Hash join on any equi conjunct of the match condition.
        if any(c.equi is not None for c in condition_conjuncts):
            hash_cost = (
                info.seq_scan_cost  # build side must be produced once
                + self.cost_model.hash_join(
                    info.filtered_rows, prefix_rows, info.row_bytes,
                    self.cost_model.ctx.soft_limit_pages, out_rows,
                )
            )
            produced.append(_Step(
                quantifier, info.access_kind, None, None, "hash", None,
                out_rows, hash_cost, new_conjuncts,
            ))
        return produced

    def _probe_options(self, quantifier, placed, conjuncts):
        if not self.use_indexes:
            return
        if quantifier.kind != Quantifier.BASE:
            return
        info = self.info[quantifier.id]
        table = quantifier.schema
        for index_schema in self.catalog.indexes_on(table.name):
            if index_schema.btree is None:
                continue
            leading = index_schema.column_names[0]
            leading_index = table.column_index(leading)
            for conjunct in conjuncts:
                if conjunct.equi is None:
                    continue
                (qa, ca), (qb, cb) = conjunct.equi
                if qa == quantifier.id and ca == leading_index and qb in placed:
                    probe_expr = conjunct.expr.right if (
                        conjunct.expr.left.quantifier_id == quantifier.id
                    ) else conjunct.expr.left
                elif qb == quantifier.id and cb == leading_index and qa in placed:
                    probe_expr = conjunct.expr.left if (
                        conjunct.expr.left.quantifier_id != quantifier.id
                    ) else conjunct.expr.right
                else:
                    continue
                btree = index_schema.btree
                rows_per_probe = max(
                    1.0,
                    info.base_rows / max(1.0, float(btree.stats.distinct_keys or 1)),
                )
                clustering = info.clustering.get(index_schema.name, 0.5)
                resident = self.cost_model.ctx.resident_fraction(
                    quantifier.schema.storage
                )
                cold = self.cost_model.index_probe(
                    btree.height, btree.stats.leaf_page_count,
                    info.table_pages, rows_per_probe, clustering, resident,
                )
                warm = self.cost_model.index_probe(
                    btree.height, btree.stats.leaf_page_count,
                    info.table_pages, rows_per_probe, clustering, 1.0,
                )
                warmup = (1.0 - resident) * (
                    btree.stats.leaf_page_count + info.table_pages
                )
                # The warm state is only reachable if the pages fit in the
                # pool at all.
                if warmup > self.cost_model.ctx.pool_pages:
                    warm = cold
                yield index_schema, [probe_expr], cold, warm, warmup
                break  # one probe option per index

    # ------------------------------------------------------------------ #
    # cardinality arithmetic
    # ------------------------------------------------------------------ #

    def _join_selectivity(self, quantifier, placed, conjuncts):
        selectivity = 1.0
        for conjunct in conjuncts:
            if not conjunct.is_join:
                selectivity *= self.estimator.local_selectivity(
                    conjunct.expr, quantifier
                )
                continue
            other_id = next(
                (ref for ref in conjunct.refs if ref != quantifier.id), None
            )
            if other_id is None or other_id not in placed:
                continue
            other = self.block.quantifier(other_id)
            selectivity *= self.estimator.join_conjunct_selectivity(
                conjunct, other, quantifier
            )
        return selectivity

    def _out_rows(self, quantifier, placed, prefix_rows, filtered_rows,
                  join_selectivity):
        if not placed:
            return max(1.0, filtered_rows)
        inner = prefix_rows * filtered_rows * join_selectivity
        if quantifier.join_type == Quantifier.SEMI:
            return max(1.0, min(prefix_rows, inner))
        if quantifier.join_type == Quantifier.ANTI:
            return max(1.0, prefix_rows - min(prefix_rows, inner))
        if quantifier.join_type == Quantifier.LEFT:
            return max(prefix_rows, inner, 1.0)
        return max(1.0, inner)


class QuantifierInfo:
    """Precomputed per-quantifier facts the enumerator consumes."""

    def __init__(self):
        self.base_rows = 1.0
        self.filtered_rows = 1.0
        self.table_pages = 1
        self.row_bytes = 64
        self.access_kind = "seq"
        self.seq_scan_cost = 0.0
        #: Cost of re-scanning during NLJ (optimistic buffering applied).
        self.repeat_scan_cost = 0.0
        #: [(index_schema, sarg, cost, rows)] sargable options at level 1.
        self.index_access_options = []
        self.local_conjuncts = []
        #: Single-quantifier WHERE conjuncts on a null-supplied (LEFT)
        #: quantifier: they must filter *after* the outer join, never
        #: inside its scan, or NULL-extended rows survive wrongly.
        self.post_join_conjuncts = []
        self.clustering = {}  # index name -> clustering fraction
        #: Optimized sub-plan for derived/procedure quantifiers.
        self.sub_plan = None
