"""The top-level optimizer: blocks in, physical plans out.

SQL Anywhere "(re)optimizes a query at each invocation", with two
exceptions reproduced here: simple single-table DML bypasses the cost-based
optimizer entirely (heuristic path), and statements inside stored
procedures go through the plan cache (:mod:`repro.optimizer.plancache`).
"""

import math

from repro.optimizer.costmodel import CostModel, CPU_ROW_US
from repro.optimizer.enumeration import (
    JoinEnumerator,
    OptimizerGovernor,
    QuantifierInfo,
)
from repro.optimizer.plans import (
    DerivedScanPlan,
    FilterPlan,
    HashDistinctPlan,
    HashGroupByPlan,
    HashJoinPlan,
    HavingPlan,
    IndexNLJoinPlan,
    IndexScanPlan,
    LimitPlan,
    NLJoinPlan,
    ProcedureScanPlan,
    ProjectPlan,
    RecursiveRefScanPlan,
    SeqScanPlan,
    SortPlan,
    sarg_for,
)
from repro.profiling.metrics import NULL_METRICS
from repro.sql import ast
from repro.sql.binder import Quantifier

#: Default visit quota for the governor ("the initial quota can be
#: specified within the application, if desired").
DEFAULT_QUOTA = 5000
#: Default cost-proportional effort cap: the enumerator stops once its
#: simulated search time exceeds this multiple of the incumbent plan's
#: estimated cost (Section 4.1 — optimization effort should be
#: commensurate with the query's cost).
DEFAULT_EFFORT_FACTOR = 16.0


class OptimizerResult:
    """A plan plus how it was obtained."""

    def __init__(self, plan, block=None, stats=None, bypassed=False,
                 cost=0.0, recursive_cte=None):
        self.plan = plan
        self.block = block
        self.stats = stats
        self.bypassed = bypassed
        self.cost = cost
        self.recursive_cte = recursive_cte

    def explain(self):
        return self.plan.explain() if self.plan is not None else "<no plan>"


class Optimizer:
    """Cost-based optimizer over one catalog + statistics + cost context."""

    def __init__(self, catalog, estimator, cost_context, quota=DEFAULT_QUOTA,
                 governor_mode="governor", metrics=None, effort_factor=None,
                 use_indexes=True):
        self.catalog = catalog
        self.estimator = estimator
        self.cost_context = cost_context
        self.cost_model = CostModel(cost_context)
        self.quota = quota
        self.governor_mode = governor_mode
        self.effort_factor = effort_factor
        self.metrics = metrics or NULL_METRICS
        #: When False every SELECT access path falls back to heap scans:
        #: no sargable index options, no index-NL probes, no hash-join
        #: index alternates.  DML's heuristic bypass keeps its index picks
        #: (it must still locate rows to modify efficiently).
        self.use_indexes = use_indexes

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #

    def optimize_select(self, block, quota=None):
        """Full cost-based optimization of a query block."""
        recursive_cte = block.with_recursive
        plan, cost, stats = self._optimize_block(block, quota)
        self.metrics.counter("optimizer.optimizations").inc()
        if stats is not None:
            self.metrics.counter("optimizer.nodes_visited").inc(
                stats.nodes_visited
            )
        return OptimizerResult(
            plan, block, stats, cost=cost, recursive_cte=recursive_cte
        )

    def optimize_simple_dml(self, bound):
        """The heuristic bypass path (Section 4.1): single-table DML whose
        optimization cost would approach its execution cost skips the
        cost-based optimizer and picks an obvious index."""
        quantifier = bound.quantifier
        local = list(bound.conjuncts)
        access = self._heuristic_access(quantifier, local)
        access.est_rows = max(1.0, quantifier.schema.row_count * 0.1)
        self.metrics.counter("optimizer.bypassed").inc()
        return OptimizerResult(access, bypassed=True)

    def _heuristic_access(self, quantifier, conjuncts):
        table = quantifier.schema
        for index_schema in self.catalog.indexes_on(table.name):
            if index_schema.btree is None:
                continue
            leading = table.column_index(index_schema.column_names[0])
            for conjunct in conjuncts:
                sarg = sarg_for(conjunct.column, leading)
                if sarg is not None and "eq" in sarg:
                    residual = [c for c in conjuncts if c is not conjunct]
                    return IndexScanPlan(
                        quantifier, index_schema, sarg, residual
                    )
        return SeqScanPlan(quantifier, conjuncts)

    # ------------------------------------------------------------------ #
    # block optimization
    # ------------------------------------------------------------------ #

    def _optimize_block(self, block, quota=None):
        if not block.quantifiers:
            plan = self._finish_plan(ProjectSource(), block)
            return plan, plan.est_cost_us, None
        info = {
            quantifier.id: self._quantifier_info(quantifier, block)
            for quantifier in block.quantifiers
        }
        governor = OptimizerGovernor(
            quota if quota is not None else self.quota, self.governor_mode,
            effort_factor=self.effort_factor,
        )
        enumerator = JoinEnumerator(
            block, self.cost_model, self.estimator, self.catalog,
            governor, info, use_indexes=self.use_indexes,
        )
        steps, stats = enumerator.enumerate()
        join_plan = self._build_join_tree(steps, block, info)
        constant_conjuncts = [
            conjunct for conjunct in block.conjuncts if not conjunct.refs
        ]
        if constant_conjuncts:
            filtered = FilterPlan(join_plan, constant_conjuncts)
            filtered.est_rows = join_plan.est_rows
            filtered.est_cost_us = join_plan.est_cost_us
            join_plan = filtered
        plan = self._finish_plan(join_plan, block)
        return plan, plan.est_cost_us, stats

    # ------------------------------------------------------------------ #
    # per-quantifier info
    # ------------------------------------------------------------------ #

    def _quantifier_info(self, quantifier, block):
        info = QuantifierInfo()
        single_refs = [
            conjunct
            for conjunct in block.conjuncts
            if conjunct.refs == frozenset({quantifier.id})
        ]
        if quantifier.join_type == Quantifier.LEFT:
            # WHERE conjuncts on the null-supplied side filter after the
            # outer join (pushing them into the scan would NULL-extend
            # rows the WHERE clause is supposed to eliminate).
            info.post_join_conjuncts = single_refs
            info.local_conjuncts = []
        else:
            info.local_conjuncts = single_refs
        local_selectivity = 1.0
        for conjunct in info.local_conjuncts:
            local_selectivity *= self.estimator.local_selectivity(
                conjunct.expr, quantifier
            )
        if quantifier.kind == Quantifier.BASE:
            self._base_info(quantifier, info, local_selectivity)
        elif quantifier.kind == Quantifier.PROCEDURE:
            stats = None
            if quantifier.procedure.stats is not None:
                stats = quantifier.procedure.stats
            if stats is not None:
                cpu, cardinality = stats.estimate(None)
            else:
                cpu, cardinality = 1000.0, 100.0
            info.base_rows = max(1.0, cardinality)
            info.filtered_rows = max(1.0, cardinality * local_selectivity)
            info.seq_scan_cost = cpu + info.base_rows * CPU_ROW_US
            info.repeat_scan_cost = info.base_rows * CPU_ROW_US
            info.access_kind = "procedure"
            info.sub_plan = self._optimize_block(quantifier.block)[0]
        elif quantifier.kind == Quantifier.RECURSIVE_REF:
            info.base_rows = 64.0  # working-table guess
            info.filtered_rows = max(1.0, info.base_rows * local_selectivity)
            info.seq_scan_cost = info.base_rows * CPU_ROW_US
            info.repeat_scan_cost = info.seq_scan_cost
            info.access_kind = "recursive"
        else:  # DERIVED
            sub_plan, sub_cost, __ = self._optimize_block(quantifier.block)
            info.sub_plan = sub_plan
            info.base_rows = max(1.0, sub_plan.est_rows)
            info.filtered_rows = max(1.0, info.base_rows * local_selectivity)
            info.row_bytes = 16 + 8 * max(1, len(quantifier.columns))
            info.seq_scan_cost = sub_cost + info.base_rows * CPU_ROW_US
            info.repeat_scan_cost = info.base_rows * CPU_ROW_US
            info.access_kind = "derived"
        return info

    def _base_info(self, quantifier, info, local_selectivity):
        table = quantifier.schema
        storage = table.storage
        info.base_rows = max(1.0, float(table.row_count))
        info.filtered_rows = max(1.0, info.base_rows * local_selectivity)
        info.table_pages = max(1, storage.page_count if storage else 1)
        info.row_bytes = table.row_bytes()
        resident = self.cost_context.resident_fraction(storage)
        n_predicates = len(info.local_conjuncts)
        info.seq_scan_cost = self.cost_model.seq_scan(
            info.table_pages, info.base_rows, n_predicates, resident
        )
        info.repeat_scan_cost = self.cost_model.seq_scan(
            info.table_pages, info.base_rows, n_predicates,
            self.cost_context.optimistic_resident_fraction(info.table_pages),
        )
        for index_schema in self.catalog.indexes_on(table.name):
            if index_schema.btree is None:
                continue
            info.clustering[index_schema.name] = (
                index_schema.btree.cached_clustering()
            )
            if not self.use_indexes:
                continue
            option = self._sargable_option(
                quantifier, info, index_schema, resident
            )
            if option is not None:
                info.index_access_options.append(option)

    def _sargable_option(self, quantifier, info, index_schema, resident):
        table = quantifier.schema
        leading_index = table.column_index(index_schema.column_names[0])
        sarg = None
        sarg_conjunct = None
        for conjunct in info.local_conjuncts:
            sarg = sarg_for(conjunct.column, leading_index)
            if sarg is not None:
                sarg_conjunct = conjunct
                break
        if sarg is None:
            return None
        selectivity = self.estimator.local_selectivity(
            sarg_conjunct.expr, quantifier
        )
        matching = max(1.0, info.base_rows * selectivity)
        btree = index_schema.btree
        cost = self.cost_model.index_scan(
            btree.height,
            btree.stats.leaf_page_count,
            info.table_pages,
            matching,
            info.clustering.get(index_schema.name, 0.5),
            resident,
            n_residual_predicates=max(0, len(info.local_conjuncts) - 1),
        )
        residual_selectivity = 1.0
        for conjunct in info.local_conjuncts:
            if conjunct is not sarg_conjunct:
                residual_selectivity *= self.estimator.local_selectivity(
                    conjunct.expr, quantifier
                )
        rows = max(1.0, matching * residual_selectivity)
        return (index_schema, sarg, cost, rows)

    # ------------------------------------------------------------------ #
    # plan construction
    # ------------------------------------------------------------------ #

    def _build_join_tree(self, steps, block, info):
        first = steps[0]
        plan = self._access_plan(first, block, info, sarg=first.sarg,
                                 index_schema=first.index_schema)
        plan.est_rows = first.out_rows
        plan.est_cost_us = first.step_cost
        cumulative = first.step_cost
        for step in steps[1:]:
            quantifier = step.quantifier
            conjuncts = list(step.new_conjuncts)
            post_join_filter = []
            if quantifier.join_type == Quantifier.LEFT:
                # Only the ON condition decides matching (and hence
                # NULL-extension); WHERE conjuncts placed at this step
                # filter the joined rows afterwards.
                post_join_filter = conjuncts + list(
                    info[quantifier.id].post_join_conjuncts
                )
                conjuncts = list(quantifier.on_conjuncts)
            elif quantifier.join_type in (Quantifier.SEMI, Quantifier.ANTI):
                conjuncts = conjuncts + list(quantifier.on_conjuncts)
            join_type = quantifier.join_type
            cumulative += step.step_cost
            if step.join_method == "inlj":
                index_schema, probe_exprs = step.probe_info
                node = IndexNLJoinPlan(
                    plan, None, join_type, conjuncts, index_schema,
                    probe_exprs,
                )
                node.quantifier = quantifier
                node.local_conjuncts = info[quantifier.id].local_conjuncts
            elif step.join_method == "hash":
                right = self._access_plan(step, block, info)
                build_keys, probe_keys = _hash_keys(conjuncts, quantifier.id)
                node = HashJoinPlan(
                    plan, right, join_type, conjuncts, build_keys, probe_keys
                )
                node.memory_pages = self.cost_context.soft_limit_pages
                self._attach_alternate(node, steps, step, block, info)
            else:
                right = self._access_plan(step, block, info)
                node = NLJoinPlan(plan, right, join_type, conjuncts)
            node.est_rows = step.out_rows
            node.est_cost_us = cumulative
            if post_join_filter:
                filtered = FilterPlan(node, post_join_filter)
                filtered.est_rows = node.est_rows
                filtered.est_cost_us = node.est_cost_us
                node = filtered
            plan = node
        return plan

    def _access_plan(self, step, block, info, sarg=None, index_schema=None):
        quantifier = step.quantifier
        q_info = info[quantifier.id]
        local = list(q_info.local_conjuncts)
        if quantifier.kind == Quantifier.BASE:
            if sarg is not None and index_schema is not None:
                plan = IndexScanPlan(quantifier, index_schema, sarg, local)
            else:
                plan = SeqScanPlan(quantifier, local)
        elif quantifier.kind == Quantifier.PROCEDURE:
            plan = ProcedureScanPlan(quantifier, q_info.sub_plan)
        elif quantifier.kind == Quantifier.RECURSIVE_REF:
            plan = RecursiveRefScanPlan(quantifier)
            if local:
                plan.est_rows = q_info.filtered_rows
                plan.est_cost_us = q_info.seq_scan_cost
                plan = FilterPlan(plan, local)
        else:
            plan = DerivedScanPlan(quantifier, q_info.sub_plan, local)
        plan.est_rows = q_info.filtered_rows
        plan.est_cost_us = q_info.seq_scan_cost
        return plan

    def _attach_alternate(self, hash_node, steps, step, block, info):
        """Annotate a hash join with an index-NL alternate (Section 4.3).

        Applicable when the probe side is a single base quantifier with an
        index on the probe column: if the build input turns out tiny, the
        executor probes that index per build row instead of scanning the
        probe side."""
        if not self.use_indexes:
            return
        placed_steps = steps[: steps.index(step)]
        if len(placed_steps) != 1:
            return
        probe_q = placed_steps[0].quantifier
        if probe_q.kind != Quantifier.BASE:
            return
        equi_conjunct = next(
            (c for c in hash_node.conjuncts if c.equi), None
        )
        if equi_conjunct is None:
            return
        (qa, ca), (qb, cb) = equi_conjunct.equi
        probe_col = ca if qa == probe_q.id else cb if qb == probe_q.id else None
        if probe_col is None:
            return
        table = probe_q.schema
        column_name = table.columns[probe_col].name
        for index_schema in self.catalog.indexes_on(table.name):
            if index_schema.btree is None:
                continue
            if index_schema.column_names[0] != column_name:
                continue
            build_side_expr = (
                equi_conjunct.expr.left
                if getattr(equi_conjunct.expr.left, "quantifier_id", None)
                != probe_q.id
                else equi_conjunct.expr.right
            )
            # The alternate always probes with inner-join emission: for a
            # semi join the executor deduplicates the build keys instead,
            # so the probed (probe-side) rows flow out exactly once.
            alternate = IndexNLJoinPlan(
                None, None, Quantifier.INNER, hash_node.conjuncts,
                index_schema, [build_side_expr],
            )
            alternate.quantifier = probe_q
            alternate.local_conjuncts = info[probe_q.id].local_conjuncts
            hash_node.alternate = alternate
            # Crossover: probing per build row beats scanning the probe
            # side when rows * probe_cost < probe-scan cost.
            q_info = info[probe_q.id]
            btree = index_schema.btree
            probe_cost = self.cost_model.index_probe(
                btree.height, btree.stats.leaf_page_count,
                q_info.table_pages, 1.0,
                q_info.clustering.get(index_schema.name, 0.5),
                self.cost_context.resident_fraction(table.storage),
            )
            hash_node.alternate_threshold = max(
                1, int(q_info.seq_scan_cost / max(probe_cost, 1e-6))
            )
            return

    # ------------------------------------------------------------------ #
    # post-join shaping (aggregation, ordering, projection)
    # ------------------------------------------------------------------ #

    def _finish_plan(self, plan, block):
        rows = max(1.0, getattr(plan, "est_rows", 1.0))
        cost = getattr(plan, "est_cost_us", 0.0)
        if block.is_aggregate:
            groups = self._estimate_groups(block, rows)
            node = HashGroupByPlan(plan, block.group_keys, block.aggregates)
            node.memory_pages = self.cost_context.soft_limit_pages
            group_bytes = 16 + 8 * (len(block.group_keys) + len(block.aggregates))
            cost += self.cost_model.hash_group_by(
                rows, groups, group_bytes, node.memory_pages
            )
            node.est_rows = groups
            node.est_cost_us = cost
            plan, rows = node, groups
            if block.having_conjuncts:
                node = HavingPlan(plan, block.having_conjuncts)
                rows = max(1.0, rows * 0.5)
                node.est_rows = rows
                node.est_cost_us = cost
                plan = node
        if block.order_by:
            node = SortPlan(plan, block.order_by)
            node.memory_pages = self.cost_context.soft_limit_pages
            cost += self.cost_model.sort(rows, 64, node.memory_pages)
            node.est_rows = rows
            node.est_cost_us = cost
            plan = node
        node = ProjectPlan(plan, block.select_items)
        node.est_rows = rows
        node.est_cost_us = cost + rows * CPU_ROW_US
        plan = node
        cost = plan.est_cost_us
        if block.distinct:
            node = HashDistinctPlan(plan)
            node.memory_pages = self.cost_context.soft_limit_pages
            distinct_rows = max(1.0, rows * 0.8)
            cost += self.cost_model.hash_distinct(
                rows, distinct_rows, 32, node.memory_pages
            )
            node.est_rows = distinct_rows
            node.est_cost_us = cost
            plan, rows = node, distinct_rows
        if block.limit is not None:
            node = LimitPlan(plan, block.limit)
            node.est_rows = min(rows, float(block.limit))
            node.est_cost_us = cost
            plan = node
        return plan

    def _estimate_groups(self, block, input_rows):
        if not block.group_keys:
            return 1.0
        distinct = 1.0
        for expr, __, __t in block.group_keys:
            distinct *= self._distinct_estimate(expr, block, input_rows)
        return max(1.0, min(input_rows, distinct))

    def _distinct_estimate(self, expr, block, input_rows):
        if isinstance(expr, ast.ColumnRef) and expr.bound:
            try:
                quantifier = block.quantifier(expr.quantifier_id)
            except KeyError:
                quantifier = None
            if quantifier is not None and quantifier.kind == Quantifier.BASE:
                histogram = self.estimator.stats.histogram(
                    quantifier.schema.name, expr.column_index
                )
                if histogram is not None and histogram.total_count() > 0:
                    return max(
                        1.0,
                        histogram.distinct_nonsingleton
                        + histogram.singleton_count,
                    )
        return max(1.0, math.sqrt(input_rows))


class ProjectSource:
    """Placeholder child for FROM-less selects (``SELECT 1 + 1``)."""

    est_rows = 1.0
    est_cost_us = 0.0

    @property
    def children(self):
        return []

    def describe(self):
        return "SingleRow"

    def tree_lines(self, indent=0):
        return ["%sSingleRow" % ("  " * indent,)]

    def walk(self):
        yield self


def _hash_keys(conjuncts, build_qid):
    """(build_keys, probe_keys) from the equi conjuncts of a hash join."""
    build_keys, probe_keys = [], []
    for conjunct in conjuncts:
        if conjunct.equi is None:
            continue
        (qa, __), (qb, __b) = conjunct.equi
        left_expr, right_expr = conjunct.expr.left, conjunct.expr.right
        if left_expr.quantifier_id == build_qid:
            build_keys.append(left_expr)
            probe_keys.append(right_expr)
        else:
            build_keys.append(right_expr)
            probe_keys.append(left_expr)
    return build_keys, probe_keys
