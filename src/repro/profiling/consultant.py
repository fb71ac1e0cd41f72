"""The Index Consultant (paper Section 5).

"The Index Consultant uses a novel technique to provide useful
recommendations without requiring excessive resources, whereby the query
optimizer is able to generate specifications for indexes it would like to
have.  These 'virtual index' specifications can be very general ...  The
virtual index specification becomes tighter as optimization proceeds ...
When the Index Consultant is finished, a physical composition and ordering
is imposed on the index."

Virtual indexes are catalog index entries backed by a statistics-only
B+-tree stand-in: the optimizer costs them like real indexes, but they
hold no data and are stripped before any execution.
"""

import math

from repro.catalog import IndexSchema
from repro.optimizer.plans import sarg_for
from repro.sql import Binder, ast, parse_statement
from repro.sql.binder import Quantifier


class _VirtualStats:
    """BTreeStats look-alike derived from table statistics."""

    def __init__(self, entry_count, distinct_keys, leaf_page_count):
        self.entry_count = entry_count
        self.distinct_keys = distinct_keys
        self.leaf_page_count = leaf_page_count

    def density(self):
        if self.entry_count == 0 or self.distinct_keys == 0:
            return 0.0
        return 1.0 / self.distinct_keys


class _VirtualFile:
    size_bytes = 0
    page_count = 0


class VirtualBTree:
    """A costing-only index: statistics without storage."""

    def __init__(self, table_rows, distinct_keys, fanout=64, clustering=0.5):
        entry_count = max(1, int(table_rows))
        leaf_pages = max(1, entry_count // fanout)
        self.stats = _VirtualStats(
            entry_count, max(1, int(distinct_keys)), leaf_pages
        )
        self.height = max(1, int(math.log(max(2, leaf_pages), fanout)) + 1)
        self.file = _VirtualFile()
        self._clustering = clustering

    def cached_clustering(self, staleness=0.2):
        return self._clustering


class IndexSpec:
    """A (possibly still general) virtual index specification."""

    def __init__(self, table_name, column_names, source):
        self.table_name = table_name
        self.column_names = tuple(column_names)
        self.source = source  # 'sarg' | 'join' | 'composite'

    @property
    def name(self):
        return "virt_%s_%s" % (self.table_name, "_".join(self.column_names))

    def __eq__(self, other):
        return (
            isinstance(other, IndexSpec)
            and self.table_name == other.table_name
            and self.column_names == other.column_names
        )

    def __hash__(self):
        return hash((self.table_name, self.column_names))

    def __repr__(self):
        return "IndexSpec(%s(%s) from %s)" % (
            self.table_name, ", ".join(self.column_names), self.source
        )


class IndexRecommendation:
    """A create or drop recommendation with its estimated benefit."""

    def __init__(self, action, table_name, column_names, benefit_us,
                 index_name=None):
        self.action = action  # 'create' | 'drop'
        self.table_name = table_name
        self.column_names = tuple(column_names)
        self.benefit_us = benefit_us
        self.index_name = index_name

    def __repr__(self):
        return "IndexRecommendation(%s %s(%s), benefit=%.0fus)" % (
            self.action, self.table_name, ", ".join(self.column_names),
            self.benefit_us,
        )


class IndexConsultant:
    """Costs a workload against virtual indexes and recommends changes."""

    def __init__(self, server, min_benefit_fraction=0.05):
        self.server = server
        self.min_benefit_fraction = min_benefit_fraction

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def analyze(self, workload_sql):
        """Analyze a list of SELECT statements; returns recommendations."""
        blocks = [self._bind(sql) for sql in workload_sql]
        baseline_cost, baseline_used = self._workload_cost(blocks)
        specs = set()
        for block in blocks:
            specs |= self._generate_specs(block)
        specs = {
            spec for spec in specs if not self._already_indexed(spec)
        }
        recommendations = []
        for spec in sorted(specs, key=lambda s: s.name):
            benefit = self._evaluate_spec(spec, workload_sql, baseline_cost)
            if benefit > baseline_cost * self.min_benefit_fraction:
                recommendations.append(IndexRecommendation(
                    "create", spec.table_name, spec.column_names, benefit,
                    index_name=spec.name,
                ))
        recommendations.extend(self._drop_candidates(baseline_used))
        recommendations.sort(key=lambda r: -r.benefit_us)
        return recommendations

    # ------------------------------------------------------------------ #
    # spec generation (the optimizer's "indexes it would like to have")
    # ------------------------------------------------------------------ #

    def _generate_specs(self, block):
        specs = set()
        for quantifier in block.quantifiers:
            if quantifier.kind != Quantifier.BASE:
                if quantifier.block is not None:
                    specs |= self._generate_specs(quantifier.block)
                continue
            table = quantifier.schema
            eq_columns, range_columns = [], []
            for conjunct in block.conjuncts:
                if conjunct.refs != frozenset({quantifier.id}):
                    continue
                column = _sargable_column(conjunct.column)
                if column is None:
                    continue
                column_name = table.columns[column[0]].name
                if column[1] == "eq":
                    eq_columns.append(column_name)
                else:
                    range_columns.append(column_name)
            join_columns = []
            for conjunct in block.conjuncts:
                if conjunct.equi is None or quantifier.id not in conjunct.refs:
                    continue
                (qa, ca), (qb, cb) = conjunct.equi
                column_index = ca if qa == quantifier.id else cb
                join_columns.append(table.columns[column_index].name)
            for column_name in join_columns:
                specs.add(IndexSpec(table.name, [column_name], "join"))
            for column_name in eq_columns + range_columns:
                specs.add(IndexSpec(table.name, [column_name], "sarg"))
            if eq_columns and range_columns:
                # The tightened composite: equality columns first, then the
                # range column ("a physical composition and ordering is
                # imposed").
                specs.add(IndexSpec(
                    table.name,
                    list(dict.fromkeys(eq_columns)) + [range_columns[0]],
                    "composite",
                ))
        return specs

    def _already_indexed(self, spec):
        for index in self.server.catalog.indexes_on(spec.table_name):
            existing = index.column_names[: len(spec.column_names)]
            if tuple(existing) == spec.column_names:
                return True
        return False

    # ------------------------------------------------------------------ #
    # evaluation with virtual indexes
    # ------------------------------------------------------------------ #

    def _evaluate_spec(self, spec, workload_sql, baseline_cost):
        virtual = self._make_virtual_index(spec)
        self.server.catalog.add_index(virtual)
        try:
            blocks = [self._bind(sql) for sql in workload_sql]
            cost, used = self._workload_cost(blocks)
        finally:
            self.server.catalog.drop_index(virtual.name)
        if virtual.name not in used:
            return 0.0
        return baseline_cost - cost

    def _make_virtual_index(self, spec):
        catalog = self.server.catalog
        table = catalog.table(spec.table_name)
        leading_index = table.column_index(spec.column_names[0])
        distinct = self._distinct_estimate(table, leading_index)
        clustering = self._estimate_clustering(table, leading_index)
        index = IndexSchema(spec.name, spec.table_name, spec.column_names)
        index.btree = VirtualBTree(table.row_count, distinct,
                                   clustering=clustering)
        index.virtual = True
        return index

    def _estimate_clustering(self, table, column_index, sample_limit=2000):
        """Tighten the virtual spec with the clustering the index *would*
        have: sample (value, page) pairs, order by value, and measure the
        adjacent-page fraction — the same statistic a real B+-tree
        maintains."""
        sample = []
        for row_id, row in table.storage.scan():
            value = row[column_index]
            if value is not None:
                sample.append((value, row_id.page_ordinal))
            if len(sample) >= sample_limit:
                break
        if len(sample) < 2:
            return 0.5
        sample.sort(key=lambda pair: pair[0])
        adjacent = sum(
            1
            for (__, page_a), (__v, page_b) in zip(sample, sample[1:])
            if abs(page_a - page_b) <= 1
        )
        return adjacent / (len(sample) - 1)

    def _distinct_estimate(self, table, column_index):
        histogram = self.server.stats.histogram(table.name, column_index)
        if histogram is not None and histogram.total_count() > 0:
            return max(
                1.0,
                histogram.distinct_nonsingleton + histogram.singleton_count,
            )
        return max(1.0, table.row_count / 10.0)

    def _workload_cost(self, blocks):
        optimizer = self.server.make_optimizer()
        total = 0.0
        used_indexes = set()
        for block in blocks:
            result = optimizer.optimize_select(block)
            total += result.cost
            for node in result.plan.walk():
                index_schema = getattr(node, "index_schema", None)
                if index_schema is not None:
                    used_indexes.add(index_schema.name)
        return total, used_indexes

    def _drop_candidates(self, used_indexes):
        """Existing secondary indexes the workload never touches."""
        recommendations = []
        for index in self.server.catalog.indexes():
            if index.virtual or index.unique:
                continue
            if index.name.startswith("pk_"):
                continue
            if index.name not in used_indexes:
                recommendations.append(IndexRecommendation(
                    "drop", index.table_name, index.column_names, 0.0,
                    index_name=index.name,
                ))
        return recommendations

    def _bind(self, sql):
        statement = parse_statement(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise ValueError("the Index Consultant analyzes SELECT workloads")
        return Binder(self.server.catalog).bind(statement)


def _sargable_column(predicate):
    """``(column_index, 'eq'|'range')`` when an index led by the
    predicate's column could serve it.  Operand policy: whatever the
    optimizer's own sarg builder accepts — the consultant asks for the
    indexes that optimizer would use, no others."""
    sarg = sarg_for(predicate)
    if sarg is None:
        return None
    return predicate.column.column_index, "eq" if "eq" in sarg else "range"
