"""Selectivity estimation over the self-managing statistics.

Estimates consult, in order of preference: singleton/frequent-value
statistics and histograms, the long-string predicate buckets, index
statistics, referential-integrity constraints (for joins), and finally the
traditional magic numbers when nothing has been observed yet.
"""

from repro.sql import ast
from repro.sql.binder import Quantifier
from repro.sql.predicates import (
    BETWEEN,
    CMP,
    IN,
    LIKE,
    NO_VALUE,
    NULL,
    column_predicate,
    predicate_kind,
    range_bounds,
    static_value,
)
from repro.stats.joinhist import join_selectivity as histogram_join_selectivity

#: Magic numbers used when no statistics exist (classic System R values).
DEFAULT_EQ = 0.10
DEFAULT_RANGE = 0.25
DEFAULT_LIKE = 0.05
DEFAULT_JOIN = 0.10
DEFAULT_GENERIC = 0.20


class SelectivityEstimator:
    """Estimates predicate and join selectivities for one catalog."""

    def __init__(self, stats_manager, catalog):
        self.stats = stats_manager
        self.catalog = catalog

    # ------------------------------------------------------------------ #
    # local (single-quantifier) predicates
    # ------------------------------------------------------------------ #

    def local_selectivity(self, expr, quantifier):
        """Selectivity of ``expr`` applied to ``quantifier``'s rows."""
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "AND":
                return (
                    self.local_selectivity(expr.left, quantifier)
                    * self.local_selectivity(expr.right, quantifier)
                )
            if expr.op == "OR":
                left = self.local_selectivity(expr.left, quantifier)
                right = self.local_selectivity(expr.right, quantifier)
                return min(1.0, left + right - left * right)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return max(0.0, 1.0 - self.local_selectivity(expr.operand, quantifier))
        predicate = column_predicate(expr, quantifier.id)
        if predicate is None:
            return _unrecognised_default(expr)
        # Operand policy: literals and ``-literal`` fold to values; a
        # parameter (or any other expression) is an unknown constant.
        values = [static_value(operand) for operand in predicate.operands]
        column = predicate.column
        kind = predicate.kind
        if kind == CMP and predicate.op == "=":
            return self._equality(quantifier, column, values[0])
        if kind == CMP and predicate.op == "<>":
            return max(0.0, 1.0 - self._eq_estimate(quantifier, column, values[0]))
        histogram = self._histogram(quantifier, column.column_index)
        if histogram is not None and histogram.total_count() <= 0:
            histogram = None  # nothing observed yet
        if kind == NULL:
            if histogram is not None:
                fraction = histogram.estimate_null()
            else:
                # NOT NULL columns never match IS NULL.
                fraction = DEFAULT_EQ if self._nullable(quantifier, column) else 0.0
            return (1.0 - fraction) if predicate.negated else fraction
        if kind == IN:
            fraction = min(1.0, sum(
                (self._eq_estimate(quantifier, column, value) for value in values),
                0.0,
            ))
        elif kind == LIKE:
            if not isinstance(values[0], str):
                return DEFAULT_LIKE
            fraction = self._like(quantifier, column, histogram, values[0])
        elif histogram is None or any(value is NO_VALUE for value in values):
            fraction = DEFAULT_RANGE
        else:
            fraction = histogram.estimate_range(*range_bounds(predicate, values))
        return max(0.0, 1.0 - fraction) if predicate.negated else fraction

    def _equality(self, quantifier, column, value):
        """``column = value``: string statistics, then the histogram,
        then the distinct-key count of an index led by the column."""
        if value is not NO_VALUE:
            string_estimate = self._string_predicate(
                quantifier, column.column_index, "=", value
            )
            if string_estimate is not None:
                return string_estimate
            histogram = self._histogram(quantifier, column.column_index)
            if histogram is None or histogram.total_count() <= 0:
                index_estimate = self._index_eq(quantifier, column.column_index)
                if index_estimate is not None:
                    return index_estimate
        return self._eq_estimate(quantifier, column, value)

    def _eq_estimate(self, quantifier, column, value):
        histogram = self._histogram(quantifier, column.column_index)
        if value is NO_VALUE:
            return histogram.density() if histogram is not None else DEFAULT_EQ
        if histogram is not None and histogram.total_count() > 0:
            return histogram.estimate_eq(value)
        return DEFAULT_EQ

    def _like(self, quantifier, column, histogram, pattern):
        fraction = None
        string_stats = self._string_stats(quantifier, column.column_index)
        if string_stats is not None:
            fraction = string_stats.estimate_like(pattern)
        if fraction is None or fraction == _string_default():
            prefix = _like_prefix(pattern)
            if prefix and histogram is not None:
                fraction = histogram.estimate_like_prefix(prefix)
        return DEFAULT_LIKE if fraction is None else fraction

    # ------------------------------------------------------------------ #
    # join predicates
    # ------------------------------------------------------------------ #

    def join_conjunct_selectivity(self, conjunct, left_q, right_q):
        """Selectivity of a join conjunct between two quantifiers."""
        if conjunct.equi is not None:
            (qa, ca), (qb, cb) = conjunct.equi
            if qa == right_q.id:
                (qa, ca), (qb, cb) = (qb, cb), (qa, ca)
            if qa == left_q.id and qb == right_q.id:
                return self._equi_selectivity(left_q, ca, right_q, cb)
        return DEFAULT_JOIN

    def _equi_selectivity(self, left_q, left_col, right_q, right_col):
        # Referential integrity: FK = PK joins hit exactly one parent row.
        ri = self._ri_selectivity(left_q, left_col, right_q, right_col)
        if ri is not None:
            return ri
        left_hist = self._histogram(left_q, left_col)
        right_hist = self._histogram(right_q, right_col)
        if (
            left_hist is not None and right_hist is not None
            and left_hist.total_count() > 0 and right_hist.total_count() > 0
        ):
            # The on-the-fly join histogram (Section 3.2).
            return histogram_join_selectivity(left_hist, right_hist)
        # Index statistics: 1 / distinct keys of either side.
        for quantifier, column in ((left_q, left_col), (right_q, right_col)):
            distinct = self._index_distinct(quantifier, column)
            if distinct:
                return 1.0 / distinct
        return DEFAULT_JOIN

    def _ri_selectivity(self, left_q, left_col, right_q, right_col):
        for fk_q, fk_col, pk_q, pk_col in (
            (left_q, left_col, right_q, right_col),
            (right_q, right_col, left_q, left_col),
        ):
            if fk_q.kind != Quantifier.BASE or pk_q.kind != Quantifier.BASE:
                continue
            fk_table = fk_q.schema
            pk_table = pk_q.schema
            fk_name = fk_table.columns[fk_col].name
            pk_name = pk_table.columns[pk_col].name
            for fk in fk_table.foreign_keys:
                if (
                    fk.ref_table == pk_table.name
                    and fk_name in fk.columns
                    and pk_name in fk.ref_columns
                ):
                    rows = max(1.0, float(pk_table.row_count))
                    return 1.0 / rows
        return None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _histogram(self, quantifier, column_index):
        if quantifier.kind != Quantifier.BASE:
            return None
        return self.stats.histogram(quantifier.schema.name, column_index)

    def _string_stats(self, quantifier, column_index):
        if quantifier.kind != Quantifier.BASE:
            return None
        return self.stats.string_stats(quantifier.schema.name, column_index)

    def _string_predicate(self, quantifier, column_index, kind, value):
        string_stats = self._string_stats(quantifier, column_index)
        if string_stats is None or not isinstance(value, str):
            return None
        return string_stats.estimate_predicate(kind, value)

    def _index_eq(self, quantifier, column_index):
        distinct = self._index_distinct(quantifier, column_index)
        if distinct:
            return 1.0 / distinct
        return None

    def _index_distinct(self, quantifier, column_index):
        """Distinct-key count from any index led by this column."""
        if quantifier.kind != Quantifier.BASE:
            return None
        table = quantifier.schema
        column_name = table.columns[column_index].name
        for index in self.catalog.indexes_on(table.name):
            if index.column_names and index.column_names[0] == column_name:
                if index.btree is not None and index.btree.stats.distinct_keys:
                    return float(index.btree.stats.distinct_keys)
        return None

    @staticmethod
    def _nullable(quantifier, column_ref):
        if quantifier.kind != Quantifier.BASE:
            return True
        return quantifier.schema.columns[column_ref.column_index].nullable


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #

#: What a shape is worth when its operand is not a column of the
#: quantifier (an expression, a function call, another column).
_UNRECOGNISED = {BETWEEN: DEFAULT_RANGE, NULL: DEFAULT_EQ, LIKE: DEFAULT_LIKE}


def _unrecognised_default(expr):
    kind = predicate_kind(expr)
    if kind == CMP:
        return DEFAULT_EQ if expr.op == "=" else DEFAULT_RANGE
    if kind == IN:
        return min(1.0, DEFAULT_EQ * max(1, len(expr.items)))
    return _UNRECOGNISED.get(kind, DEFAULT_GENERIC)


def _like_prefix(pattern):
    """The literal prefix of a LIKE pattern ('abc%def' -> 'abc')."""
    prefix = []
    for char in pattern:
        if char in ("%", "_"):
            break
        prefix.append(char)
    return "".join(prefix)


def _string_default():
    from repro.stats.stringstats import DEFAULT_SELECTIVITY
    return DEFAULT_SELECTIVITY
