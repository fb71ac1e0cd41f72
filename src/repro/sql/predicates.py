"""Predicate shapes: the one reading of "a predicate on a column".

The selectivity estimator, the index-sarg builder, the scan's statistics
feedback and the Index Consultant all ask the same question of a bound
expression — is it ``column <shape> operands`` on one quantifier? —
and must agree on the answer, or the optimizer estimates one predicate,
probes an index with another and teaches the histogram a third.
:func:`column_predicate` answers it once; each reader keeps only its
*operand policy* (which operand expressions it can use), stated where it
is applied.  The join shape ``colA = colB`` is the binder's
``Conjunct.equi``.
"""

from repro.sql import ast

# Predicate kinds.
CMP = "cmp"
BETWEEN = "between"
NULL = "null"
LIKE = "like"
IN = "in"

#: ``value <op> column`` reads ``column <FLIP[op]> value``.
FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

_COMPARISONS = ("=", "<>") + tuple(FLIP)
_KIND_OF = {
    ast.Between: BETWEEN, ast.IsNull: NULL, ast.Like: LIKE, ast.InList: IN,
}


class ColumnPredicate:
    """``column <shape> operands``, the column always on the left."""

    __slots__ = ("kind", "column", "op", "operands", "negated")

    def __init__(self, kind, column, operands, op=None, negated=False):
        self.kind = kind
        self.column = column      # the bound ColumnRef
        self.op = op              # CMP only: '=', '<>', '<', '<=', '>', '>='
        #: CMP: (value,); BETWEEN: (low, high); LIKE: (pattern,);
        #: IN: the items; NULL: ().  Expressions, not values.
        self.operands = operands
        self.negated = negated    # NOT BETWEEN / IS NOT NULL / NOT LIKE / NOT IN

    def __repr__(self):
        return "ColumnPredicate(%s%s %s %r %r)" % (
            "not " if self.negated else "", self.kind, self.op,
            self.column, self.operands,
        )


def predicate_kind(expr):
    """The shape of ``expr`` whatever its operand is, or None."""
    if isinstance(expr, ast.BinaryOp):
        return CMP if expr.op in _COMPARISONS else None
    return _KIND_OF.get(type(expr))


def column_predicate(expr, qid):
    """``expr`` read as a predicate on one column of quantifier ``qid``.

    A comparison qualifies with the column on either side (normalised to
    the left through :data:`FLIP`) and anything but another column on the
    other; the remaining shapes qualify when their operand is the column.
    """
    kind = predicate_kind(expr)
    if kind is None:
        return None
    if kind == CMP:
        left, right = expr.left, expr.right
        if _is_column_of(left, qid) and not isinstance(right, ast.ColumnRef):
            return ColumnPredicate(CMP, left, (right,), op=expr.op)
        if _is_column_of(right, qid) and not isinstance(left, ast.ColumnRef):
            return ColumnPredicate(
                CMP, right, (left,), op=FLIP.get(expr.op, expr.op)
            )
        return None
    if not _is_column_of(expr.operand, qid):
        return None
    if kind == BETWEEN:
        operands = (expr.low, expr.high)
    elif kind == LIKE:
        operands = (expr.pattern,)
    elif kind == IN:
        operands = tuple(expr.items)
    else:
        operands = ()
    return ColumnPredicate(kind, expr.operand, operands, negated=expr.negated)


def _is_column_of(expr, qid):
    return isinstance(expr, ast.ColumnRef) and expr.quantifier_id == qid


#: ``op -> (value is the low bound, bound is inclusive)``.
_ONE_SIDED = {
    "<": (False, False), "<=": (False, True),
    ">": (True, False), ">=": (True, True),
}


def range_bounds(predicate, operands=None):
    """``(low, high, low_inclusive, high_inclusive)`` when the predicate
    bounds its column (a one-sided comparison or a BETWEEN, negated or
    not), else None.  An open end is None and counts as inclusive.

    The bounds are taken from ``operands`` — by default the predicate's
    operand expressions; a reader passes what its policy made of them.
    """
    if operands is None:
        operands = predicate.operands
    if predicate.kind == BETWEEN:
        return operands[0], operands[1], True, True
    if predicate.kind == CMP and predicate.op in _ONE_SIDED:
        is_low, inclusive = _ONE_SIDED[predicate.op]
        if is_low:
            return operands[0], None, inclusive, True
        return None, operands[0], True, inclusive
    return None


class _NoValue:
    def __repr__(self):
        return "<no static value>"


#: What :func:`static_value` returns for a non-constant expression
#: (``None`` is taken: it is the value of a NULL literal).
NO_VALUE = _NoValue()


def static_value(expr, params=None, slots=None):
    """The value ``expr`` has without a row: a literal, a negated literal,
    a lifted slot when its statement's ``slots`` (the literal values) are
    given and — only when ``params`` is given — any parameter; else
    NO_VALUE."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Slot) and slots is not None:
        return slots[expr.ordinal]
    if isinstance(expr, ast.Parameter) and params is not None:
        try:
            if expr.name is not None:
                return params[expr.name]
            return params[expr.ordinal]
        except (KeyError, IndexError, TypeError):
            return NO_VALUE
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        # Only a number negates: the executor raises for anything else.
        inner = static_value(expr.operand, params, slots)
        if type(inner) in (int, float, bool):
            return -inner
    return NO_VALUE
