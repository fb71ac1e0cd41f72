"""Expression evaluation with SQL three-valued logic, a batch at a time.

:func:`evaluate_batch` is the engine's one expression evaluator: it
returns one value per row of a :class:`~repro.exec.batch.Batch`, reading
columns through the batch's layout (quantifier ids, plus the
``GROUP_ENV`` key for post-aggregation rows).  ``None`` is SQL NULL;
comparisons involving NULL yield ``None`` (unknown), AND/OR follow Kleene
logic, and predicates treat unknown as not-satisfied.  One row is a
one-row batch.

A row-at-a-time evaluator would skip a short-circuit form's other side,
and that side may raise (``1 / 0``, arithmetic on a VARCHAR).  So the
short-circuit forms evaluate under a mask (:func:`_masked`): AND
evaluates its right side only over the rows whose left side is not
FALSE, OR only over the rows whose left side is not TRUE; CASE evaluates
each condition over the rows still undecided, each result over the rows
that chose it and the default over the rest; IN evaluates its items in
order over the rows with a non-NULL operand not matched yet.  Every
subexpression is therefore evaluated for exactly the rows a row-at-a-time
evaluator evaluates it for, and a batch raises iff some row raises; only
*which* row's error surfaces can differ, since a node evaluates all its
rows before its parent sees any.  The row-at-a-time evaluator is kept as
the reference in ``tests/exec/env_reference.py``
(``tests/exec/test_expr_batch_property.py`` holds the two equal).
"""

import operator
import re

from repro.common.errors import ExecutionError
from repro.sql import ast
from repro.sql.binder import GROUP_ENV, GroupRef


def _truthy(value):
    return value is not None and value is not False and value != 0


#: The Python types of the values arithmetic takes: INT, DOUBLE, BOOLEAN.
NUMBERS = frozenset((int, float, bool))

#: The operators the NULL-free batch kernels compute with one C-level
#: ``map`` (``/`` checks for zero and ``||`` converts, row by row).
_COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _operate(op, left, right):
    """``left op right`` for non-NULL operands of a binary operator that
    is neither a comparison nor AND / OR."""
    if op == "||":
        return str(left) + str(right)
    if op not in ("+", "-", "*", "/"):
        raise ExecutionError("unknown operator %r" % (op,))
    if type(left) not in NUMBERS or type(right) not in NUMBERS:
        raise ExecutionError(
            "cannot apply %s to %r and %r"
            % (op, type(left).__name__, type(right).__name__)
        )
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right
    return _ARITHMETIC[op](left, right)


def _negate(value):
    if type(value) not in NUMBERS:
        raise ExecutionError("cannot negate %r" % (type(value).__name__,))
    return -value


def sarg_value(expr, params):
    """The value of an index-scan bound: ``sarg_for`` admits only
    Literal and Parameter operands, which need no row."""
    if isinstance(expr, ast.Parameter):
        return _parameter_value(expr, params)
    return expr.value


def _parameter_value(expr, params):
    if params is None:
        raise ExecutionError("statement has parameters but none were supplied")
    if expr.name is not None:
        try:
            return params[expr.name]
        except (KeyError, TypeError):
            raise ExecutionError("no value for parameter %r" % (expr.name,)) from None
    try:
        return params[expr.ordinal]
    except (IndexError, KeyError, TypeError):
        raise ExecutionError(
            "no value for positional parameter %r" % (expr.ordinal,)
        ) from None


def _compare(op, left, right):
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    except TypeError:
        raise ExecutionError(
            "cannot compare %r with %r" % (type(left).__name__, type(right).__name__)
        ) from None


def like_match(text, pattern):
    """SQL LIKE matching (% = any run, _ = any single character)."""
    return _like_regex(pattern).match(text) is not None


_LIKE_CACHE = {}


def _like_regex(pattern):
    regex = _LIKE_CACHE.get(pattern)
    if regex is None:
        parts = []
        for char in pattern:
            if char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
        regex = re.compile("^" + "".join(parts) + "$", re.DOTALL)
        if len(_LIKE_CACHE) < 512:
            _LIKE_CACHE[pattern] = regex
    return regex


def evaluate_batch(expr, batch, params=None):
    """Evaluate a bound expression over a whole batch; returns a list of
    per-row values (read-only — may alias the batch's own columns)."""
    if isinstance(expr, ast.Literal):
        return [expr.value] * batch.count
    if isinstance(expr, ast.ColumnRef):
        if not expr.bound:
            raise ExecutionError(
                "unbound column %r at runtime" % (expr.column_name,)
            )
        column = batch.column(expr.quantifier_id, expr.column_index)
        if column is None:
            raise ExecutionError(
                "no row for quantifier %d in environment" % (expr.quantifier_id,)
            )
        return column
    if isinstance(expr, GroupRef):
        column = batch.column(GROUP_ENV, expr.index)
        if column is None:
            raise ExecutionError("GroupRef outside aggregation context")
        return column
    if isinstance(expr, ast.Parameter):
        return [_parameter_value(expr, params)] * batch.count
    if isinstance(expr, ast.BinaryOp):
        return _binary_batch(expr, batch, params)
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return [
                None if value is None else (not _truthy(value))
                for value in evaluate_batch(expr.operand, batch, params)
            ]
        return [
            None if value is None else _negate(value)
            for value in evaluate_batch(expr.operand, batch, params)
        ]
    if isinstance(expr, ast.IsNull):
        values = evaluate_batch(expr.operand, batch, params)
        if expr.negated:
            return [value is not None for value in values]
        return [value is None for value in values]
    if isinstance(expr, ast.Like):
        return _like_batch(expr, batch, params)
    if isinstance(expr, ast.Between):
        return _between_batch(expr, batch, params)
    if isinstance(expr, ast.InList):
        return _in_list_batch(expr, batch, params)
    if isinstance(expr, ast.FunctionCall):
        return _scalar_function_batch(expr, batch, params)
    if isinstance(expr, ast.CaseExpr):
        return _case_batch(expr, batch, params)
    raise ExecutionError("cannot evaluate %r" % (type(expr).__name__,))


def evaluate_predicate_batch(expr, batch, params=None):
    """Filter mask over a batch: unknown (NULL) counts as false.  Every
    entry is a bool (``_truthy`` inlined)."""
    return [
        value is not None and value is not False and value != 0
        for value in evaluate_batch(expr, batch, params)
    ]


def _masked(expr, batch, params, mask):
    """``expr`` evaluated over the rows where ``mask`` is true, as one
    value per row of ``batch``; a value on another row is unspecified
    (callers ignore it).  A leaf is read for the whole batch when any row
    needs it: a literal, column or parameter raises for every row or for
    none."""
    if not any(mask):
        return [None] * batch.count
    if all(mask) or isinstance(
        expr, (ast.Literal, ast.ColumnRef, GroupRef, ast.Parameter)
    ):
        return evaluate_batch(expr, batch, params)
    values = iter(evaluate_batch(expr, batch.take(mask), params))
    return [next(values) if keep else None for keep in mask]


def _binary_batch(expr, batch, params):
    op = expr.op
    if op in ("AND", "OR"):
        lefts = evaluate_batch(expr.left, batch, params)
        if op == "AND":
            # The right side is needed where the left is not FALSE; on
            # the other rows the left alone answers FALSE.
            rights = _masked(
                expr.right, batch, params,
                [left is None or _truthy(left) for left in lefts],
            )
            return [
                False
                if (left is not None and not _truthy(left))
                or (right is not None and not _truthy(right))
                else (None if left is None or right is None else True)
                for left, right in zip(lefts, rights)
            ]
        rights = _masked(
            expr.right, batch, params, [not _truthy(left) for left in lefts]
        )
        return [
            True
            if (left is not None and _truthy(left))
            or (right is not None and _truthy(right))
            else (None if left is None or right is None else False)
            for left, right in zip(lefts, rights)
        ]
    lefts = evaluate_batch(expr.left, batch, params)
    rights = evaluate_batch(expr.right, batch, params)
    # The kernels compute a whole batch with one C-level map; anything
    # they cannot answer exactly goes to the row loop, which raises the
    # typed error.  A comparison needs operands with no NULL and falls
    # back on a TypeError (``1 < 'a'``).  Arithmetic falls back on a
    # TypeError (a NULL, ``1 + 'a'``) or a result that is not a number:
    # over SQL values, only numbers make numbers (``'a' * 2`` is a str,
    # ``date - date`` a timedelta).
    kernel = _COMPARISONS.get(op)
    if kernel is not None:
        if not (
            _has_null(expr.left, lefts) or _has_null(expr.right, rights)
        ):
            try:
                return list(map(kernel, lefts, rights))
            except TypeError:
                pass
        return [
            None if left is None or right is None else _compare(op, left, right)
            for left, right in zip(lefts, rights)
        ]
    kernel = _ARITHMETIC.get(op)
    if kernel is not None:
        try:
            out = list(map(kernel, lefts, rights))
        except TypeError:
            pass
        else:
            if NUMBERS.issuperset(map(type, out)):
                return out
    return [
        None if left is None or right is None else _operate(op, left, right)
        for left, right in zip(lefts, rights)
    ]


def _has_null(expr, values):
    """Whether ``values``, ``expr``'s batch column, holds a NULL."""
    if isinstance(expr, ast.Literal):
        return expr.value is None
    if isinstance(expr, ast.Parameter):
        # One value, repeated (a lifted literal is a parameter too).
        return bool(values) and values[0] is None
    return None in values


def _like_batch(expr, batch, params):
    values = evaluate_batch(expr.operand, batch, params)
    patterns = evaluate_batch(expr.pattern, batch, params)
    negated = expr.negated
    out = []
    for value, pattern in zip(values, patterns):
        if value is None or pattern is None:
            out.append(None)
            continue
        matched = like_match(str(value), str(pattern))
        out.append((not matched) if negated else matched)
    return out


def _between_batch(expr, batch, params):
    values = evaluate_batch(expr.operand, batch, params)
    lows = evaluate_batch(expr.low, batch, params)
    highs = evaluate_batch(expr.high, batch, params)
    negated = expr.negated
    out = []
    for value, low, high in zip(values, lows, highs):
        if value is None or low is None or high is None:
            out.append(None)
            continue
        result = _compare("<=", low, value) and _compare("<=", value, high)
        out.append((not result) if negated else result)
    return out


def _in_list_batch(expr, batch, params):
    values = evaluate_batch(expr.operand, batch, params)
    # The rows still comparing: a non-NULL operand no item matched yet.
    pending = [value is not None for value in values]
    saw_null = [False] * batch.count
    for item in expr.items:
        if not any(pending):
            break
        items = _masked(item, batch, params, pending)
        for index, item_value in enumerate(items):
            if not pending[index]:
                continue
            if item_value is None:
                saw_null[index] = True
            elif item_value == values[index]:
                pending[index] = False
    matched, unmatched = (False, True) if expr.negated else (True, False)
    return [
        None if value is None
        else matched if not still
        else None if null
        else unmatched
        for value, still, null in zip(values, pending, saw_null)
    ]


def _case_batch(expr, batch, params):
    out = [None] * batch.count
    undecided = [True] * batch.count
    for condition, result in expr.branches:
        if not any(undecided):
            return out
        conditions = _masked(condition, batch, params, undecided)
        chosen = [
            still and _truthy(value)
            for still, value in zip(undecided, conditions)
        ]
        if any(chosen):
            results = _masked(result, batch, params, chosen)
            out = [new if pick else old
                   for pick, new, old in zip(chosen, results, out)]
            undecided = [
                still and not pick for still, pick in zip(undecided, chosen)
            ]
    if expr.default is not None and any(undecided):
        defaults = _masked(expr.default, batch, params, undecided)
        out = [new if still else old
               for still, new, old in zip(undecided, defaults, out)]
    return out


def _scalar_function_batch(expr, batch, params):
    if expr.is_aggregate:
        raise ExecutionError(
            "aggregate %s evaluated outside aggregation" % (expr.name,)
        )
    columns = [evaluate_batch(arg, batch, params) for arg in expr.args]
    name = expr.name
    if name == "ABS":
        for value in columns[0]:
            if value is not None and type(value) not in NUMBERS:
                raise ExecutionError(
                    "cannot ABS %r values" % (type(value).__name__,)
                )
        return [None if v is None else abs(v) for v in columns[0]]
    if name == "LENGTH":
        return [None if v is None else len(str(v)) for v in columns[0]]
    if name == "LOWER":
        return [None if v is None else str(v).lower() for v in columns[0]]
    if name == "UPPER":
        return [None if v is None else str(v).upper() for v in columns[0]]
    if name == "COALESCE":
        out = []
        for index in range(batch.count):
            chosen = None
            for column in columns:
                if column[index] is not None:
                    chosen = column[index]
                    break
            out.append(chosen)
        return out
    raise ExecutionError("unknown function %r" % (name,))
