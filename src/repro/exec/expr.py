"""Expression evaluation with SQL three-valued logic.

Environments are dicts mapping quantifier id -> row tuple (plus the
``GROUP_ENV`` key for post-aggregation rows).  ``None`` is SQL NULL;
comparisons involving NULL yield ``None`` (unknown), AND/OR follow Kleene
logic, and predicates treat unknown as not-satisfied.
"""

import re

from repro.common.errors import ExecutionError
from repro.sql import ast
from repro.sql.binder import GROUP_ENV, GroupRef


def evaluate(expr, env, params=None):
    """Evaluate a bound expression against ``env``; returns a value or
    None for SQL NULL/unknown."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        if not expr.bound:
            raise ExecutionError("unbound column %r at runtime" % (expr.column_name,))
        row = env.get(expr.quantifier_id)
        if row is None:
            raise ExecutionError(
                "no row for quantifier %d in environment" % (expr.quantifier_id,)
            )
        return row[expr.column_index]
    if isinstance(expr, GroupRef):
        row = env.get(GROUP_ENV)
        if row is None:
            raise ExecutionError("GroupRef outside aggregation context")
        return row[expr.index]
    if isinstance(expr, ast.Parameter):
        return _parameter_value(expr, params)
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, env, params)
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            value = evaluate(expr.operand, env, params)
            return None if value is None else (not _truthy(value))
        value = evaluate(expr.operand, env, params)
        return None if value is None else -value
    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.operand, env, params)
        result = value is None
        return (not result) if expr.negated else result
    if isinstance(expr, ast.Like):
        return _like(expr, env, params)
    if isinstance(expr, ast.Between):
        return _between(expr, env, params)
    if isinstance(expr, ast.InList):
        return _in_list(expr, env, params)
    if isinstance(expr, ast.FunctionCall):
        return _scalar_function(expr, env, params)
    if isinstance(expr, ast.CaseExpr):
        for condition, result in expr.branches:
            if _truthy(evaluate(condition, env, params)):
                return evaluate(result, env, params)
        if expr.default is not None:
            return evaluate(expr.default, env, params)
        return None
    raise ExecutionError("cannot evaluate %r" % (type(expr).__name__,))


def evaluate_predicate(expr, env, params=None):
    """Evaluate as a filter: unknown (NULL) counts as false."""
    return _truthy(evaluate(expr, env, params))


def _truthy(value):
    return value is not None and value is not False and value != 0


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


def _binary(expr, env, params):
    op = expr.op
    if op == "AND":
        left = evaluate(expr.left, env, params)
        if left is False or (left is not None and not _truthy(left)):
            return False
        right = evaluate(expr.right, env, params)
        if right is False or (right is not None and not _truthy(right)):
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        left = evaluate(expr.left, env, params)
        if left is not None and _truthy(left):
            return True
        right = evaluate(expr.right, env, params)
        if right is not None and _truthy(right):
            return True
        if left is None or right is None:
            return None
        return False
    left = evaluate(expr.left, env, params)
    right = evaluate(expr.right, env, params)
    if op in ("=", "<>", "<", "<=", ">", ">="):
        if left is None or right is None:
            return None
        return _compare(op, left, right)
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right
    if op == "||":
        return str(left) + str(right)
    raise ExecutionError("unknown operator %r" % (op,))


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


def _like(expr, env, params):
    value = evaluate(expr.operand, env, params)
    pattern = evaluate(expr.pattern, env, params)
    if value is None or pattern is None:
        return None
    matched = like_match(str(value), str(pattern))
    return (not matched) if expr.negated else matched


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


def _between(expr, env, params):
    value = evaluate(expr.operand, env, params)
    low = evaluate(expr.low, env, params)
    high = evaluate(expr.high, env, params)
    if value is None or low is None or high is None:
        return None
    result = low <= value <= high
    return (not result) if expr.negated else result


def _in_list(expr, env, params):
    value = evaluate(expr.operand, env, params)
    if value is None:
        return None
    saw_null = False
    for item in expr.items:
        item_value = evaluate(item, env, params)
        if item_value is None:
            saw_null = True
        elif item_value == value:
            return False if expr.negated else True
    if saw_null:
        return None
    return True if expr.negated else False


# --------------------------------------------------------------------- #
# vectorized (batch) evaluation
#
# ``evaluate`` above is the reference semantics.  ``evaluate_batch``
# returns one value per batch row, identical in value and type to calling
# ``evaluate`` on each row's environment, and raises iff ``evaluate``
# raises on some row (tests/exec/test_expr_batch_property.py holds it to
# that).  The one sanctioned divergence is *which* row's error surfaces:
# a vectorized node evaluates its whole batch, so when several rows are
# poisoned the error raised may belong to a later one.  Short-circuit
# forms (AND/OR/IN/CASE) only vectorize when the skippable side is
# *total* (cannot raise); otherwise they fall back to the scalar
# evaluator row by row, preserving short-circuit semantics exactly.
# --------------------------------------------------------------------- #

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
            None if value is None else -value
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
    # CaseExpr (branch short-circuit) and anything unhandled: scalar
    # evaluation row by row — correct for every node type, just slower.
    return _rowwise_batch(expr, batch, params)


def evaluate_predicate_batch(expr, batch, params=None):
    """Filter mask over a batch: unknown (NULL) counts as false."""
    return [_truthy(value) for value in evaluate_batch(expr, batch, params)]


def _rowwise_batch(expr, batch, params):
    if batch.layout is None:
        raise ExecutionError(
            "cannot evaluate %r over tuple rows" % (type(expr).__name__,)
        )
    return [
        evaluate(expr, batch.env_at(index), params)
        for index in range(batch.count)
    ]


def _is_total(expr):
    """True when evaluating ``expr`` can neither raise nor observe
    evaluation order — the sides a vectorized AND/OR may pre-evaluate
    without breaking short-circuit parity with the row engine."""
    if isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.ColumnRef):
        return expr.bound
    if isinstance(expr, GroupRef):
        return True
    if isinstance(expr, ast.IsNull):
        return _is_total(expr.operand)
    if isinstance(expr, ast.UnaryOp):
        return expr.op == "NOT" and _is_total(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR", "=", "<>", "<", "<=", ">", ">="):
            return _is_total(expr.left) and _is_total(expr.right)
        return False
    if isinstance(expr, ast.Between):
        return (
            _is_total(expr.operand)
            and _is_total(expr.low)
            and _is_total(expr.high)
        )
    if isinstance(expr, ast.InList):
        return _is_total(expr.operand) and all(
            _is_total(item) for item in expr.items
        )
    if isinstance(expr, ast.Like):
        return _is_total(expr.operand) and _is_total(expr.pattern)
    return False


def _binary_batch(expr, batch, params):
    op = expr.op
    if op in ("AND", "OR"):
        if not (_is_total(expr.left) and _is_total(expr.right)):
            return _rowwise_batch(expr, batch, params)
        lefts = evaluate_batch(expr.left, batch, params)
        rights = evaluate_batch(expr.right, batch, params)
        if op == "AND":
            return [
                False
                if (left is not None and not _truthy(left))
                or (right is not None and not _truthy(right))
                else (None if left is None or right is None else True)
                for left, right in zip(lefts, rights)
            ]
        return [
            True
            if (left is not None and _truthy(left))
            or (right is not None and _truthy(right))
            else (None if left is None or right is None else False)
            for left, right in zip(lefts, rights)
        ]
    lefts = evaluate_batch(expr.left, batch, params)
    rights = evaluate_batch(expr.right, batch, params)
    if op in ("=", "<>", "<", "<=", ">", ">="):
        return [
            None if left is None or right is None else _compare(op, left, right)
            for left, right in zip(lefts, rights)
        ]
    out = []
    for left, right in zip(lefts, rights):
        if left is None or right is None:
            out.append(None)
        elif op == "+":
            out.append(left + right)
        elif op == "-":
            out.append(left - right)
        elif op == "*":
            out.append(left * right)
        elif op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            out.append(left / right)
        elif op == "||":
            out.append(str(left) + str(right))
        else:
            raise ExecutionError("unknown operator %r" % (op,))
    return out


def _like_batch(expr, batch, params):
    values = evaluate_batch(expr.operand, batch, params)
    patterns = evaluate_batch(expr.pattern, batch, params)
    negated = expr.negated
    out = []
    for value, pattern in zip(values, patterns):
        if value is None or pattern is None:
            out.append(None)
            continue
        matched = _like_regex(str(pattern)).match(str(value)) is not None
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
        result = low <= value <= high
        out.append((not result) if negated else result)
    return out


def _in_list_batch(expr, batch, params):
    if not all(_is_total(item) for item in expr.items):
        # ``_in_list`` stops at the first match and skips the list for a
        # NULL operand: an item that can raise must not be evaluated for
        # a row that never reaches it.
        return _rowwise_batch(expr, batch, params)
    values = evaluate_batch(expr.operand, batch, params)
    item_columns = [
        evaluate_batch(item, batch, params) for item in expr.items
    ]
    negated = expr.negated
    out = []
    for index, value in enumerate(values):
        if value is None:
            out.append(None)
            continue
        saw_null = False
        result = True if negated else False
        for column in item_columns:
            item_value = column[index]
            if item_value is None:
                saw_null = True
            elif item_value == value:
                result = False if negated else True
                saw_null = False
                break
        else:
            if saw_null:
                result = None
        out.append(result)
    return out


def _scalar_function_batch(expr, batch, params):
    if expr.is_aggregate:
        raise ExecutionError(
            "aggregate %s evaluated outside aggregation" % (expr.name,)
        )
    columns = [evaluate_batch(arg, batch, params) for arg in expr.args]
    name = expr.name
    if name == "ABS":
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


def _scalar_function(expr, env, params):
    if expr.is_aggregate:
        raise ExecutionError(
            "aggregate %s evaluated outside aggregation" % (expr.name,)
        )
    args = [evaluate(arg, env, params) for arg in expr.args]
    name = expr.name
    if name == "ABS":
        return None if args[0] is None else abs(args[0])
    if name == "LENGTH":
        return None if args[0] is None else len(str(args[0]))
    if name == "LOWER":
        return None if args[0] is None else str(args[0]).lower()
    if name == "UPPER":
        return None if args[0] is None else str(args[0]).upper()
    if name == "COALESCE":
        for arg in args:
            if arg is not None:
                return arg
        return None
    raise ExecutionError("unknown function %r" % (name,))
