"""The environment-row shape the engine no longer uses, kept for the
test references: the row-at-a-time expression evaluator and the
environment packers.

Before rows below Project became flat tuples under a layout, the
row-at-a-time operators traded environment dicts (``{qid: row_tuple}``)
and re-packed them into batches with ``BatchBuilder``.  The differential
references under ``tests/exec/`` (``RowPathHashJoinOp``,
``RowPathSortOp``, ``RowAtATimeGroupByOp``, the env-path joins) are
written in that shape; this module is what they pack and unpack with.

:func:`evaluate` / :func:`evaluate_predicate` are the scalar evaluator
the engine ran beside ``evaluate_batch`` until the batch evaluator
became its only one: one environment at a time, short-circuiting AND /
OR / IN / CASE per row.  ``tests/exec/test_expr_batch_property.py``
holds ``evaluate_batch`` to it row for row.
"""

from itertools import chain

from repro.common.errors import ExecutionError
from repro.exec.batch import DEFAULT_BATCH_ROWS, Batch, layout_of
from repro.exec.expr import (
    NUMBERS,
    _compare,
    _negate,
    _operate,
    _parameter_value,
    _truthy,
    like_match,
)
from repro.exec.spill import ROW_OVERHEAD_BYTES, VALUE_BYTES
from repro.sql import ast
from repro.sql.binder import GROUP_ENV, GroupRef


def env_of(layout, values):
    """One row's flat ``values`` under ``layout`` as an environment dict."""
    return {
        key: values[offset:offset + width] for key, offset, width in layout
    }


def env_rows(batch):
    """A batch's rows as environment dicts (result tuples when
    ``layout is None``), in order."""
    layout = batch.layout
    if layout is None:
        return list(batch.flat_rows())
    if len(layout) == 1:
        key = layout[0][0]
        return [{key: row} for row in batch.flat_rows()]
    return [env_of(layout, row) for row in batch.flat_rows()]


def env_at(batch, index):
    """Row ``index`` of a batch as an environment dict."""
    return env_of(batch.layout, batch.flat_rows()[index])


def from_envs(envs):
    """Pack environment dicts (all sharing one key/width shape)."""
    layout = layout_of([(key, len(row)) for key, row in envs[0].items()])
    keys = [key for key, __, __w in layout]
    rows = [
        tuple(chain.from_iterable(map(env.__getitem__, keys)))
        for env in envs
    ]
    return Batch.from_flat_rows(layout, rows)


class BatchBuilder:
    """Accumulates rows (dict or tuple shape) into full batches.

    Consecutive rows sharing a layout signature pack together; a shape
    change or a full buffer flushes."""

    def __init__(self, batch_rows=DEFAULT_BATCH_ROWS):
        self.batch_rows = batch_rows
        self._rows = []
        self._signature = None

    def add(self, row):
        """Buffer one row; returns a completed batch or None."""
        if isinstance(row, dict):
            signature = tuple(
                (key, len(value)) for key, value in row.items()
            )
        else:
            signature = len(row)
        flushed = None
        if self._rows and signature != self._signature:
            flushed = self._flush()
        self._signature = signature
        self._rows.append(row)
        if len(self._rows) >= self.batch_rows:
            return self._flush()
        return flushed

    def finish(self):
        """Flush whatever remains; returns a batch or None."""
        if not self._rows:
            return None
        return self._flush()

    def _flush(self):
        rows = self._rows
        self._rows = []
        if isinstance(self._signature, int):
            return Batch.from_tuples(rows, self._signature)
        return from_envs(rows)


def rows_to_batches(rows, batch_rows=DEFAULT_BATCH_ROWS):
    """Pack a row stream (dicts or tuples) into batches."""
    builder = BatchBuilder(batch_rows)
    for row in rows:
        batch = builder.add(row)
        if batch is not None:
            yield batch
    tail = builder.finish()
    if tail is not None:
        yield tail


def null_extend(env, quantifiers):
    """Left-outer NULL extension for the null-supplied side."""
    extended = dict(env)
    for quantifier in quantifiers:
        extended[quantifier.id] = (None,) * max(1, len(quantifier.columns))
    return extended


def env_row_bytes(env):
    """Estimated bytes of one environment row."""
    total = ROW_OVERHEAD_BYTES
    for row in env.values():
        try:
            total += VALUE_BYTES * len(row)
        except TypeError:
            total += VALUE_BYTES
    return total


# --------------------------------------------------------------------- #
# the scalar evaluator
# --------------------------------------------------------------------- #

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
        return None if value is None else _negate(value)
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
    return _operate(op, left, right)


def _like(expr, env, params):
    value = evaluate(expr.operand, env, params)
    pattern = evaluate(expr.pattern, env, params)
    if value is None or pattern is None:
        return None
    matched = like_match(str(value), str(pattern))
    return (not matched) if expr.negated else matched


def _between(expr, env, params):
    value = evaluate(expr.operand, env, params)
    low = evaluate(expr.low, env, params)
    high = evaluate(expr.high, env, params)
    if value is None or low is None or high is None:
        return None
    result = _compare("<=", low, value) and _compare("<=", value, high)
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


def _scalar_function(expr, env, params):
    if expr.is_aggregate:
        raise ExecutionError(
            "aggregate %s evaluated outside aggregation" % (expr.name,)
        )
    args = [evaluate(arg, env, params) for arg in expr.args]
    name = expr.name
    if name == "ABS":
        if args[0] is not None and type(args[0]) not in NUMBERS:
            raise ExecutionError(
                "cannot ABS %r values" % (type(args[0]).__name__,)
            )
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
