"""Planted semantic bugs: the oracle suite's negative controls.

An oracle that never fires is indistinguishable from one that cannot
fire.  These context managers temporarily break NULL semantics in two
historically popular ways; the regression suite asserts that TLP
catches *both* — if a refactor ever makes the oracles blind, the
negatives go red before a real bug slips through.

Both bugs are planted in the scalar **and** the vectorized evaluator,
like a genuine misreading of the SQL spec would be: scans, filters and
HAVING evaluate whole batches, join residuals evaluate a row at a time,
and a plant in only one of them would break some plans and not others.
And both are deliberately **asymmetric** across the TLP partitions: a
NULL-semantics bug applied uniformly to every partition (e.g.
``NULL AND TRUE = TRUE`` inside every branch) can cancel out of the
partition equation and survive TLP.  Treating unknown as satisfied at
the *filter* level (the pushdown bug) triple-counts NULL-predicate
rows; rewriting only ``NOT unknown`` to TRUE (the Kleene bug)
double-counts them.
"""

import contextlib

from repro.exec import aggregates as aggregates_module
from repro.exec import expr as expr_module
from repro.exec import operators as operators_module
from repro.sql import ast

#: Where the predicate entry points were imported by name; the plant
#: must rebind each import site, not just the defining module.
_FILTER_SITES = (
    (operators_module, "evaluate_predicate"),
    (operators_module, "evaluate_predicate_batch"),
    (aggregates_module, "evaluate_predicate_batch"),
)


@contextlib.contextmanager
def predicate_pushdown_bug():
    """Scan/filter predicate evaluation treats unknown as satisfied.

    The classic predicate-pushdown bug: a filter pushed into the scan
    drops the "unknown is not satisfied" rule, so rows whose predicate
    evaluates to NULL leak through every WHERE clause.  TLP then sees
    each NULL-predicate row in all three partitions instead of exactly
    one.
    """
    saved = [
        (site, name, getattr(site, name)) for site, name in _FILTER_SITES
    ]

    def leaky(expr, env, params=None):
        value = expr_module.evaluate(expr, env, params)
        if value is None:
            return True  # BUG: unknown treated as satisfied
        return expr_module._truthy(value)

    def leaky_batch(expr, batch, params=None):
        return [
            True if value is None else expr_module._truthy(value)
            for value in expr_module.evaluate_batch(expr, batch, params)
        ]

    plants = {
        "evaluate_predicate": leaky,
        "evaluate_predicate_batch": leaky_batch,
    }
    for site, name in _FILTER_SITES:
        setattr(site, name, plants[name])
    try:
        yield
    finally:
        for site, name, original in saved:
            setattr(site, name, original)


@contextlib.contextmanager
def kleene_not_bug():
    """``NOT unknown`` evaluates to TRUE instead of unknown.

    A broken three-valued negation: two-valued boolean logic applied to
    a nullable operand.  ``WHERE p`` stays correct, but ``WHERE NOT (p)``
    now *also* returns the NULL-predicate rows, so TLP sees them twice.
    Patched on :func:`repro.exec.expr.evaluate` and
    :func:`~repro.exec.expr.evaluate_batch` themselves — the module's
    internal recursion (and ``evaluate_predicate``'s dispatch) resolves
    both through its globals, so nested NOTs break too, exactly like a
    real evaluator bug.
    """
    original = expr_module.evaluate
    original_batch = expr_module.evaluate_batch

    def broken(expr, env, params=None):
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            value = broken(expr.operand, env, params)
            if value is None:
                return True  # BUG: NOT unknown -> TRUE
            return not expr_module._truthy(value)
        return original(expr, env, params)

    def broken_batch(expr, batch, params=None):
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return [
                True if value is None else (not expr_module._truthy(value))
                for value in broken_batch(expr.operand, batch, params)
            ]
        return original_batch(expr, batch, params)

    expr_module.evaluate = broken
    expr_module.evaluate_batch = broken_batch
    try:
        yield
    finally:
        expr_module.evaluate = original
        expr_module.evaluate_batch = original_batch
