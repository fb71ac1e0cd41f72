"""Expected-output-free oracles: TLP partitioning and NoREC variation.

Neither oracle knows what a query *should* return; both derive a second
answer the engine is obligated to agree with — its own answer under a
ternary-logic repartition (TLP) or under a different physical plan
(NoREC).  A disagreement is a semantic bug by construction.
"""

import hashlib
from collections import Counter

from repro.engine import StatementOverrides

#: The NoREC plan-variation matrix.  ``plan_cache`` is handled
#: specially (the query must be executed past the cache's training
#: period so a *cached* plan actually serves the final answer).
NOREC_VARIANTS = (
    ("snapshot_on", StatementOverrides(snapshot_reads=True)),
    ("snapshot_off", StatementOverrides(snapshot_reads=False)),
    ("heap_scan", StatementOverrides(force_heap_scan=True)),
)

#: Executions per plan-cache probe; the cache trains for 3 runs, so the
#: 5th answer comes from a cached plan.
PLAN_CACHE_RUNS = 5


class OracleViolation(Exception):
    """An oracle disagreement, shrunk by construction to a seed triple."""

    def __init__(self, oracle, detail, seed=None, schema_seed=None,
                 statement_index=None, trace=None):
        self.oracle = oracle
        self.detail = detail
        self.seed = seed
        self.schema_seed = schema_seed
        self.statement_index = statement_index
        self.trace = list(trace or [])
        super().__init__(self.describe())

    def shrink_triple(self):
        return (self.seed, self.schema_seed, self.statement_index)

    def describe(self):
        return "%s violation at (seed=%r, schema_seed=%r, statement=%r): %s" % (
            self.oracle, self.seed, self.schema_seed,
            self.statement_index, self.detail,
        )

    def to_dict(self):
        """JSON-able artifact payload for the CI lane."""
        return {
            "oracle": self.oracle,
            "seed": self.seed,
            "schema_seed": self.schema_seed,
            "statement_index": self.statement_index,
            "detail": self.detail,
            "trace": self.trace,
            "replay": (
                "PYTHONPATH=src python -c \"from repro.testgen import "
                "replay_triple; replay_triple(%r, %r, %r)\""
                % (self.seed, self.schema_seed, self.statement_index)
            ),
        }


def run_rows(connection, sql, overrides=None):
    """Execute and materialize as a list of plain tuples."""
    result = connection.execute(sql, overrides=overrides)
    return [tuple(row) for row in result.rows]


def multiset(rows):
    return Counter(tuple(row) for row in rows)


def multiset_diff(expected, actual):
    """A compact description of how two multisets differ."""
    missing = expected - actual
    extra = actual - expected
    return {
        "missing": sorted(map(repr, missing.elements()))[:8],
        "extra": sorted(map(repr, extra.elements()))[:8],
        "expected_rows": sum(expected.values()),
        "actual_rows": sum(actual.values()),
    }


def result_digest(rows):
    """A short stable digest of a result multiset (for run logs)."""
    payload = "\n".join(sorted(repr(row) for row in rows))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


# --------------------------------------------------------------------- #
# TLP
# --------------------------------------------------------------------- #

def check_tlp(connection, query, overrides=None):
    """Run the four TLP queries.

    Returns ``{"violation": detail-or-None, "digest": ..., "rows": n}``
    where the digest covers the unpartitioned result (run logs compare
    it byte-for-byte across repeat runs).

    For ``plain`` queries the three partitions must union-multiset to
    the unpartitioned result.  ``distinct`` compares as *set* union:
    the underlying rows partition disjointly, but two of them can
    project to the same DISTINCT row in different partitions, so only
    the union of the partition sets — not their multiset sum — must
    equal the unpartitioned set.  ``aggregate`` recombines COUNT by
    summing, SUM by summing non-NULLs, MIN/MAX by folding.
    """
    unpart_sql, true_sql, false_sql, unknown_sql = query.tlp_sqls()
    whole = run_rows(connection, unpart_sql, overrides)
    parts = [
        run_rows(connection, true_sql, overrides),
        run_rows(connection, false_sql, overrides),
        run_rows(connection, unknown_sql, overrides),
    ]
    outcome = {
        "violation": None,
        "digest": result_digest(whole),
        "rows": len(whole),
    }
    if query.kind == "aggregate":
        outcome["violation"] = _tlp_aggregate(query, whole, parts)
        return outcome
    if query.kind == "distinct":
        expected = set(whole)
        actual = set().union(*map(set, parts))
        if expected != actual:
            outcome["violation"] = {
                "mode": "distinct",
                "sqls": list(query.tlp_sqls()),
                "missing": sorted(map(repr, expected - actual))[:8],
                "extra": sorted(map(repr, actual - expected))[:8],
            }
        return outcome
    expected = multiset(whole)
    actual = multiset(parts[0]) + multiset(parts[1]) + multiset(parts[2])
    if expected != actual:
        detail = multiset_diff(expected, actual)
        detail["mode"] = "plain"
        detail["sqls"] = list(query.tlp_sqls())
        outcome["violation"] = detail
    return outcome


def _tlp_aggregate(query, whole, parts):
    """Recombine aggregate results across the partitions, group by group.

    A grouped query's rows are keyed by their leading GROUP BY column (a
    NULL key is a group like any other); a scalar aggregate is one group
    with the empty key.  Every group of the unpartitioned result must
    appear in some partition, no partition may hold a group the
    unpartitioned result lacks, and each group's partition rows must
    recombine to its unpartitioned row: COUNT by summing, SUM by summing
    non-NULLs, MIN/MAX by folding.
    """
    width = 1 if query.group_by else 0
    expected = {tuple(row[:width]): tuple(row) for row in whole}
    partitions = [{tuple(row[:width]): tuple(row) for row in rows}
                  for rows in parts]
    extra = [key for part in partitions for key in part
             if key not in expected]
    for key, whole_row in list(expected.items()) + [(k, None) for k in extra]:
        part_rows = [part[key] for part in partitions if key in part]
        combined = key + tuple(
            _recombine(func, [row[width + position] for row in part_rows])
            for position, (func, __) in enumerate(query.agg_funcs)
        )
        if not part_rows or whole_row is None or combined != whole_row:
            return {
                "mode": "aggregate",
                "sqls": list(query.tlp_sqls()),
                "group": repr(key),
                "whole": repr(whole_row),
                "combined": repr(combined) if part_rows else None,
                "partitions": [repr(row) for row in part_rows],
            }
    return None


def _recombine(func, values):
    non_null = [v for v in values if v is not None]
    if func == "COUNT":
        return sum(values)
    if func == "SUM":
        return sum(non_null) if non_null else None
    if func == "MIN":
        return min(non_null) if non_null else None
    return max(non_null) if non_null else None


# --------------------------------------------------------------------- #
# NoREC
# --------------------------------------------------------------------- #

def check_norec(connection, query, include_plan_cache=True):
    """Run the query under every plan variant; all answers must agree.

    The baseline runs with no overrides (whatever the server defaults
    are).  Queries with a LIMIT are generated with a *total* ORDER BY,
    so variants are compared as exact lists; everything else compares
    as multisets (ORDER BY without LIMIT still reorders only).  Returns
    the same outcome dict shape as :func:`check_tlp`.
    """
    sql = query.sql()
    baseline = run_rows(connection, sql)
    exact = query.limit is not None
    expected = baseline if exact else multiset(baseline)
    outcome = {
        "violation": None,
        "digest": result_digest(baseline),
        "rows": len(baseline),
    }
    variants = [(name, overrides, 1) for name, overrides in NOREC_VARIANTS]
    if include_plan_cache:
        variants.append((
            "plan_cache", StatementOverrides(use_plan_cache=True),
            PLAN_CACHE_RUNS,
        ))
    for name, overrides, repeats in variants:
        for run in range(repeats):
            rows = run_rows(connection, sql, overrides)
            actual = rows if exact else multiset(rows)
            if actual == expected:
                continue
            detail = {
                "mode": "norec", "variant": name, "sql": sql,
                "exact": exact,
            }
            if repeats > 1:
                detail["cache_run"] = run
            if exact:
                detail["expected"] = [repr(r) for r in baseline[:10]]
                detail["actual"] = [repr(r) for r in rows[:10]]
            else:
                detail.update(multiset_diff(multiset(baseline),
                                            multiset(rows)))
            outcome["violation"] = detail
            return outcome
    return outcome
