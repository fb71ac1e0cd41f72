"""Seeded SELECT generation with a TLP-separable predicate.

Every generated query keeps its WHERE predicate *separable*: the query
knows how to render itself unpartitioned, and partitioned as
``WHERE (p)`` / ``WHERE NOT (p)`` / ``WHERE (p) IS NULL`` — the three
branches of SQL's ternary logic, which must repartition the
unpartitioned multiset exactly.

Shapes covered: single-table scans, inner and left joins, nested
AND/OR/NOT predicates over comparisons, IS NULL, BETWEEN, IN-lists and
LIKE, non-grouped aggregates (COUNT/SUM/MIN/MAX over INT columns —
float aggregation is excluded so addition order can never masquerade as
a bug), DISTINCT projections, grouped aggregates (TLP recombines them
group by group; NoREC adds HAVING), and
ORDER BY with an optional LIMIT whose sort order is total (the primary
key is always the final tiebreaker), so every plan variant must produce
the identical row *list*, not just multiset.
"""

from repro.testgen.schema import WORDS, render_literal

#: Aggregate shapes TLP knows how to recombine across partitions.
AGG_FUNCS = ("COUNT", "SUM", "MIN", "MAX")


class GeneratedQuery:
    """One generated SELECT, predicate kept separable for TLP."""

    def __init__(self, kind, select_list, from_clause, predicate,
                 agg_funcs=None, group_by=None, having=None,
                 order_by=None, limit=None, shape="single"):
        self.kind = kind              # 'plain' | 'aggregate' | 'distinct'
        self.select_list = select_list
        self.from_clause = from_clause
        self.predicate = predicate    # the separable p (string), or None
        self.agg_funcs = agg_funcs or []   # [(func, rendered_arg)]
        self.group_by = group_by
        self.having = having
        self.order_by = order_by
        self.limit = limit
        self.shape = shape

    def _suffix(self):
        parts = []
        if self.group_by:
            parts.append("GROUP BY %s" % self.group_by)
        if self.having:
            parts.append("HAVING %s" % self.having)
        if self.order_by:
            parts.append("ORDER BY %s" % self.order_by)
        if self.limit is not None:
            parts.append("LIMIT %d" % self.limit)
        return (" " + " ".join(parts)) if parts else ""

    def sql(self):
        """The unrestricted query (predicate applied if present)."""
        where = " WHERE %s" % self.predicate if self.predicate else ""
        return "SELECT %s FROM %s%s%s" % (
            self.select_list, self.from_clause, where, self._suffix()
        )

    def sql_unpartitioned(self):
        """The TLP reference query: no WHERE at all."""
        return "SELECT %s FROM %s%s" % (
            self.select_list, self.from_clause, self._suffix()
        )

    def sql_partition(self, branch):
        """One TLP branch: 'true', 'false', or 'unknown'."""
        predicate = {
            "true": "(%s)" % self.predicate,
            "false": "NOT (%s)" % self.predicate,
            "unknown": "(%s) IS NULL" % self.predicate,
        }[branch]
        return "SELECT %s FROM %s WHERE %s%s" % (
            self.select_list, self.from_clause, predicate, self._suffix()
        )

    def tlp_sqls(self):
        return (
            self.sql_unpartitioned(),
            self.sql_partition("true"),
            self.sql_partition("false"),
            self.sql_partition("unknown"),
        )


class QueryGenerator:
    """Derives seeded queries over a :class:`GeneratedSchema`.

    The generator is driven by an externally supplied ``random.Random``
    so the harness controls the single statement stream that makes
    ``(seed, schema_seed, statement_index)`` a complete reproduction.
    """

    def __init__(self, rng, schema):
        self.rng = rng
        self.schema = schema

    # ------------------------------------------------------------------ #
    # FROM clauses
    # ------------------------------------------------------------------ #

    def _from_clause(self):
        """(from_sql, [(alias, table)], shape) — single or two-way join."""
        rng = self.rng
        table = rng.choice(self.schema.tables)
        if len(self.schema.tables) < 2 or rng.random() < 0.5:
            return "%s a" % table.name, [("a", table)], "single"
        other = rng.choice(self.schema.tables)
        left_cols = ["pk"] + [c.name for c in table.columns_of_type("INT")]
        right_cols = ["pk"] + [c.name for c in other.columns_of_type("INT")]
        join_kind = rng.choice(("JOIN", "JOIN", "LEFT JOIN"))
        condition = "a.%s = b.%s" % (
            rng.choice(left_cols), rng.choice(right_cols)
        )
        from_sql = "%s a %s %s b ON %s" % (
            table.name, join_kind, other.name, condition
        )
        shape = "left-join" if join_kind == "LEFT JOIN" else "join"
        return from_sql, [("a", table), ("b", other)], shape

    def _column_pool(self, sources):
        """[(rendered_ref, type_name)] over every aliased column."""
        pool = []
        for alias, table in sources:
            pool.append(("%s.pk" % alias, "INT"))
            for column in table.columns:
                pool.append(("%s.%s" % (alias, column.name), column.type_name))
        return pool

    def _columns_of(self, pool, type_name):
        return [ref for ref, t in pool if t == type_name]

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #

    def predicate(self, pool, depth=2):
        """A random nested predicate string over the column pool."""
        rng = self.rng
        if depth > 0 and rng.random() < 0.55:
            op = rng.choice(("AND", "OR", "NOT"))
            if op == "NOT":
                return "NOT (%s)" % self.predicate(pool, depth - 1)
            return "(%s) %s (%s)" % (
                self.predicate(pool, depth - 1), op,
                self.predicate(pool, depth - 1),
            )
        return self._leaf_predicate(pool)

    def _leaf_predicate(self, pool):
        rng = self.rng
        ref, type_name = rng.choice(pool)
        roll = rng.random()
        if roll < 0.12:
            return "%s IS %sNULL" % (ref, rng.choice(("", "NOT ")))
        if type_name == "VARCHAR":
            if roll < 0.45:
                pattern = rng.choice((
                    "%a%", "%e%", "f%", "%h", "p_ne", "%ir%", "oak",
                ))
                return "%s %sLIKE '%s'" % (
                    ref, rng.choice(("", "NOT ")), pattern
                )
            if roll < 0.7:
                words = sorted({self._literal(rng, "VARCHAR")
                                for __ in range(rng.randrange(2, 5))})
                return "%s %sIN (%s)" % (
                    ref, rng.choice(("", "NOT ")), ", ".join(words)
                )
            return "%s %s %s" % (
                ref, rng.choice(("=", "<>", "<", ">=")),
                self._literal(rng, "VARCHAR"),
            )
        # INT / DOUBLE
        if roll < 0.35:
            low = rng.randrange(-6, 15)
            return "%s %sBETWEEN %d AND %d" % (
                ref, rng.choice(("", "NOT ")), low,
                low + rng.randrange(0, 9),
            )
        if roll < 0.5:
            values = sorted({rng.randrange(-5, 21)
                             for __ in range(rng.randrange(2, 5))})
            return "%s %sIN (%s)" % (
                ref, rng.choice(("", "NOT ")),
                ", ".join(str(v) for v in values),
            )
        if roll < 0.65:
            peers = self._columns_of(pool, type_name)
            if len(peers) > 1:
                other = rng.choice([p for p in peers if p != ref] or peers)
                return "%s %s %s" % (
                    ref, rng.choice(("=", "<>", "<", "<=", ">", ">=")), other
                )
        if type_name == "INT" and roll < 0.8:
            # Tiny arithmetic so expression evaluation (and its batch
            # twin) sees non-column operands.
            return "%s + %d %s %d" % (
                ref, rng.randrange(-3, 4),
                rng.choice(("<", "<=", ">", ">=", "=", "<>")),
                rng.randrange(-5, 21),
            )
        return "%s %s %s" % (
            ref, rng.choice(("=", "<>", "<", "<=", ">", ">=")),
            self._literal(rng, type_name),
        )

    def _literal(self, rng, type_name):
        if type_name == "INT":
            return str(rng.randrange(-5, 21))
        if type_name == "DOUBLE":
            return repr(rng.randrange(-10, 33) / 2.0)
        return render_literal(rng.choice(WORDS))

    # ------------------------------------------------------------------ #
    # whole queries
    # ------------------------------------------------------------------ #

    def tlp_query(self):
        """A query suitable for TLP: no LIMIT (partitions must cover)."""
        rng = self.rng
        from_sql, sources, shape = self._from_clause()
        pool = self._column_pool(sources)
        predicate = self.predicate(pool)
        roll = rng.random()
        if roll < 0.25:
            int_cols = self._columns_of(pool, "INT")
            agg_funcs = [("COUNT", "*")]
            for func in ("SUM", "MIN", "MAX"):
                if int_cols and rng.random() < 0.6:
                    agg_funcs.append((func, rng.choice(int_cols)))
            select_list = ", ".join(
                "%s(%s)" % (func, arg) for func, arg in agg_funcs
            )
            return GeneratedQuery(
                "aggregate", select_list, from_sql, predicate,
                agg_funcs=agg_funcs, shape=shape,
            )
        n = rng.randrange(1, min(3, len(pool)) + 1)
        select_list = ", ".join(
            ref for ref, __ in rng.sample(pool, n)
        )
        if roll < 0.45:
            return GeneratedQuery(
                "distinct", "DISTINCT " + select_list, from_sql, predicate,
                shape=shape,
            )
        return GeneratedQuery(
            "plain", select_list, from_sql, predicate, shape=shape,
        )

    def grouped_tlp_query(self):
        """``SELECT g, COUNT(*), SUM(x), MIN(x), MAX(x) ... GROUP BY g``
        for TLP (``x`` an INT, as in :meth:`tlp_query`): each partition
        groups on its own and the oracle recombines group by group, so a
        grouped SUM / MIN / MAX is checked against an answer the group-by
        did not compute in one pass."""
        rng = self.rng
        from_sql, sources, shape = self._from_clause()
        pool = self._column_pool(sources)
        predicate = self.predicate(pool)
        group_ref = rng.choice(pool)[0]
        argument = rng.choice(self._columns_of(pool, "INT"))
        agg_funcs = [("COUNT", "*")] + [
            (func, argument) for func in ("SUM", "MIN", "MAX")
        ]
        select_list = ", ".join(
            [group_ref] + ["%s(%s)" % (func, arg) for func, arg in agg_funcs]
        )
        return GeneratedQuery(
            "aggregate", select_list, from_sql, predicate,
            agg_funcs=agg_funcs, group_by=group_ref, shape=shape + "+group",
        )

    def norec_query(self):
        """A query for plan variation: ORDER/LIMIT and GROUP BY allowed.

        When LIMIT is present the ORDER BY always ends in ``a.pk`` (and
        ``b.pk`` for joins), making the sort order total — any two
        correct plans must return the same *list*.
        """
        rng = self.rng
        from_sql, sources, shape = self._from_clause()
        pool = self._column_pool(sources)
        predicate = self.predicate(pool)
        roll = rng.random()
        if roll < 0.2:
            int_cols = self._columns_of(pool, "INT")
            group_ref = rng.choice(self._columns_of(pool, "INT")
                                   or [pool[0][0]])
            select_list = "%s, COUNT(*)" % group_ref
            having = None
            if int_cols and rng.random() < 0.5:
                having = "COUNT(*) >= %d" % rng.randrange(1, 4)
            return GeneratedQuery(
                "aggregate", select_list, from_sql, predicate,
                agg_funcs=[("COUNT", "*")], group_by=group_ref,
                having=having, shape=shape + "+group",
            )
        n = rng.randrange(1, min(3, len(pool)) + 1)
        refs = [ref for ref, __ in rng.sample(pool, n)]
        select_list = ", ".join(refs)
        order_by = None
        limit = None
        if roll < 0.55:
            keys = ["%s %s" % (rng.choice(refs),
                               rng.choice(("ASC", "DESC")))]
            for alias, __ in sources:
                keys.append("%s.pk" % alias)
            order_by = ", ".join(keys)
            if rng.random() < 0.6:
                limit = rng.randrange(1, 12)
        kind = "plain"
        if roll >= 0.55 and rng.random() < 0.3:
            kind = "distinct"
            select_list = "DISTINCT " + select_list
        return GeneratedQuery(
            kind, select_list, from_sql, predicate,
            order_by=order_by, limit=limit, shape=shape,
        )
