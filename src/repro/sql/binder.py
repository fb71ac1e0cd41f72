"""Semantic analysis: names, types, conjuncts, and subquery unnesting.

The binder turns a parsed statement into the representation the optimizer
works over:

* a :class:`QueryBlock` holds *quantifiers* (base tables, derived tables,
  procedure tables, recursive references) and *conjuncts* (AND-split
  predicates annotated with the quantifiers they reference);
* IN/EXISTS subqueries are unnested into **semi/anti-join quantifiers**,
  reproducing the paper's "the algorithm also enumerates complex
  subqueries by converting them into joins" (Section 4.1);
* LEFT OUTER JOIN produces ordering constraints — the preserved side must
  precede the null-supplied side in the left-deep join strategy — exactly
  the search-space asymmetry the paper describes;
* aggregation is normalized into (group keys, aggregate list), and
  post-aggregation expressions reference them through
  :class:`GroupRef` nodes.
"""

import copy

from repro.common.errors import SqlTypeError
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.predicates import column_predicate

#: Pseudo-environment key for post-aggregation rows.
GROUP_ENV = "__group__"

#: The empty quantifier-id set every quantifier starts with (one object:
#: a cached bound form keeps its quantifiers).
_NO_QIDS = frozenset()


class GroupRef(ast.Expression):
    """A reference into the post-aggregation row (group keys + aggregates)."""

    def __init__(self, index, type_name, display):
        self.index = index
        self.type_name = type_name
        self.display = display

    def __repr__(self):
        return "GroupRef(%d)" % (self.index,)


class Quantifier:
    """One range variable of a query block."""

    BASE = "base"
    DERIVED = "derived"
    PROCEDURE = "procedure"
    RECURSIVE_REF = "recursive-ref"

    #: How the quantifier joins into the block.
    INNER = "inner"
    LEFT = "left"          # null-supplied side of a LEFT OUTER JOIN
    SEMI = "semi"          # unnested IN/EXISTS
    ANTI = "anti"          # unnested NOT IN/NOT EXISTS

    def __init__(self, qid, alias, kind, join_type=INNER):
        self.id = qid
        self.alias = alias
        self.kind = kind
        self.join_type = join_type
        self.schema = None          # TableSchema for BASE
        self.block = None           # QueryBlock for DERIVED
        self.procedure = None       # ProcedureSchema for PROCEDURE
        self.procedure_args = None  # bound argument expressions
        self.cte_name = None        # for RECURSIVE_REF
        self.columns = []           # [(name, type_name)]
        #: Quantifier ids that must be placed before this one in any
        #: left-deep strategy (outer-join / semi-join dependencies).  A
        #: frozenset the binder grows by rebinding (``|=``).
        self.required_predecessors = _NO_QIDS
        #: Conjuncts evaluated as this quantifier's join condition
        #: (outer/semi/anti joins keep their ON predicates attached).
        self.on_conjuncts = []

    def column_index(self, name):
        for index, (column_name, __) in enumerate(self.columns):
            if column_name == name:
                return index
        return None

    def column_type(self, index):
        return self.columns[index][1]

    def __repr__(self):
        return "Quantifier(q%d %s kind=%s join=%s)" % (
            self.id, self.alias, self.kind, self.join_type
        )


class Conjunct:
    """One AND-factor of a WHERE/HAVING clause.

    The two shapes the optimizer, the executor and the Index Consultant
    act on are recognised here, once: ``equi`` (`colA = colB` across two
    quantifiers) and ``column`` (a single-quantifier conjunct read as a
    :class:`~repro.sql.predicates.ColumnPredicate`, else None).
    """

    def __init__(self, expr, refs):
        self.expr = expr
        self.refs = frozenset(refs)
        self.equi = _detect_equi(expr)
        self.column = (
            column_predicate(expr, next(iter(self.refs)))
            if len(self.refs) == 1 else None
        )

    @property
    def is_join(self):
        return len(self.refs) > 1

    def __repr__(self):
        return "Conjunct(refs=%s%s)" % (
            sorted(self.refs), " equi" if self.equi else ""
        )


def _detect_equi(expr):
    """``(qid_a, col_a), (qid_b, col_b)`` when expr is `colA = colB` across
    two quantifiers — the shape hash joins and join histograms consume."""
    if not isinstance(expr, ast.BinaryOp) or expr.op != "=":
        return None
    left, right = expr.left, expr.right
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
        return None
    if not (left.bound and right.bound):
        return None
    if left.quantifier_id == right.quantifier_id:
        return None
    return (
        (left.quantifier_id, left.column_index),
        (right.quantifier_id, right.column_index),
    )


class QueryBlock:
    """Bound form of one SELECT.

    Quantifier ids are globally unique within one :class:`Binder`, so
    correlated references from nested blocks are unambiguous.
    """

    def __init__(self):
        self.quantifiers = []
        self.conjuncts = []
        self.select_items = []      # [(bound expr, output name, type_name)]
        self.distinct = False
        self.group_keys = []        # [(bound expr, name, type_name)]
        self.aggregates = []        # [bound FunctionCall]
        self.having_conjuncts = []  # [bound expr over GroupRefs]
        self.order_by = []          # [(bound expr, ascending)]
        self.limit = None
        self.with_recursive = None  # BoundRecursiveCTE

    @property
    def is_aggregate(self):
        return bool(self.group_keys) or bool(self.aggregates)

    def quantifier(self, qid):
        for quantifier in self.quantifiers:
            if quantifier.id == qid:
                return quantifier
        raise KeyError("no quantifier %r in this block" % (qid,))

    def local_ids(self):
        return frozenset(quantifier.id for quantifier in self.quantifiers)

    def output_columns(self):
        return [(name, type_name) for __, name, type_name in self.select_items]

    def __repr__(self):
        return "QueryBlock(%d quantifiers, %d conjuncts)" % (
            len(self.quantifiers), len(self.conjuncts)
        )


class BoundRecursiveCTE:
    def __init__(self, name, column_names, base_block, recursive_select):
        self.name = name
        self.column_names = column_names
        self.base_block = base_block
        #: A pristine copy of the recursive arm's parse tree: binding
        #: mutates AST nodes in place, and the adaptive RECURSIVE UNION
        #: re-binds the arm every iteration, so each re-bind starts from a
        #: fresh deep copy of this template.
        self.recursive_select_template = copy.deepcopy(recursive_select)
        self.column_types = None


class BoundInsert:
    def __init__(self, table, column_indexes, rows=None, select_block=None):
        self.table = table
        self.column_indexes = column_indexes
        self.rows = rows
        self.select_block = select_block


class BoundUpdate:
    def __init__(self, table, assignments, conjuncts, quantifier):
        self.table = table
        self.assignments = assignments  # [(column_index, bound expr)]
        self.conjuncts = conjuncts
        self.quantifier = quantifier


class BoundDelete:
    def __init__(self, table, conjuncts, quantifier):
        self.table = table
        self.conjuncts = conjuncts
        self.quantifier = quantifier


class _Scope:
    """Alias resolution scope with an outer chain for correlation."""

    def __init__(self, outer=None):
        self.outer = outer
        self._by_alias = {}

    def add(self, quantifier):
        if quantifier.alias in self._by_alias:
            raise SqlTypeError("duplicate table alias %r" % (quantifier.alias,))
        self._by_alias[quantifier.alias] = quantifier

    def resolve_alias(self, alias):
        scope = self
        while scope is not None:
            if alias in scope._by_alias:
                return scope._by_alias[alias]
            scope = scope.outer
        return None

    def resolve_column(self, name):
        """Find the unique quantifier exposing ``name``; local scope first."""
        scope = self
        while scope is not None:
            matches = [
                quantifier
                for quantifier in scope._by_alias.values()
                if quantifier.column_index(name) is not None
            ]
            if len(matches) > 1:
                raise SqlTypeError("ambiguous column %r" % (name,))
            if matches:
                return matches[0]
            scope = scope.outer
        return None

    def local_quantifiers(self):
        return list(self._by_alias.values())


class Binder:
    """Binds parsed statements against a catalog."""

    def __init__(self, catalog, procedure_params=None):
        self.catalog = catalog
        #: Extra name -> (column list) visible as recursive CTE references.
        self._cte_frames = []
        self._next_qid = 0
        self._procedure_params = []
        if procedure_params:
            self._procedure_params.append(tuple(procedure_params))

    def _new_qid(self):
        qid = self._next_qid
        self._next_qid += 1
        return qid

    @property
    def binds_recursive_arms(self):
        """Whether the statement bound so far has a recursive CTE, whose
        arm :meth:`bind_recursive_arm` re-binds at run time (drawing
        quantifier ids from this binder's counter)."""
        return bool(self._cte_frames)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def bind(self, statement):
        """Bind any DML/query statement; DDL needs no binding."""
        if isinstance(statement, ast.SelectStatement):
            return self.bind_select(statement)
        if isinstance(statement, ast.InsertStatement):
            return self.bind_insert(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self.bind_update(statement)
        if isinstance(statement, ast.DeleteStatement):
            return self.bind_delete(statement)
        raise SqlTypeError("statement %r does not bind" % (type(statement).__name__,))

    def bind_select(self, select, outer_scope=None):
        block = QueryBlock()
        scope = _Scope(outer_scope)

        if select.with_recursive is not None:
            block.with_recursive = self._bind_recursive_cte(select.with_recursive)

        for table_ref in select.from_tables:
            self._bind_table_ref(table_ref, block, scope)

        if select.where is not None:
            for conjunct_expr in _split_and(select.where):
                self._bind_conjunct(conjunct_expr, block, scope)

        self._bind_output(select, block, scope)
        block.distinct = select.distinct
        block.limit = select.limit
        return block

    def bind_insert(self, statement):
        table = self.catalog.table(statement.table_name)
        if statement.column_names is None:
            column_indexes = list(range(len(table.columns)))
        else:
            column_indexes = [table.column_index(n) for n in statement.column_names]
        if statement.rows is not None:
            bound_rows = []
            for row in statement.rows:
                if len(row) != len(column_indexes):
                    raise SqlTypeError(
                        "INSERT row has %d values for %d columns"
                        % (len(row), len(column_indexes))
                    )
                bound_rows.append([self._bind_expr(e, _Scope(), None) for e in row])
            return BoundInsert(table, column_indexes, rows=bound_rows)
        select_block = self.bind_select(statement.select)
        if len(select_block.select_items) != len(column_indexes):
            raise SqlTypeError("INSERT ... SELECT arity mismatch")
        return BoundInsert(table, column_indexes, select_block=select_block)

    def bind_update(self, statement):
        table = self.catalog.table(statement.table_name)
        quantifier, scope, block = self._single_table_block(table, statement.where)
        assignments = []
        for column_name, expr in statement.assignments:
            index = table.column_index(column_name)
            assignments.append((index, self._bind_expr(expr, scope, block)))
        return BoundUpdate(table, assignments, block.conjuncts, quantifier)

    def bind_delete(self, statement):
        table = self.catalog.table(statement.table_name)
        quantifier, __, block = self._single_table_block(table, statement.where)
        return BoundDelete(table, block.conjuncts, quantifier)

    def bind_procedure_body(self, procedure):
        """Parse and bind a stored procedure's body.

        Identifiers matching declared parameter names bind to
        :class:`~repro.sql.ast.Parameter` nodes, substituted with the call
        arguments at execution time.
        """
        body = parse_statement(procedure.body_sql)
        if not isinstance(body, ast.SelectStatement):
            raise SqlTypeError(
                "procedure %r body must be a SELECT" % (procedure.name,)
            )
        self._procedure_params.append(tuple(procedure.parameters))
        try:
            return self.bind_select(body)
        finally:
            self._procedure_params.pop()

    def _single_table_block(self, table, where):
        block = QueryBlock()
        scope = _Scope()
        quantifier = self._new_base_quantifier(table, table.name, block)
        scope.add(quantifier)
        if where is not None:
            for conjunct_expr in _split_and(where):
                self._bind_conjunct(conjunct_expr, block, scope)
        return quantifier, scope, block

    # ------------------------------------------------------------------ #
    # FROM binding
    # ------------------------------------------------------------------ #

    def _bind_table_ref(self, ref, block, scope, join_type=Quantifier.INNER,
                        predecessors=None):
        """Bind a FROM item; returns the quantifier ids it contributed."""
        if isinstance(ref, ast.BaseTable):
            quantifier = self._resolve_base(ref, block)
            quantifier.join_type = join_type
            if predecessors:
                quantifier.required_predecessors |= predecessors
            scope.add(quantifier)
            return {quantifier.id}
        if isinstance(ref, ast.DerivedTable):
            sub_block = self.bind_select(ref.select, scope)
            quantifier = Quantifier(
                self._new_qid(), ref.alias, Quantifier.DERIVED, join_type
            )
            quantifier.block = sub_block
            quantifier.columns = list(sub_block.output_columns())
            if predecessors:
                quantifier.required_predecessors |= predecessors
            block.quantifiers.append(quantifier)
            scope.add(quantifier)
            return {quantifier.id}
        if isinstance(ref, ast.ProcedureTable):
            procedure = self.catalog.procedure(ref.name)
            body_block = self.bind_procedure_body(procedure)
            quantifier = Quantifier(
                self._new_qid(), ref.alias, Quantifier.PROCEDURE, join_type
            )
            quantifier.procedure = procedure
            quantifier.procedure_args = [
                self._bind_expr(arg, scope, block) for arg in ref.args
            ]
            quantifier.block = body_block
            quantifier.columns = list(body_block.output_columns())
            if predecessors:
                quantifier.required_predecessors |= predecessors
            block.quantifiers.append(quantifier)
            scope.add(quantifier)
            return {quantifier.id}
        if isinstance(ref, ast.JoinExpr):
            left_ids = self._bind_table_ref(
                ref.left, block, scope, Quantifier.INNER, predecessors
            )
            if ref.join_type == ast.JoinExpr.LEFT:
                right_ids = self._bind_table_ref(
                    ref.right, block, scope, Quantifier.LEFT,
                    predecessors=left_ids | (predecessors or set()),
                )
                if len(right_ids) != 1:
                    raise SqlTypeError(
                        "LEFT JOIN right side must be a single table reference"
                    )
                right = block.quantifier(next(iter(right_ids)))
                if ref.condition is not None:
                    for conjunct_expr in _split_and(ref.condition):
                        expr = self._bind_expr(conjunct_expr, scope, block)
                        right.on_conjuncts.append(
                            Conjunct(expr, _collect_refs(expr))
                        )
            else:
                right_ids = self._bind_table_ref(
                    ref.right, block, scope, Quantifier.INNER, predecessors
                )
                if ref.condition is not None:
                    # Inner-join ON conditions are ordinary conjuncts.
                    for conjunct_expr in _split_and(ref.condition):
                        self._bind_conjunct(conjunct_expr, block, scope)
            return left_ids | right_ids
        raise SqlTypeError("unsupported FROM item %r" % (type(ref).__name__,))

    def _resolve_base(self, ref, block):
        # Recursive CTE reference?
        for frame in reversed(self._cte_frames):
            if ref.name == frame[0]:
                quantifier = Quantifier(
                    self._new_qid(), ref.alias, Quantifier.RECURSIVE_REF
                )
                quantifier.cte_name = ref.name
                quantifier.columns = list(frame[1])
                block.quantifiers.append(quantifier)
                return quantifier
        table = self.catalog.table(ref.name)
        return self._new_base_quantifier(table, ref.alias, block)

    def _new_base_quantifier(self, table, alias, block):
        quantifier = Quantifier(self._new_qid(), alias, Quantifier.BASE)
        quantifier.schema = table
        quantifier.columns = table.column_types
        block.quantifiers.append(quantifier)
        return quantifier

    # ------------------------------------------------------------------ #
    # conjuncts and subquery unnesting
    # ------------------------------------------------------------------ #

    def _bind_conjunct(self, expr, block, scope):
        if isinstance(expr, ast.InSubquery):
            self._unnest_in(expr, block, scope)
            return
        if isinstance(expr, ast.Exists):
            self._unnest_exists(expr, block, scope)
            return
        if (
            isinstance(expr, ast.UnaryOp)
            and expr.op == "NOT"
            and isinstance(expr.operand, ast.Exists)
        ):
            inner = expr.operand
            self._unnest_exists(
                ast.Exists(inner.subquery, negated=not inner.negated), block, scope
            )
            return
        bound = self._bind_expr(expr, scope, block)
        block.conjuncts.append(Conjunct(bound, _collect_refs(bound)))

    def _unnest_in(self, expr, block, scope):
        """``x [NOT] IN (SELECT y ...)`` becomes a semi/anti quantifier.

        The anti join keeps a row when no subquery row matches it, but
        ``x NOT IN (...)`` is unknown — the row goes — when ``x`` is NULL
        or the subquery yields a NULL, unless it yields no row at all.
        So when either side can be NULL, a NULL on either side matches:
        the condition is ``x = y OR x IS NULL OR y IS NULL``.  When
        neither can, it stays the equi conjunct a hash join can take.
        """
        operand = self._bind_expr(expr.operand, scope, block)
        sub_block = self.bind_select(expr.subquery, scope)
        if len(sub_block.select_items) != 1:
            raise SqlTypeError("IN subquery must produce exactly one column")
        output = sub_block.select_items[0][0]
        join_type = Quantifier.ANTI if expr.negated else Quantifier.SEMI
        quantifier = self._add_subquery_quantifier(block, sub_block, join_type)
        self._lift_correlation(quantifier, sub_block, block)

        def column():
            """The subquery's output column 0, read through ``quantifier``."""
            ref = ast.ColumnRef(quantifier.alias, quantifier.columns[0][0])
            ref.quantifier_id = quantifier.id
            ref.column_index = 0
            ref.type_name = quantifier.columns[0][1]
            return ref

        condition = ast.BinaryOp("=", operand, column())
        if expr.negated and (
            _can_be_null(operand, block) or _can_be_null(output, sub_block)
        ):
            condition = ast.BinaryOp("OR", ast.BinaryOp(
                "OR", condition, ast.IsNull(operand),
            ), ast.IsNull(column()))
        quantifier.on_conjuncts.append(Conjunct(condition, _collect_refs(condition)))
        quantifier.required_predecessors |= _collect_refs(operand)

    def _unnest_exists(self, expr, block, scope):
        sub_block = self.bind_select(expr.subquery, scope)
        join_type = Quantifier.ANTI if expr.negated else Quantifier.SEMI
        quantifier = self._add_subquery_quantifier(block, sub_block, join_type)
        self._lift_correlation(quantifier, sub_block, block)
        if not quantifier.on_conjuncts:
            raise SqlTypeError(
                "EXISTS subquery must be correlated with the outer query"
            )

    def _add_subquery_quantifier(self, block, sub_block, join_type):
        qid = self._new_qid()
        quantifier = Quantifier(qid, "__subq%d" % (qid,), Quantifier.DERIVED, join_type)
        quantifier.block = sub_block
        quantifier.columns = list(sub_block.output_columns())
        block.quantifiers.append(quantifier)
        return quantifier

    def _lift_correlation(self, quantifier, sub_block, outer_block):
        """Move the subquery's correlated conjuncts up to the semi-join.

        A correlated conjunct references outer quantifiers; its inner
        column references are rewritten to read from the new derived
        quantifier, extending the subquery's select list as needed.
        """
        local_ids = sub_block.local_ids()
        lifted, kept = [], []
        for conjunct in sub_block.conjuncts:
            if conjunct.refs and not conjunct.refs <= local_ids:
                lifted.append(conjunct)
            else:
                kept.append(conjunct)
        sub_block.conjuncts = kept
        for conjunct in lifted:
            rewritten = self._rewrite_inner_refs(
                conjunct.expr, sub_block, quantifier
            )
            quantifier.on_conjuncts.append(
                Conjunct(rewritten, _collect_refs(rewritten))
            )
            quantifier.required_predecessors |= {
                ref
                for ref in _collect_refs(rewritten)
                if ref != quantifier.id
            }
        # Refresh output columns (the rewrite may have appended some).
        quantifier.columns = list(sub_block.output_columns())

    def _rewrite_inner_refs(self, expr, sub_block, quantifier):
        """Rewrite ColumnRefs bound to the subquery's own quantifiers into
        references through the derived quantifier's output."""
        local_ids = sub_block.local_ids()

        def rewrite(node):
            if isinstance(node, ast.ColumnRef) and node.bound:
                if node.quantifier_id not in local_ids:
                    return node  # outer reference: leave as is
                index = self._ensure_output(sub_block, node)
                new_ref = ast.ColumnRef(quantifier.alias, node.column_name)
                new_ref.quantifier_id = quantifier.id
                new_ref.column_index = index
                new_ref.type_name = node.type_name
                return new_ref
            node.map_children(rewrite)
            return node

        return rewrite(expr)

    def _ensure_output(self, sub_block, column_ref):
        """Ensure the sub-block outputs ``column_ref``; return its index."""
        for index, (expr, __, __unused) in enumerate(sub_block.select_items):
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.quantifier_id == column_ref.quantifier_id
                and expr.column_index == column_ref.column_index
            ):
                return index
        sub_block.select_items.append(
            (column_ref, column_ref.column_name, column_ref.type_name)
        )
        return len(sub_block.select_items) - 1

    # ------------------------------------------------------------------ #
    # recursive CTEs
    # ------------------------------------------------------------------ #

    def _bind_recursive_cte(self, cte):
        base_block = self.bind_select(cte.base_select)
        if len(base_block.select_items) != len(cte.column_names):
            raise SqlTypeError(
                "recursive CTE %r declares %d columns but base select has %d"
                % (cte.name, len(cte.column_names), len(base_block.select_items))
            )
        columns = [
            (name, type_name)
            for name, (__, __unused, type_name) in zip(
                cte.column_names, base_block.select_items
            )
        ]
        bound = BoundRecursiveCTE(
            cte.name, cte.column_names, base_block, cte.recursive_select
        )
        bound.column_types = [type_name for __, type_name in columns]
        self._cte_frames.append((cte.name, columns))
        return bound

    def bind_recursive_arm(self, bound_cte):
        """Bind the recursive arm with the CTE registered as a reference.

        Called by the executor once per recursion setup (the arm re-reads
        the working table each iteration at runtime).
        """
        columns = [
            (name, type_name)
            for name, type_name in zip(
                bound_cte.column_names, bound_cte.column_types
            )
        ]
        self._cte_frames.append((bound_cte.name, columns))
        try:
            arm = copy.deepcopy(bound_cte.recursive_select_template)
            return self.bind_select(arm)
        finally:
            self._cte_frames.pop()

    # ------------------------------------------------------------------ #
    # output (select list, grouping, order by)
    # ------------------------------------------------------------------ #

    def _bind_output(self, select, block, scope):
        # Expand stars first.
        items = []
        for expr, alias in select.select_items:
            if isinstance(expr, ast.Star):
                items.extend(self._expand_star(expr, scope))
            else:
                items.append((expr, alias))
        bound_items = []
        for expr, alias in items:
            bound = self._bind_expr(expr, scope, block)
            name = alias if alias is not None else _display_name(expr)
            bound_items.append((bound, name, _infer_type(bound)))

        group_keys = [
            self._bind_expr(expr, scope, block) for expr in select.group_by
        ]
        having = (
            self._bind_expr(select.having, scope, block)
            if select.having is not None
            else None
        )
        order_by = [
            (self._bind_expr(expr, scope, block), ascending)
            for expr, ascending in select.order_by
        ]

        aggregates = []
        for bound, __, __unused in bound_items:
            _collect_aggregates(bound, aggregates)
        if having is not None:
            _collect_aggregates(having, aggregates)
        for bound, __ in order_by:
            _collect_aggregates(bound, aggregates)

        if group_keys or aggregates:
            key_meta = [
                (expr, _display_name_bound(expr), _infer_type(expr))
                for expr in group_keys
            ]
            block.group_keys = key_meta
            block.aggregates = aggregates
            rewriter = _GroupRewriter(key_meta, aggregates)
            block.select_items = [
                (rewriter.rewrite(expr), name, type_name)
                for expr, name, type_name in bound_items
            ]
            if having is not None:
                for conjunct in _split_and_bound(rewriter.rewrite(having)):
                    block.having_conjuncts.append(conjunct)
            block.order_by = [
                (rewriter.rewrite(expr), ascending) for expr, ascending in order_by
            ]
        else:
            block.select_items = bound_items
            block.order_by = order_by
            if having is not None:
                raise SqlTypeError("HAVING requires GROUP BY or aggregates")

    def _expand_star(self, star, scope):
        if star.table_alias is not None:
            quantifier = scope.resolve_alias(star.table_alias)
            if quantifier is None:
                raise SqlTypeError("unknown alias %r" % (star.table_alias,))
            quantifiers = [quantifier]
        else:
            quantifiers = scope.local_quantifiers()
            if not quantifiers:
                raise SqlTypeError("SELECT * with no FROM clause")
        items = []
        for quantifier in quantifiers:
            if quantifier.join_type in (Quantifier.SEMI, Quantifier.ANTI):
                continue  # unnested subqueries are invisible to *
            for name, __ in quantifier.columns:
                items.append((ast.ColumnRef(quantifier.alias, name), name))
        return items

    # ------------------------------------------------------------------ #
    # expression binding
    # ------------------------------------------------------------------ #

    def _bind_expr(self, expr, scope, block):
        if isinstance(expr, ast.Literal):
            return expr
        if isinstance(expr, ast.Parameter):
            return expr
        if isinstance(expr, GroupRef):
            return expr
        if isinstance(expr, ast.ColumnRef):
            if expr.bound:
                return expr
            return self._resolve_column(expr, scope)
        if isinstance(expr, ast.BinaryOp):
            expr.left = self._bind_expr(expr.left, scope, block)
            expr.right = self._bind_expr(expr.right, scope, block)
            return expr
        if isinstance(expr, ast.UnaryOp):
            expr.operand = self._bind_expr(expr.operand, scope, block)
            return expr
        if isinstance(expr, ast.IsNull):
            expr.operand = self._bind_expr(expr.operand, scope, block)
            return expr
        if isinstance(expr, ast.Like):
            expr.operand = self._bind_expr(expr.operand, scope, block)
            expr.pattern = self._bind_expr(expr.pattern, scope, block)
            return expr
        if isinstance(expr, ast.Between):
            expr.operand = self._bind_expr(expr.operand, scope, block)
            expr.low = self._bind_expr(expr.low, scope, block)
            expr.high = self._bind_expr(expr.high, scope, block)
            return expr
        if isinstance(expr, ast.InList):
            expr.operand = self._bind_expr(expr.operand, scope, block)
            expr.items = [self._bind_expr(item, scope, block) for item in expr.items]
            return expr
        if isinstance(expr, ast.FunctionCall):
            expr.args = [self._bind_expr(arg, scope, block) for arg in expr.args]
            return expr
        if isinstance(expr, ast.CaseExpr):
            expr.branches = [
                (self._bind_expr(c, scope, block), self._bind_expr(r, scope, block))
                for c, r in expr.branches
            ]
            if expr.default is not None:
                expr.default = self._bind_expr(expr.default, scope, block)
            return expr
        if isinstance(expr, (ast.InSubquery, ast.Exists)):
            raise SqlTypeError(
                "subquery predicates are only supported as top-level "
                "AND-factors of WHERE"
            )
        raise SqlTypeError("cannot bind expression %r" % (type(expr).__name__,))

    def _resolve_column(self, ref, scope):
        if ref.table_alias is not None:
            quantifier = scope.resolve_alias(ref.table_alias)
            if quantifier is None:
                raise SqlTypeError("unknown table alias %r" % (ref.table_alias,))
        else:
            quantifier = scope.resolve_column(ref.column_name)
            if quantifier is None:
                for params in reversed(self._procedure_params):
                    if ref.column_name in params:
                        return ast.Parameter(name=ref.column_name)
                raise SqlTypeError("unknown column %r" % (ref.column_name,))
        index = quantifier.column_index(ref.column_name)
        if index is None:
            raise SqlTypeError(
                "no column %r in %r" % (ref.column_name, quantifier.alias)
            )
        ref.quantifier_id = quantifier.id
        ref.column_index = index
        ref.type_name = quantifier.column_type(index)
        ref.quantifier_obj = quantifier
        return ref


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #

def _split_and(expr):
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _split_and_bound(expr):
    return _split_and(expr)


def _can_be_null(expr, block):
    """False only for a column of one of ``block``'s inner-joined base
    tables that is declared NOT NULL."""
    if not (isinstance(expr, ast.ColumnRef) and expr.bound):
        return True
    try:
        quantifier = block.quantifier(expr.quantifier_id)
    except KeyError:
        return True
    return (
        quantifier.kind != Quantifier.BASE
        or quantifier.join_type != Quantifier.INNER
        or quantifier.schema.columns[expr.column_index].nullable
    )


def _collect_refs(expr, refs=None):
    """Set of quantifier ids referenced by a bound expression."""
    if refs is None:
        refs = set()
    if isinstance(expr, ast.ColumnRef) and expr.bound:
        refs.add(expr.quantifier_id)
    for child in expr.children():
        _collect_refs(child, refs)
    return refs


def _collect_aggregates(expr, out):
    if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
        out.append(expr)
        return
    for child in expr.children():
        _collect_aggregates(child, out)


#: Modules whose objects make up a parse tree and its bound form; an
#: object of any other class (a table schema, a procedure) is referenced,
#: not owned, and is fingerprinted by identity.
_BOUND_MODULES = frozenset((ast.__name__, __name__, column_predicate.__module__))


def bound_fingerprint(value):
    """A structural snapshot of a parse tree or bound form: every
    attribute of every node reachable from ``value``, in a fixed walk
    order, with referenced schema objects by identity.  Two snapshots of
    one form are equal unless something wrote into it in between."""
    seen = {}

    def walk(item):
        if item is None or isinstance(item, (str, int, float)):
            return item
        if isinstance(item, (list, tuple)):
            return (type(item).__name__,) + tuple(walk(v) for v in item)
        if isinstance(item, (set, frozenset)):
            return ("set", frozenset(walk(v) for v in item))
        if isinstance(item, dict):
            return ("dict",) + tuple(
                (walk(k), walk(v)) for k, v in item.items()
            )
        if type(item).__module__ not in _BOUND_MODULES:
            return ("ref", type(item).__name__, id(item))
        if id(item) in seen:
            return ("seen", seen[id(item)])
        seen[id(item)] = len(seen)
        names = (
            sorted(vars(item)) if hasattr(item, "__dict__")
            else type(item).__slots__
        )
        return (type(item).__name__,) + tuple(
            (name, walk(getattr(item, name))) for name in names
        )

    return walk(value)


def expr_signature(expr):
    """A structural signature for bound-expression equality."""
    if isinstance(expr, ast.Literal):
        return ("lit", expr.value)
    if isinstance(expr, ast.ColumnRef):
        return ("col", expr.quantifier_id, expr.column_index)
    if isinstance(expr, GroupRef):
        return ("gref", expr.index)
    if isinstance(expr, ast.BinaryOp):
        return ("bin", expr.op, expr_signature(expr.left), expr_signature(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return ("un", expr.op, expr_signature(expr.operand))
    if isinstance(expr, ast.IsNull):
        return ("isnull", expr.negated, expr_signature(expr.operand))
    if isinstance(expr, ast.Like):
        return (
            "like", expr.negated,
            expr_signature(expr.operand), expr_signature(expr.pattern),
        )
    if isinstance(expr, ast.Between):
        return (
            "between", expr.negated, expr_signature(expr.operand),
            expr_signature(expr.low), expr_signature(expr.high),
        )
    if isinstance(expr, ast.InList):
        return (
            "inlist", expr.negated, expr_signature(expr.operand),
            tuple(expr_signature(item) for item in expr.items),
        )
    if isinstance(expr, ast.FunctionCall):
        return (
            "fn", expr.name, expr.distinct, expr.star,
            tuple(expr_signature(arg) for arg in expr.args),
        )
    if isinstance(expr, ast.CaseExpr):
        return (
            "case",
            tuple(
                (expr_signature(c), expr_signature(r)) for c, r in expr.branches
            ),
            expr_signature(expr.default) if expr.default is not None else None,
        )
    if isinstance(expr, ast.Parameter):
        return ("param", expr.name, expr.ordinal)
    return ("opaque", id(expr))


class _GroupRewriter:
    """Rewrites post-aggregation expressions onto GroupRef indexes."""

    def __init__(self, key_meta, aggregates):
        self._key_index = {
            expr_signature(expr): (index, type_name)
            for index, (expr, __, type_name) in enumerate(key_meta)
        }
        self._n_keys = len(key_meta)
        self._agg_index = {}
        for offset, aggregate in enumerate(aggregates):
            self._agg_index[id(aggregate)] = self._n_keys + offset

    def rewrite(self, expr):
        signature = expr_signature(expr)
        if signature in self._key_index:
            index, type_name = self._key_index[signature]
            return GroupRef(index, type_name, _display_name_bound(expr))
        if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
            return GroupRef(
                self._agg_index[id(expr)], _infer_type(expr), expr.name
            )
        if isinstance(expr, ast.ColumnRef):
            raise SqlTypeError(
                "column %r must appear in GROUP BY or inside an aggregate"
                % (expr.column_name,)
            )
        expr.map_children(self.rewrite)
        return expr


def _display_name(expr):
    if isinstance(expr, ast.ColumnRef):
        return expr.column_name
    if isinstance(expr, ast.FunctionCall):
        return expr.name
    return "expr"


def _display_name_bound(expr):
    return _display_name(expr)


def _infer_type(expr):
    """Lightweight type inference for output metadata."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        if value is None:
            return "VARCHAR"
        if isinstance(value, bool):
            return "BOOLEAN"
        if isinstance(value, int):
            return "INT"
        if isinstance(value, float):
            return "DOUBLE"
        if isinstance(value, str):
            return "VARCHAR"
        return "DATE"
    if isinstance(expr, ast.ColumnRef):
        return expr.type_name if expr.type_name is not None else "VARCHAR"
    if isinstance(expr, GroupRef):
        return expr.type_name
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR", "=", "<>", "<", "<=", ">", ">="):
            return "BOOLEAN"
        if expr.op == "||":
            return "VARCHAR"
        left = _infer_type(expr.left)
        right = _infer_type(expr.right)
        if "DOUBLE" in (left, right) or expr.op == "/":
            return "DOUBLE"
        return "INT"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return "BOOLEAN"
        return _infer_type(expr.operand)
    if isinstance(expr, (ast.IsNull, ast.Like, ast.Between, ast.InList)):
        return "BOOLEAN"
    if isinstance(expr, ast.FunctionCall):
        if expr.name == "COUNT":
            return "INT"
        if expr.name in ("SUM", "AVG"):
            return "DOUBLE"
        if expr.name in ("MIN", "MAX") and expr.args:
            return _infer_type(expr.args[0])
        return "VARCHAR"
    if isinstance(expr, ast.CaseExpr):
        return _infer_type(expr.branches[0][1])
    if isinstance(expr, ast.Parameter):
        return "VARCHAR"
    return "VARCHAR"

