"""Abstract syntax tree for the SQL dialect.

Nodes are small plain classes.  Expression nodes double as the *bound*
representation: the binder annotates :class:`ColumnRef` nodes in place with
their resolved (quantifier id, column index, type) triple.
"""


# --------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------- #

class Expression:
    """Base class for expression nodes.

    Every tree walker goes through :meth:`children` / :meth:`map_children`,
    so a node type states where its sub-expressions live exactly once: in
    ``_child_attrs`` (attributes holding one expression each) and
    ``_child_list_attr`` (an attribute holding a list of them).
    """

    _child_attrs = ()
    _child_list_attr = None

    def children(self):
        """The direct sub-expressions, in source order."""
        found = [getattr(self, attr) for attr in self._child_attrs]
        if self._child_list_attr is not None:
            found.extend(getattr(self, self._child_list_attr))
        return found

    def map_children(self, fn):
        """Replace each direct sub-expression ``c`` with ``fn(c)``, in place."""
        for attr in self._child_attrs:
            setattr(self, attr, fn(getattr(self, attr)))
        if self._child_list_attr is not None:
            setattr(
                self, self._child_list_attr,
                [fn(child) for child in getattr(self, self._child_list_attr)],
            )


class Literal(Expression):
    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Literal(%r)" % (self.value,)


class Parameter(Expression):
    """A host/procedure parameter (``?`` or a named procedure argument)."""

    def __init__(self, name=None, ordinal=None):
        self.name = name
        self.ordinal = ordinal

    def __repr__(self):
        return "Parameter(%r)" % (self.name if self.name is not None else self.ordinal,)


class Slot(Parameter):
    """A number or string literal lifted out of a statement's shape: the
    ``ordinal``-th literal of the text, read from the statement's
    parameters like a ``?``.  ``kind`` ('int', 'float' or 'string') is
    part of the shape; the value is not."""

    def __init__(self, ordinal, kind):
        super().__init__(ordinal=ordinal)
        self.kind = kind

    def __repr__(self):
        return "Slot(%d, %s)" % (self.ordinal, self.kind)


class ColumnRef(Expression):
    def __init__(self, table_alias, column_name):
        self.table_alias = table_alias  # None if unqualified
        self.column_name = column_name
        # Filled by the binder:
        self.quantifier_id = None
        self.column_index = None
        self.type_name = None

    @property
    def bound(self):
        return self.quantifier_id is not None

    def __repr__(self):
        prefix = "%s." % (self.table_alias,) if self.table_alias else ""
        suffix = "@q%d[%d]" % (self.quantifier_id, self.column_index) if self.bound else ""
        return "ColumnRef(%s%s%s)" % (prefix, self.column_name, suffix)


class Star(Expression):
    """``*`` or ``alias.*`` in a select list."""

    def __init__(self, table_alias=None):
        self.table_alias = table_alias

    def __repr__(self):
        return "Star(%r)" % (self.table_alias,)


class BinaryOp(Expression):
    _child_attrs = ("left", "right")

    def __init__(self, op, left, right):
        self.op = op  # '=', '<>', '<', '<=', '>', '>=', '+', '-', '*', '/', 'AND', 'OR', '||'
        self.left = left
        self.right = right

    def __repr__(self):
        return "BinaryOp(%r, %r, %r)" % (self.op, self.left, self.right)


class UnaryOp(Expression):
    _child_attrs = ("operand",)

    def __init__(self, op, operand):
        self.op = op  # 'NOT', '-'
        self.operand = operand

    def __repr__(self):
        return "UnaryOp(%r, %r)" % (self.op, self.operand)


class IsNull(Expression):
    _child_attrs = ("operand",)

    def __init__(self, operand, negated=False):
        self.operand = operand
        self.negated = negated

    def __repr__(self):
        return "IsNull(%r, negated=%r)" % (self.operand, self.negated)


class Like(Expression):
    _child_attrs = ("operand", "pattern")

    def __init__(self, operand, pattern, negated=False):
        self.operand = operand
        self.pattern = pattern  # Expression (usually Literal)
        self.negated = negated

    def __repr__(self):
        return "Like(%r, %r, negated=%r)" % (self.operand, self.pattern, self.negated)


class Between(Expression):
    _child_attrs = ("operand", "low", "high")

    def __init__(self, operand, low, high, negated=False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def __repr__(self):
        return "Between(%r, %r, %r)" % (self.operand, self.low, self.high)


class InList(Expression):
    _child_attrs = ("operand",)
    _child_list_attr = "items"

    def __init__(self, operand, items, negated=False):
        self.operand = operand
        self.items = items
        self.negated = negated

    def __repr__(self):
        return "InList(%r, %d items)" % (self.operand, len(self.items))


class InSubquery(Expression):
    _child_attrs = ("operand",)  # the subquery is a statement

    def __init__(self, operand, subquery, negated=False):
        self.operand = operand
        self.subquery = subquery  # SelectStatement
        self.negated = negated

    def __repr__(self):
        return "InSubquery(%r)" % (self.operand,)


class Exists(Expression):
    def __init__(self, subquery, negated=False):
        self.subquery = subquery
        self.negated = negated

    def __repr__(self):
        return "Exists(negated=%r)" % (self.negated,)


class FunctionCall(Expression):
    AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")
    _child_list_attr = "args"

    def __init__(self, name, args, distinct=False, star=False):
        self.name = name.upper()
        self.args = args
        self.distinct = distinct
        self.star = star  # COUNT(*)

    @property
    def is_aggregate(self):
        return self.name in self.AGGREGATES

    def __repr__(self):
        return "FunctionCall(%s, %d args%s)" % (
            self.name, len(self.args), ", DISTINCT" if self.distinct else ""
        )


class CaseExpr(Expression):
    def __init__(self, branches, default):
        self.branches = branches  # [(condition, result)]
        self.default = default

    def children(self):
        found = [child for branch in self.branches for child in branch]
        if self.default is not None:
            found.append(self.default)
        return found

    def map_children(self, fn):
        self.branches = [(fn(c), fn(r)) for c, r in self.branches]
        if self.default is not None:
            self.default = fn(self.default)

    def __repr__(self):
        return "CaseExpr(%d branches)" % (len(self.branches),)


# --------------------------------------------------------------------- #
# table references
# --------------------------------------------------------------------- #

class TableRef:
    """Base class for FROM items."""


class BaseTable(TableRef):
    def __init__(self, name, alias=None):
        self.name = name
        self.alias = alias if alias is not None else name

    def __repr__(self):
        return "BaseTable(%s AS %s)" % (self.name, self.alias)


class DerivedTable(TableRef):
    def __init__(self, select, alias):
        self.select = select
        self.alias = alias

    def __repr__(self):
        return "DerivedTable(AS %s)" % (self.alias,)


class ProcedureTable(TableRef):
    """A stored procedure used in a FROM clause (Section 3.2)."""

    def __init__(self, name, args, alias=None):
        self.name = name
        self.args = args
        self.alias = alias if alias is not None else name

    def __repr__(self):
        return "ProcedureTable(%s(...) AS %s)" % (self.name, self.alias)


class JoinExpr(TableRef):
    INNER = "INNER"
    LEFT = "LEFT"
    CROSS = "CROSS"

    def __init__(self, left, right, join_type, condition=None):
        self.left = left
        self.right = right
        self.join_type = join_type
        self.condition = condition

    def __repr__(self):
        return "JoinExpr(%s, %r, %r)" % (self.join_type, self.left, self.right)


# --------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------- #

class Statement:
    """Base class for statements."""


class SelectStatement(Statement):
    def __init__(
        self,
        select_items,        # [(Expression, alias_or_None)]
        from_tables,         # [TableRef]; empty for SELECT <exprs>
        where=None,
        group_by=None,       # [Expression]
        having=None,
        order_by=None,       # [(Expression, ascending: bool)]
        limit=None,
        distinct=False,
        with_recursive=None,  # RecursiveCTE
    ):
        self.select_items = select_items
        self.from_tables = from_tables
        self.where = where
        self.group_by = group_by if group_by is not None else []
        self.having = having
        self.order_by = order_by if order_by is not None else []
        self.limit = limit
        self.distinct = distinct
        self.with_recursive = with_recursive

    def __repr__(self):
        return "SelectStatement(%d items, %d from)" % (
            len(self.select_items), len(self.from_tables)
        )


class RecursiveCTE:
    """``WITH RECURSIVE name(columns) AS (base UNION ALL recursive)``."""

    def __init__(self, name, column_names, base_select, recursive_select):
        self.name = name
        self.column_names = tuple(column_names)
        self.base_select = base_select
        self.recursive_select = recursive_select

    def __repr__(self):
        return "RecursiveCTE(%s)" % (self.name,)


class InsertStatement(Statement):
    def __init__(self, table_name, column_names, rows=None, select=None):
        self.table_name = table_name
        self.column_names = column_names  # None means all, in order
        self.rows = rows                  # list of lists of Expression
        self.select = select              # INSERT ... SELECT

    def __repr__(self):
        return "InsertStatement(%s)" % (self.table_name,)


class UpdateStatement(Statement):
    def __init__(self, table_name, assignments, where=None):
        self.table_name = table_name
        self.assignments = assignments  # [(column_name, Expression)]
        self.where = where

    def __repr__(self):
        return "UpdateStatement(%s)" % (self.table_name,)


class DeleteStatement(Statement):
    def __init__(self, table_name, where=None):
        self.table_name = table_name
        self.where = where

    def __repr__(self):
        return "DeleteStatement(%s)" % (self.table_name,)


class ColumnDef:
    def __init__(self, name, type_name, length=None, not_null=False, primary_key=False):
        self.name = name
        self.type_name = type_name
        self.length = length
        self.not_null = not_null
        self.primary_key = primary_key


class ForeignKeyDef:
    def __init__(self, columns, ref_table, ref_columns):
        self.columns = columns
        self.ref_table = ref_table
        self.ref_columns = ref_columns


class CreateTableStatement(Statement):
    def __init__(self, name, columns, primary_key, foreign_keys):
        self.name = name
        self.columns = columns
        self.primary_key = primary_key
        self.foreign_keys = foreign_keys


class CreateIndexStatement(Statement):
    def __init__(self, name, table_name, column_names, unique=False):
        self.name = name
        self.table_name = table_name
        self.column_names = column_names
        self.unique = unique


class DropTableStatement(Statement):
    def __init__(self, name):
        self.name = name


class DropIndexStatement(Statement):
    def __init__(self, name):
        self.name = name


class CreateStatisticsStatement(Statement):
    def __init__(self, table_name, column_names):
        self.table_name = table_name
        self.column_names = column_names


class CalibrateStatement(Statement):
    """``CALIBRATE DATABASE``: rebuild the DTT model from the device."""


class ReorganizeTableStatement(Statement):
    """``REORGANIZE TABLE t [ON index]``: rebuild the table clustered on
    an index's key order (paper Section 6 future work: "automatic
    reclustering and/or reorganization of tables and indexes")."""

    def __init__(self, table_name, index_name=None):
        self.table_name = table_name
        self.index_name = index_name


class CreateProcedureStatement(Statement):
    def __init__(self, name, parameters, body):
        self.name = name
        self.parameters = parameters
        self.body = body  # SelectStatement


class CallStatement(Statement):
    def __init__(self, name, args):
        self.name = name
        self.args = args  # [Expression]


class SetOptionStatement(Statement):
    def __init__(self, name, value):
        self.name = name
        self.value = value


class BeginStatement(Statement):
    pass


class CommitStatement(Statement):
    pass


class RollbackStatement(Statement):
    pass
