"""Recursive-descent SQL parser."""

from repro.common.errors import SqlParseError
from repro.sql import ast
from repro.sql.lexer import parse_date_literal, tokenize

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_AGG_KEYWORDS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


#: The statements whose expression literals can be lifted into slots.
LIFTS = {"SELECT", "INSERT", "UPDATE", "DELETE"}


def parse_statement(text, lift=False):
    """Parse one SQL statement; raises :class:`SqlParseError` on bad input.

    With ``lift``, each number and string literal the expression grammar
    reads becomes an :class:`~repro.sql.ast.Slot`, numbered in text
    order.  Then the result is None unless every literal of the text
    lifted: a SELECT, INSERT, UPDATE or DELETE that reads no literal
    elsewhere (``LIMIT n``, ``DATE '...'``)."""
    parser = _Parser(tokenize(text), lift)
    if lift and not parser.starts_with(LIFTS):
        return None
    statement = parser.statement()
    parser.expect_eof()
    if lift and not parser.lifted_every_literal():
        return None
    return statement


class _Parser:
    def __init__(self, tokens, lift=False):
        self._tokens = tokens
        self._index = 0
        #: How many literals became slots (None: not lifting).
        self._lifted = 0 if lift else None

    def starts_with(self, words):
        first = self._tokens[0]
        return first.kind == "keyword" and first.value in words

    def lifted_every_literal(self):
        return self._lifted == sum(
            1 for token in self._tokens if token.kind in ("number", "string")
        )

    # ------------------------------------------------------------------ #
    # token plumbing
    # ------------------------------------------------------------------ #

    def _peek(self, offset=0):
        # The list ends in EOF and _advance never steps past it, so only
        # a positive look-ahead can run off the end.
        if offset:
            return self._tokens[
                min(self._index + offset, len(self._tokens) - 1)
            ]
        return self._tokens[self._index]

    def _advance(self):
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _accept(self, kind, value=None):
        if self._peek().matches(kind, value):
            return self._advance()
        return None

    def _expect(self, kind, value=None):
        token = self._accept(kind, value)
        if token is None:
            actual = self._peek()
            raise SqlParseError(
                "expected %s%s but found %r"
                % (kind, " %r" % (value,) if value else "", actual.value),
                actual.position,
            )
        return token

    def _accept_keyword(self, *words):
        """Accept a sequence of keywords; all or nothing."""
        for offset, word in enumerate(words):
            if not self._peek(offset).matches("keyword", word):
                return False
        for __ in words:
            self._advance()
        return True

    def expect_eof(self):
        self._accept("op", ";")
        if not self._peek().matches("eof"):
            token = self._peek()
            raise SqlParseError(
                "unexpected trailing input %r" % (token.value,), token.position
            )

    def _ident(self):
        token = self._peek()
        if token.kind == "ident":
            return self._advance().value
        raise SqlParseError("expected identifier, found %r" % (token.value,), token.position)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def statement(self):
        token = self._peek()
        if token.kind != "keyword":
            raise SqlParseError("expected a statement, found %r" % (token.value,), token.position)
        word = token.value
        if word in ("SELECT", "WITH"):
            return self.select_statement()
        if word == "INSERT":
            return self.insert_statement()
        if word == "UPDATE":
            return self.update_statement()
        if word == "DELETE":
            return self.delete_statement()
        if word == "CREATE":
            return self.create_statement()
        if word == "DROP":
            return self.drop_statement()
        if word == "CALIBRATE":
            self._advance()
            self._expect("keyword", "DATABASE")
            return ast.CalibrateStatement()
        if word == "REORGANIZE":
            self._advance()
            self._expect("keyword", "TABLE")
            table = self._ident()
            index = None
            if self._accept_keyword("ON"):
                index = self._ident()
            return ast.ReorganizeTableStatement(table, index)
        if word == "CALL":
            return self.call_statement()
        if word == "SET":
            return self.set_option_statement()
        if word == "BEGIN":
            self._advance()
            return ast.BeginStatement()
        if word == "COMMIT":
            self._advance()
            return ast.CommitStatement()
        if word == "ROLLBACK":
            self._advance()
            return ast.RollbackStatement()
        raise SqlParseError("unsupported statement %r" % (word,), token.position)

    # -- SELECT ------------------------------------------------------------ #

    def select_statement(self):
        with_recursive = None
        if self._accept_keyword("WITH"):
            self._expect("keyword", "RECURSIVE")
            with_recursive = self._recursive_cte()
        select = self._select_body()
        select.with_recursive = with_recursive
        return select

    def _recursive_cte(self):
        name = self._ident()
        self._expect("op", "(")
        columns = [self._ident()]
        while self._accept("op", ","):
            columns.append(self._ident())
        self._expect("op", ")")
        self._expect("keyword", "AS")
        self._expect("op", "(")
        base = self._select_body()
        self._expect("keyword", "UNION")
        self._expect("keyword", "ALL")
        recursive = self._select_body()
        self._expect("op", ")")
        return ast.RecursiveCTE(name, columns, base, recursive)

    def _select_body(self):
        self._expect("keyword", "SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        items = [self._select_item()]
        while self._accept("op", ","):
            items.append(self._select_item())
        from_tables = []
        if self._accept_keyword("FROM"):
            from_tables.append(self._table_ref())
            while self._accept("op", ","):
                from_tables.append(self._table_ref())
        where = self.expression() if self._accept_keyword("WHERE") else None
        group_by = []
        if self._accept_keyword("GROUP", "BY"):
            group_by.append(self.expression())
            while self._accept("op", ","):
                group_by.append(self.expression())
        having = self.expression() if self._accept_keyword("HAVING") else None
        order_by = []
        if self._accept_keyword("ORDER", "BY"):
            order_by.append(self._order_item())
            while self._accept("op", ","):
                order_by.append(self._order_item())
        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._expect("number")
            if not isinstance(token.value, int):
                raise SqlParseError(
                    "LIMIT needs an integer, found %r" % (token.value,),
                    token.position,
                )
            limit = token.value
        return ast.SelectStatement(
            items, from_tables, where, group_by, having, order_by, limit, distinct
        )

    def _select_item(self):
        if self._accept("op", "*"):
            return (ast.Star(), None)
        if (
            self._peek().kind == "ident"
            and self._peek(1).matches("op", ".")
            and self._peek(2).matches("op", "*")
        ):
            alias = self._advance().value
            self._advance()
            self._advance()
            return (ast.Star(alias), None)
        expr = self.expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._ident()
        elif self._peek().kind == "ident":
            alias = self._advance().value
        return (expr, alias)

    def _order_item(self):
        expr = self.expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return (expr, ascending)

    # -- FROM items ---------------------------------------------------------- #

    def _table_ref(self):
        ref = self._primary_table_ref()
        while True:
            if self._accept_keyword("CROSS", "JOIN"):
                right = self._primary_table_ref()
                ref = ast.JoinExpr(ref, right, ast.JoinExpr.CROSS)
                continue
            join_type = None
            if self._accept_keyword("INNER", "JOIN") or self._accept_keyword("JOIN"):
                join_type = ast.JoinExpr.INNER
            elif self._accept_keyword("LEFT", "OUTER", "JOIN") or self._accept_keyword(
                "LEFT", "JOIN"
            ):
                join_type = ast.JoinExpr.LEFT
            if join_type is None:
                return ref
            right = self._primary_table_ref()
            self._expect("keyword", "ON")
            condition = self.expression()
            ref = ast.JoinExpr(ref, right, join_type, condition)

    def _primary_table_ref(self):
        if self._accept("op", "("):
            select = self.select_statement()
            self._expect("op", ")")
            self._accept_keyword("AS")
            alias = self._ident()
            return ast.DerivedTable(select, alias)
        name = self._ident()
        if self._peek().matches("op", "("):
            self._advance()
            args = []
            if not self._peek().matches("op", ")"):
                args.append(self.expression())
                while self._accept("op", ","):
                    args.append(self.expression())
            self._expect("op", ")")
            alias = self._table_alias()
            return ast.ProcedureTable(name, args, alias)
        return ast.BaseTable(name, self._table_alias())

    def _table_alias(self):
        if self._accept_keyword("AS"):
            return self._ident()
        if self._peek().kind == "ident":
            return self._advance().value
        return None

    # -- DML ------------------------------------------------------------------ #

    def insert_statement(self):
        self._expect("keyword", "INSERT")
        self._expect("keyword", "INTO")
        table = self._ident()
        columns = None
        if self._accept("op", "("):
            columns = [self._ident()]
            while self._accept("op", ","):
                columns.append(self._ident())
            self._expect("op", ")")
        if self._accept_keyword("VALUES"):
            rows = [self._value_row()]
            while self._accept("op", ","):
                rows.append(self._value_row())
            return ast.InsertStatement(table, columns, rows=rows)
        select = self.select_statement()
        return ast.InsertStatement(table, columns, select=select)

    def _value_row(self):
        self._expect("op", "(")
        row = [self.expression()]
        while self._accept("op", ","):
            row.append(self.expression())
        self._expect("op", ")")
        return row

    def update_statement(self):
        self._expect("keyword", "UPDATE")
        table = self._ident()
        self._expect("keyword", "SET")
        assignments = [self._assignment()]
        while self._accept("op", ","):
            assignments.append(self._assignment())
        where = self.expression() if self._accept_keyword("WHERE") else None
        return ast.UpdateStatement(table, assignments, where)

    def _assignment(self):
        column = self._ident()
        self._expect("op", "=")
        return (column, self.expression())

    def delete_statement(self):
        self._expect("keyword", "DELETE")
        self._expect("keyword", "FROM")
        table = self._ident()
        where = self.expression() if self._accept_keyword("WHERE") else None
        return ast.DeleteStatement(table, where)

    # -- DDL ------------------------------------------------------------------ #

    def create_statement(self):
        self._expect("keyword", "CREATE")
        if self._accept_keyword("TABLE"):
            return self._create_table()
        unique = bool(self._accept_keyword("UNIQUE"))
        if self._accept_keyword("INDEX"):
            return self._create_index(unique)
        if unique:
            raise SqlParseError("expected INDEX after UNIQUE", self._peek().position)
        if self._accept_keyword("STATISTICS"):
            table = self._ident()
            self._expect("op", "(")
            columns = [self._ident()]
            while self._accept("op", ","):
                columns.append(self._ident())
            self._expect("op", ")")
            return ast.CreateStatisticsStatement(table, columns)
        if self._accept_keyword("PROCEDURE"):
            return self._create_procedure()
        token = self._peek()
        raise SqlParseError("unsupported CREATE %r" % (token.value,), token.position)

    def _create_table(self):
        name = self._ident()
        self._expect("op", "(")
        columns = []
        primary_key = []
        foreign_keys = []
        while True:
            if self._accept_keyword("PRIMARY", "KEY"):
                self._expect("op", "(")
                primary_key = [self._ident()]
                while self._accept("op", ","):
                    primary_key.append(self._ident())
                self._expect("op", ")")
            elif self._accept_keyword("FOREIGN", "KEY"):
                self._expect("op", "(")
                fk_columns = [self._ident()]
                while self._accept("op", ","):
                    fk_columns.append(self._ident())
                self._expect("op", ")")
                self._expect("keyword", "REFERENCES")
                ref_table = self._ident()
                self._expect("op", "(")
                ref_columns = [self._ident()]
                while self._accept("op", ","):
                    ref_columns.append(self._ident())
                self._expect("op", ")")
                foreign_keys.append(ast.ForeignKeyDef(fk_columns, ref_table, ref_columns))
            else:
                columns.append(self._column_def())
            if not self._accept("op", ","):
                break
        self._expect("op", ")")
        inline_pk = [column.name for column in columns if column.primary_key]
        if inline_pk and not primary_key:
            primary_key = inline_pk
        return ast.CreateTableStatement(name, columns, primary_key, foreign_keys)

    def _column_def(self):
        name = self._ident()
        token = self._peek()
        if token.kind == "ident" or (token.kind == "keyword" and token.value == "DATE"):
            type_name = self._advance().value
        else:
            raise SqlParseError("expected a type name", token.position)
        # Two-word types like LONG VARCHAR.
        if type_name.upper() == "LONG" and self._peek().kind == "ident":
            type_name = "LONG " + self._advance().value
        length = None
        if self._accept("op", "("):
            length = self._expect("number").value
            self._expect("op", ")")
        not_null = False
        primary_key = False
        while True:
            if self._accept_keyword("NOT"):
                self._expect("keyword", "NULL")
                not_null = True
            elif self._accept_keyword("PRIMARY", "KEY"):
                primary_key = True
                not_null = True
            else:
                break
        return ast.ColumnDef(name, type_name, length, not_null, primary_key)

    def _create_index(self, unique):
        name = self._ident()
        self._expect("keyword", "ON")
        table = self._ident()
        self._expect("op", "(")
        columns = [self._ident()]
        while self._accept("op", ","):
            columns.append(self._ident())
        self._expect("op", ")")
        return ast.CreateIndexStatement(name, table, columns, unique)

    def _create_procedure(self):
        name = self._ident()
        parameters = []
        if self._accept("op", "("):
            if not self._peek().matches("op", ")"):
                parameters.append(self._ident())
                while self._accept("op", ","):
                    parameters.append(self._ident())
            self._expect("op", ")")
        self._expect("keyword", "AS")
        body = self.select_statement()
        return ast.CreateProcedureStatement(name, parameters, body)

    def drop_statement(self):
        self._expect("keyword", "DROP")
        if self._accept_keyword("TABLE"):
            return ast.DropTableStatement(self._ident())
        if self._accept_keyword("INDEX"):
            return ast.DropIndexStatement(self._ident())
        token = self._peek()
        raise SqlParseError("unsupported DROP %r" % (token.value,), token.position)

    def call_statement(self):
        self._expect("keyword", "CALL")
        name = self._ident()
        args = []
        if self._accept("op", "("):
            if not self._peek().matches("op", ")"):
                args.append(self.expression())
                while self._accept("op", ","):
                    args.append(self.expression())
            self._expect("op", ")")
        return ast.CallStatement(name, args)

    def set_option_statement(self):
        self._expect("keyword", "SET")
        self._expect("keyword", "OPTION")
        name = self._ident()
        self._expect("op", "=")
        value = self.expression()
        if not isinstance(value, ast.Literal):
            raise SqlParseError("SET OPTION value must be a literal", self._peek().position)
        return ast.SetOptionStatement(name, value.value)

    # ------------------------------------------------------------------ #
    # expressions (precedence climbing)
    # ------------------------------------------------------------------ #

    def expression(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self):
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._predicate()

    def _predicate(self):
        if self._peek().matches("keyword", "EXISTS"):
            self._advance()
            self._expect("op", "(")
            subquery = self.select_statement()
            self._expect("op", ")")
            return ast.Exists(subquery)
        left = self._additive()
        token = self._peek()
        if token.kind == "op" and token.value in _COMPARISONS:
            op = self._advance().value
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._additive())
        if self._accept_keyword("IS"):
            negated = bool(self._accept_keyword("NOT"))
            self._expect("keyword", "NULL")
            return ast.IsNull(left, negated)
        negated = bool(self._accept_keyword("NOT"))
        if self._accept_keyword("LIKE"):
            return ast.Like(left, self._additive(), negated)
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect("keyword", "AND")
            high = self._additive()
            return ast.Between(left, low, high, negated)
        if self._accept_keyword("IN"):
            self._expect("op", "(")
            if self._peek().matches("keyword", "SELECT") or self._peek().matches(
                "keyword", "WITH"
            ):
                subquery = self.select_statement()
                self._expect("op", ")")
                return ast.InSubquery(left, subquery, negated)
            items = [self.expression()]
            while self._accept("op", ","):
                items.append(self.expression())
            self._expect("op", ")")
            return ast.InList(left, items, negated)
        if negated:
            raise SqlParseError(
                "expected LIKE, BETWEEN, or IN after NOT", self._peek().position
            )
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-", "||"):
                op = self._advance().value
                left = ast.BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/"):
                op = self._advance().value
                left = ast.BinaryOp(op, left, self._unary())
            else:
                return left

    def _unary(self):
        if self._accept("op", "-"):
            return ast.UnaryOp("-", self._unary())
        if self._accept("op", "+"):
            return self._unary()
        return self._primary()

    def _primary(self):
        token = self._peek()
        if token.kind in ("number", "string"):
            self._advance()
            if self._lifted is None:
                return ast.Literal(token.value)
            self._lifted += 1
            return ast.Slot(self._lifted - 1, (
                "string" if token.kind == "string"
                else "int" if isinstance(token.value, int) else "float"
            ))
        if token.matches("keyword", "NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches("keyword", "TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches("keyword", "FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.matches("keyword", "DATE"):
            self._advance()
            text = self._expect("string").value
            return ast.Literal(parse_date_literal(text))
        if token.matches("keyword", "CASE"):
            return self._case_expr()
        if token.kind == "keyword" and token.value in _AGG_KEYWORDS:
            return self._function_call(self._advance().value)
        if token.matches("op", "?"):
            self._advance()
            return ast.Parameter(ordinal=self._count_parameters())
        if token.matches("op", "("):
            self._advance()
            if self._peek().matches("keyword", "SELECT") or self._peek().matches(
                "keyword", "WITH"
            ):
                raise SqlParseError(
                    "scalar subqueries are not supported; use IN/EXISTS",
                    token.position,
                )
            expr = self.expression()
            self._expect("op", ")")
            return expr
        if token.kind == "ident":
            name = self._advance().value
            if self._peek().matches("op", "("):
                return self._function_call(name)
            if self._accept("op", "."):
                column = self._ident()
                return ast.ColumnRef(name, column)
            return ast.ColumnRef(None, name)
        raise SqlParseError("unexpected token %r" % (token.value,), token.position)

    def _case_expr(self):
        self._expect("keyword", "CASE")
        branches = []
        while self._accept_keyword("WHEN"):
            condition = self.expression()
            self._expect("keyword", "THEN")
            branches.append((condition, self.expression()))
        default = self.expression() if self._accept_keyword("ELSE") else None
        self._expect("keyword", "END")
        if not branches:
            raise SqlParseError("CASE needs at least one WHEN", self._peek().position)
        return ast.CaseExpr(branches, default)

    def _function_call(self, name):
        self._expect("op", "(")
        if self._accept("op", "*"):
            self._expect("op", ")")
            return ast.FunctionCall(name, [], star=True)
        distinct = bool(self._accept_keyword("DISTINCT"))
        args = []
        if not self._peek().matches("op", ")"):
            args.append(self.expression())
            while self._accept("op", ","):
                args.append(self.expression())
        self._expect("op", ")")
        return ast.FunctionCall(name, args, distinct=distinct)

    def _count_parameters(self):
        count = 0
        for token in self._tokens[: self._index]:
            if token.matches("op", "?"):
                count += 1
        return count - 1
