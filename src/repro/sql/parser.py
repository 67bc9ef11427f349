"""Recursive-descent parser for the supported SQL subset.

The entry points are :func:`parse_statement` (one statement) and
:func:`parse_script` (a ``;``-separated list).  The grammar covers what
the BullFrog reproduction needs: full CREATE TABLE (with column and
table constraints, and CREATE TABLE AS SELECT), CREATE VIEW / INDEX,
ALTER TABLE, DROP, SELECT with joins / GROUP BY / HAVING / ORDER BY /
LIMIT / subqueries-in-FROM, INSERT (VALUES and SELECT forms, with ON
CONFLICT DO NOTHING), UPDATE, DELETE, and transaction control.
"""

from __future__ import annotations

from decimal import Decimal

from ..errors import ParseError
from ..types import SqlType, parse_type
from . import ast_nodes as ast
from .tokens import Token, TokenType, tokenize


def parse_statement(sql: str) -> ast.Statement:
    """Parse a single SQL statement; trailing ``;`` is allowed."""
    parser = _Parser(tokenize(sql))
    stmt = parser.parse_statement()
    parser.accept_punct(";")
    parser.expect_eof()
    return stmt


def parse_script(sql: str) -> list[ast.Statement]:
    """Parse a ``;``-separated script into a list of statements."""
    parser = _Parser(tokenize(sql))
    statements: list[ast.Statement] = []
    while not parser.at_eof():
        if parser.accept_punct(";"):
            continue
        statements.append(parser.parse_statement())
    return statements


def parse_expression(sql: str) -> ast.Expr:
    """Parse a standalone scalar expression (used for CHECK constraints
    supplied programmatically)."""
    parser = _Parser(tokenize(sql))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class _Parser:
    """Token-stream cursor with the usual expect/accept helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._param_count = 0

    # ------------------------------------------------------------------
    # Cursor helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def at_eof(self) -> bool:
        return self.peek().type is TokenType.EOF

    def expect_eof(self) -> None:
        if not self.at_eof():
            token = self.peek()
            raise ParseError(f"unexpected trailing input {token.value!r}")

    def accept_keyword(self, *keywords: str) -> str | None:
        token = self.peek()
        if token.type is TokenType.KEYWORD and token.value in keywords:
            self.advance()
            return token.value
        return None

    def expect_keyword(self, *keywords: str) -> str:
        value = self.accept_keyword(*keywords)
        if value is None:
            expected = " or ".join(keywords)
            raise ParseError(
                f"expected {expected}, found {self.peek().value!r}"
            )
        return value

    def peek_keyword(self, *keywords: str, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.type is TokenType.KEYWORD and token.value in keywords

    def accept_punct(self, punct: str) -> bool:
        token = self.peek()
        if token.type is TokenType.PUNCT and token.value == punct:
            self.advance()
            return True
        return False

    def expect_punct(self, punct: str) -> None:
        if not self.accept_punct(punct):
            raise ParseError(
                f"expected {punct!r}, found {self.peek().value!r}"
            )

    def accept_operator(self, *ops: str) -> str | None:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value in ops:
            self.advance()
            return token.value
        return None

    def expect_identifier(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.type is TokenType.IDENT:
            self.advance()
            return token.value
        # Allow non-reserved usage of a few keywords as identifiers
        # (e.g. a column named "key" would lex as IDENT already since KEY
        # is a keyword — permit keyword-as-identifier in safe spots).
        if token.type is TokenType.KEYWORD and token.value in _SOFT_KEYWORDS:
            self.advance()
            return token.value.lower()
        raise ParseError(f"expected {what}, found {token.value!r}")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.type is not TokenType.KEYWORD:
            raise ParseError(f"expected a statement, found {token.value!r}")
        keyword = token.value
        if keyword == "SELECT":
            return self.parse_select()
        if keyword == "INSERT":
            return self.parse_insert()
        if keyword == "UPDATE":
            return self.parse_update()
        if keyword == "DELETE":
            return self.parse_delete()
        if keyword == "CREATE":
            return self.parse_create()
        if keyword == "DROP":
            return self.parse_drop()
        if keyword == "ALTER":
            return self.parse_alter()
        if keyword == "EXPLAIN":
            return self.parse_explain()
        if keyword == "BEGIN":
            self.advance()
            self.accept_keyword("TRANSACTION")
            return ast.BeginTransaction()
        if keyword == "COMMIT":
            self.advance()
            self.accept_keyword("TRANSACTION")
            return ast.CommitTransaction()
        if keyword in ("ROLLBACK", "ABORT"):
            self.advance()
            self.accept_keyword("TRANSACTION")
            return ast.RollbackTransaction()
        raise ParseError(f"unsupported statement starting with {keyword}")

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------
    def parse_explain(self) -> ast.Explain:
        self.expect_keyword("EXPLAIN")
        analyze = self.accept_keyword("ANALYZE") is not None
        if not self.peek_keyword("SELECT"):
            raise ParseError(
                "EXPLAIN supports SELECT statements only, found "
                f"{self.peek().value!r}"
            )
        return ast.Explain(self.parse_select(), analyze=analyze)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        elif self.accept_keyword("ALL"):
            pass
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())

        from_items: list[ast.FromItem] = []
        if self.accept_keyword("FROM"):
            from_items.append(self.parse_from_item())
            while self.accept_punct(","):
                from_items.append(self.parse_from_item())

        where = self.parse_expr() if self.accept_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_punct(","):
                group_by.append(self.parse_expr())

        having = self.parse_expr() if self.accept_keyword("HAVING") else None

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_punct(","):
                order_by.append(self.parse_order_item())

        limit = self.parse_expr() if self.accept_keyword("LIMIT") else None
        offset = self.parse_expr() if self.accept_keyword("OFFSET") else None

        for_update = False
        if self.accept_keyword("FOR"):
            self.expect_keyword("UPDATE")
            for_update = True

        return ast.Select(
            items=tuple(items),
            from_items=tuple(from_items),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
            for_update=for_update,
        )

    def parse_select_item(self) -> ast.SelectItem:
        token = self.peek()
        # plain `*`
        if token.type is TokenType.OPERATOR and token.value == "*":
            self.advance()
            return ast.SelectItem(ast.Star())
        # `table.*`
        if (
            token.type is TokenType.IDENT
            and self.peek(1).matches(TokenType.PUNCT, ".")
            and self.peek(2).matches(TokenType.OPERATOR, "*")
        ):
            table = self.advance().value
            self.advance()  # '.'
            self.advance()  # '*'
            return ast.SelectItem(ast.Star(table=table))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr, descending)

    def parse_from_item(self) -> ast.FromItem:
        item = self.parse_from_primary()
        while True:
            kind = self._next_join_kind()
            if kind is None:
                return item
            self._consume_join_keywords()
            right = self.parse_from_primary()
            condition = None
            if kind != "CROSS":
                if self.accept_keyword("ON"):
                    condition = self.parse_expr()
                elif self.accept_keyword("USING"):
                    condition = self._parse_using_condition(item, right)
                else:
                    raise ParseError("JOIN requires an ON or USING clause")
            item = ast.Join(kind, item, right, condition)

    def _next_join_kind(self) -> str | None:
        if self.peek_keyword("JOIN"):
            return "INNER"
        if self.peek_keyword("INNER") and self.peek_keyword("JOIN", offset=1):
            return "INNER"
        if self.peek_keyword("CROSS") and self.peek_keyword("JOIN", offset=1):
            return "CROSS"
        if self.peek_keyword("LEFT"):
            return "LEFT"
        if self.peek_keyword("RIGHT"):
            return "RIGHT"
        return None

    def _consume_join_keywords(self) -> None:
        if self.accept_keyword("JOIN"):
            return
        self.expect_keyword("INNER", "CROSS", "LEFT", "RIGHT")
        self.accept_keyword("OUTER")
        self.expect_keyword("JOIN")

    def _parse_using_condition(
        self, left: ast.FromItem, right: ast.FromItem
    ) -> ast.Expr:
        self.expect_punct("(")
        columns = [self.expect_identifier("column")]
        while self.accept_punct(","):
            columns.append(self.expect_identifier("column"))
        self.expect_punct(")")
        left_name = _from_item_binding(left)
        right_name = _from_item_binding(right)
        if left_name is None or right_name is None:
            raise ParseError("USING requires simple table references")
        condition: ast.Expr | None = None
        for column in columns:
            clause = ast.BinaryOp(
                "=",
                ast.ColumnRef(column, left_name),
                ast.ColumnRef(column, right_name),
            )
            condition = clause if condition is None else ast.BinaryOp("AND", condition, clause)
        assert condition is not None
        return condition

    def parse_from_primary(self) -> ast.FromItem:
        if self.accept_punct("("):
            if self.peek_keyword("SELECT"):
                query = self.parse_select()
                self.expect_punct(")")
                self.accept_keyword("AS")
                alias = self.expect_identifier("subquery alias")
                return ast.SubquerySource(query, alias)
            item = self.parse_from_item()
            self.expect_punct(")")
            return item
        name = self.expect_identifier("table name")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return ast.TableRef(name, alias)

    # ------------------------------------------------------------------
    # INSERT / UPDATE / DELETE
    # ------------------------------------------------------------------
    def parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier("table name")
        columns: list[str] = []
        if self.accept_punct("("):
            columns.append(self.expect_identifier("column"))
            while self.accept_punct(","):
                columns.append(self.expect_identifier("column"))
            self.expect_punct(")")
        rows: list[tuple[ast.Expr, ...]] = []
        query: ast.Select | None = None
        if self.accept_keyword("VALUES"):
            rows.append(self._parse_value_row())
            while self.accept_punct(","):
                rows.append(self._parse_value_row())
        elif self.peek_keyword("SELECT"):
            query = self.parse_select()
        elif self.accept_punct("("):
            # parenthesized SELECT: INSERT INTO t (...) (SELECT ...)
            query = self.parse_select()
            self.expect_punct(")")
        else:
            raise ParseError("INSERT requires VALUES or SELECT")
        on_conflict = False
        if self.accept_keyword("ON"):
            self.expect_keyword("CONFLICT")
            self.expect_keyword("DO")
            self.expect_keyword("NOTHING")
            on_conflict = True
        return ast.Insert(
            table=table,
            columns=tuple(columns),
            rows=tuple(rows),
            query=query,
            on_conflict_do_nothing=on_conflict,
        )

    def _parse_value_row(self) -> tuple[ast.Expr, ...]:
        self.expect_punct("(")
        values = [self.parse_expr()]
        while self.accept_punct(","):
            values.append(self.parse_expr())
        self.expect_punct(")")
        return tuple(values)

    def parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier("table name")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.peek().type is TokenType.IDENT and not self.peek_keyword("SET"):
            alias = self.advance().value
        self.expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self.accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.Update(table, tuple(assignments), where, alias)

    def _parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self.expect_identifier("column")
        if self.accept_operator("=") is None:
            raise ParseError("expected '=' in SET clause")
        return column, self.parse_expr()

    def parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier("table name")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.Delete(table, where, alias)

    # ------------------------------------------------------------------
    # CREATE / DROP / ALTER
    # ------------------------------------------------------------------
    def parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self._parse_create_table()
        if self.accept_keyword("VIEW"):
            return self._parse_create_view(or_replace=False)
        if self.accept_keyword("UNIQUE"):
            self.expect_keyword("INDEX")
            return self._parse_create_index(unique=True)
        if self.accept_keyword("INDEX"):
            return self._parse_create_index(unique=False)
        raise ParseError("expected TABLE, VIEW, or INDEX after CREATE")

    def _parse_if_not_exists(self) -> bool:
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            return True
        return False

    def _parse_create_table(self) -> ast.CreateTable:
        if_not_exists = self._parse_if_not_exists()
        name = self.expect_identifier("table name")
        if self.accept_keyword("AS"):
            wrapped = self.accept_punct("(")
            query = self.parse_select()
            if wrapped:
                self.expect_punct(")")
            return ast.CreateTable(name, as_select=query, if_not_exists=if_not_exists)
        self.expect_punct("(")
        columns: list[ast.ColumnDef] = []
        constraints: list[ast.TableConstraint] = []
        while True:
            if self.peek_keyword("PRIMARY", "UNIQUE", "CHECK", "FOREIGN", "CONSTRAINT"):
                constraints.append(self._parse_table_constraint())
            else:
                columns.append(self._parse_column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return ast.CreateTable(
            name,
            columns=tuple(columns),
            constraints=tuple(constraints),
            if_not_exists=if_not_exists,
        )

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier("column name")
        sql_type = self._parse_type()
        not_null = False
        primary_key = False
        unique = False
        default: ast.Expr | None = None
        check: ast.Expr | None = None
        references: tuple[str, tuple[str, ...]] | None = None
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                not_null = True
            elif self.accept_keyword("NULL"):
                pass
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
            elif self.accept_keyword("UNIQUE"):
                unique = True
            elif self.accept_keyword("DEFAULT"):
                default = self.parse_primary()
            elif self.accept_keyword("CHECK"):
                self.expect_punct("(")
                check = self.parse_expr()
                self.expect_punct(")")
            elif self.accept_keyword("REFERENCES"):
                ref_table = self.expect_identifier("table name")
                ref_cols: tuple[str, ...] = ()
                if self.accept_punct("("):
                    cols = [self.expect_identifier("column")]
                    while self.accept_punct(","):
                        cols.append(self.expect_identifier("column"))
                    self.expect_punct(")")
                    ref_cols = tuple(cols)
                references = (ref_table, ref_cols)
            else:
                break
        return ast.ColumnDef(
            name=name,
            type=sql_type,
            not_null=not_null,
            primary_key=primary_key,
            unique=unique,
            default=default,
            check=check,
            references=references,
        )

    def _parse_table_constraint(self) -> ast.TableConstraint:
        constraint_name = None
        if self.accept_keyword("CONSTRAINT"):
            constraint_name = self.expect_identifier("constraint name")
        if self.accept_keyword("PRIMARY"):
            self.expect_keyword("KEY")
            return ast.TableConstraint(
                "PRIMARY KEY", constraint_name, self._parse_column_list()
            )
        if self.accept_keyword("UNIQUE"):
            return ast.TableConstraint(
                "UNIQUE", constraint_name, self._parse_column_list()
            )
        if self.accept_keyword("CHECK"):
            self.expect_punct("(")
            expr = self.parse_expr()
            self.expect_punct(")")
            return ast.TableConstraint("CHECK", constraint_name, expr=expr)
        if self.accept_keyword("FOREIGN"):
            self.expect_keyword("KEY")
            columns = self._parse_column_list()
            self.expect_keyword("REFERENCES")
            ref_table = self.expect_identifier("table name")
            ref_columns: tuple[str, ...] = ()
            if self.peek().matches(TokenType.PUNCT, "("):
                ref_columns = self._parse_column_list()
            return ast.TableConstraint(
                "FOREIGN KEY",
                constraint_name,
                columns,
                ref_table=ref_table,
                ref_columns=ref_columns,
            )
        raise ParseError(f"unsupported table constraint near {self.peek().value!r}")

    def _parse_column_list(self) -> tuple[str, ...]:
        self.expect_punct("(")
        columns = [self.expect_identifier("column")]
        while self.accept_punct(","):
            columns.append(self.expect_identifier("column"))
        self.expect_punct(")")
        return tuple(columns)

    def _parse_type(self) -> SqlType:
        token = self.peek()
        if token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise ParseError(f"expected a type name, found {token.value!r}")
        self.advance()
        name = token.value
        # "DOUBLE PRECISION" is two words.
        if name.upper() == "DOUBLE" and self.peek().type is TokenType.IDENT and self.peek().value == "precision":
            self.advance()
            name = "DOUBLE PRECISION"
        args: list[int] = []
        if self.accept_punct("("):
            while True:
                number = self.peek()
                if number.type is not TokenType.NUMBER:
                    raise ParseError("expected a number in type arguments")
                self.advance()
                args.append(int(number.value))
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
        return parse_type(name, tuple(args))

    def _parse_create_view(self, or_replace: bool) -> ast.CreateView:
        name = self.expect_identifier("view name")
        self.expect_keyword("AS")
        wrapped = self.accept_punct("(")
        query = self.parse_select()
        if wrapped:
            self.expect_punct(")")
        return ast.CreateView(name, query, or_replace)

    def _parse_create_index(self, unique: bool) -> ast.CreateIndex:
        name = self.expect_identifier("index name")
        self.expect_keyword("ON")
        table = self.expect_identifier("table name")
        columns = self._parse_column_list()
        return ast.CreateIndex(name, table, columns, unique)

    def parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        kind = self.expect_keyword("TABLE", "VIEW", "INDEX")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        name = self.expect_identifier("object name")
        if kind == "TABLE":
            return ast.DropTable(name, if_exists)
        if kind == "VIEW":
            return ast.DropView(name, if_exists)
        return ast.DropIndex(name, if_exists)

    def parse_alter(self) -> ast.AlterTable:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        name = self.expect_identifier("table name")
        if self.accept_keyword("ADD"):
            if self.peek_keyword("CONSTRAINT", "PRIMARY", "UNIQUE", "CHECK", "FOREIGN"):
                constraint = self._parse_table_constraint()
                return ast.AlterTable(name, ("ADD CONSTRAINT", constraint))
            self.accept_keyword("COLUMN")
            column = self._parse_column_def()
            return ast.AlterTable(name, ("ADD COLUMN", column))
        if self.accept_keyword("DROP"):
            if self.accept_keyword("CONSTRAINT"):
                cname = self.expect_identifier("constraint name")
                return ast.AlterTable(name, ("DROP CONSTRAINT", cname))
            self.accept_keyword("COLUMN")
            column_name = self.expect_identifier("column name")
            return ast.AlterTable(name, ("DROP COLUMN", column_name))
        if self.accept_keyword("RENAME"):
            if self.accept_keyword("TO"):
                new_name = self.expect_identifier("table name")
                return ast.AlterTable(name, ("RENAME TO", new_name))
            self.accept_keyword("COLUMN")
            old = self.expect_identifier("column name")
            self.expect_keyword("TO")
            new = self.expect_identifier("column name")
            return ast.AlterTable(name, ("RENAME COLUMN", old, new))
        raise ParseError("unsupported ALTER TABLE action")

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            right = self.parse_and()
            left = ast.BinaryOp("OR", left, right)
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            right = self.parse_not()
            left = ast.BinaryOp("AND", left, right)
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        # IS [NOT] NULL
        if self.accept_keyword("IS"):
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = False
        if self.peek_keyword("NOT") and self.peek_keyword("BETWEEN", "IN", "LIKE", offset=1):
            self.advance()
            negated = True
        if self.accept_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return ast.Between(left, low, high, negated)
        if self.accept_keyword("IN"):
            self.expect_punct("(")
            items = [self.parse_expr()]
            while self.accept_punct(","):
                items.append(self.parse_expr())
            self.expect_punct(")")
            return ast.InList(left, tuple(items), negated)
        if self.accept_keyword("LIKE"):
            pattern = self.parse_additive()
            expr: ast.Expr = ast.BinaryOp("LIKE", left, pattern)
            if negated:
                expr = ast.UnaryOp("NOT", expr)
            return expr
        op = self.accept_operator("=", "<>", "!=", "<", ">", "<=", ">=")
        if op is not None:
            if op == "!=":
                op = "<>"
            right = self.parse_additive()
            return ast.BinaryOp(op, left, right)
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while True:
            op = self.accept_operator("+", "-", "||")
            if op is None:
                return left
            right = self.parse_multiplicative()
            left = ast.BinaryOp(op, left, right)

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while True:
            op = self.accept_operator("*", "/", "%")
            if op is None:
                return left
            right = self.parse_unary()
            left = ast.BinaryOp(op, left, right)

    def parse_unary(self) -> ast.Expr:
        if self.accept_operator("-"):
            return ast.UnaryOp("-", self.parse_unary())
        if self.accept_operator("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            return ast.Literal(_parse_number(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PARAM:
            self.advance()
            param = ast.Param(self._param_count)
            self._param_count += 1
            return param
        if token.type is TokenType.KEYWORD:
            if token.value == "NULL":
                self.advance()
                return ast.Literal(None)
            if token.value == "TRUE":
                self.advance()
                return ast.Literal(True)
            if token.value == "FALSE":
                self.advance()
                return ast.Literal(False)
            if token.value == "CASE":
                return self._parse_case()
            if token.value == "CAST":
                return self._parse_cast()
            if token.value == "EXTRACT":
                return self._parse_extract()
            if token.value in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                return self._parse_function(token.value)
            if token.value == "EXISTS":
                raise ParseError("EXISTS subqueries are not supported")
        if token.type is TokenType.IDENT:
            # function call?
            if self.peek(1).matches(TokenType.PUNCT, "("):
                return self._parse_function(token.value)
            return self._parse_column_ref()
        if token.matches(TokenType.PUNCT, "("):
            self.advance()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {token.value!r} in expression")

    def _parse_column_ref(self) -> ast.Expr:
        first = self.expect_identifier("column")
        if self.accept_punct("."):
            second = self.expect_identifier("column")
            return ast.ColumnRef(second, first)
        return ast.ColumnRef(first)

    def _parse_function(self, name: str) -> ast.Expr:
        self.advance()  # the function name token
        self.expect_punct("(")
        distinct = bool(self.accept_keyword("DISTINCT"))
        args: list[ast.Expr] = []
        if self.peek().matches(TokenType.OPERATOR, "*"):
            self.advance()
            args.append(ast.Star())
        elif not self.peek().matches(TokenType.PUNCT, ")"):
            args.append(self.parse_expr())
            while self.accept_punct(","):
                args.append(self.parse_expr())
        self.expect_punct(")")
        return ast.FunctionCall(name.upper(), tuple(args), distinct)

    def _parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        operand = None
        if not self.peek_keyword("WHEN"):
            operand = self.parse_expr()
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            when = self.parse_expr()
            self.expect_keyword("THEN")
            then = self.parse_expr()
            whens.append((when, then))
        if not whens:
            raise ParseError("CASE requires at least one WHEN clause")
        default = self.parse_expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        return ast.CaseExpr(operand, tuple(whens), default)

    def _parse_cast(self) -> ast.Expr:
        self.expect_keyword("CAST")
        self.expect_punct("(")
        operand = self.parse_expr()
        self.expect_keyword("AS")
        target = self._parse_type()
        self.expect_punct(")")
        return ast.Cast(operand, target)

    def _parse_extract(self) -> ast.Expr:
        self.expect_keyword("EXTRACT")
        self.expect_punct("(")
        field_token = self.peek()
        if field_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise ParseError("expected a field name in EXTRACT")
        self.advance()
        self.expect_keyword("FROM")
        operand = self.parse_expr()
        self.expect_punct(")")
        return ast.Extract(field_token.value.upper(), operand)


# Keywords that may safely double as identifiers (column names etc.).
_SOFT_KEYWORDS = frozenset({"KEY", "SET", "VALUES", "COLUMN", "LIMIT", "OFFSET", "COUNT", "SUM", "MIN", "MAX", "AVG", "DO", "ALL", "END"})


def _parse_number(text: str):
    if "." in text or "e" in text or "E" in text:
        return Decimal(text)
    return int(text)


def _from_item_binding(item: ast.FromItem) -> str | None:
    if isinstance(item, ast.TableRef):
        return item.binding
    if isinstance(item, ast.SubquerySource):
        return item.alias
    return None
