"""Recursive-descent parser for GVDL.

Grammar (informal)::

    program    := statement (';' statement)* ';'?
    statement  := 'create' 'view' 'collection' name 'on' name collection
                | 'create' 'view' name 'on' name body
    collection := '[' name ':' predicate ']' (',' '[' name ':' predicate ']')*
    body       := 'edges' 'where' predicate                     -- filtered view
                | 'nodes' 'group' 'by' groupby aggs?
                  ('edges' 'aggregate' agglist)?                -- aggregate view
    groupby    := ident (',' ident)*                            -- by properties
                | '[' '(' predicate ')' (',' '(' predicate ')')* ']'
    aggs       := 'aggregate' agglist
    agglist    := agg (',' agg)*
    agg        := (name ':')? func '(' ('*' | ident) ')'
    predicate  := or-expr with 'and'/'or'/'not', comparisons, parentheses
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import GvdlSyntaxError
from repro.gvdl.ast import (
    AggregateViewStmt,
    AggSpec,
    And,
    BoolLiteral,
    Comparison,
    FilteredViewStmt,
    GroupByPredicates,
    GroupByProperties,
    Literal,
    Not,
    Or,
    Predicate,
    PropRef,
    Statement,
    ViewCollectionStmt,
)
from repro.gvdl.lexer import tokenize
from repro.gvdl.tokens import Token, TokenType

_COMPARE_OPS = {"=", "!=", "<>", "<=", ">=", "<", ">"}
_AGG_FUNCS = {"count", "sum", "min", "max", "avg"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> GvdlSyntaxError:
        return GvdlSyntaxError(message, self.peek().position, self.text)

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if not token.is_keyword(word):
            raise self.error(f"expected {word!r}, found {token.value!r}")
        return self.advance()

    def expect_symbol(self, symbol: str) -> Token:
        token = self.peek()
        if not token.is_symbol(symbol):
            raise self.error(f"expected {symbol!r}, found {token.value!r}")
        return self.advance()

    def expect_name(self) -> str:
        token = self.peek()
        if token.type is TokenType.IDENT:
            return str(self.advance().value)
        # Allow keywords to double as names where unambiguous (e.g. a view
        # literally called "edges" would be perverse, but property names
        # like "count" appear in the wild).
        if token.type is TokenType.KEYWORD:
            return str(self.advance().value)
        raise self.error(f"expected a name, found {token.value!r}")

    def accept_symbol(self, symbol: str) -> bool:
        if self.peek().is_symbol(symbol):
            self.advance()
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    # -- statements ------------------------------------------------------------

    def parse_program(self) -> List[Statement]:
        statements: List[Statement] = []
        while self.peek().type is not TokenType.EOF:
            statements.append(self.parse_statement())
            while self.accept_symbol(";"):
                pass
        return statements

    def parse_statement(self) -> Statement:
        self.expect_keyword("create")
        self.expect_keyword("view")
        if self.accept_keyword("collection"):
            return self._parse_collection()
        name = self.expect_name()
        self.expect_keyword("on")
        source = self.expect_name()
        if self.accept_keyword("edges"):
            self.expect_keyword("where")
            predicate = self.parse_predicate()
            return FilteredViewStmt(name, source, predicate)
        if self.accept_keyword("nodes"):
            return self._parse_aggregate(name, source)
        raise self.error("expected 'edges where ...' or 'nodes group by ...'")

    def _parse_collection(self) -> ViewCollectionStmt:
        name = self.expect_name()
        self.expect_keyword("on")
        source = self.expect_name()
        views: List[Tuple[str, Predicate]] = []
        while True:
            self.expect_symbol("[")
            view_name = self.expect_name()
            if any(view_name == seen for seen, _pred in views):
                raise self.error(f"view collection {name!r} declares view "
                                 f"{view_name!r} more than once")
            self.expect_symbol(":")
            predicate = self.parse_predicate()
            self.expect_symbol("]")
            views.append((view_name, predicate))
            if not self.accept_symbol(","):
                break
        if not views:
            raise self.error("view collection must declare at least one view")
        return ViewCollectionStmt(name, source, tuple(views))

    def _parse_aggregate(self, name: str, source: str) -> AggregateViewStmt:
        self.expect_keyword("group")
        self.expect_keyword("by")
        group_by: Union[GroupByProperties, GroupByPredicates]
        if self.accept_symbol("["):
            predicates: List[Predicate] = []
            while True:
                self.expect_symbol("(")
                predicates.append(self.parse_predicate())
                self.expect_symbol(")")
                if not self.accept_symbol(","):
                    break
            self.expect_symbol("]")
            group_by = GroupByPredicates(tuple(predicates))
        else:
            properties = [self.expect_name()]
            while self.accept_symbol(","):
                properties.append(self.expect_name())
            group_by = GroupByProperties(tuple(properties))
        node_aggs: Tuple[AggSpec, ...] = ()
        edge_aggs: Tuple[AggSpec, ...] = ()
        if self.accept_keyword("aggregate"):
            node_aggs = self._parse_agg_list()
        if self.accept_keyword("edges"):
            self.expect_keyword("aggregate")
            edge_aggs = self._parse_agg_list()
        return AggregateViewStmt(name, source, group_by, node_aggs, edge_aggs)

    def _parse_agg_list(self) -> Tuple[AggSpec, ...]:
        aggs = [self._parse_agg()]
        while self.peek().is_symbol(","):
            # Lookahead: a ',' might start the 'edges aggregate' clause? No —
            # that clause starts with the keyword 'edges', so ',' always
            # continues the list.
            self.advance()
            aggs.append(self._parse_agg())
        return tuple(aggs)

    def _parse_agg(self) -> AggSpec:
        token = self.peek()
        name: Optional[str] = None
        if token.type is TokenType.IDENT:
            # "name: func(...)"
            name = str(self.advance().value)
            self.expect_symbol(":")
            token = self.peek()
        if token.type is not TokenType.KEYWORD or token.value not in _AGG_FUNCS:
            raise self.error(
                f"expected an aggregate function, found {token.value!r}")
        func = str(self.advance().value)
        self.expect_symbol("(")
        if self.accept_symbol("*"):
            arg = "*"
        else:
            arg = self.expect_name()
        self.expect_symbol(")")
        if func != "count" and arg == "*":
            raise self.error(f"{func}(*) is not allowed; name a property")
        return AggSpec(name, func, arg)

    # -- predicates ---------------------------------------------------------------

    def parse_predicate(self) -> Predicate:
        return self._parse_or()

    def _parse_or(self) -> Predicate:
        operands = [self._parse_and()]
        while self.accept_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def _parse_and(self) -> Predicate:
        operands = [self._parse_not()]
        while self.accept_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def _parse_not(self) -> Predicate:
        if self.accept_keyword("not"):
            return Not(self._parse_not())
        return self._parse_atom()

    def _parse_atom(self) -> Predicate:
        token = self.peek()
        if token.is_keyword("true"):
            self.advance()
            return BoolLiteral(True)
        if token.is_keyword("false"):
            self.advance()
            return BoolLiteral(False)
        if token.is_symbol("("):
            self.advance()
            inner = self.parse_predicate()
            self.expect_symbol(")")
            return inner
        left = self._parse_operand()
        # `x between a and b` desugars to `x >= a and x <= b`.
        if self.accept_keyword("between"):
            low = self._parse_operand()
            self.expect_keyword("and")
            high = self._parse_operand()
            return And((Comparison(left, ">=", low),
                        Comparison(left, "<=", high)))
        # `x in (a, b, c)` desugars to a disjunction of equalities.
        negated = False
        if self.peek().is_keyword("not"):
            # allow `x not in (...)`
            self.advance()
            self.expect_keyword("in")
            negated = True
        if negated or self.accept_keyword("in"):
            self.expect_symbol("(")
            options = [self._parse_operand()]
            while self.accept_symbol(","):
                options.append(self._parse_operand())
            self.expect_symbol(")")
            disjunction: Predicate
            if len(options) == 1:
                disjunction = Comparison(left, "=", options[0])
            else:
                disjunction = Or(tuple(
                    Comparison(left, "=", option) for option in options))
            return Not(disjunction) if negated else disjunction
        op_token = self.peek()
        if op_token.type is not TokenType.SYMBOL or \
                op_token.value not in _COMPARE_OPS:
            raise self.error(
                f"expected a comparison operator, found {op_token.value!r}")
        op = str(self.advance().value)
        if op == "<>":
            op = "!="
        right = self._parse_operand()
        return Comparison(left, op, right)

    def _parse_operand(self) -> Union[PropRef, Literal]:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            return Literal(self.advance().value)
        if token.type is TokenType.STRING:
            return Literal(self.advance().value)
        if token.is_keyword("true"):
            self.advance()
            return Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return Literal(False)
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            name = self.expect_name()
            if name in ("src", "dst") and self.accept_symbol("."):
                prop = self.expect_name()
                return PropRef(name, prop)
            return PropRef("edge", name)
        raise self.error(f"expected a property or literal, found {token.value!r}")


def parse(text: str) -> Statement:
    """Parse exactly one GVDL statement."""
    statements = parse_program(text)
    if len(statements) != 1:
        raise GvdlSyntaxError(
            f"expected exactly one statement, found {len(statements)}")
    return statements[0]


def parse_program(text: str) -> List[Statement]:
    """Parse a ``;``-separated script of GVDL statements."""
    return _Parser(text).parse_program()
