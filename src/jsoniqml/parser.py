"""Recursive-descent parser producing the typed AST.

Grammar (binding tightest-last):

    Module     := FunctionDecl* Expr
    FunctionDecl := "declare" "function" QName "(" Params? ")" ("as" SeqType)?
                    "{" Expr "}"
    Expr       := FLWOR | IfExpr | OrExpr
    FLWOR      := (ForClause | LetClause)+ WhereClause? OrderByClause?
                  "return" Expr
    ForClause  := "for" Var ("at" Var)? "in" Expr
    LetClause  := "let" Var ":=" Expr
    OrExpr     := AndExpr ("or" AndExpr)*
    AndExpr    := NotExpr ("and" NotExpr)*
    NotExpr    := "not" NotExpr | ComparisonExpr
    ComparisonExpr := RangeExpr (("eq"|"ne"|"lt"|"le"|"gt"|"ge") RangeExpr)?
    RangeExpr  := AdditiveExpr ("to" AdditiveExpr)?
    AdditiveExpr := MultiplicativeExpr (("+"|"-") MultiplicativeExpr)*
    MultiplicativeExpr := PostfixExpr (("*"|"div"|"idiv"|"mod") PostfixExpr)*
    PostfixExpr := PrimaryExpr ("[" Expr "]" | "." Name | "(" Args? ")")*
    PrimaryExpr := Literal | Var | "$$" | "(" Expr? ")" | "{" Pairs? "}"
                 | "{|" Expr "|}" | "[" Args? "]" | QName "(" Args? ")"
                 | QName "#" IntegerLiteral | IfExpr

Anything outside this subset is a parse error.
"""

from __future__ import annotations

from decimal import Decimal

from . import lexer
from .ast_nodes import (
    ArrayConstructor,
    Arithmetic,
    BoolOp,
    Comparison,
    ContextItemRef,
    DynamicFunctionCall,
    FLWOR,
    ForClause,
    FunctionDecl,
    IfThenElse,
    LetClause,
    Literal,
    MergedObjectConstructor,
    NamedFunctionRef,
    NotExpr,
    ObjectConstructor,
    ObjectLookup,
    OrderByClause,
    Predicate,
    RangeTo,
    SequenceExpr,
    SourceModule,
    StaticFunctionCall,
    VarRef,
    WhereClause,
)
from .errors import QueryParseError
from .items import AtomicValue, FALSE, NULL, TRUE
from .lexer import CONTEXT, DECIMAL, DOUBLE, EOF, INTEGER, NAME, STRING, Token, VAR

# Words that may not be used as function names.
RESERVED = lexer.KEYWORDS

_COMPARISON_OPS = ("eq", "ne", "lt", "le", "gt", "ge")


class _Parser:
    def __init__(self, tokens: "list[Token]"):
        self.tokens = tokens
        self.i = 0

    # -- token helpers -------------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def at_word(self, word: str) -> bool:
        t = self.tok
        return t.type == NAME and t.value == word

    def eat_word(self, word: str) -> Token:
        if not self.at_word(word):
            self.fail(f"'{word}'")
        return self.advance()

    def at(self, ttype: str) -> bool:
        return self.tok.type == ttype

    def eat(self, ttype: str) -> Token:
        if not self.at(ttype):
            self.fail(f"'{ttype}'")
        return self.advance()

    def advance(self) -> Token:
        t = self.tok
        if t.type != EOF:
            self.i += 1
        return t

    def fail(self, expected: str):
        t = self.tok
        got = t.value if t.type != EOF else "end of input"
        raise QueryParseError(
            "PARSE_ERROR", f"expected {expected}, got {got!r}", (t.line, t.col)
        )

    def pos(self):
        return (self.tok.line, self.tok.col)

    # -- module --------------------------------------------------------------

    def parse_module(self) -> SourceModule:
        prolog = []
        while self.at_word("declare"):
            prolog.append(self.parse_function_decl())
            if self.at(";"):
                self.advance()
        body = self.parse_expr()
        if not self.at(EOF):
            self.fail("end of input")
        return SourceModule(prolog, body)

    def parse_function_decl(self) -> FunctionDecl:
        pos = self.pos()
        self.eat_word("declare")
        self.eat_word("function")
        if not self.at(NAME) or self.tok.value in RESERVED:
            self.fail("function name")
        name = self.advance().value
        self.eat("(")
        params: list[str] = []
        param_types: list = []
        if not self.at(")"):
            while True:
                params.append(self.eat(VAR).value)
                if self.at_word("as"):
                    self.advance()
                    param_types.append(self.parse_seq_type())
                else:
                    param_types.append(None)
                if self.at(","):
                    self.advance()
                    continue
                break
        self.eat(")")
        return_type = None
        if self.at_word("as"):
            self.advance()
            return_type = self.parse_seq_type()
        self.eat("{")
        body = self.parse_expr()
        self.eat("}")
        seen = set()
        for p in params:
            if p in seen:
                raise QueryParseError(
                    "PARSE_ERROR", f"duplicate parameter ${p} in {name}", pos
                )
            seen.add(p)
        return FunctionDecl(name, params, param_types, return_type, body, pos=pos)

    def parse_seq_type(self) -> str:
        name = self.eat(NAME).value
        if self.tok.type in ("*", "+"):
            return name + self.advance().value
        return name

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        if self.at_word("for") or self.at_word("let"):
            return self.parse_flwor()
        if self.at_word("if"):
            return self.parse_if()
        return self.parse_or()

    def parse_flwor(self) -> FLWOR:
        pos = self.pos()
        clauses: list = []
        while True:
            if self.at_word("for"):
                cpos = self.pos()
                self.advance()
                var = self.eat(VAR).value
                pos_var = None
                if self.at_word("at"):
                    self.advance()
                    pos_var = self.eat(VAR).value
                self.eat_word("in")
                source = self.parse_expr()
                clauses.append(ForClause(var, pos_var, source, pos=cpos))
            elif self.at_word("let"):
                cpos = self.pos()
                self.advance()
                var = self.eat(VAR).value
                self.eat(":=")
                value = self.parse_expr()
                clauses.append(LetClause(var, value, pos=cpos))
            else:
                break
        if not clauses:
            self.fail("'for' or 'let'")
        if self.at_word("where"):
            cpos = self.pos()
            self.advance()
            clauses.append(WhereClause(self.parse_expr(), pos=cpos))
        if self.at_word("order"):
            cpos = self.pos()
            self.advance()
            self.eat_word("by")
            key = self.parse_expr()
            descending = False
            if self.at_word("descending"):
                descending = True
                self.advance()
            elif self.at_word("ascending"):
                self.advance()
            clauses.append(OrderByClause(key, descending, pos=cpos))
        self.eat_word("return")
        return FLWOR(clauses, self.parse_expr(), pos=pos)

    def parse_if(self) -> IfThenElse:
        pos = self.pos()
        self.eat_word("if")
        self.eat("(")
        cond = self.parse_expr()
        self.eat(")")
        self.eat_word("then")
        then = self.parse_expr()
        self.eat_word("else")
        orelse = self.parse_expr()
        return IfThenElse(cond, then, orelse, pos=pos)

    def parse_or(self):
        left = self.parse_and()
        while self.at_word("or"):
            pos = self.pos()
            self.advance()
            left = BoolOp("or", left, self.parse_and(), pos=pos)
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.at_word("and"):
            pos = self.pos()
            self.advance()
            left = BoolOp("and", left, self.parse_not(), pos=pos)
        return left

    def parse_not(self):
        if self.at_word("not"):
            pos = self.pos()
            self.advance()
            return NotExpr(self.parse_not(), pos=pos)
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_range()
        if self.at(NAME) and self.tok.value in _COMPARISON_OPS:
            op_tok = self.advance()
            right = self.parse_range()
            return Comparison(op_tok.value, left, right, pos=(op_tok.line, op_tok.col))
        return left

    def parse_range(self):
        left = self.parse_additive()
        if self.at_word("to"):
            pos = self.pos()
            self.advance()
            return RangeTo(left, self.parse_additive(), pos=pos)
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.tok.type in ("+", "-"):
            op_tok = self.advance()
            left = Arithmetic(
                op_tok.type, left, self.parse_multiplicative(), pos=(op_tok.line, op_tok.col)
            )
        return left

    def parse_multiplicative(self):
        left = self.parse_postfix()
        while self.at("*") or (self.at(NAME) and self.tok.value in ("div", "idiv", "mod")):
            op_tok = self.advance()
            op = op_tok.value if op_tok.type == NAME else op_tok.type
            left = Arithmetic(op, left, self.parse_postfix(), pos=(op_tok.line, op_tok.col))
        return left

    def parse_postfix(self):
        expr = self.parse_primary()
        while True:
            if self.at("["):
                pos = self.pos()
                self.advance()
                cond = self.parse_expr()
                self.eat("]")
                expr = Predicate(expr, cond, pos=pos)
            elif self.at("."):
                pos = self.pos()
                self.advance()
                if self.at(NAME):
                    key = self.advance().value
                elif self.at(STRING):
                    key = self.advance().value
                else:
                    self.fail("lookup key")
                expr = ObjectLookup(expr, key, pos=pos)
            elif self.at("("):
                pos = self.pos()
                args = self.parse_argument_list()
                expr = DynamicFunctionCall(expr, args, pos=pos)
            else:
                return expr

    def parse_argument_list(self) -> list:
        self.eat("(")
        args = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if self.at(","):
                    self.advance()
                    continue
                break
        self.eat(")")
        return args

    def parse_primary(self):
        t = self.tok
        pos = (t.line, t.col)
        if t.type == INTEGER:
            self.advance()
            return Literal(AtomicValue("integer", int(t.value)), pos=pos)
        if t.type == DECIMAL:
            self.advance()
            return Literal(AtomicValue("decimal", Decimal(t.value)), pos=pos)
        if t.type == DOUBLE:
            self.advance()
            return Literal(AtomicValue("double", float(t.value)), pos=pos)
        if t.type == STRING:
            self.advance()
            return Literal(AtomicValue("string", t.value), pos=pos)
        if t.type == VAR:
            self.advance()
            return VarRef(t.value, pos=pos)
        if t.type == CONTEXT:
            self.advance()
            return ContextItemRef(pos=pos)
        if t.type == "(":
            self.advance()
            if self.at(")"):
                self.advance()
                return SequenceExpr(None, pos=pos)
            inner = self.parse_expr()
            self.eat(")")
            return SequenceExpr(inner, pos=pos)
        if t.type == "{|":
            self.advance()
            source = self.parse_expr()
            self.eat("|}")
            return MergedObjectConstructor(source, pos=pos)
        if t.type == "{":
            return self.parse_object_ctor()
        if t.type == "[":
            self.advance()
            members = []
            if not self.at("]"):
                while True:
                    members.append(self.parse_expr())
                    if self.at(","):
                        self.advance()
                        continue
                    break
            self.eat("]")
            return ArrayConstructor(members, pos=pos)
        if t.type == NAME:
            if t.value == "if":
                return self.parse_if()
            if t.value == "true":
                self.advance()
                return Literal(TRUE, pos=pos)
            if t.value == "false":
                self.advance()
                return Literal(FALSE, pos=pos)
            if t.value == "null":
                self.advance()
                return Literal(NULL, pos=pos)
            if t.value in RESERVED:
                self.fail("an expression")
            name = self.advance().value
            if self.at("#"):
                self.advance()
                arity_tok = self.eat(INTEGER)
                return NamedFunctionRef(name, int(arity_tok.value), pos=pos)
            if self.at("("):
                args = self.parse_argument_list()
                return StaticFunctionCall(name, args, pos=pos)
            self.fail("'(' or '#' after name")
        self.fail("an expression")

    def parse_object_ctor(self) -> ObjectConstructor:
        pos = self.pos()
        self.eat("{")
        pairs = []
        if not self.at("}"):
            while True:
                key = self.parse_expr()
                self.eat(":")
                value = self.parse_expr()
                pairs.append((key, value))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.eat("}")
        return ObjectConstructor(pairs, pos=pos)


def parse(text: str) -> SourceModule:
    """Parse a source module (prolog function declarations plus a body)."""
    tokens = lexer.lex(text)
    parser = _Parser(tokens)
    module = parser.parse_module()
    seen = set()
    for decl in module.prolog:
        if decl.key in seen:
            raise QueryParseError(
                "PARSE_ERROR", f"duplicate function declaration {decl.key}", decl.pos
            )
        seen.add(decl.key)
    return module


def parse_expr_text(text: str):
    """Parse a standalone expression (no prolog); test/tooling convenience."""
    return parse(text).body
