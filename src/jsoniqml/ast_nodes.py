"""Typed AST for the query subset. Every node carries a source position.

Each expression class names the runtime-iterator kind it compiles to and
lists its sub-expressions in `children()`, the one definition of the tree's
shape that every pass walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional, Sequence

from .items import AtomicValue

Pos = tuple  # (line, col)


@dataclass
class Expr:
    kind: ClassVar[str]
    pos: Pos = field(default=(0, 0), kw_only=True)

    def children(self) -> "Sequence[Expr]":
        """Sub-expressions in evaluation order (the runtime iterator's children).

        Lists, not tuples: each compile pass builds these and drops them, and
        dropped small tuples stay on the interpreter's free lists, which the
        benchmark's traced peak memory counts."""
        return ()


@dataclass
class Literal(Expr):
    kind = "literal"
    value: AtomicValue


@dataclass
class VarRef(Expr):
    kind = "var"
    name: str
    # set by the resolver: "local" | "external"
    binding: Optional[str] = None


@dataclass
class ContextItemRef(Expr):
    kind = "context"


@dataclass
class Comparison(Expr):
    kind = "comparison"
    op: str  # eq ne lt le gt ge
    left: Expr
    right: Expr

    def children(self):
        return [self.left, self.right]


@dataclass
class Arithmetic(Expr):
    kind = "arithmetic"
    op: str  # + - * div idiv mod
    left: Expr
    right: Expr

    def children(self):
        return [self.left, self.right]


@dataclass
class BoolOp(Expr):
    kind = "boolop"
    op: str  # and | or
    left: Expr
    right: Expr

    def children(self):
        return [self.left, self.right]


@dataclass
class NotExpr(Expr):
    kind = "not"
    operand: Expr

    def children(self):
        return [self.operand]


@dataclass
class RangeTo(Expr):
    kind = "range"
    lo: Expr
    hi: Expr

    def children(self):
        return [self.lo, self.hi]


@dataclass
class IfThenElse(Expr):
    kind = "if"
    cond: Expr
    then: Expr
    orelse: Expr

    def children(self):
        return [self.cond, self.then, self.orelse]


@dataclass
class ObjectConstructor(Expr):
    kind = "object"
    pairs: "list[tuple[Expr, Expr]]"

    def children(self):
        return [e for pair in self.pairs for e in pair]


@dataclass
class MergedObjectConstructor(Expr):
    kind = "merged"
    source: Expr

    def children(self):
        return [self.source]


@dataclass
class ArrayConstructor(Expr):
    kind = "array"
    members: "list[Expr]"

    def children(self):
        return self.members


@dataclass
class SequenceExpr(Expr):
    """Parenthesized unit: `()` is the empty sequence, `(e)` is `e`."""

    kind = "seq"
    inner: Optional[Expr]

    def children(self):
        return () if self.inner is None else [self.inner]


@dataclass
class Predicate(Expr):
    kind = "predicate"
    base: Expr
    condition: Expr

    def children(self):
        return [self.base, self.condition]


@dataclass
class ObjectLookup(Expr):
    kind = "lookup"
    base: Expr
    key: str

    def children(self):
        return [self.base]


@dataclass
class StaticFunctionCall(Expr):
    kind = "static-call"
    name: str
    args: "list[Expr]"
    # set by the resolver: ("user", FunctionDecl) | ("builtin", key)
    target: Any = None

    def children(self):
        return self.args


@dataclass
class DynamicFunctionCall(Expr):
    kind = "dynamic-call"
    callee: Expr
    args: "list[Expr]"

    def children(self):
        return [self.callee, *self.args]


@dataclass
class NamedFunctionRef(Expr):
    kind = "fnref"
    name: str
    arity: int
    target: Any = None


@dataclass
class ForClause:
    var: str
    pos_var: Optional[str]
    source: Expr
    pos: Pos = (0, 0)

    @property
    def expr(self) -> Expr:
        return self.source


@dataclass
class LetClause:
    var: str
    value: Expr
    pos: Pos = (0, 0)

    @property
    def expr(self) -> Expr:
        return self.value


@dataclass
class WhereClause:
    condition: Expr
    pos: Pos = (0, 0)

    @property
    def expr(self) -> Expr:
        return self.condition


@dataclass
class OrderByClause:
    key: Expr
    descending: bool = False
    pos: Pos = (0, 0)

    @property
    def expr(self) -> Expr:
        return self.key


Clause = Any  # ForClause | LetClause | WhereClause | OrderByClause


@dataclass
class FLWOR(Expr):
    kind = "flwor"
    clauses: "list[Clause]"
    return_expr: Expr

    def children(self):
        return [*(clause.expr for clause in self.clauses), self.return_expr]


@dataclass
class FunctionDecl:
    name: str
    params: "list[str]"
    param_types: "list[Optional[str]]"
    return_type: Optional[str]
    body: Expr
    pos: Pos = (0, 0)

    @property
    def key(self) -> str:
        return f"{self.name}#{len(self.params)}"


@dataclass
class SourceModule:
    prolog: "list[FunctionDecl]"
    body: Expr


def walk(node):
    """Yield every Expr node of a subtree, including clause expressions."""
    if isinstance(node, SourceModule):
        for decl in node.prolog:
            yield from walk(decl.body)
        yield from walk(node.body)
        return
    yield node
    for child in node.children():
        yield from walk(child)
