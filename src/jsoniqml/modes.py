"""Execution modes: the runtime-iterator tree and static mode inference.

Each resolved expression becomes one runtime iterator. Inference assigns one
of three modes per iterator: LOCAL_ONE (at most one item, direct call),
LOCAL_SEQ (volcano-style pull iteration), FRAME (columnar). LOCAL_SEQ is the
most general; conflicting evidence meets there. User-function modes are
inferred from actual parameter modes in repeated passes over the call graph
until nothing changes, which recursion makes necessary.

Dynamic calls use a heuristic: if the callee is statically known to be an
estimator its result is a single function item, so the call is LOCAL_ONE;
if it is transformer-shaped and the first argument is FRAME the call stays
FRAME; otherwise it is local. The runtime raises a dynamic error when the
assumption turns out wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    StaticFunctionCall,
    VarRef,
    WhereClause,
)
from .resolver import ResolvedModule

BOTTOM = "unset"
LOCAL_ONE = "local-one"
LOCAL_SEQ = "local-seq"
FRAME_MODE = "frame"

POLICY_AUTO = "auto"
POLICY_FORCE_LOCAL = "force-local"
POLICY_FRAME = "frame"
POLICIES = (POLICY_AUTO, POLICY_FORCE_LOCAL, POLICY_FRAME)

ST_ESTIMATOR = "estimator"
ST_TRANSFORMER = "transformer"

_ST_UNSET = "__unset__"

# builtins a lowered predicate may call (scalar, row-local)
LOWERABLE_BUILTINS = frozenset({"contains#2", "string#1"})


def combine_modes(a: str, b: str) -> str:
    """Lattice meet toward LOCAL_SEQ: local execution takes precedence."""
    if a == BOTTOM:
        return b
    if b == BOTTOM:
        return a
    if a == b:
        return a
    return LOCAL_SEQ


def _combine_stype(a, b):
    if a == _ST_UNSET:
        return b
    if b == _ST_UNSET:
        return a
    return a if a == b else None


class RuntimeIterator:
    """One node of the executable tree; mirrors a resolved AST node."""

    __slots__ = (
        "kind",
        "node",
        "children",
        "mode",
        "static_type",
        "call_assumption",
        "frame_lowered",
        "clause_iters",
        "return_iter",
    )

    def __init__(self, kind: str, node, children: "list[RuntimeIterator]"):
        self.kind = kind
        self.node = node
        self.children = children
        self.mode = BOTTOM
        self.static_type = None
        # kind-specific plan details
        self.call_assumption = "general"
        self.frame_lowered = False

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return f"<iter {self.kind} mode={self.mode}>"


@dataclass
class FunctionInfo:
    key: str
    decl: FunctionDecl
    body: RuntimeIterator
    param_modes: "list[str]"
    param_stypes: list  # None (unknown) or a static-type string, per parameter
    body_mode: str = BOTTOM
    body_stype: object = None


@dataclass
class CompiledTree:
    root: RuntimeIterator
    functions: "dict[str, FunctionInfo]"
    passes: int = 0
    # the runtime's compiled program, built on first evaluation; it depends
    # on the inferred modes, so inference clears it
    program: object = None


def build_tree(resolved: ResolvedModule) -> CompiledTree:
    functions = {}
    for key, decl in resolved.functions.items():
        body = _build(decl.body)
        functions[key] = FunctionInfo(
            key,
            decl,
            body,
            [BOTTOM] * len(decl.params),
            [None] * len(decl.params),
        )
    root = _build(resolved.module.body)
    return CompiledTree(root, functions)


def _build(node) -> RuntimeIterator:
    if isinstance(node, Literal):
        return RuntimeIterator("literal", node, [])
    if isinstance(node, VarRef):
        return RuntimeIterator("var", node, [])
    if isinstance(node, ContextItemRef):
        return RuntimeIterator("context", node, [])
    if isinstance(node, Comparison):
        it = RuntimeIterator("comparison", node, [_build(node.left), _build(node.right)])
        return it
    if isinstance(node, Arithmetic):
        return RuntimeIterator("arithmetic", node, [_build(node.left), _build(node.right)])
    if isinstance(node, BoolOp):
        return RuntimeIterator("boolop", node, [_build(node.left), _build(node.right)])
    if isinstance(node, NotExpr):
        return RuntimeIterator("not", node, [_build(node.operand)])
    if isinstance(node, RangeTo):
        return RuntimeIterator("range", node, [_build(node.lo), _build(node.hi)])
    if isinstance(node, IfThenElse):
        return RuntimeIterator(
            "if", node, [_build(node.cond), _build(node.then), _build(node.orelse)]
        )
    if isinstance(node, ObjectConstructor):
        children = []
        for k, v in node.pairs:
            children.append(_build(k))
            children.append(_build(v))
        return RuntimeIterator("object", node, children)
    if isinstance(node, MergedObjectConstructor):
        return RuntimeIterator("merged", node, [_build(node.source)])
    if isinstance(node, ArrayConstructor):
        return RuntimeIterator("array", node, [_build(m) for m in node.members])
    if isinstance(node, SequenceExpr):
        return RuntimeIterator("seq", node, [] if node.inner is None else [_build(node.inner)])
    if isinstance(node, Predicate):
        return RuntimeIterator("predicate", node, [_build(node.base), _build(node.condition)])
    if isinstance(node, ObjectLookup):
        return RuntimeIterator("lookup", node, [_build(node.base)])
    if isinstance(node, StaticFunctionCall):
        return RuntimeIterator("static-call", node, [_build(a) for a in node.args])
    if isinstance(node, DynamicFunctionCall):
        return RuntimeIterator(
            "dynamic-call", node, [_build(node.callee)] + [_build(a) for a in node.args]
        )
    if isinstance(node, NamedFunctionRef):
        return RuntimeIterator("fnref", node, [])
    if isinstance(node, FLWOR):
        it = RuntimeIterator("flwor", node, [])
        clause_iters = []
        for clause in node.clauses:
            if isinstance(clause, ForClause):
                child = _build(clause.source)
            elif isinstance(clause, LetClause):
                child = _build(clause.value)
            elif isinstance(clause, WhereClause):
                child = _build(clause.condition)
            elif isinstance(clause, OrderByClause):
                child = _build(clause.key)
            else:  # pragma: no cover
                raise AssertionError(type(clause))
            clause_iters.append((clause, child))
            it.children.append(child)
        ret = _build(node.return_expr)
        it.children.append(ret)
        it.clause_iters = clause_iters
        it.return_iter = ret
        return it
    raise AssertionError(f"unhandled node {type(node).__name__}")


# ---------------------------------------------------------------------------
# Lowerability of predicates and where clauses
# ---------------------------------------------------------------------------


def _lowerable(node, allowed_var) -> bool:
    """True when the expression only touches the current row (via `$$` or the
    loop variable) with scalar operators and whitelisted builtins."""
    if isinstance(node, Literal):
        return True
    if isinstance(node, ContextItemRef):
        return allowed_var is None
    if isinstance(node, VarRef):
        return allowed_var is not None and node.name == allowed_var
    if isinstance(node, (Comparison, Arithmetic, BoolOp)):
        return _lowerable(node.left, allowed_var) and _lowerable(node.right, allowed_var)
    if isinstance(node, NotExpr):
        return _lowerable(node.operand, allowed_var)
    if isinstance(node, IfThenElse):
        return all(_lowerable(n, allowed_var) for n in (node.cond, node.then, node.orelse))
    if isinstance(node, ObjectLookup):
        return _lowerable(node.base, allowed_var)
    if isinstance(node, SequenceExpr):
        return node.inner is None or _lowerable(node.inner, allowed_var)
    if isinstance(node, StaticFunctionCall):
        key = f"{node.name}#{len(node.args)}"
        if node.target and node.target[0] == "builtin" and key in LOWERABLE_BUILTINS:
            return all(_lowerable(a, allowed_var) for a in node.args)
        return False
    return False


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


class _InferencePass:
    def __init__(self, tree: CompiledTree, catalog, policy: str):
        self.tree = tree
        self.catalog = catalog
        self.policy = policy
        self.pending_param_modes = {
            key: [BOTTOM] * len(info.decl.params) for key, info in tree.functions.items()
        }
        self.pending_param_stypes = {
            key: [_ST_UNSET] * len(info.decl.params) for key, info in tree.functions.items()
        }

    def assign(self, it: RuntimeIterator, env: dict) -> "tuple[str, object]":
        mode, stype = self._assign(it, env)
        it.mode = mode
        it.static_type = stype if stype != _ST_UNSET else None
        return mode, it.static_type

    def _assign(self, it: RuntimeIterator, env: dict):
        kind = it.kind
        node = it.node
        if kind == "literal":
            return LOCAL_ONE, None
        if kind == "var":
            if node.binding == "local":
                return env.get(node.name, (LOCAL_SEQ, None))
            return LOCAL_ONE, None
        if kind == "context":
            return LOCAL_ONE, None
        if kind in ("comparison", "arithmetic", "boolop", "not"):
            for child in it.children:
                self.assign(child, env)
            return LOCAL_ONE, None
        if kind == "range":
            for child in it.children:
                self.assign(child, env)
            return LOCAL_SEQ, None
        if kind == "if":
            self.assign(it.children[0], env)
            then_mode, then_st = self.assign(it.children[1], env)
            else_mode, else_st = self.assign(it.children[2], env)
            st = then_st if then_st == else_st else None
            return combine_modes(then_mode, else_mode), st
        if kind in ("object", "merged", "array"):
            for child in it.children:
                self.assign(child, env)
            return LOCAL_ONE, None
        if kind == "seq":
            if not it.children:
                return LOCAL_SEQ, None
            return self.assign(it.children[0], env)
        if kind == "lookup":
            base_mode, _ = self.assign(it.children[0], env)
            # a key of at most one object is at most one value
            return (LOCAL_ONE if base_mode == LOCAL_ONE else LOCAL_SEQ), None
        if kind == "predicate":
            base_mode, _ = self.assign(it.children[0], env)
            self.assign(it.children[1], env)
            it.frame_lowered = (
                self.policy == POLICY_AUTO
                and base_mode == FRAME_MODE
                and _lowerable(node.condition, None)
            )
            return (FRAME_MODE if it.frame_lowered else LOCAL_SEQ), None
        if kind == "fnref":
            target_kind, target = node.target
            if target_kind == "user":
                # a function item can be called with anything: its parameters
                # must take the most general mode and no static type
                pend_m = self.pending_param_modes[target.key]
                pend_s = self.pending_param_stypes[target.key]
                for i in range(len(pend_m)):
                    pend_m[i] = combine_modes(pend_m[i], LOCAL_SEQ)
                    pend_s[i] = _combine_stype(pend_s[i], None)
            return LOCAL_ONE, None
        if kind == "static-call":
            target_kind, target = node.target
            arg_results = [self.assign(child, env) for child in it.children]
            if target_kind == "builtin":
                spec = self.catalog[target]
                mode = {"one": LOCAL_ONE, "seq": LOCAL_SEQ, "frame": FRAME_MODE}[spec.result_mode]
                if mode == FRAME_MODE and self.policy == POLICY_FORCE_LOCAL:
                    mode = LOCAL_SEQ
                return mode, spec.static_type
            info = self.tree.functions[target.key]
            pend_m = self.pending_param_modes[target.key]
            pend_s = self.pending_param_stypes[target.key]
            for i, (arg_mode, arg_st) in enumerate(arg_results):
                pend_m[i] = combine_modes(pend_m[i], arg_mode)
                pend_s[i] = _combine_stype(pend_s[i], arg_st)
            return info.body_mode, info.body_stype
        if kind == "dynamic-call":
            callee_mode, callee_st = self.assign(it.children[0], env)
            arg_results = [self.assign(child, env) for child in it.children[1:]]
            if callee_st == ST_ESTIMATOR:
                it.call_assumption = "estimator"
                return LOCAL_ONE, ST_TRANSFORMER
            if callee_st == ST_TRANSFORMER:
                if (
                    arg_results
                    and arg_results[0][0] == FRAME_MODE
                    and self.policy != POLICY_FORCE_LOCAL
                ):
                    it.call_assumption = "transformer-frame"
                    return FRAME_MODE, None
                it.call_assumption = "general"
                return LOCAL_SEQ, None
            it.call_assumption = "general"
            return LOCAL_SEQ, None
        if kind == "flwor":
            inner = dict(env)
            for clause, child in it.clause_iters:
                if isinstance(clause, ForClause):
                    self.assign(child, inner)
                    inner[clause.var] = (LOCAL_ONE, None)
                    if clause.pos_var:
                        inner[clause.pos_var] = (LOCAL_ONE, None)
                elif isinstance(clause, LetClause):
                    value_mode, value_st = self.assign(child, inner)
                    inner[clause.var] = (value_mode, value_st)
                else:
                    self.assign(child, inner)
            ret_mode, _ = self.assign(it.return_iter, inner)
            it.frame_lowered = self._flwor_lowerable(it, env)
            return (FRAME_MODE if it.frame_lowered else LOCAL_SEQ), None
        raise AssertionError(kind)

    def _flwor_lowerable(self, it: RuntimeIterator, env: dict) -> bool:
        """A single for over a FRAME source, optional row-local where, and an
        identity return keep columnar execution."""
        if self.policy != POLICY_AUTO:
            return False
        node = it.node
        fors = [c for c, _ in it.clause_iters if isinstance(c, ForClause)]
        lets = [c for c, _ in it.clause_iters if isinstance(c, LetClause)]
        orders = [c for c, _ in it.clause_iters if isinstance(c, OrderByClause)]
        wheres = [c for c, _ in it.clause_iters if isinstance(c, WhereClause)]
        if len(fors) != 1 or lets or orders or len(wheres) > 1:
            return False
        for_clause = fors[0]
        if for_clause.pos_var is not None:
            return False
        source_iter = next(ch for c, ch in it.clause_iters if c is for_clause)
        if source_iter.mode != FRAME_MODE:
            return False
        ret = node.return_expr
        if not (isinstance(ret, VarRef) and ret.name == for_clause.var):
            return False
        if wheres and not _lowerable(wheres[0].condition, for_clause.var):
            return False
        return True


def infer_execution_modes(tree: CompiledTree, catalog, policy: str) -> CompiledTree:
    """Fixpoint mode assignment over the main body and every function body."""
    if policy not in POLICIES:
        raise ValueError(f"unknown mode policy {policy!r}")
    passes = 0
    while True:
        passes += 1
        inference = _InferencePass(tree, catalog, policy)
        inference.assign(tree.root, {})
        for info in tree.functions.values():
            env = {
                name: (mode, st)
                for name, mode, st in zip(info.decl.params, info.param_modes, info.param_stypes)
            }
            inference.assign(info.body, env)
        changed = False
        for key, info in tree.functions.items():
            new_modes = inference.pending_param_modes[key]
            new_stypes = [
                None if st == _ST_UNSET else st for st in inference.pending_param_stypes[key]
            ]
            new_body_mode = info.body.mode
            new_body_stype = info.body.static_type
            if (
                new_modes != info.param_modes
                or new_stypes != info.param_stypes
                or new_body_mode != info.body_mode
                or new_body_stype != info.body_stype
            ):
                changed = True
            info.param_modes = new_modes
            info.param_stypes = new_stypes
            info.body_mode = new_body_mode
            info.body_stype = new_body_stype
        if not changed:
            break
    # totality: anything the passes never reached runs as a plain local pull
    for it in tree.root.walk():
        if it.mode == BOTTOM:
            it.mode = LOCAL_SEQ
    for info in tree.functions.values():
        for it in info.body.walk():
            if it.mode == BOTTOM:
                it.mode = LOCAL_SEQ
        if info.body_mode == BOTTOM:
            info.body_mode = LOCAL_SEQ
        info.param_modes = [LOCAL_SEQ if m == BOTTOM else m for m in info.param_modes]
    tree.passes = passes
    tree.program = None
    return tree
