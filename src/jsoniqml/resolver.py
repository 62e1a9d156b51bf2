"""Static name resolution.

Binds every static call to a prolog declaration or a builtin, every variable
reference to an enclosing binder, and classifies unbound variables as
externally bound (supplied by the driver). A reference to a variable that is
only bound *later* in the same FLWOR is a cyclic/forward use and errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast_nodes import (
    FLWOR,
    ContextItemRef,
    ForClause,
    FunctionDecl,
    LetClause,
    NamedFunctionRef,
    Predicate,
    SourceModule,
    StaticFunctionCall,
    VarRef,
)
from .errors import ResolutionError


@dataclass
class ResolvedModule:
    module: SourceModule
    functions: "dict[str, FunctionDecl]"
    external_vars: "set[str]"
    # (node kind, name, binding) triples in traversal order; resolution must
    # be deterministic, so two runs produce identical tables.
    binding_table: "list[tuple[str, str, str]]" = field(default_factory=list)


def resolve(module: SourceModule, builtin_keys: "set[str]") -> ResolvedModule:
    functions = {decl.key: decl for decl in module.prolog}
    resolved = ResolvedModule(module, functions, set())

    for decl in module.prolog:
        _resolve_expr(decl.body, set(decl.params), frozenset(), False, resolved, builtin_keys)
    _resolve_expr(module.body, set(), frozenset(), False, resolved, builtin_keys)
    return resolved


def _resolve_expr(node, scope, pending, in_predicate, resolved, builtin_keys):
    """Walk `node`; `scope` holds visible variables, `pending` the names bound
    later in an enclosing FLWOR (hit one and it is a forward/cyclic use)."""
    if isinstance(node, VarRef):
        if node.name in scope:
            node.binding = "local"
        elif node.name in pending:
            raise ResolutionError(
                "UNDEFINED_VARIABLE",
                f"${node.name} is used before its binding in the same FLWOR",
                node.pos,
            )
        else:
            node.binding = "external"
            resolved.external_vars.add(node.name)
        resolved.binding_table.append(("var", node.name, node.binding))
        return
    if isinstance(node, ContextItemRef):
        if not in_predicate:
            raise ResolutionError(
                "UNDEFINED_VARIABLE", "$$ is only defined inside a predicate", node.pos
            )
        resolved.binding_table.append(("context", "$$", "predicate"))
        return
    if isinstance(node, Predicate):
        _resolve_expr(node.base, scope, pending, in_predicate, resolved, builtin_keys)
        _resolve_expr(node.condition, scope, pending, True, resolved, builtin_keys)
        return
    if isinstance(node, FLWOR):
        inner = set(scope)
        binders: list[str] = []
        for clause in node.clauses:
            if isinstance(clause, ForClause):
                binders.append(clause.var)
                if clause.pos_var:
                    binders.append(clause.pos_var)
            elif isinstance(clause, LetClause):
                binders.append(clause.var)
        remaining = list(binders)
        for clause in node.clauses:
            if isinstance(clause, ForClause):
                remaining.remove(clause.var)
                if clause.pos_var:
                    remaining.remove(clause.pos_var)
                clause_pending = (pending | set(remaining)) - inner
                _resolve_expr(clause.source, inner, clause_pending, in_predicate, resolved, builtin_keys)
                inner = inner | {clause.var}
                if clause.pos_var:
                    inner = inner | {clause.pos_var}
            elif isinstance(clause, LetClause):
                remaining.remove(clause.var)
                clause_pending = (pending | set(remaining) | {clause.var}) - inner
                _resolve_expr(clause.value, inner, clause_pending, in_predicate, resolved, builtin_keys)
                inner = inner | {clause.var}
            else:
                _resolve_expr(clause.expr, inner, pending, in_predicate, resolved, builtin_keys)
        _resolve_expr(node.return_expr, inner, pending, in_predicate, resolved, builtin_keys)
        return
    if isinstance(node, StaticFunctionCall):
        _bind_function(node, len(node.args), "call", resolved, builtin_keys)
    elif isinstance(node, NamedFunctionRef):
        _bind_function(node, node.arity, "fnref", resolved, builtin_keys)
    for child in node.children():
        _resolve_expr(child, scope, pending, in_predicate, resolved, builtin_keys)


def _bind_function(node, arity, tag, resolved, builtin_keys):
    """Bind a static call or a `name#arity` reference to a declaration or a builtin."""
    key = f"{node.name}#{arity}"
    if key in resolved.functions:
        node.target = ("user", resolved.functions[key])
    elif key in builtin_keys:
        node.target = ("builtin", key)
    else:
        raise ResolutionError("UNKNOWN_FUNCTION", f"unknown function {key}", node.pos)
    resolved.binding_table.append((tag, key, node.target[0]))
