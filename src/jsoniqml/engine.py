"""Compile-and-run orchestration: parse, resolve, infer, evaluate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .builtins import CATALOG
from .errors import DynamicError
from .items import (
    ArrayItem,
    AtomicValue,
    FunctionItem,
    Item,
    ObjectItem,
    SequenceValue,
    canonical_serialize,
    from_py,
)
from .modes import (
    CompiledTree,
    POLICY_AUTO,
    infer_execution_modes,
    build_tree,
)
from .parser import parse
from .resolver import ResolvedModule, resolve
from .runtime import DEFAULT_CAP, Evaluator


@dataclass
class CompiledQuery:
    resolved: ResolvedModule
    tree: CompiledTree
    policy: str


def _recursion_limit() -> DynamicError:
    """Runaway recursion in a query (a user function that never reaches its
    base case, or nesting too deep to parse) exhausts the Python stack; it
    surfaces as an engine error."""
    return DynamicError("RECURSION_LIMIT", "query nesting or recursion too deep")


def compile_query(text: str, policy: str = POLICY_AUTO) -> CompiledQuery:
    try:
        module = parse(text)
        resolved = resolve(module, set(CATALOG.keys()))
        tree = build_tree(resolved)
        infer_execution_modes(tree, CATALOG, policy)
    except RecursionError:
        raise _recursion_limit() from None
    return CompiledQuery(resolved, tree, policy)


def _to_item(value: Any) -> Item:
    if isinstance(value, (AtomicValue, ObjectItem, ArrayItem, FunctionItem)):
        return value
    return from_py(value)


def evaluate_query(
    compiled: CompiledQuery,
    variables: "Optional[dict[str, Any]]" = None,
    cap: int = DEFAULT_CAP,
) -> SequenceValue:
    external: dict[str, Item] = {}
    for name, value in (variables or {}).items():
        external[name] = _to_item(value)
    evaluator = Evaluator(compiled.tree, CATALOG, external, cap=cap)
    try:
        return evaluator.run()
    except RecursionError:
        raise _recursion_limit() from None


def run_query(
    text: str,
    variables: "Optional[dict[str, Any]]" = None,
    policy: str = POLICY_AUTO,
    cap: int = DEFAULT_CAP,
) -> "list[Item]":
    """Parse, compile, and evaluate; returns the materialized result items."""
    compiled = compile_query(text, policy)
    result = evaluate_query(compiled, variables, cap)
    try:
        return result.materialize(cap)
    except RecursionError:
        raise _recursion_limit() from None


def run_query_lines(
    text: str,
    variables: "Optional[dict[str, Any]]" = None,
    policy: str = POLICY_AUTO,
    cap: int = DEFAULT_CAP,
) -> "list[str]":
    """Like run_query, but canonical-serialize each top-level item."""
    return [canonical_serialize(item) for item in run_query(text, variables, policy, cap)]
