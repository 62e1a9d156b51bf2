"""Compiled tree-of-iterators evaluator.

On first evaluation every runtime iterator of a `CompiledTree` is compiled,
once, into one callable `run(ev, ctx)`, and the result is cached on the tree
and shared by every `Evaluator` over it. The callable is a module-level run
function bound, as a method, to the iterator's plan: a tuple of its compiled
children and constants (leaves bind their item or node). That is a closure
in all but name, at about a third of a closure's size. Plans never hold an
evaluator: it is passed in, with the dynamic context, on every call.

The inferred mode of an iterator decides how its callable runs:

- `local-one` returns the item itself, or None for the empty sequence.
  Parents that need one item (comparison, arithmetic, object keys and
  values, effective boolean values, `string#1`, `for` bindings) call it
  directly: no sequence box and no walk over a one-item stream.
- `local-seq` returns a `SequenceValue`, usually a lazy pull stream
  (volcano-style). Streams are materialized, under the cap, only at binding
  points: `let` clauses, user-function arguments, order-by collection and
  array construction.
- `frame` returns a `SequenceValue` that is frame-backed when the plan ran
  columnar; lowered predicates and `where` clauses filter it row by row
  without leaving the frame.

The dynamic context is a plain dict from variable name to binding, with the
predicate context item under `$$`. A `local-one` variable is bound to the bare
item (or None), any other variable to a `SequenceValue`.

A run function whose own body can raise a dynamic error attaches its node's
position to a position-less one; errors raised later, while a lazy result is
pulled, surface in whichever iterator pulls it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from types import MethodType
from typing import Any, Callable, Optional

from .ast_nodes import ForClause, LetClause, OrderByClause, WhereClause
from .errors import DynamicError, MaterializationCapError
from .frame import frame_filter
from .items import (
    FALSE,
    NULL,
    TRUE,
    ArrayItem,
    AtomicValue,
    FunctionItem,
    INTEGER_KINDS,
    Item,
    NUMERIC_KINDS,
    ObjectItem,
    SequenceValue,
    effective_boolean_value,
    item_ebv,
    render_atomic,
    trusted_atomic,
)
from .modes import CompiledTree, FRAME_MODE, LOCAL_ONE, FunctionInfo, RuntimeIterator

DEFAULT_CAP = 1_000_000

# key of the predicate context item in a dynamic context; no variable name
# can collide with it
_CONTEXT = "$$"


@dataclass
class NativeHandle:
    """Registry-backed body of a builtin function item.

    The tag names which builtin the item wraps ("transformer:Tokenizer",
    "model:LinearSVC", "builtin:count#1", ...). `invoke` receives the
    evaluator, the already-evaluated arguments, and the call position.
    """

    tag: str
    invoke: Callable
    artifact: Any = None  # the ModelArtifact of a transformer or a fitted model

    @property
    def shape(self) -> str:
        """Read from the tag: "transformer" (fitted models included),
        "estimator" or "builtin"."""
        role = self.tag.split(":", 1)[0]
        return "transformer" if role == "model" else role


class Evaluator:
    def __init__(
        self,
        tree: CompiledTree,
        catalog: dict,
        external: "dict[str, Item]",
        cap: int = DEFAULT_CAP,
    ):
        self.tree = tree
        self.catalog = catalog
        self.external = external
        self.cap = cap

    @property
    def program(self) -> "_Program":
        """The tree's compiled program, compiled on first use and cached on
        the tree for every later evaluator over it."""
        program = self.tree.program
        if program is None or program.catalog is not self.catalog:
            program = self.tree.program = _Program(self.tree, self.catalog)
        return program

    def run(self) -> SequenceValue:
        program = self.program
        result = program.root(self, {})
        return _box(result) if program.root_one else result

    def evaluate(self, it: RuntimeIterator, ctx: dict) -> SequenceValue:
        """Evaluate any one iterator of the tree in the context `ctx`; it is
        compiled on the spot, so this is an entry point, not the inner loop."""
        result = _compile(it, self.program)(self, ctx)
        return _box(result) if it.mode == LOCAL_ONE else result

    # -- function invocation ---------------------------------------------------

    def invoke_function(self, fn: FunctionItem, args: "list[SequenceValue]", pos) -> SequenceValue:
        if fn.arity != len(args):
            raise DynamicError(
                "ARITY_MISMATCH",
                f"function expects {fn.arity} arguments, got {len(args)}",
                pos,
            )
        if fn.native is not None:
            return fn.native.invoke(self, args, pos)
        compiled = self.program.functions[fn.body.key]
        ctx = {}
        for name, one, value in zip(compiled.params, compiled.param_ones, args):
            value = _bind(value, self.cap)
            ctx[name] = _only(value) if one else value
        result = compiled.run(self, ctx)
        return _box(result) if compiled.one else result

    def user_function_item(self, info: FunctionInfo) -> FunctionItem:
        decl = info.decl
        return FunctionItem(
            name=decl.name,
            param_names=tuple(decl.params),
            signature=tuple(decl.param_types) + (decl.return_type,),
            body=info,
        )


# ---------------------------------------------------------------------------
# Program: the compiled callables of one tree
# ---------------------------------------------------------------------------


class _Function:
    """A user function's compiled body and the form of each parameter."""

    __slots__ = ("run", "one", "params", "param_ones")

    def __init__(self, info: FunctionInfo):
        self.run = None  # set once every body is compiled (recursion)
        self.one = info.body.mode == LOCAL_ONE
        self.params = tuple(info.decl.params)
        self.param_ones = tuple([mode == LOCAL_ONE for mode in info.param_modes])


class _Program:
    __slots__ = ("catalog", "functions", "root", "root_one")

    def __init__(self, tree: CompiledTree, catalog: dict):
        self.catalog = catalog
        self.functions = {key: _Function(info) for key, info in tree.functions.items()}
        for key, info in tree.functions.items():
            self.functions[key].run = _compile(info.body, self)
        self.root = _compile(tree.root, self)
        self.root_one = tree.root.mode == LOCAL_ONE


def _compile(it: RuntimeIterator, program: _Program):
    return _COMPILERS[it.kind](it, program)


def _locate(err: DynamicError, pos) -> None:
    if err.position is None:
        err.position = pos


# ---------------------------------------------------------------------------
# Conversions between the two calling conventions
# ---------------------------------------------------------------------------


def _box(item: Optional[Item]) -> SequenceValue:
    if item is None:
        return SequenceValue.empty()
    return SequenceValue.single(item)


def _bind(seq: SequenceValue, cap: int) -> SequenceValue:
    """Pin a sequence for (re)use as a variable: frames and singles stay
    as they are, streams materialize under the cap."""
    if seq.representation == SequenceValue.STREAM:
        if not isinstance(seq._payload, list):
            return SequenceValue.from_list(seq.materialize(cap))
        if len(seq._payload) > cap:
            raise MaterializationCapError(cap)
    return seq


def _only(seq: SequenceValue) -> Optional[Item]:
    """The item of a sequence bound where inference promised at most one."""
    items = seq.iter_items()
    first = next(items, None)
    if first is not None and next(items, None) is not None:
        raise DynamicError(
            "MODE_ASSUMPTION_VIOLATED", "a single-item binding received a sequence"
        )
    return first


def _single_atomic(seq: SequenceValue, what: str) -> Optional[AtomicValue]:
    """First of at most one item, which must be atomic; None when empty."""
    items = seq.iter_items()
    first = next(items, None)
    if first is None:
        return None
    if next(items, None) is not None:
        raise DynamicError("TYPE_ERROR", f"{what} requires at most one item")
    return _atomic(first, what)


def _atomic(item: Optional[Item], what: str) -> Optional[AtomicValue]:
    if item is not None and item.__class__ is not AtomicValue:
        raise DynamicError("TYPE_ERROR", f"{what} requires an atomic value")
    return item


def _atomic_reader(it: RuntimeIterator):
    """How a parent reads at most one atomic from this child's result."""
    return _atomic if it.mode == LOCAL_ONE else _single_atomic


def _ebv_reader(it: RuntimeIterator):
    """How a parent takes the effective boolean value of this child's result."""
    return item_ebv if it.mode == LOCAL_ONE else effective_boolean_value


def _items(value, one: bool):
    """Iterate a child's result in either form."""
    if one:
        return () if value is None else (value,)
    return value.iter_items()


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


def _literal_value(item, ev, ctx):
    return item


def _compile_literal(it, program):
    # literals are a third of all iterators; bound to the item alone, they
    # need no plan tuple
    return MethodType(_literal_value, it.node.value)


def _read_local(node, ev, ctx):
    try:
        return ctx[node.name]
    except KeyError:
        raise DynamicError("UNDEFINED_VARIABLE", f"${node.name} is not bound", node.pos) from None


def _read_external(node, ev, ctx):
    item = ev.external.get(node.name)
    if item is None:
        raise DynamicError(
            "UNDEFINED_VARIABLE", f"external variable ${node.name} is not bound", node.pos
        )
    return item


def _compile_var(it, program):
    # variable and context-item reads are bound to their node
    read = _read_external if it.node.binding == "external" else _read_local
    return MethodType(read, it.node)


def _read_context(node, ev, ctx):
    item = ctx.get(_CONTEXT)
    if item is None:
        raise DynamicError("UNDEFINED_VARIABLE", "$$ is not bound here", node.pos)
    return item


def _compile_context(it, program):
    return MethodType(_read_context, it.node)


def _empty(ev, ctx):
    return SequenceValue.empty()


def _compile_seq(it, program):
    # `(e)` is `e`, in the same mode: it compiles to its inner expression
    if not it.children:
        return _empty
    return _compile(it.children[0], program)


# ---------------------------------------------------------------------------
# Conditionals and boolean operators
# ---------------------------------------------------------------------------


def _run_if(plan, ev, ctx):
    cond, ebv, then, box_then, orelse, box_else, pos = plan
    try:
        if ebv(cond(ev, ctx)):
            result = then(ev, ctx)
            return _box(result) if box_then else result
        result = orelse(ev, ctx)
        return _box(result) if box_else else result
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_if(it, program):
    cond_it, then_it, else_it = it.children
    # a local-one `if` has local-one branches; otherwise box the ones that are
    seq = it.mode != LOCAL_ONE
    plan = (
        _compile(cond_it, program),
        _ebv_reader(cond_it),
        _compile(then_it, program),
        seq and then_it.mode == LOCAL_ONE,
        _compile(else_it, program),
        seq and else_it.mode == LOCAL_ONE,
        it.node.pos,
    )
    return MethodType(_run_if, plan)


def _run_boolop(plan, ev, ctx):
    is_and, left, left_ebv, right, right_ebv, pos = plan
    try:
        if is_and:
            value = left_ebv(left(ev, ctx)) and right_ebv(right(ev, ctx))
        else:
            value = left_ebv(left(ev, ctx)) or right_ebv(right(ev, ctx))
        return TRUE if value else FALSE
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_boolop(it, program):
    left_it, right_it = it.children
    plan = (
        it.node.op == "and",
        _compile(left_it, program),
        _ebv_reader(left_it),
        _compile(right_it, program),
        _ebv_reader(right_it),
        it.node.pos,
    )
    return MethodType(_run_boolop, plan)


def _run_not(plan, ev, ctx):
    operand, ebv, pos = plan
    try:
        return FALSE if ebv(operand(ev, ctx)) else TRUE
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_not(it, program):
    (operand_it,) = it.children
    plan = (_compile(operand_it, program), _ebv_reader(operand_it), it.node.pos)
    return MethodType(_run_not, plan)


# -- comparisons -------------------------------------------------------------

_COMPARISONS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}

# kinds whose values compare directly when both sides have the kind
_SAME_KIND_COMPARABLE = NUMERIC_KINDS | {"string", "boolean", "date", "dateTime"}


def _compare_values(op: str, a: AtomicValue, b: AtomicValue) -> bool:
    ka, kb = a.kind, b.kind
    if ka == kb and ka in _SAME_KIND_COMPARABLE:
        return _COMPARISONS[op](a.value, b.value)
    if ka == "null" or kb == "null":
        if op == "eq":
            return ka == "null" and kb == "null"
        if op == "ne":
            return not (ka == "null" and kb == "null")
        raise DynamicError("TYPE_ERROR", f"cannot order null with {op}")
    if ka in NUMERIC_KINDS and kb in NUMERIC_KINDS:
        av, bv = a.value, b.value
        # int/float compare exactly in Python; only Decimal-vs-float promotes
        if isinstance(av, Decimal) and isinstance(bv, float):
            av = float(av)
        elif isinstance(av, float) and isinstance(bv, Decimal):
            bv = float(bv)
        return _COMPARISONS[op](av, bv)
    raise DynamicError("TYPE_ERROR", f"cannot compare {ka} with {kb}")


def _run_comparison(plan, ev, ctx):
    op, left, left_atom, right, right_atom, pos = plan
    try:
        a = left_atom(left(ev, ctx), "comparison")
        b = right_atom(right(ev, ctx), "comparison")
        if a is None or b is None:
            return None
        return TRUE if _compare_values(op, a, b) else FALSE
    except DynamicError as err:
        _locate(err, pos)
        raise


def _binary_plan(it, program, op):
    """(op, left, its atomic reader, right, its atomic reader, position)."""
    left_it, right_it = it.children
    return (
        op,
        _compile(left_it, program),
        _atomic_reader(left_it),
        _compile(right_it, program),
        _atomic_reader(right_it),
        it.node.pos,
    )


def _compile_comparison(it, program):
    return MethodType(_run_comparison, _binary_plan(it, program, it.node.op))


# -- arithmetic ---------------------------------------------------------------


def _trunc_div(a, b) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _ieee_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return float("nan")
        negative = math.copysign(1.0, a) * math.copysign(1.0, b) < 0
        return float("-inf") if negative else float("inf")
    return a / b


_ADDITIVE = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _arithmetic(op: str, left: AtomicValue, right: AtomicValue, pos) -> AtomicValue:
    if left.kind not in NUMERIC_KINDS or right.kind not in NUMERIC_KINDS:
        raise DynamicError("TYPE_ERROR", f"arithmetic on {left.kind} and {right.kind}", pos)
    a, b = left.value, right.value
    if op == "div":
        return trusted_atomic("double", _ieee_div(float(a), float(b)))
    if op == "idiv":
        if float(b) == 0.0:
            raise DynamicError("DIVISION_BY_ZERO", "idiv by zero", pos)
        if isinstance(a, float) or isinstance(b, float):
            value = math.trunc(float(a) / float(b))
        elif isinstance(a, Decimal) or isinstance(b, Decimal):
            value = _trunc_div(a if isinstance(a, Decimal) else Decimal(a),
                               b if isinstance(b, Decimal) else Decimal(b))
            value = int(value)
        else:
            value = _trunc_div(a, b)
        return trusted_atomic("integer", int(value))
    if op == "mod":
        if float(b) == 0.0:
            raise DynamicError("DIVISION_BY_ZERO", "mod by zero", pos)
        if isinstance(a, float) or isinstance(b, float):
            return trusted_atomic("double", math.fmod(float(a), float(b)))
        if isinstance(a, Decimal) or isinstance(b, Decimal):
            da = a if isinstance(a, Decimal) else Decimal(a)
            db = b if isinstance(b, Decimal) else Decimal(b)
            return trusted_atomic("decimal", da % db)
        return trusted_atomic("integer", a - b * _trunc_div(a, b))
    # + - *
    apply = _ADDITIVE[op]
    if isinstance(a, float) or isinstance(b, float):
        return trusted_atomic("double", apply(float(a), float(b)))
    if isinstance(a, Decimal) or isinstance(b, Decimal):
        da = a if isinstance(a, Decimal) else Decimal(a)
        db = b if isinstance(b, Decimal) else Decimal(b)
        return trusted_atomic("decimal", apply(da, db))
    return trusted_atomic("integer", apply(a, b))


def _run_arithmetic(plan, ev, ctx):
    op, left, left_atom, right, right_atom, pos = plan
    try:
        a = left_atom(left(ev, ctx), "arithmetic")
        b = right_atom(right(ev, ctx), "arithmetic")
        if a is None or b is None:
            return None
        return _arithmetic(op, a, b, pos)
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_arithmetic(it, program):
    return MethodType(_run_arithmetic, _binary_plan(it, program, it.node.op))


def _range_items(start: int, stop: int):
    for v in range(start, stop + 1):
        yield trusted_atomic("integer", v)


def _run_range(plan, ev, ctx):
    _, lo, lo_atom, hi, hi_atom, pos = plan
    try:
        a = lo_atom(lo(ev, ctx), "range")
        b = hi_atom(hi(ev, ctx), "range")
        if a is None or b is None:
            return SequenceValue.empty()
        if a.kind not in INTEGER_KINDS or b.kind not in INTEGER_KINDS:
            raise DynamicError("TYPE_ERROR", "range bounds must be integers", pos)
        return SequenceValue.from_iter(_range_items(a.value, b.value))
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_range(it, program):
    return MethodType(_run_range, _binary_plan(it, program, None))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _object_value(value: SequenceValue, pos) -> Item:
    items = value.iter_items()
    first = next(items, None)
    if first is None:
        return NULL
    if next(items, None) is not None:
        raise DynamicError("TYPE_ERROR", "object value must be a single item", pos)
    return first


def _run_object(plan, ev, ctx):
    pairs, pos = plan
    try:
        out = {}
        duplicate = None
        for name, key, key_atom, key_pos, value, value_one, value_pos in pairs:
            if key is not None:
                atom = key_atom(key(ev, ctx), "object key")
                if atom is None:
                    raise DynamicError("TYPE_ERROR", "object key must not be empty", key_pos)
                name = atom.value if atom.kind == "string" else render_atomic(atom)
            item = value(ev, ctx)
            if not value_one:
                item = _object_value(item, value_pos)
            elif item is None:
                item = NULL
            if duplicate is None and name in out:
                duplicate = name
            out[name] = item
        if duplicate is not None:
            # reported only once every pair has been evaluated
            raise DynamicError("DUPLICATE_OBJECT_KEY", f"duplicate object key {duplicate!r}")
        return ObjectItem(out)
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_object(it, program):
    # one (key name, key, key reader, key position, value, value is
    # local-one, value position) entry per pair; a literal key is named here
    # and compiles to nothing
    pairs = []
    for key_it, val_it in zip(it.children[0::2], it.children[1::2]):
        if key_it.kind == "literal":
            literal = key_it.node.value
            name = literal.value if literal.kind == "string" else render_atomic(literal)
            key = key_atom = None
        else:
            name = None
            key, key_atom = _compile(key_it, program), _atomic_reader(key_it)
        pairs.append(
            (
                name,
                key,
                key_atom,
                key_it.node.pos,
                _compile(val_it, program),
                val_it.mode == LOCAL_ONE,
                val_it.node.pos,
            )
        )
    return MethodType(_run_object, (tuple(pairs), it.node.pos))


def _run_merged(plan, ev, ctx):
    source, source_one, pos = plan
    try:
        pairs: dict = {}
        for item in _items(source(ev, ctx), source_one):
            if item.__class__ is not ObjectItem:
                raise DynamicError("TYPE_ERROR", "merged object constructor requires objects", pos)
            for key, value in item.pairs.items():
                if key in pairs:
                    raise DynamicError(
                        "DUPLICATE_KEY_IN_MERGE", f"duplicate key {key!r} in merge", pos
                    )
                pairs[key] = value
        return ObjectItem(pairs)
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_merged(it, program):
    (source_it,) = it.children
    plan = (_compile(source_it, program), source_it.mode == LOCAL_ONE, it.node.pos)
    return MethodType(_run_merged, plan)


def _run_array(plan, ev, ctx):
    members, pos = plan
    try:
        out: list = []
        cap = ev.cap
        for member, one in members:
            for item in _items(member(ev, ctx), one):
                if len(out) >= cap:
                    raise MaterializationCapError(cap)
                out.append(item)
        return ArrayItem(out)
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_array(it, program):
    return MethodType(_run_array, (_children_plan(it.children, program), it.node.pos))


def _children_plan(children, program) -> tuple:
    """(compiled child, child is local-one) per child."""
    return tuple([(_compile(child, program), child.mode == LOCAL_ONE) for child in children])


# ---------------------------------------------------------------------------
# Postfix: lookup and predicate
# ---------------------------------------------------------------------------


def _run_lookup_one(plan, ev, ctx):
    base, key = plan
    item = base(ev, ctx)
    if item.__class__ is ObjectItem:
        return item.pairs.get(key)
    return None


def _lookup_items(base: SequenceValue, key: str):
    for item in base.iter_items():
        if item.__class__ is ObjectItem:
            value = item.pairs.get(key)
            if value is not None:
                yield value


def _run_lookup(plan, ev, ctx):
    base, key = plan
    return SequenceValue.from_iter(_lookup_items(base(ev, ctx), key))


def _compile_lookup(it, program):
    # a lookup is local-one exactly when its base is
    run = _run_lookup_one if it.mode == LOCAL_ONE else _run_lookup
    return MethodType(run, (_compile(it.children[0], program), it.node.key))


def _filter_items(ev, ctx: dict, base: SequenceValue, cond, ebv):
    # the condition reduces to a boolean before the next item, so one
    # context serves every item
    inner = dict(ctx)
    for item in base.iter_items():
        inner[_CONTEXT] = item
        if ebv(cond(ev, inner)):
            yield item


def _frame_where(ev, frame, var: str, cond, ebv, pos) -> SequenceValue:
    """Filter a frame by a lowered condition, which reads nothing but the row
    bound to `var`."""
    row_ctx = {}

    def row_pred(row):
        row_ctx[var] = row
        return ebv(cond(ev, row_ctx))

    try:
        return SequenceValue.from_frame(frame_filter(frame, row_pred))
    except DynamicError as err:
        _locate(err, pos)
        raise


def _run_predicate(plan, ev, ctx):
    base, base_one, cond, ebv, lowered, pos = plan
    value = base(ev, ctx)
    if base_one:
        value = _box(value)
    if lowered and value.is_frame():
        return _frame_where(ev, value.frame, _CONTEXT, cond, ebv, pos)
    return SequenceValue.from_iter(_filter_items(ev, ctx, value, cond, ebv))


def _compile_predicate(it, program):
    base_it, cond_it = it.children
    plan = (
        _compile(base_it, program),
        base_it.mode == LOCAL_ONE,
        _compile(cond_it, program),
        _ebv_reader(cond_it),
        it.frame_lowered,
        it.node.pos,
    )
    return MethodType(_run_predicate, plan)


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def _compile_static_call(it, program):
    target_kind, target = it.node.target
    if target_kind == "builtin":
        return _compile_builtin_call(it, program, program.catalog[target])
    return _compile_user_call(it, program, program.functions[target.key])


def _run_item_builtin(plan, ev, ctx):
    item_fn, arg, pos = plan
    try:
        return item_fn(arg(ev, ctx))
    except DynamicError as err:
        _locate(err, pos)
        raise


def _run_builtin(plan, ev, ctx):
    fn, it, args, one = plan
    try:
        values = []
        for arg, arg_one in args:
            value = arg(ev, ctx)
            values.append(_box(value) if arg_one else value)
        result = fn(ev, it, ctx, values)
        return result.first() if one else result
    except DynamicError as err:
        _locate(err, it.node.pos)
        raise


def _compile_builtin_call(it, program, spec):
    one = it.mode == LOCAL_ONE
    if spec.item_fn is not None and one and it.children[0].mode == LOCAL_ONE:
        plan = (spec.item_fn, _compile(it.children[0], program), it.node.pos)
        return MethodType(_run_item_builtin, plan)
    return MethodType(_run_builtin, (spec.fn, it, _children_plan(it.children, program), one))


def _run_user_call(plan, ev, ctx):
    function, params, pos = plan
    try:
        inner = {}
        for name, arg, arg_one, param_one in params:
            value = arg(ev, ctx)
            if arg_one:
                inner[name] = value if param_one else _box(value)
            else:
                value = _bind(value, ev.cap)
                inner[name] = _only(value) if param_one else value
        return function.run(ev, inner)
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_user_call(it, program, function: _Function):
    # the call's mode is the body's mode (inference gives it the body mode)
    params = tuple(
        [
            (name, _compile(child, program), child.mode == LOCAL_ONE, param_one)
            for name, child, param_one in zip(function.params, it.children, function.param_ones)
        ]
    )
    return MethodType(_run_user_call, (function, params, it.node.pos))


def _run_user_fnref(key, ev, ctx):
    return ev.user_function_item(ev.tree.functions[key])


def _run_builtin_fnref(plan, ev, ctx):
    fn, it, target = plan
    name, _, arity = target.rpartition("#")
    arity = int(arity)

    def invoke(inner_ev, args, pos):
        return fn(inner_ev, it, {}, args)

    return FunctionItem(
        name=name,
        param_names=tuple([f"arg{i}" for i in range(arity)]),
        signature=(None,) * arity + (None,),
        native=NativeHandle(tag=f"builtin:{target}", invoke=invoke),
    )


def _compile_fnref(it, program):
    target_kind, target = it.node.target
    if target_kind == "user":
        return MethodType(_run_user_fnref, target.key)
    return MethodType(_run_builtin_fnref, (program.catalog[target].fn, it, target))


def _only_function(seq: SequenceValue):
    """The single item of a callee sequence, or None when it has not one."""
    items = seq.iter_items()
    first = next(items, None)
    if next(items, None) is not None:
        return None
    return first


def _run_dynamic_call(plan, ev, ctx):
    callee, callee_one, args, it = plan
    pos = it.node.pos
    try:
        target = callee(ev, ctx)
        fn = target if callee_one else _only_function(target)
        if fn is None or fn.__class__ is not FunctionItem:
            raise DynamicError(
                "NOT_A_FUNCTION", "dynamic call target is not a single function item", pos
            )
        values = []
        for arg, arg_one in args:
            value = arg(ev, ctx)
            values.append(_box(value) if arg_one else _bind(value, ev.cap))
        result = ev.invoke_function(fn, values, pos)

        if it.call_assumption == "estimator":
            out = result.iter_items()
            first = next(out, None)
            if first is None or next(out, None) is not None:
                raise DynamicError(
                    "MODE_ASSUMPTION_VIOLATED",
                    "call was compiled for a single-item result, got a sequence",
                    pos,
                )
            return first if it.mode == LOCAL_ONE else SequenceValue.single(first)
        if it.call_assumption == "transformer-frame":
            if not result.is_frame():
                raise DynamicError(
                    "MODE_ASSUMPTION_VIOLATED",
                    "call was compiled for a frame result, got a local sequence",
                    pos,
                )
            return result
        if it.mode != FRAME_MODE and result.is_frame():
            return SequenceValue.from_iter(result.frame.iter_items())
        return result
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_dynamic_call(it, program):
    callee_it = it.children[0]
    plan = (
        _compile(callee_it, program),
        callee_it.mode == LOCAL_ONE,
        _children_plan(it.children[1:], program),
        it,
    )
    return MethodType(_run_dynamic_call, plan)


# ---------------------------------------------------------------------------
# FLWOR
# ---------------------------------------------------------------------------
#
# A FLWOR compiles to a tuple of clause entries. Each entry starts with the
# generator function that applies the clause to a stream of tuples (dynamic
# contexts); the rest are its compiled children and constants.


def _for_tuples(ev, clause, tuples):
    _, var, pos_var, source, one, fresh = clause
    for t in tuples:
        inner = t.copy()
        position = 0
        for item in _items(source(ev, t), one):
            if fresh:
                inner = t.copy()
            inner[var] = item
            if pos_var:
                position += 1
                inner[pos_var] = trusted_atomic("integer", position)
            yield inner


def _let_tuples(ev, clause, tuples):
    _, var, value, one = clause
    for t in tuples:
        bound = value(ev, t)
        inner = t.copy()
        inner[var] = bound if one else _bind(bound, ev.cap)
        yield inner


def _where_tuples(ev, clause, tuples):
    _, cond, ebv = clause
    for t in tuples:
        if ebv(cond(ev, t)):
            yield t


_SORT_CLASSES = {
    "string": "s",
    "boolean": "b",
    "date": "d",
    "dateTime": "t",
}


def _sort_key(atom: Optional[AtomicValue], pos):
    if atom is None:
        raise DynamicError("TYPE_ERROR", "order-by key must not be empty", pos)
    if atom.kind in NUMERIC_KINDS:
        value = float(atom.value)
        if math.isnan(value):
            raise DynamicError("TYPE_ERROR", "order-by key is NaN", pos)
        return ("n", value)
    cls = _SORT_CLASSES.get(atom.kind)
    if cls is None:
        raise DynamicError("TYPE_ERROR", f"cannot order by {atom.kind}", pos)
    return (cls, atom.value)


def _order_tuples(ev, clause, tuples):
    _, key, key_atom, descending, pos = clause
    collected = []
    for t in tuples:
        if len(collected) >= ev.cap:
            raise MaterializationCapError(ev.cap)
        value = key(ev, t)
        try:
            atom = key_atom(value, "order-by key")
        except DynamicError as err:
            _locate(err, pos)
            raise
        collected.append((_sort_key(atom, pos), t))
    classes = {k[0] for k, _ in collected}
    if len(classes) > 1:
        raise DynamicError("TYPE_ERROR", "mixed-type order-by keys", pos)
    collected.sort(key=lambda pair: pair[0][1], reverse=descending)
    for _, t in collected:
        yield t


def _flwor_items(ev, ctx, clauses, ret, ret_one):
    tuples = (ctx,)
    for clause in clauses:
        tuples = clause[0](ev, clause, tuples)
    if ret_one:
        for t in tuples:
            item = ret(ev, t)
            if item is not None:
                yield item
    else:
        for t in tuples:
            yield from ret(ev, t).iter_items()


def _run_flwor(plan, ev, ctx):
    clauses, ret, ret_one = plan
    return SequenceValue.from_iter(_flwor_items(ev, ctx, clauses, ret, ret_one))


def _compile_flwor(it, program):
    if it.frame_lowered:
        return _compile_flwor_frame(it, program)
    clauses = []
    ordered_later = False
    for clause, child in reversed(it.clause_iters):
        run = _compile(child, program)
        if isinstance(clause, ForClause):
            # without a later order by, each tuple is spent before the next
            # is made, so one context per source evaluation suffices
            clauses.append(
                (
                    _for_tuples,
                    clause.var,
                    clause.pos_var,
                    run,
                    child.mode == LOCAL_ONE,
                    ordered_later,
                )
            )
        elif isinstance(clause, LetClause):
            clauses.append((_let_tuples, clause.var, run, child.mode == LOCAL_ONE))
        elif isinstance(clause, WhereClause):
            clauses.append((_where_tuples, run, _ebv_reader(child)))
        elif isinstance(clause, OrderByClause):
            ordered_later = True
            clauses.append(
                (_order_tuples, run, _atomic_reader(child), clause.descending, clause.pos)
            )
        else:  # pragma: no cover
            raise AssertionError(type(clause))
    plan = (
        tuple(reversed(clauses)),
        _compile(it.return_iter, program),
        it.return_iter.mode == LOCAL_ONE,
    )
    return MethodType(_run_flwor, plan)


def _run_flwor_frame(plan, ev, ctx):
    source, var, cond, ebv, pos = plan
    try:
        base = source(ev, ctx)
        if not base.is_frame():
            raise DynamicError("NOT_A_FRAME", "frame-lowered FLWOR over a local sequence", pos)
    except DynamicError as err:
        _locate(err, pos)
        raise
    if cond is None:
        return base
    return _frame_where(ev, base.frame, var, cond, ebv, pos)


def _compile_flwor_frame(it, program):
    """A single `for` over a frame, an optional row-local `where` and an
    identity return: the rows are filtered without leaving the frame."""
    for_clause, source_it = next(
        (c, ch) for c, ch in it.clause_iters if isinstance(c, ForClause)
    )
    wheres = [ch for c, ch in it.clause_iters if isinstance(c, WhereClause)]
    plan = (
        _compile(source_it, program),
        for_clause.var,
        _compile(wheres[0], program) if wheres else None,
        _ebv_reader(wheres[0]) if wheres else None,
        it.node.pos,
    )
    return MethodType(_run_flwor_frame, plan)


_COMPILERS = {
    "literal": _compile_literal,
    "var": _compile_var,
    "context": _compile_context,
    "seq": _compile_seq,
    "if": _compile_if,
    "boolop": _compile_boolop,
    "not": _compile_not,
    "comparison": _compile_comparison,
    "arithmetic": _compile_arithmetic,
    "range": _compile_range,
    "object": _compile_object,
    "merged": _compile_merged,
    "array": _compile_array,
    "lookup": _compile_lookup,
    "predicate": _compile_predicate,
    "static-call": _compile_static_call,
    "fnref": _compile_fnref,
    "dynamic-call": _compile_dynamic_call,
    "flwor": _compile_flwor,
}
