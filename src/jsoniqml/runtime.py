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
  values, effective boolean values, builtin arguments, `for` bindings) call
  it directly: no sequence box and no walk over a one-item stream.
- `local-seq` returns a `SequenceValue`, usually a lazy pull stream
  (volcano-style). Streams are materialized, under the cap, only at binding
  points: `let` clauses, user-function arguments, order-by collection and
  array construction.
- `frame` returns the `Frame` itself: item consumers iterate, count or
  materialize it like a `SequenceValue`, while lowered predicates, `where`
  clauses and ML stages take it as it is. A `local-seq` value may be a
  `Frame` too (a conditional with one frame branch), so only the boundaries
  where the plan can be wrong check what they got.

The dynamic context is a plain dict from variable name to binding, with the
predicate context item under `$$`. A `local-one` variable is bound to the bare
item (or None), any other variable to a `SequenceValue` or a `Frame`.

Builtins have one calling convention (see `builtins.py`). A static call
evaluates every argument, then reads each with the reader its parameter
declares, in the form picked at compile time from the argument's mode: a
`local-one` argument is read from its bare item, so no sequence is built,
and a one-argument builtin whose reader is the identity on it (`string#1`)
is one direct call. The body returns the call's value in the call's mode: a
`"one"` builtin its item or None. A builtin function item reads its boxed
arguments with the sequence forms and boxes a `"one"` result.

One kernel compiler, `_compile_kernel`, turns an expression into a column
kernel: a callable from an environment of column vectors (variable name to
vector, see `frame.py`) to the expression's vector. A kernel refuses
wherever it could differ from the per-row result or error, and only then does
the usual callable run once per row. It serves two plans:

- A lowered predicate or `where` (see `modes._lowerable`) is compiled into
  the usual callable and into a kernel whose one variable holds the frame's
  rows. The filter runs the kernel first, and the callable per row object
  where it refuses.
- The rows of a frame-mode `annotate` whose first argument is one `for` over
  a local sequence, then `let`s, then an object constructor, all made of row
  building's operators (`_row_kernel`: `tokenize`, `head`, `tail`,
  `contains`, `if`, literals, object constructors with literal keys and the
  positional record `{| for $i at $p in $s return { string($p) : $i } |}`),
  are built a batch of `for` items at a time (`ANNOTATE_BATCH`): each `let`
  and the return run as kernels over the batch, and the returned record
  vector is cast straight into the column builders. A batch that refuses is
  built by the FLWOR's compiled clauses, item by item, and put row by row.

A run function whose own body can raise a dynamic error attaches its node's
position to a position-less one; errors raised later, while a lazy result is
pulled, surface in whichever iterator pulls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, DecimalException
from functools import partial
from itertools import islice
from types import MethodType
from typing import Any, Callable, Optional

from .ast_nodes import ForClause, LetClause, OrderByClause, WhereClause
from .errors import DynamicError, MaterializationCapError
from .frame import (
    ADDITIVE,
    COMPARISONS,
    EMPTY,
    Frame,
    Refused,
    annotate_batches,
    frame_filter,
    items_vector,
    literal_vector,
    row_vector,
    sequence_longest,
    vector_arithmetic,
    vector_boolean,
    vector_compare,
    vector_contains,
    vector_head,
    vector_if,
    vector_lookup,
    vector_not,
    vector_object,
    vector_positional,
    vector_string,
    vector_tail,
    vector_tokenize,
)
from .items import (
    EXACT_CONTEXT,
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
    POSITIONS,
    SHARED_POSITIONS,
    SequenceValue,
    at_most_one,
    effective_boolean_value,
    item_ebv,
    render_atomic,
    render_double,
    to_double,
    trusted_atomic,
)
from .modes import FRAME_MODE, LOCAL_ONE, CompiledTree, FunctionInfo, RuntimeIterator

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

    def run(self) -> "SequenceValue | Frame":
        program = self.program
        result = program.root(self, {})
        return _box(result) if program.root_one else result

    def evaluate(self, it: RuntimeIterator, ctx: dict) -> "SequenceValue | Frame":
        """Evaluate any one iterator of the tree in the context `ctx`; it is
        compiled on the spot, so this is an entry point, not the inner loop."""
        result = _compile(it, self.program)(self, ctx)
        return _box(result) if it.mode == LOCAL_ONE else result

    # -- function invocation ---------------------------------------------------

    def invoke_function(self, fn: FunctionItem, args: list, pos):
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
            value = _bind(value, self.cap, pos)
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


def _locate(err: "DynamicError | MaterializationCapError", pos) -> None:
    if err.position is None:
        err.position = pos


# ---------------------------------------------------------------------------
# Conversions between the two calling conventions
# ---------------------------------------------------------------------------


def _box(item: Optional[Item]) -> SequenceValue:
    if item is None:
        return SequenceValue.empty()
    return SequenceValue.single(item)


def _bind(seq, cap: int, pos):
    """Pin a value for (re)use as a variable: frames and singles stay as
    they are, streams materialize under the cap. An over-cap stream is
    reported at `pos`, the binding site."""
    if seq.__class__ is not Frame and seq.representation == SequenceValue.STREAM:
        if isinstance(seq._payload, list):
            if len(seq._payload) > cap:
                raise MaterializationCapError(cap, pos)
        else:
            try:
                return SequenceValue.from_list(seq.materialize(cap))
            except MaterializationCapError as err:
                _locate(err, pos)
                raise
    return seq


def _only(seq) -> Optional[Item]:
    """The item of a sequence bound where inference promised at most one."""
    return at_most_one(
        seq, "MODE_ASSUMPTION_VIOLATED", "a single-item binding received a sequence"
    )


def _single_atomic(seq, what: str) -> Optional[AtomicValue]:
    """The item of at most one, which must be atomic; None when empty."""
    item = at_most_one(seq, "TYPE_ERROR", f"{what} requires at most one item")
    return _atomic(item, what)


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

# kinds whose values compare directly when both sides have the kind
_SAME_KIND_COMPARABLE = NUMERIC_KINDS | {"string", "boolean", "date", "dateTime"}


def _compare_values(op: str, a: AtomicValue, b: AtomicValue) -> bool:
    ka, kb = a.kind, b.kind
    if ka == kb and ka in _SAME_KIND_COMPARABLE:
        return COMPARISONS[op](a.value, b.value)
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
        return COMPARISONS[op](av, bv)
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


# decimal `+ - * mod` run in the exact context
_DECIMAL_OPS = {
    "+": Context.add,
    "-": Context.subtract,
    "*": Context.multiply,
    "mod": Context.remainder,
}


def _exact_decimal(op: str, a, b, pos) -> AtomicValue:
    try:
        value = _DECIMAL_OPS[op](EXACT_CONTEXT, Decimal(a), Decimal(b))
        return trusted_atomic("decimal", value)
    except DecimalException as err:  # only past the context's precision or exponent limits
        raise DynamicError(
            "RANGE_ERROR", f"decimal {op} is beyond the decimal range ({type(err).__name__})", pos
        ) from err


def _ieee_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return float("nan")
        negative = math.copysign(1.0, a) * math.copysign(1.0, b) < 0
        return float("-inf") if negative else float("inf")
    return a / b


def _ieee_fmod(a: float, b: float) -> float:
    # math.fmod rejects an infinite dividend, whose IEEE 754 remainder is NaN
    return math.nan if math.isinf(a) else math.fmod(a, b)


def _arithmetic(op: str, left: AtomicValue, right: AtomicValue, pos) -> AtomicValue:
    """Integers stay exact; a double operand makes the operation double, and
    an integer beyond the double range then converts to an infinity."""
    if left.kind not in NUMERIC_KINDS or right.kind not in NUMERIC_KINDS:
        raise DynamicError("TYPE_ERROR", f"arithmetic on {left.kind} and {right.kind}", pos)
    a, b = left.value, right.value
    if op == "div":
        return trusted_atomic("double", _ieee_div(to_double(a), to_double(b)))
    if op == "idiv":
        if to_double(b) == 0.0:
            raise DynamicError("DIVISION_BY_ZERO", "idiv by zero", pos)
        if isinstance(a, float) or isinstance(b, float):
            quotient = to_double(a) / to_double(b)
            if not math.isfinite(quotient):
                raise DynamicError(
                    "RANGE_ERROR", f"idiv quotient {render_double(quotient)} is not an integer", pos
                )
            value = math.trunc(quotient)
        elif isinstance(a, Decimal) or isinstance(b, Decimal):
            # exact integer ratios: no decimal context limits the quotient,
            # and no huge Decimal quotient has to be converted to an int
            na, da = a.as_integer_ratio()
            nb, db = b.as_integer_ratio()
            value = _trunc_div(na * db, da * nb)
        else:
            value = _trunc_div(a, b)
        return trusted_atomic("integer", int(value))
    if op == "mod":
        if to_double(b) == 0.0:
            raise DynamicError("DIVISION_BY_ZERO", "mod by zero", pos)
        if isinstance(a, float) or isinstance(b, float):
            return trusted_atomic("double", _ieee_fmod(to_double(a), to_double(b)))
        if isinstance(a, Decimal) or isinstance(b, Decimal):
            return _exact_decimal(op, a, b, pos)
        return trusted_atomic("integer", a - b * _trunc_div(a, b))
    # + - *
    apply = ADDITIVE[op]
    if isinstance(a, float) or isinstance(b, float):
        return trusted_atomic("double", apply(to_double(a), to_double(b)))
    if isinstance(a, Decimal) or isinstance(b, Decimal):
        return _exact_decimal(op, a, b, pos)
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


def _object_pairs(pairs, ev, ctx) -> dict:
    """Evaluate an object constructor's pairs into a dict; a repeated key is
    reported only once every pair has been evaluated."""
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
            item = at_most_one(item, "TYPE_ERROR", "object value must be a single item", value_pos)
        if item is None:
            item = NULL
        if duplicate is None and name in out:
            duplicate = name
        out[name] = item
    if duplicate is not None:
        raise DynamicError("DUPLICATE_OBJECT_KEY", f"duplicate object key {duplicate!r}")
    return out


def _run_object(plan, ev, ctx):
    pairs, pos = plan
    try:
        return ObjectItem(_object_pairs(pairs, ev, ctx))
    except DynamicError as err:
        _locate(err, pos)
        raise


def _key_name(literal: AtomicValue) -> str:
    return literal.value if literal.kind == "string" else render_atomic(literal)


def _object_plan(it, program) -> tuple:
    """One (key name, key, key reader, key position, value, value is
    local-one, value position) entry per pair; a literal key is named here
    and compiles to nothing."""
    pairs = []
    for key_it, val_it in zip(it.children[0::2], it.children[1::2]):
        if key_it.kind == "literal":
            name = _key_name(key_it.node.value)
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
    return tuple(pairs)


def _compile_object(it, program):
    return MethodType(_run_object, (_object_plan(it, program), it.node.pos))


def _merge_duplicate(key, pos):
    return DynamicError("DUPLICATE_KEY_IN_MERGE", f"duplicate key {key!r} in merge", pos)


def _run_merged(plan, ev, ctx):
    source, source_one, pos = plan
    try:
        pairs: dict = {}
        for item in _items(source(ev, ctx), source_one):
            if item.__class__ is not ObjectItem:
                raise DynamicError("TYPE_ERROR", "merged object constructor requires objects", pos)
            for key, value in item.pairs.items():
                if key in pairs:
                    raise _merge_duplicate(key, pos)
                pairs[key] = value
        return ObjectItem(pairs)
    except DynamicError as err:
        _locate(err, pos)
        raise


def _run_merged_flwor(plan, ev, ctx):
    """`{| FLWOR |}` whose return is an object constructor: each tuple's
    pairs go straight into the merged dict, and no object is built per
    tuple. Errors are those of the unfused form: the return's own at the
    constructor's position, the clauses' and the merge's at the merge's."""
    clauses, ret_pairs, ret_pos, pos = plan
    try:
        pairs: dict = {}
        for t in _tuples(ev, ctx, clauses):
            try:
                returned = _object_pairs(ret_pairs, ev, t)
            except DynamicError as err:
                _locate(err, ret_pos)
                raise
            for key, value in returned.items():
                if key in pairs:
                    raise _merge_duplicate(key, pos)
                pairs[key] = value
        return ObjectItem(pairs)
    except DynamicError as err:
        _locate(err, pos)
        raise


def _compile_merged(it, program):
    (source_it,) = it.children
    if source_it.kind == "flwor" and not source_it.frame_lowered:
        ret_it = source_it.return_iter
        if ret_it.kind == "object" and ret_it.mode == LOCAL_ONE:
            plan = (
                _compile_clauses(source_it, program),
                _object_plan(ret_it, program),
                ret_it.node.pos,
                it.node.pos,
            )
            return MethodType(_run_merged_flwor, plan)
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
                    raise MaterializationCapError(cap, pos)
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


def _run_frame_where(plan, ev, ctx):
    """A lowered predicate or `where`: filter the source's frame by a
    condition that reads nothing but the row bound to `var`. The condition's
    column kernel runs first; the compiled condition runs per row only when
    the kernel refuses."""
    source, var, cond, ebv, kernel, pos = plan
    frame = source(ev, ctx)
    row_ctx = {}

    def row_pred(row):
        row_ctx[var] = row
        return ebv(cond(ev, row_ctx))

    try:
        return frame_filter(frame, row_pred, kernel)
    except DynamicError as err:
        _locate(err, pos)
        raise


def _kernel_constant(vector, env):
    return vector


def _kernel_variable(name, env):
    return env[name]


def _run_kernel(plan, env):
    operation, constants, children = plan
    return operation(*constants, *[child(env) for child in children])


def _frame_kernel(plan, frame):
    """A condition's kernel over a frame, whose rows its variable reads."""
    var, kernel = plan
    return kernel({var: row_vector(frame)})


# the column operation of each operator a kernel may hold
_VECTOR_OPERATIONS = {
    "comparison": vector_compare,
    "arithmetic": vector_arithmetic,
    "boolop": vector_boolean,
    "not": vector_not,
    "if": vector_if,
    "lookup": vector_lookup,
    "object": vector_object,
    "merged": vector_positional,
    "contains#2": vector_contains,
    "string#1": vector_string,
    "tokenize#2": vector_tokenize,
    "head#1": vector_head,
    "tail#1": vector_tail,
}


def _compile_kernel(it):
    """The column kernel of an expression that `modes._lowerable` or
    `_row_kernel` accepts: a callable from an environment (variable name to
    vector) to the expression's vector (see `frame.py`)."""
    kind, node = it.kind, it.node
    if kind == "literal":
        return MethodType(_kernel_constant, literal_vector(node.value))
    if kind in ("context", "var"):
        return MethodType(_kernel_variable, _CONTEXT if kind == "context" else node.name)
    children = it.children
    constants = ()
    if kind in ("comparison", "arithmetic"):
        constants = (node.op,)
    elif kind == "boolop":
        constants = (node.op == "and",)
    elif kind == "lookup":
        constants = (node.key,)
    elif kind == "object":
        constants = (tuple([_key_name(key.node.value) for key in children[0::2]]),)
        children = children[1::2]
    elif kind == "merged":
        children = [_positional_source(it)]
    elif kind == "static-call":
        kind = node.target[1]
    children = tuple([_compile_kernel(child) for child in children])
    if kind == "seq":
        return children[0] if children else MethodType(_kernel_constant, EMPTY)
    return MethodType(_run_kernel, (_VECTOR_OPERATIONS[kind], constants, children))


# builtins a row-building kernel may call
_ROW_BUILTINS = frozenset({"tokenize#2", "head#1", "tail#1", "contains#2"})


def _row_kernel(it, names) -> bool:
    """Whether a batched `annotate` can evaluate the expression as a column
    kernel: it reads no variable but the batch's (`names`) and has only the
    operators of row building."""
    kind = it.kind
    if kind == "literal":
        return True
    if kind == "var":
        return it.node.binding == "local" and it.node.name in names
    if kind == "static-call":
        target_kind, target = it.node.target
        if target_kind != "builtin" or target not in _ROW_BUILTINS:
            return False
    elif kind == "object":
        keys = [key.node.value for key in it.children[0::2] if key.kind == "literal"]
        if len(keys) * 2 != len(it.children) or len({_key_name(k) for k in keys}) != len(keys):
            return False  # a computed or a repeated key
        return all(_row_kernel(value, names) for value in it.children[1::2])
    elif kind == "merged":
        source = _positional_source(it)
        return source is not None and _row_kernel(source, names)
    elif not (kind == "if" or (kind == "seq" and len(it.children) == 1)):
        return False
    return all(_row_kernel(child, names) for child in it.children)


def _positional_source(it) -> Optional[RuntimeIterator]:
    """The `$s` of `{| for $i at $p in $s return { string($p) : $i } |}`, the
    positional record, or None for any other merged object constructor."""
    flwor = it.children[0]
    if flwor.kind != "flwor" or flwor.frame_lowered or len(flwor.node.clauses) != 1:
        return None
    (clause, source), ret = flwor.clause_iters[0], flwor.return_iter
    if not isinstance(clause, ForClause) or clause.pos_var in (None, clause.var):
        return None
    if ret.kind != "object" or len(ret.children) != 2:
        return None
    key, value = ret.children
    if key.kind != "static-call" or key.node.target != ("builtin", "string#1"):
        return None
    if not _reads(key.children[0], clause.pos_var) or not _reads(value, clause.var):
        return None
    return source


def _reads(it, name: str) -> bool:
    return it.kind == "var" and it.node.binding == "local" and it.node.name == name


def _run_predicate(plan, ev, ctx):
    base, base_one, cond, ebv = plan
    value = base(ev, ctx)
    if base_one:
        value = _box(value)
    return SequenceValue.from_iter(_filter_items(ev, ctx, value, cond, ebv))


def _compile_predicate(it, program):
    base_it, cond_it = it.children
    base = _compile(base_it, program)
    cond, ebv = _compile(cond_it, program), _ebv_reader(cond_it)
    if it.frame_lowered:
        # the base is frame-mode: its value is a Frame
        kernel = MethodType(_frame_kernel, (_CONTEXT, _compile_kernel(cond_it)))
        plan = (base, _CONTEXT, cond, ebv, kernel, it.node.pos)
        return MethodType(_run_frame_where, plan)
    return MethodType(_run_predicate, (base, base_it.mode == LOCAL_ONE, cond, ebv))


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def _compile_static_call(it, program):
    target_kind, target = it.node.target
    if target_kind == "builtin":
        return _compile_builtin_call(it, program, program.catalog[target])
    return _compile_user_call(it, program, program.functions[target.key])


def _run_builtin_direct(plan, ev, ctx):
    fn, it, arg = plan
    try:
        return fn(it, arg(ev, ctx))
    except DynamicError as err:
        _locate(err, it.node.pos)
        raise


def _run_builtin1(plan, ev, ctx):
    fn, it, arg, read = plan
    try:
        return fn(it, read(arg(ev, ctx)))
    except DynamicError as err:
        _locate(err, it.node.pos)
        raise


def _run_builtin2(plan, ev, ctx):
    fn, it, arg0, read0, arg1, read1 = plan
    try:
        value0 = arg0(ev, ctx)
        value1 = arg1(ev, ctx)
        return fn(it, read0(value0), read1(value1))
    except DynamicError as err:
        _locate(err, it.node.pos)
        raise


# builtin call run functions by arity; the plan is the body, the call
# iterator, then each argument's callable and reader
_BUILTIN_RUNS = {1: _run_builtin1, 2: _run_builtin2}


def _compile_builtin_call(it, program, spec):
    """Each argument's reader is chosen from its mode (see `builtins.py`): a
    local-one argument reaches the body as its item or payload, unboxed.
    A frame-mode `annotate` whose rows have a batch plan builds them with it."""
    if spec.key == "annotate#2" and it.mode == FRAME_MODE:
        rows = _compile_row_batches(it.children[0], program)
        if rows is not None:
            return _compile_batched_annotate(it, program, spec, rows)
    plan = [spec.fn, it]
    for param, child in zip(spec.params, it.children):
        plan.append(_compile(child, program))
        plan.append(param.one if child.mode == LOCAL_ONE else param.seq)
    if len(spec.params) == 1 and spec.params[0].direct and it.children[0].mode == LOCAL_ONE:
        return MethodType(_run_builtin_direct, (spec.fn, it, plan[2]))
    return MethodType(_BUILTIN_RUNS[len(spec.params)], tuple(plan))


def _run_user_call(plan, ev, ctx):
    function, params, pos = plan
    try:
        inner = {}
        for name, arg, arg_one, param_one in params:
            value = arg(ev, ctx)
            if arg_one:
                inner[name] = value if param_one else _box(value)
            else:
                value = _bind(value, ev.cap, pos)
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


def _invoke_builtin(plan, ev, args, pos):
    """The body of a builtin function item: the arguments arrive boxed."""
    fn, it, readers, one = plan
    result = fn(it, *[read(arg) for read, arg in zip(readers, args)])
    return _box(result) if one else result


def _run_builtin_fnref(plan, ev, ctx):
    key, name, arity, invoke = plan
    return FunctionItem(
        name=name,
        param_names=tuple([f"arg{i}" for i in range(arity)]),
        signature=(None,) * arity + (None,),
        native=NativeHandle(tag=f"builtin:{key}", invoke=invoke),
    )


def _compile_fnref(it, program):
    target_kind, target = it.node.target
    if target_kind == "user":
        return MethodType(_run_user_fnref, target.key)
    spec = program.catalog[target]
    readers = tuple([param.seq for param in spec.params])
    invoke = MethodType(_invoke_builtin, (spec.fn, it, readers, spec.result_mode == "one"))
    name = target.rpartition("#")[0]
    return MethodType(_run_builtin_fnref, (target, name, len(readers), invoke))


_NOT_A_FUNCTION = "dynamic call target is not a single function item"
_NOT_ONE_RESULT = "call was compiled for a single-item result, got a sequence"


def _run_dynamic_call(plan, ev, ctx):
    callee, callee_one, args, assumption, pos = plan
    try:
        target = callee(ev, ctx)
        if not callee_one:
            target = at_most_one(target, "NOT_A_FUNCTION", _NOT_A_FUNCTION, pos)
        if target is None or target.__class__ is not FunctionItem:
            raise DynamicError("NOT_A_FUNCTION", _NOT_A_FUNCTION, pos)
        values = []
        for arg, arg_one in args:
            value = arg(ev, ctx)
            values.append(_box(value) if arg_one else _bind(value, ev.cap, pos))
        result = ev.invoke_function(target, values, pos)

        if assumption == "estimator":  # local-one: the model item itself
            model = at_most_one(result, "MODE_ASSUMPTION_VIOLATED", _NOT_ONE_RESULT, pos)
            if model is None:
                raise DynamicError("MODE_ASSUMPTION_VIOLATED", _NOT_ONE_RESULT, pos)
            return model
        is_frame = result.__class__ is Frame
        if assumption == "transformer-frame" and not is_frame:
            raise DynamicError(
                "MODE_ASSUMPTION_VIOLATED",
                "call was compiled for a frame result, got a local sequence",
                pos,
            )
        if is_frame and assumption == "general":
            return SequenceValue.from_iter(result.iter_items())
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
        it.call_assumption,
        it.node.pos,
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
                inner[pos_var] = (
                    POSITIONS[position]
                    if position < SHARED_POSITIONS
                    else trusted_atomic("integer", position)
                )
            yield inner


def _let_tuples(ev, clause, tuples):
    _, var, value, one, pos = clause
    for t in tuples:
        bound = value(ev, t)
        inner = t.copy()
        inner[var] = bound if one else _bind(bound, ev.cap, pos)
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
        # int, Decimal and float compare exactly with one another in Python
        value = atom.value
        if value != value:
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
            raise MaterializationCapError(ev.cap, pos)
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


def _tuples(ev, ctx, clauses):
    """The tuple stream of a FLWOR's clauses, started from `ctx`."""
    tuples = (ctx,)
    for clause in clauses:
        tuples = clause[0](ev, clause, tuples)
    return tuples


def _flwor_items(ev, ctx, clauses, ret, ret_one):
    tuples = _tuples(ev, ctx, clauses)
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
    plan = (
        _compile_clauses(it, program),
        _compile(it.return_iter, program),
        it.return_iter.mode == LOCAL_ONE,
    )
    return MethodType(_run_flwor, plan)


def _compile_clauses(it, program) -> tuple:
    """A FLWOR's clause entries, in clause order."""
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
            clauses.append((_let_tuples, clause.var, run, child.mode == LOCAL_ONE, clause.pos))
        elif isinstance(clause, WhereClause):
            clauses.append((_where_tuples, run, _ebv_reader(child)))
        elif isinstance(clause, OrderByClause):
            ordered_later = True
            clauses.append(
                (_order_tuples, run, _atomic_reader(child), clause.descending, clause.pos)
            )
        else:  # pragma: no cover
            raise AssertionError(type(clause))
    return tuple(reversed(clauses))


def _compile_flwor_frame(it, program):
    """A single `for` over a frame, an optional row-local `where` and an
    identity return: the rows are filtered without leaving the frame, which
    is the value of the frame-mode source. Without a `where` the FLWOR is
    its source."""
    for_clause, source_it = next(
        (c, ch) for c, ch in it.clause_iters if isinstance(c, ForClause)
    )
    source = _compile(source_it, program)
    wheres = [ch for c, ch in it.clause_iters if isinstance(c, WhereClause)]
    if not wheres:
        return source
    where = wheres[0]
    plan = (
        source,
        for_clause.var,
        _compile(where, program),
        _ebv_reader(where),
        MethodType(_frame_kernel, (for_clause.var, _compile_kernel(where))),
        it.node.pos,
    )
    return MethodType(_run_frame_where, plan)


# ---------------------------------------------------------------------------
# Batched row building (see the module docstring)
# ---------------------------------------------------------------------------

# the most items a batch pulls from the `for` source: a larger batch spreads
# the per-batch work over more rows but holds more tokens alive at once
ANNOTATE_BATCH = 16


def _compile_row_batches(it, program):
    """The batch plan of an `annotate`'s row FLWOR, or None where it has
    none (see `_row_batches`)."""
    if it.kind != "flwor" or it.frame_lowered:
        return None
    (first, source_it), lets = it.clause_iters[0], it.clause_iters[1:]
    if not isinstance(first, ForClause) or first.pos_var or source_it.mode == FRAME_MODE:
        return None
    names = {first.var}
    for clause, child in lets:
        if not isinstance(clause, LetClause) or not _row_kernel(child, names):
            return None
        names.add(clause.var)
    ret = it.return_iter
    if ret.kind != "object" or not _row_kernel(ret, names):
        return None
    clauses = _compile_clauses(it, program)
    _, var, _, source, source_one, _ = clauses[0]
    plan = (
        source,
        source_one,
        var,
        tuple([(clause.var, _compile_kernel(child)) for clause, child in lets]),
        _compile_kernel(ret),
        clauses[1:],
        _compile(ret, program),
    )
    return plan


def _compile_batched_annotate(it, program, spec, rows):
    descriptor_it = it.children[1]
    param = spec.params[1]
    read = param.one if descriptor_it.mode == LOCAL_ONE else param.seq
    return MethodType(_run_batched_annotate, (it, rows, _compile(descriptor_it, program), read))


def _run_batched_annotate(plan, ev, ctx):
    it, rows, descriptor, read = plan
    try:
        # the source is evaluated when the first batch is pulled, after the
        # descriptor, as the `for` clause evaluates it when its first tuple is
        return annotate_batches(_row_batches(rows, ev, ctx), read(descriptor(ev, ctx)))
    except DynamicError as err:
        _locate(err, it.node.pos)
        raise


def _pull(items, size: int):
    """The next `size` items at most, and the error that ended them early."""
    batch: list = []
    try:
        batch.extend(islice(items, size))  # keeps the items before an error
    except Exception as err:  # raised again once the items before it are spent
        return batch, err
    return batch, None


def _row_batches(plan, ev, ctx):
    source, source_one, var, lets, kernel, clauses, ret = plan
    items = iter(_items(source(ev, ctx), source_one))
    while True:
        batch, error = _pull(items, ANNOTATE_BATCH)
        if batch:
            columns = partial(_batch_columns, ev.cap, var, lets, kernel, batch)
            rows = partial(_batch_rows, ev, ctx, var, clauses, ret, batch)
            yield len(batch), columns, rows
        if error is not None:
            raise error
        if len(batch) < ANNOTATE_BATCH:
            return


def _batch_columns(cap: int, var: str, lets, kernel, batch: list) -> tuple:
    """The record vector of a batch's rows; Refused where a row could
    differ from `_batch_rows`'s or raise, a `let` over the cap included."""
    env = {var: items_vector(batch)}
    for name, let in lets:
        vector = let(env)
        if vector[0] == "sequence" and sequence_longest(vector) > cap:
            raise Refused
        env[name] = vector
    return kernel(env)


def _batch_rows(ev, ctx, var: str, clauses, ret, batch: list):
    """A batch's row objects, one `for` item at a time."""
    for item in batch:
        t = ctx.copy()
        t[var] = item
        yield from _flwor_items(ev, t, clauses, ret, True)


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
