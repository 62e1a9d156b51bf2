"""Naive tuple-stream reference evaluator.

An independent oracle for differential testing: everything is a fully
materialized Python list, FLWOR clauses expand an explicit list of binding
tuples, and there is no mode inference, no streaming, and no frame anywhere.
Only the builtins the query generator emits are implemented, and the two
that row-building programs add: `unparsed-text-lines` and `annotate`, which
validates each row with the engine's `validate_item`.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from pathlib import Path

from jsoniqml.ast_nodes import (
    ArrayConstructor,
    Arithmetic,
    BoolOp,
    Comparison,
    ContextItemRef,
    DynamicFunctionCall,
    FLWOR,
    ForClause,
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
from jsoniqml.errors import DynamicError, SourceIOError
from jsoniqml.items import (
    ArrayItem,
    AtomicValue,
    FunctionItem,
    INTEGER_KINDS,
    NUMERIC_KINDS,
    ObjectItem,
    render_atomic,
    to_double,
)
from jsoniqml.resolver import ResolvedModule
from jsoniqml.schema import parse_schema, validate_item


def exact_decimal(fn, a, b):
    """`fn` of two numbers, one of them a Decimal, in a context with room for
    the digits of both and the gap between their exponents, and for any
    exponent, so that no sum, difference, product, quotient or remainder is
    rounded or overflows."""
    da, db = Decimal(a), Decimal(b)
    ta, tb = da.as_tuple(), db.as_tuple()
    with localcontext() as context:
        context.prec = max(28, len(ta.digits) + len(tb.digits) + abs(ta.exponent - tb.exponent) + 2)
        context.Emax, context.Emin = MAX_EMAX, MIN_EMIN
        return fn(da, db)


class RefFunction:
    def __init__(self, decl):
        self.decl = decl


def evaluate_module(resolved: ResolvedModule, variables=None):
    ev = _Ref(resolved, variables or {})
    return ev.eval(resolved.module.body, {}, None)


class _Ref:
    def __init__(self, resolved, variables):
        self.resolved = resolved
        self.variables = variables

    # every value is a Python list of items
    def eval(self, node, env, dot):
        if isinstance(node, Literal):
            return [node.value]
        if isinstance(node, VarRef):
            if node.binding == "external":
                if node.name not in self.variables:
                    raise DynamicError("UNDEFINED_VARIABLE", node.name)
                return [self.variables[node.name]]
            return list(env[node.name])
        if isinstance(node, ContextItemRef):
            if dot is None:
                raise DynamicError("UNDEFINED_VARIABLE", "$$")
            return [dot]
        if isinstance(node, SequenceExpr):
            return [] if node.inner is None else self.eval(node.inner, env, dot)
        if isinstance(node, IfThenElse):
            if self.ebv(self.eval(node.cond, env, dot)):
                return self.eval(node.then, env, dot)
            return self.eval(node.orelse, env, dot)
        if isinstance(node, BoolOp):
            left = self.ebv(self.eval(node.left, env, dot))
            if node.op == "and":
                value = left and self.ebv(self.eval(node.right, env, dot))
            else:
                value = left or self.ebv(self.eval(node.right, env, dot))
            return [AtomicValue("boolean", value)]
        if isinstance(node, NotExpr):
            return [AtomicValue("boolean", not self.ebv(self.eval(node.operand, env, dot)))]
        if isinstance(node, Comparison):
            return self.compare(node, env, dot)
        if isinstance(node, Arithmetic):
            return self.arithmetic(node, env, dot)
        if isinstance(node, RangeTo):
            lo = self.atom(self.eval(node.lo, env, dot))
            hi = self.atom(self.eval(node.hi, env, dot))
            if lo is None or hi is None:
                return []
            if lo.kind not in INTEGER_KINDS or hi.kind not in INTEGER_KINDS:
                raise DynamicError("TYPE_ERROR", "range")
            return [AtomicValue("integer", v) for v in range(lo.value, hi.value + 1)]
        if isinstance(node, ObjectConstructor):
            pairs = {}
            for key_expr, value_expr in node.pairs:
                key_atom = self.atom(self.eval(key_expr, env, dot))
                if key_atom is None:
                    raise DynamicError("TYPE_ERROR", "empty key")
                key = key_atom.value if key_atom.kind == "string" else render_atomic(key_atom)
                values = self.eval(value_expr, env, dot)
                if len(values) > 1:
                    raise DynamicError("TYPE_ERROR", "object value")
                if key in pairs:
                    raise DynamicError("DUPLICATE_OBJECT_KEY", key)
                pairs[key] = values[0] if values else AtomicValue("null", None)
            return [ObjectItem(pairs)]
        if isinstance(node, MergedObjectConstructor):
            pairs = {}
            for item in self.eval(node.source, env, dot):
                if not isinstance(item, ObjectItem):
                    raise DynamicError("TYPE_ERROR", "merge of non-object")
                for key, value in item.pairs.items():
                    if key in pairs:
                        raise DynamicError("DUPLICATE_KEY_IN_MERGE", key)
                    pairs[key] = value
            return [ObjectItem(pairs)]
        if isinstance(node, ArrayConstructor):
            members = []
            for member in node.members:
                members.extend(self.eval(member, env, dot))
            return [ArrayItem(members)]
        if isinstance(node, ObjectLookup):
            out = []
            for item in self.eval(node.base, env, dot):
                if isinstance(item, ObjectItem) and node.key in item.pairs:
                    out.append(item.pairs[node.key])
            return out
        if isinstance(node, Predicate):
            out = []
            for item in self.eval(node.base, env, dot):
                if self.ebv(self.eval(node.condition, env, item)):
                    out.append(item)
            return out
        if isinstance(node, StaticFunctionCall):
            kind, target = node.target
            args = [self.eval(a, env, dot) for a in node.args]
            if kind == "user":
                return self.call_user(target, args)
            return self.builtin(node.name, args)
        if isinstance(node, NamedFunctionRef):
            kind, target = node.target
            if kind != "user":
                raise DynamicError("TYPE_ERROR", "reference evaluator: builtin ref")
            return [RefFunction(target)]
        if isinstance(node, DynamicFunctionCall):
            callee = self.eval(node.callee, env, dot)
            if len(callee) != 1 or not isinstance(callee[0], (RefFunction, FunctionItem)):
                raise DynamicError("NOT_A_FUNCTION", "dynamic call")
            target = callee[0]
            args = [self.eval(a, env, dot) for a in node.args]
            if isinstance(target, RefFunction):
                if len(args) != len(target.decl.params):
                    raise DynamicError("ARITY_MISMATCH", "dynamic call")
                return self.call_user(target.decl, args)
            raise DynamicError("TYPE_ERROR", "reference evaluator: native call")
        if isinstance(node, FLWOR):
            tuples = [dict(env)]
            for clause in node.clauses:
                tuples = self.clause(clause, tuples, dot)
            out = []
            for tup in tuples:
                out.extend(self.eval(node.return_expr, tup, dot))
            return out
        raise AssertionError(type(node).__name__)

    def clause(self, clause, tuples, dot):
        if isinstance(clause, ForClause):
            out = []
            for tup in tuples:
                for position, item in enumerate(self.eval(clause.source, tup, dot), start=1):
                    extended = dict(tup)
                    extended[clause.var] = [item]
                    if clause.pos_var:
                        extended[clause.pos_var] = [AtomicValue("integer", position)]
                    out.append(extended)
            return out
        if isinstance(clause, LetClause):
            out = []
            for tup in tuples:
                extended = dict(tup)
                extended[clause.var] = self.eval(clause.value, tup, dot)
                out.append(extended)
            return out
        if isinstance(clause, WhereClause):
            return [t for t in tuples if self.ebv(self.eval(clause.condition, t, dot))]
        if isinstance(clause, OrderByClause):
            keyed = []
            for tup in tuples:
                atom = self.atom(self.eval(clause.key, tup, dot))
                if atom is None:
                    raise DynamicError("TYPE_ERROR", "empty order key")
                if atom.kind in NUMERIC_KINDS:
                    if atom.value != atom.value:
                        raise DynamicError("TYPE_ERROR", "NaN order key")
                    key = ("n", atom.value)  # int, Decimal and float compare exactly
                elif atom.kind in ("string", "boolean", "date", "dateTime"):
                    key = (atom.kind, atom.value)
                else:
                    raise DynamicError("TYPE_ERROR", "order key kind")
                keyed.append((key, tup))
            if len({k[0] for k, _ in keyed}) > 1:
                raise DynamicError("TYPE_ERROR", "mixed order keys")
            keyed.sort(key=lambda pair: pair[0][1], reverse=clause.descending)
            return [tup for _, tup in keyed]
        raise AssertionError(type(clause))

    def call_user(self, decl, args):
        env = {name: value for name, value in zip(decl.params, args)}
        return self.eval(decl.body, env, None)

    # -- helpers ---------------------------------------------------------------

    def atom(self, values):
        if not values:
            return None
        if len(values) > 1 or not isinstance(values[0], AtomicValue):
            raise DynamicError("TYPE_ERROR", "expected a single atomic")
        return values[0]

    def ebv(self, values) -> bool:
        if not values:
            return False
        if len(values) > 1 or not isinstance(values[0], AtomicValue):
            raise DynamicError("EBV_ERROR", "ebv")
        atom = values[0]
        if atom.kind == "boolean":
            return atom.value
        if atom.kind == "string":
            return len(atom.value) > 0
        if atom.kind == "null":
            return False
        if atom.kind in NUMERIC_KINDS:
            if isinstance(atom.value, float) and math.isnan(atom.value):
                return False
            return atom.value != 0
        raise DynamicError("EBV_ERROR", "ebv kind")

    def compare(self, node, env, dot):
        left = self.atom(self.eval(node.left, env, dot))
        right = self.atom(self.eval(node.right, env, dot))
        if left is None or right is None:
            return []
        op = node.op
        if left.kind == "null" or right.kind == "null":
            if op == "eq":
                return [AtomicValue("boolean", left.kind == "null" and right.kind == "null")]
            if op == "ne":
                return [AtomicValue("boolean", not (left.kind == "null" and right.kind == "null"))]
            raise DynamicError("TYPE_ERROR", "null order")
        if left.kind in NUMERIC_KINDS and right.kind in NUMERIC_KINDS:
            a, b = left.value, right.value
            if isinstance(a, Decimal) and isinstance(b, float):
                a = float(a)
            elif isinstance(a, float) and isinstance(b, Decimal):
                b = float(b)
        elif left.kind == right.kind and left.kind in ("string", "boolean", "date", "dateTime"):
            a, b = left.value, right.value
        else:
            raise DynamicError("TYPE_ERROR", "compare kinds")
        result = {
            "eq": a == b,
            "ne": a != b,
            "lt": a < b,
            "le": a <= b,
            "gt": a > b,
            "ge": a >= b,
        }[op]
        return [AtomicValue("boolean", result)]

    def arithmetic(self, node, env, dot):
        left = self.atom(self.eval(node.left, env, dot))
        right = self.atom(self.eval(node.right, env, dot))
        if left is None or right is None:
            return []
        if left.kind not in NUMERIC_KINDS or right.kind not in NUMERIC_KINDS:
            raise DynamicError("TYPE_ERROR", "arith kinds")
        a, b = left.value, right.value
        op = node.op
        if op == "div":
            fa, fb = to_double(a), to_double(b)
            if fb == 0.0:
                if fa == 0.0 or math.isnan(fa):
                    return [AtomicValue("double", float("nan"))]
                sign = math.copysign(1.0, fa) * math.copysign(1.0, fb)
                return [AtomicValue("double", sign * float("inf"))]
            return [AtomicValue("double", fa / fb)]
        if op == "idiv":
            if to_double(b) == 0.0:
                raise DynamicError("DIVISION_BY_ZERO", "idiv")
            if isinstance(a, float) or isinstance(b, float):
                quotient = to_double(a) / to_double(b)
                if math.isinf(quotient) or math.isnan(quotient):
                    raise DynamicError("RANGE_ERROR", "idiv quotient")
                return [AtomicValue("integer", int(math.trunc(quotient)))]
            if isinstance(a, Decimal) or isinstance(b, Decimal):
                return [AtomicValue("integer", int(exact_decimal(divmod, a, b)[0]))]
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return [AtomicValue("integer", q)]
        if op == "mod":
            if to_double(b) == 0.0:
                raise DynamicError("DIVISION_BY_ZERO", "mod")
            if isinstance(a, float) or isinstance(b, float):
                fa, fb = to_double(a), to_double(b)
                # the IEEE 754 remainder of an infinite dividend is NaN
                value = float("nan") if math.isinf(fa) else math.fmod(fa, fb)
                return [AtomicValue("double", value)]
            if isinstance(a, Decimal) or isinstance(b, Decimal):
                return [AtomicValue("decimal", exact_decimal(divmod, a, b)[1])]
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return [AtomicValue("integer", a - b * q)]
        fn = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}[op]
        if isinstance(a, float) or isinstance(b, float):
            return [AtomicValue("double", fn(to_double(a), to_double(b)))]
        if isinstance(a, Decimal) or isinstance(b, Decimal):
            return [AtomicValue("decimal", exact_decimal(fn, a, b))]
        return [AtomicValue("integer", fn(a, b))]

    def builtin(self, name, args):
        if name == "count":
            return [AtomicValue("integer", len(args[0]))]
        if name == "head":
            return args[0][:1]
        if name == "tail":
            return args[0][1:]
        if name == "string":
            if not args[0]:
                return [AtomicValue("string", "")]
            atom = self.atom(args[0])
            return [AtomicValue("string", render_atomic(atom))]
        if name == "contains":
            hay = self.string_arg(args[0])
            needle = self.string_arg(args[1])
            return [AtomicValue("boolean", needle in hay)]
        if name == "tokenize":
            text = self.string_arg(args[0])
            sep = self.string_arg(args[1])
            if sep == "":
                raise DynamicError("TYPE_ERROR", "separator")
            if text == "":
                return []
            parts = text.split(sep)
            if text.endswith(sep):
                parts = parts[:-1]
            return [AtomicValue("string", p) for p in parts]
        if name == "unparsed-text-lines":
            try:
                # universal newlines, as the engine reads the file
                text = Path(self.string_arg(args[0])).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as err:
                raise SourceIOError(str(err)) from err
            lines = text.split("\n")
            if lines[-1] == "":
                lines.pop()
            return [AtomicValue("string", line) for line in lines]
        if name == "annotate":
            return self.annotate(args[0], args[1])
        raise AssertionError(f"reference evaluator: builtin {name}")

    def annotate(self, rows, descriptor):
        """Every row built first, then each validated by `validate_item`."""
        if len(descriptor) != 1:
            raise DynamicError("TYPE_ERROR", "annotate schema")
        record = parse_schema(descriptor[0])
        if record.kind != "Record":
            raise DynamicError("MALFORMED_SCHEMA", "annotate schema")
        out = []
        for i, row in enumerate(rows):
            if not isinstance(row, ObjectItem):
                raise DynamicError("NON_OBJECT_ROW", f"row {i}")
            try:
                out.append(validate_item(row, record))
            except DynamicError as err:
                raise DynamicError(err.code, f"row {i}: {err.message}") from err
        return out

    def string_arg(self, values) -> str:
        if not values:
            return ""
        atom = self.atom(values)
        if atom.kind != "string":
            raise DynamicError("TYPE_ERROR", "string arg")
        return atom.value
