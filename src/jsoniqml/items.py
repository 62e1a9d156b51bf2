"""Item data model: atomic values, objects, arrays, function items, sequences.

Everything an expression produces is a sequence of items. A `SequenceValue`
is a single item or a pull stream; a `frame`-mode value is instead the
columnar `Frame` itself (see `frame.py`), which answers the same `iter_items`,
`count` and `materialize` calls. Items are immutable after construction and
safe to share; stream payloads backed by a raw iterator are single-consumer.

`canonical_serialize` writes an item's JSON text in one pass, appending
every piece to one list, and quotes strings with `json`'s C escaper, which
escapes exactly `"`, `\\` and the control characters below U+0020.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from dataclasses import dataclass
from datetime import date, datetime
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from json.encoder import encode_basestring as _quote
from typing import Any, Iterable, Iterator, Optional, Union

from .errors import DynamicError, MaterializationCapError

# ---------------------------------------------------------------------------
# Atomic kinds
# ---------------------------------------------------------------------------

ATOMIC_KINDS = frozenset(
    {
        "string",
        "boolean",
        "null",
        "byte",
        "short",
        "int",
        "integer",
        "long",
        "decimal",
        "double",
        "float",
        "date",
        "dateTime",
        "hexBinary",
    }
)

INTEGER_KINDS = frozenset({"byte", "short", "int", "long", "integer"})
NUMERIC_KINDS = INTEGER_KINDS | {"decimal", "double", "float"}

INT_BOUNDS = {
    "byte": (-(2**7), 2**7 - 1),
    "short": (-(2**15), 2**15 - 1),
    "int": (-(2**31), 2**31 - 1),
    "long": (-(2**63), 2**63 - 1),
}


def _f32(value: float) -> float:
    """Round a double to 32-bit float precision; beyond the float range the
    rounding overflows to an infinity, as IEEE 754 rounds."""
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:  # raised exactly when the rounded value is infinite
        return math.copysign(math.inf, value)


def to_double(value) -> float:
    """A number as a double; an integer beyond the double range is infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class AtomicValue:
    kind: str
    value: Any

    def __post_init__(self):
        kind, value = self.kind, self.value
        if kind not in ATOMIC_KINDS:
            raise ValueError(f"unknown atomic kind {kind!r}")
        if kind == "null":
            if value is not None:
                raise ValueError("null carries no payload")
        elif kind == "boolean":
            if not isinstance(value, bool):
                raise ValueError("boolean expects a bool")
        elif kind in INTEGER_KINDS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{kind} expects an int")
            bounds = INT_BOUNDS.get(kind)
            if bounds is not None and not bounds[0] <= value <= bounds[1]:
                raise ValueError(f"{value} out of range for {kind}")
        elif kind in ("double", "float"):
            if not isinstance(value, float):
                raise ValueError(f"{kind} expects a float")
        elif kind == "decimal":
            if not isinstance(value, Decimal):
                raise ValueError("decimal expects a Decimal")
        elif kind == "string":
            if not isinstance(value, str):
                raise ValueError("string expects a str")
        elif kind == "date":
            if not isinstance(value, date) or isinstance(value, datetime):
                raise ValueError("date expects a datetime.date")
        elif kind == "dateTime":
            if not isinstance(value, datetime):
                raise ValueError("dateTime expects a datetime.datetime")
            if value.tzinfo is not None:
                raise ValueError("timezones are unsupported")
        elif kind == "hexBinary":
            if not isinstance(value, bytes):
                raise ValueError("hexBinary expects bytes")


_new_object = object.__new__
_set_field = object.__setattr__  # bypasses the frozen dataclass's guard


def trusted_atomic(kind: str, value: Any) -> AtomicValue:
    """An AtomicValue built without the constructor's checks, for callers
    whose kind and payload are valid by construction (counts, positions,
    rendered strings, arithmetic results)."""
    av = _new_object(AtomicValue)
    _set_field(av, "kind", kind)
    _set_field(av, "value", value)
    return av

NULL = AtomicValue("null", None)
TRUE = AtomicValue("boolean", True)
FALSE = AtomicValue("boolean", False)

# `for ... at $p` binds these shared atoms for the positions they cover,
# instead of building one atom per item, and `string()` of such a position
# returns its shared string atom
SHARED_POSITIONS = 1024
POSITIONS = tuple([trusted_atomic("integer", i) for i in range(SHARED_POSITIONS)])
POSITION_STRINGS = tuple([trusted_atomic("string", str(i)) for i in range(SHARED_POSITIONS)])


@dataclass
class ObjectItem:
    """Object with unique string keys; construction order is preserved."""

    pairs: "dict[str, Item]"


@dataclass
class ArrayItem:
    members: "list[Item]"


@dataclass
class FunctionItem:
    """First-class callable: a user closure or a native (registry) handle.

    Natives carry a registry tag naming the builtin they wrap; closures carry
    the compiled function they call.
    """

    name: Optional[str]
    param_names: tuple
    signature: tuple  # (param type strings or None ..., return type or None)
    body: Any = None  # the FunctionInfo a user closure calls
    native: Any = None  # NativeHandle for builtins / transformers / models

    @property
    def arity(self) -> int:
        return len(self.param_names)


Item = Union[AtomicValue, ObjectItem, ArrayItem, FunctionItem]


def object_item(pairs: "Iterable[tuple[str, Item]]") -> ObjectItem:
    """Build an object, raising DUPLICATE_OBJECT_KEY on a repeated key."""
    out: dict = {}
    for key, val in pairs:
        if key in out:
            raise DynamicError("DUPLICATE_OBJECT_KEY", f"duplicate object key {key!r}")
        out[key] = val
    return ObjectItem(out)


def from_py(value: Any) -> Item:
    """Map plain Python data onto items (None/bool/int/float/str/dict/list)."""
    if value is None:
        return NULL
    if isinstance(value, bool):
        return AtomicValue("boolean", value)
    if isinstance(value, int):
        return AtomicValue("integer", value)
    if isinstance(value, float):
        return AtomicValue("double", value)
    if isinstance(value, Decimal):
        return AtomicValue("decimal", value)
    if isinstance(value, str):
        return AtomicValue("string", value)
    if isinstance(value, dict):
        return object_item((k, from_py(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ArrayItem([from_py(v) for v in value])
    raise TypeError(f"no item mapping for {type(value).__name__}")


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


class SequenceValue:
    """Logical sequence of items, held as a single item or a pull stream.

    A `frame`-mode value is not a `SequenceValue` but the `Frame` itself;
    consumers that only iterate, count or materialize take either."""

    SINGLE = "single"
    STREAM = "stream"

    __slots__ = ("representation", "_payload", "_spent")

    def __init__(self, representation: str, payload: Any):
        self.representation = representation
        self._payload = payload
        self._spent = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def single(cls, item: Item) -> "SequenceValue":
        return cls(cls.SINGLE, item)

    @classmethod
    def from_list(cls, items: "list[Item]") -> "SequenceValue":
        return cls(cls.STREAM, list(items))

    @classmethod
    def from_iter(cls, iterator: "Iterator[Item] | Iterable[Item]") -> "SequenceValue":
        return cls(cls.STREAM, iter(iterator))

    @classmethod
    def empty(cls) -> "SequenceValue":
        return cls(cls.STREAM, [])

    # -- accessors -----------------------------------------------------------

    def iter_items(self) -> "Iterator[Item]":
        if self.representation == self.SINGLE:
            return iter((self._payload,))
        if isinstance(self._payload, list):
            return iter(self._payload)
        if self._spent:
            raise RuntimeError("stream already consumed")
        self._spent = True
        return self._payload

    def materialize(self, cap: int) -> "list[Item]":
        """Collect into a list, raising once more than `cap` items appear."""
        if self.representation == self.SINGLE:
            return [self._payload]
        if isinstance(self._payload, list):
            if len(self._payload) > cap:
                raise MaterializationCapError(cap)
            return self._payload
        out: list = []
        for item in self.iter_items():
            if len(out) >= cap:
                raise MaterializationCapError(cap)
            out.append(item)
        return out

    def count(self) -> int:
        if self.representation == self.SINGLE:
            return 1
        if isinstance(self._payload, list):
            return len(self._payload)
        return sum(1 for _ in self.iter_items())

    def first(self) -> "Optional[Item]":
        if self.representation == self.SINGLE:
            return self._payload
        return next(self.iter_items(), None)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def render_double(value: float) -> str:
    """Shortest round-trip decimal form; NaN/INF/-INF as bare tokens."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    return repr(value)


def render_decimal(value: Decimal) -> str:
    # Scale-preserving, no exponent: 0.0 stays "0.0", casts from ints stay bare.
    text = format(value, "f")
    return "0" if text == "-0" else text


def render_atomic(av: AtomicValue) -> str:
    """Unquoted canonical text of an atomic (the string() form)."""
    kind, value = av.kind, av.value
    if kind == "string":
        return value
    if kind == "boolean":
        return "true" if value else "false"
    if kind == "null":
        return "null"
    if kind in INTEGER_KINDS:
        try:
            return str(value)
        except ValueError:  # more digits than str() renders
            return str(_int_to_decimal(value))
    if kind in ("double", "float"):
        return render_double(value)
    if kind == "decimal":
        return render_decimal(value)
    if kind == "date":
        return value.isoformat()
    if kind == "dateTime":
        return value.isoformat()
    if kind == "hexBinary":
        return value.hex().upper()
    raise AssertionError(kind)


# decimal arithmetic in this context is exact: the default one rounds to 28
# digits, fails on a quotient of more than 28 digits and overflows beyond an
# exponent of 999999
EXACT_CONTEXT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# integers of at most this many bits convert to Decimal directly
_SPLIT_BITS = 128


def _int_to_decimal(n: int) -> Decimal:
    """`n` as a Decimal, in time below quadratic in its digits (`Decimal(n)`
    is quadratic): split the bits in halves, convert each half, and join them
    with one exact multiply and add, as CPython 3.12's `_pylong` does."""
    powers: "dict[int, Decimal]" = {}

    def two_to(w: int) -> Decimal:
        # 2**w; each level reuses the powers of the level below
        power = powers.get(w)
        if power is None:
            if w <= _SPLIT_BITS:
                power = Decimal(1 << w)
            elif w - 1 in powers:
                power = EXACT_CONTEXT.add(powers[w - 1], powers[w - 1])
            else:
                power = EXACT_CONTEXT.multiply(two_to(w >> 1), two_to(w - (w >> 1)))
            powers[w] = power
        return power

    def convert(n: int, w: int) -> Decimal:
        if w <= _SPLIT_BITS:
            return Decimal(n)
        half = w >> 1
        high = n >> half
        low = n - (high << half)
        high_part = EXACT_CONTEXT.multiply(convert(high, w - half), two_to(half))
        return EXACT_CONTEXT.add(convert(low, half), high_part)

    result = convert(abs(n), abs(n).bit_length())
    return result.copy_negate() if n < 0 else result


# kinds whose text is quoted in the canonical form
_QUOTED_KINDS = frozenset({"string", "date", "dateTime", "hexBinary"})


def canonical_serialize(item: Item) -> str:
    """Deterministic textual JSON form; function items are not serializable."""
    out: "list[str]" = []
    _serialize_into(item, out.append)
    return "".join(out)


def _serialize_into(item: Item, put) -> None:
    cls = item.__class__
    if cls is AtomicValue:
        kind = item.kind
        if kind == "double":  # the feature record: most atoms are doubles
            put(render_double(item.value))
        elif kind in _QUOTED_KINDS:
            put(_quote(render_atomic(item)))
        else:
            put(render_atomic(item))
    elif cls is ObjectItem:
        separator = "{"
        for key, value in item.pairs.items():
            put(separator)
            put(_quote(key))
            put(": ")
            _serialize_into(value, put)
            separator = ", "
        put("}" if separator == ", " else "{}")
    elif cls is ArrayItem:
        separator = "["
        for member in item.members:
            put(separator)
            _serialize_into(member, put)
            separator = ", "
        put("]" if separator == ", " else "[]")
    elif cls is FunctionItem:
        raise DynamicError("SERIALIZE_FUNCTION", "function items cannot be serialized")
    else:
        raise AssertionError(cls)


# ---------------------------------------------------------------------------
# Canonical-text parsing (round-trip oracle, CLI JSON variable binding)
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_WS = " \t\n\r"
_HEX4 = re.compile("[0-9a-fA-F]{4}")


class _TextParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise DynamicError("ITEM_PARSE_ERROR", f"{msg} at offset {self.pos}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _WS:
            self.pos += 1

    def parse(self) -> Item:
        self.skip_ws()
        item = self.parse_value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing content")
        return item

    def parse_value(self) -> Item:
        t = self.text
        if self.pos >= len(t):
            self.error("unexpected end of input")
        ch = t[self.pos]
        if ch == "{":
            return self.parse_object()
        if ch == "[":
            return self.parse_array()
        if ch == '"':
            return AtomicValue("string", self.parse_string())
        for word, item in (
            ("true", TRUE),
            ("false", FALSE),
            ("null", NULL),
            ("NaN", AtomicValue("double", float("nan"))),
            ("-INF", AtomicValue("double", float("-inf"))),
            ("INF", AtomicValue("double", float("inf"))),
        ):
            if t.startswith(word, self.pos):
                self.pos += len(word)
                return item
        m = _NUM_RE.match(t, self.pos)
        if m:
            self.pos = m.end()
            if m.group(1) or m.group(2):
                return AtomicValue("double", float(m.group(0)))
            try:
                return AtomicValue("integer", int(m.group(0)))
            except ValueError:  # more digits than int() converts
                self.error("integer literal too long")
        self.error(f"unexpected character {ch!r}")

    def parse_string(self) -> str:
        t = self.text
        self.pos += 1
        out = []
        while True:
            if self.pos >= len(t):
                self.error("unterminated string")
            ch = t[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                self.pos += 1
                esc = t[self.pos : self.pos + 1]
                if esc in '"\\/':
                    out.append(esc)
                elif esc in "bfnrt":
                    out.append({"b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}[esc])
                elif esc == "u":
                    if not _HEX4.fullmatch(t, self.pos + 1, self.pos + 5):
                        self.error("bad \\u escape")
                    out.append(chr(int(t[self.pos + 1 : self.pos + 5], 16)))
                    self.pos += 4
                else:
                    self.error(f"bad escape {esc!r}")
                self.pos += 1
            else:
                out.append(ch)
                self.pos += 1

    def parse_object(self) -> Item:
        self.pos += 1
        pairs = []
        self.skip_ws()
        if self.text.startswith("}", self.pos):
            self.pos += 1
            return object_item(pairs)
        while True:
            self.skip_ws()
            if not self.text.startswith('"', self.pos):
                self.error("expected object key")
            key = self.parse_string()
            self.skip_ws()
            if not self.text.startswith(":", self.pos):
                self.error("expected ':'")
            self.pos += 1
            self.skip_ws()
            pairs.append((key, self.parse_value()))
            self.skip_ws()
            if self.text.startswith(",", self.pos):
                self.pos += 1
                continue
            if self.text.startswith("}", self.pos):
                self.pos += 1
                return object_item(pairs)
            self.error("expected ',' or '}'")

    def parse_array(self) -> Item:
        self.pos += 1
        members = []
        self.skip_ws()
        if self.text.startswith("]", self.pos):
            self.pos += 1
            return ArrayItem(members)
        while True:
            self.skip_ws()
            members.append(self.parse_value())
            self.skip_ws()
            if self.text.startswith(",", self.pos):
                self.pos += 1
                continue
            if self.text.startswith("]", self.pos):
                self.pos += 1
                return ArrayItem(members)
            self.error("expected ',' or ']'")


def parse_canonical(text: str) -> Item:
    """Parse the canonical JSON text form back into an item."""
    return _TextParser(text).parse()


# ---------------------------------------------------------------------------
# Equality, effective boolean value
# ---------------------------------------------------------------------------


def deep_equal(a: Item, b: Item) -> bool:
    """Structural equality with numeric promotion; function items never equal.

    Integer/float pairs compare exactly (no precision loss, so equality stays
    transitive at any magnitude); NaN equals NaN. Decimals compared against
    floats promote to double, which is what the canonical text form preserves.
    """
    if isinstance(a, AtomicValue) and isinstance(b, AtomicValue):
        if a.kind in NUMERIC_KINDS and b.kind in NUMERIC_KINDS:
            av, bv = a.value, b.value
            if isinstance(av, float) and math.isnan(av):
                return isinstance(bv, float) and math.isnan(bv)
            if isinstance(bv, float) and math.isnan(bv):
                return False
            if isinstance(av, Decimal) and isinstance(bv, float):
                return float(av) == bv
            if isinstance(av, float) and isinstance(bv, Decimal):
                return av == float(bv)
            return av == bv
        return a.kind == b.kind and a.value == b.value
    if isinstance(a, ObjectItem) and isinstance(b, ObjectItem):
        if set(a.pairs.keys()) != set(b.pairs.keys()):
            return False
        return all(deep_equal(v, b.pairs[k]) for k, v in a.pairs.items())
    if isinstance(a, ArrayItem) and isinstance(b, ArrayItem):
        if len(a.members) != len(b.members):
            return False
        return all(deep_equal(x, y) for x, y in zip(a.members, b.members))
    return False


def at_most_one(seq, code: str, message: str, pos=None) -> "Optional[Item]":
    """The item of a sequence (or frame) that may hold at most one, None when
    it is empty; a second item raises `code`. At most two items are read."""
    items = seq.iter_items()
    first = next(items, None)
    if first is not None and next(items, None) is not None:
        raise DynamicError(code, message, pos)
    return first


def effective_boolean_value(seq) -> bool:
    """Empty is false; a single atomic follows its kind; anything else errors."""
    message = "effective boolean value of a multi-item sequence"
    return item_ebv(at_most_one(seq, "EBV_ERROR", message))


def item_ebv(item: "Optional[Item]") -> bool:
    """Effective boolean value of at most one item; None is the empty sequence."""
    if item is None:
        return False
    if item.__class__ is not AtomicValue:
        raise DynamicError("EBV_ERROR", "effective boolean value of an object, array, or function")
    kind, value = item.kind, item.value
    if kind == "boolean":
        return value
    if kind == "string":
        return len(value) > 0
    if kind == "null":
        return False
    if kind in NUMERIC_KINDS:
        if isinstance(value, float) and math.isnan(value):
            return False
        return value != 0
    raise DynamicError("EBV_ERROR", f"effective boolean value of a {kind}")


# ---------------------------------------------------------------------------
# Atomic casts
# ---------------------------------------------------------------------------

# the numerals a string casts to double by (`float` of the stripped text);
# `frame.py` batches the rows whose numerals need no strip
DOUBLE_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_INTEGER_RE = re.compile(r"[+-]?\d+")
_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)")


def _cast_error(code: str, msg: str):
    raise DynamicError(code, msg)


def _parse_double(text: str) -> float:
    t = text.strip()
    if DOUBLE_RE.fullmatch(t):
        return float(t)
    if t == "NaN":
        return float("nan")
    if t == "INF":
        return float("inf")
    if t == "-INF":
        return float("-inf")
    _cast_error("LEXICAL_ERROR", f"cannot parse {text!r} as double")


def _parse_integer(text: str, target_kind: str) -> int:
    t = text.strip()
    if not _INTEGER_RE.fullmatch(t):
        _cast_error("LEXICAL_ERROR", f"cannot parse {text!r} as {target_kind}")
    try:
        return int(t)
    except ValueError:  # more digits than int() converts; Decimal has no limit
        return int(Decimal(t))


def _to_int(value, target_kind: str) -> int:
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            _cast_error("RANGE_ERROR", f"cannot cast {value} to {target_kind}")
        result = math.trunc(value)
    elif isinstance(value, Decimal):
        result = int(value.to_integral_value(rounding="ROUND_DOWN"))
    else:
        result = int(value)
    bounds = INT_BOUNDS.get(target_kind)
    if bounds is not None and not bounds[0] <= result <= bounds[1]:
        try:
            text = str(result)
        except ValueError:  # too many digits for str(): the number is not rendered
            text = f"an integer of more than {sys.get_int_max_str_digits()} digits"
        _cast_error("RANGE_ERROR", f"{text} out of range for {target_kind}")
    return result


def cast_value(kind: str, value, target_kind: str):
    """The payload of casting an atomic of `kind` and payload `value` to
    `target_kind`, a kind in ATOMIC_KINDS, per the engine's cast table.

    Supported routes: identity, numeric widening/narrowing, string to and
    from numbers, booleans, and ISO-8601 dates. Anything else is NO_CAST_RULE.
    """
    if kind == target_kind:
        return value
    if kind == "null" or target_kind == "null":
        _cast_error("NO_CAST_RULE", f"no cast from {kind} to {target_kind}")

    if kind == "string":
        if target_kind == "double":
            return _parse_double(value)
        if target_kind == "float":
            return _f32(_parse_double(value))
        if target_kind == "decimal":
            t = value.strip()
            if not _DECIMAL_RE.fullmatch(t):
                _cast_error("LEXICAL_ERROR", f"cannot parse {value!r} as decimal")
            return Decimal(t)
        if target_kind in INTEGER_KINDS:
            return _to_int(_parse_integer(value, target_kind), target_kind)
        if target_kind == "boolean":
            t = value.strip()
            if t in ("true", "1"):
                return True
            if t in ("false", "0"):
                return False
            _cast_error("LEXICAL_ERROR", f"cannot parse {value!r} as boolean")
        if target_kind == "date":
            try:
                return date.fromisoformat(value.strip())
            except ValueError:
                _cast_error("LEXICAL_ERROR", f"cannot parse {value!r} as date")
        if target_kind == "dateTime":
            try:
                parsed = datetime.fromisoformat(value.strip())
            except ValueError:
                _cast_error("LEXICAL_ERROR", f"cannot parse {value!r} as dateTime")
            if parsed.tzinfo is not None:
                _cast_error("LEXICAL_ERROR", "timezones are unsupported")
            return parsed
        _cast_error("NO_CAST_RULE", f"no cast from string to {target_kind}")

    if kind in NUMERIC_KINDS:
        if target_kind in INTEGER_KINDS:
            return _to_int(value, target_kind)
        if target_kind == "double":
            return to_double(value)
        if target_kind == "float":
            return _f32(to_double(value))
        if target_kind == "decimal":
            if isinstance(value, float):
                if math.isnan(value) or math.isinf(value):
                    _cast_error("RANGE_ERROR", f"cannot cast {value} to decimal")
                return Decimal(repr(value))
            return Decimal(value)
        if target_kind == "string":
            return render_atomic(trusted_atomic(kind, value))
        _cast_error("NO_CAST_RULE", f"no cast from {kind} to {target_kind}")

    if kind == "boolean" and target_kind == "string":
        return "true" if value else "false"
    if kind in ("date", "dateTime") and target_kind == "string":
        return value.isoformat()

    _cast_error("NO_CAST_RULE", f"no cast from {kind} to {target_kind}")


def atomic_cast(av: AtomicValue, target_kind: str) -> AtomicValue:
    """Cast an atomic to `target_kind` (see `cast_value`)."""
    if target_kind not in ATOMIC_KINDS:
        raise DynamicError("NO_CAST_RULE", f"unknown target kind {target_kind!r}")
    if av.kind == target_kind:
        return av
    value = cast_value(av.kind, av.value, target_kind)
    if target_kind == "boolean":
        return TRUE if value else FALSE
    return AtomicValue(target_kind, value)
