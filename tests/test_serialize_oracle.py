"""`canonical_serialize` appends every item's text into one list and quotes
strings with `json.encoder.encode_basestring`. Its output must be byte for
byte that of the recursive serializer it replaced, which this module keeps as
the oracle, with its hand-written string escaping."""

import math
from decimal import Decimal

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from jsoniqml.errors import DynamicError
from jsoniqml.items import (
    ArrayItem,
    AtomicValue,
    FunctionItem,
    ObjectItem,
    canonical_serialize,
    render_atomic,
)

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def oracle_serialize(item) -> str:
    if isinstance(item, AtomicValue):
        if item.kind in ("string", "date", "dateTime", "hexBinary"):
            return _escape_string(render_atomic(item))
        return render_atomic(item)
    if isinstance(item, ObjectItem):
        parts = ", ".join(
            f"{_escape_string(k)}: {oracle_serialize(v)}" for k, v in item.pairs.items()
        )
        return "{" + parts + "}"
    if isinstance(item, ArrayItem):
        return "[" + ", ".join(oracle_serialize(m) for m in item.members) + "]"
    if isinstance(item, FunctionItem):
        raise DynamicError("SERIALIZE_FUNCTION", "function items cannot be serialized")
    raise AssertionError(type(item))


# every code point, lone surrogates included, with the awkward ones drawn often
_AWKWARD = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x08", "\x0c", "\x1f", "\x7f", "\x80", "\u00a0", "\u2028",
     "\u2029", "\ud800", "\udfff", "\ufeff", "\U0001f600", "\n", "\r", "\t"]
)
_CHAR = st.one_of(_AWKWARD, st.characters(codec=None, exclude_categories=()))
_TEXT = st.text(_CHAR, max_size=6)


def _atom(kind, strategy):
    return st.builds(AtomicValue, st.just(kind), strategy)


_ATOMS = st.one_of(
    _atom("string", _TEXT),
    _atom("double", st.floats(width=64)),
    _atom("float", st.floats(width=32)),
    _atom("double", st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22])),
    _atom("decimal", st.decimals(allow_nan=False, allow_infinity=False)),
    _atom("decimal", st.sampled_from([Decimal("-0"), Decimal("-0.0"), Decimal("1E+3")])),
    _atom("integer", st.integers()),
    # more digits than str() renders
    _atom("integer", st.builds(lambda e: 10**e, st.integers(4300, 5000))),
    _atom("integer", st.builds(lambda e: -(10**e), st.integers(4300, 5000))),
    _atom("long", st.integers(-(2**63), 2**63 - 1)),
    _atom("byte", st.integers(-128, 127)),
    _atom("boolean", st.booleans()),
    st.just(AtomicValue("null", None)),
    _atom("date", st.dates()),
    _atom("dateTime", st.datetimes()),
    _atom("hexBinary", st.binary(max_size=4)),
)
_ITEMS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.builds(ArrayItem, st.lists(inner, max_size=4)),
        st.builds(ObjectItem, st.dictionaries(_TEXT, inner, max_size=4)),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_ITEMS)
def test_matches_the_oracle(item):
    assert canonical_serialize(item) == oracle_serialize(item)


def test_every_code_point_below_0x800_and_the_surrogates():
    text = "".join(map(chr, range(0x800))) + "".join(map(chr, range(0xD800, 0xE000)))
    for item in (AtomicValue("string", text), ObjectItem({text: AtomicValue("string", text)})):
        assert canonical_serialize(item) == oracle_serialize(item)


def test_deep_nesting():
    item = AtomicValue("string", "\x01")
    for depth in range(300):
        item = ArrayItem([item]) if depth % 2 else ObjectItem({"k\n": item, "x": ArrayItem([])})
    assert canonical_serialize(item) == oracle_serialize(item)


def test_empty_containers():
    for item in (ArrayItem([]), ObjectItem({}), ArrayItem([ObjectItem({}), ArrayItem([])])):
        assert canonical_serialize(item) == oracle_serialize(item)
    assert canonical_serialize(ArrayItem([ObjectItem({})])) == "[{}]"


def test_a_function_item_is_not_serializable():
    fn = FunctionItem("f", (), (None,))
    for item in (fn, ArrayItem([AtomicValue("integer", 1), fn]), ObjectItem({"f": fn})):
        with pytest.raises(DynamicError) as err:
            canonical_serialize(item)
        assert err.value.code == "SERIALIZE_FUNCTION"
        assert err.value.message == "function items cannot be serialized"
