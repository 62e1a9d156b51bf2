"""Frame-mode `annotate` casts each row straight into column builders. It
must accept exactly the rows that `validated_rows` (and so `validate_item`)
accepts, build the same values, and raise the validator's error, code and
full message, for the first row the validator rejects."""

from decimal import Decimal

import hypothesis.strategies as st
from hypothesis import given, settings

from jsoniqml.errors import DynamicError
from jsoniqml.frame import annotate_rows, validated_rows
from jsoniqml.items import ArrayItem, AtomicValue, ObjectItem, from_py
from jsoniqml.schema import parse_schema

SCHEMA = {
    "label": "string",
    "x": "double",
    "f": "float",
    "n": "int",
    "b": "boolean",
    "tags": ["double"],
    "meta": {"k": "long", "d": "decimal", "z": "null"},
}

# -- lexical values ------------------------------------------------------------

_WS = st.sampled_from(["", "", " ", "\t", "\n", "\u00a0", "\u2003", "\u3000"])
_SIGN = st.sampled_from(["", "+", "-"])
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4)
_MANTISSA = st.one_of(
    _DIGITS,
    st.builds("{}.{}".format, _DIGITS, st.text(alphabet="0123456789", max_size=3)),
    st.builds(".{}".format, _DIGITS),
)
_EXPONENT = st.one_of(
    st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"), _SIGN, _DIGITS)
)
# spellings that Python's float() takes but the cast does not, or neither does
_FLOAT_ONLY = [
    "inf", "-inf", "+inf", "Inf", "Infinity", "-Infinity", "infinity", "nan", "-nan", "NAN",
    "+INF", "+NaN", "1_0", "1_000.5", "1e1_0", "0x10", "1.5e", "e5", ".", "", "--1", "1,5",
    "\u0661\u0662",  # Arabic-Indic digits, which both take
]
_NUMERAL = st.builds("{}{}{}".format, _SIGN, _MANTISSA, _EXPONENT)
_DOUBLE_TEXT = st.builds(
    "{}{}{}".format,
    _WS,
    st.one_of(
        _NUMERAL,
        _NUMERAL,
        _NUMERAL,
        st.sampled_from(["NaN", "INF", "-INF"]),
        st.sampled_from(_FLOAT_ONLY),
    ),
    _WS,
)
_INTEGER_TEXT = st.builds(
    "{}{}{}{}".format,
    _WS,
    _SIGN,
    st.one_of(
        _DIGITS,
        st.sampled_from(["9" * 20, "1" * 4400, "0" * 4400 + "5", "1.5", "1_0", "1e3", ""]),
    ),
    _WS,
)
_DECIMAL_TEXT = st.sampled_from(["1.50", "-.5", "7", " 2.0 ", "1e3", "x", "1_0", "NaN"])

# -- field values: items of several kinds, castable or not --------------------

_DOUBLE_VALUE = st.one_of(
    _DOUBLE_TEXT,
    st.floats(width=64),
    st.integers(-(10**6), 10**6),
    st.decimals(allow_nan=False, places=3, min_value=-100, max_value=100),
)
_INT_VALUE = st.one_of(
    _INTEGER_TEXT, st.integers(-(2**40), 2**40), st.floats(min_value=-1e12, max_value=1e12)
)
_FIELDS = {
    "label": st.one_of(st.text(max_size=4), st.integers(-5, 5), st.floats(width=32)),
    "x": _DOUBLE_VALUE,
    "f": _DOUBLE_VALUE,
    "n": _INT_VALUE,
    "b": st.sampled_from(["true", "false", "1", "0", " true\n", "yes", True, False]),
    "tags": st.lists(_DOUBLE_VALUE, max_size=3),
    "meta": st.fixed_dictionaries(
        {
            "k": _INT_VALUE,
            "d": st.one_of(_DECIMAL_TEXT, st.integers(-99, 99), st.floats(width=32)),
            "z": st.just(None),
        }
    ),
}
_ROW = st.fixed_dictionaries(_FIELDS)

# -- one injected fault ----------------------------------------------------------

_FAULTS = {
    "missing field": lambda r: {k: v for k, v in r.items() if k != "x"},
    "missing nested field": lambda r: {
        **r, "meta": {k: v for k, v in r["meta"].items() if k != "d"}
    },
    "undeclared field": lambda r: {**r, "extra": 1},
    "undeclared nested field": lambda r: {**r, "meta": {**r["meta"], "w": "1"}},
    "null leaf": lambda r: {**r, "n": None},
    "null member": lambda r: {**r, "tags": r["tags"] + [None]},
    "array for record": lambda r: {**r, "meta": list(r["meta"].values())},
    "record for array": lambda r: {**r, "tags": {"0": "1.0"}},
    "atomic for record": lambda r: {**r, "meta": "1"},
    "uncastable lexical value": lambda r: {**r, "x": "1_0"},
    "atomic row": lambda r: r["n"],
    "array row": lambda r: r["tags"],
}

# half of the rows carry no fault of their own
_DRAWN = st.lists(
    st.tuples(_ROW, st.one_of(st.none(), st.sampled_from(list(_FAULTS)))),
    min_size=1,
    max_size=5,
)


def _same(a, b) -> bool:
    """Equal kinds and payloads (floats by repr: sign of zero and NaN
    included, Decimals with their scale); objects in the same key order."""
    if a.__class__ is not b.__class__:
        return False
    if isinstance(a, AtomicValue):
        return (
            a.kind == b.kind
            and type(a.value) is type(b.value)
            and repr(a.value) == repr(b.value)
        )
    if isinstance(a, ObjectItem):
        return list(a.pairs) == list(b.pairs) and all(
            _same(v, b.pairs[k]) for k, v in a.pairs.items()
        )
    assert isinstance(a, ArrayItem)
    return len(a.members) == len(b.members) and all(
        _same(x, y) for x, y in zip(a.members, b.members)
    )


def _outcome(thunk):
    try:
        return "value", thunk()
    except DynamicError as err:
        return "error", (err.code, err.message, err.position)


@settings(max_examples=300)
@given(_DRAWN)
def test_sink_agrees_with_validated_rows(drawn):
    rows = [from_py(r if fault is None else _FAULTS[fault](r)) for r, fault in drawn]
    descriptor = from_py(SCHEMA)
    record = parse_schema(descriptor)

    kind, expected = _outcome(lambda: list(validated_rows(iter(rows), record)))
    got_kind, got = _outcome(lambda: annotate_rows(iter(rows), descriptor))
    assert got_kind == kind, (expected, got)
    if kind == "error":
        assert got == expected
        return
    assert got.type == record and got.nrows == len(expected)
    back = list(got.iter_items())
    assert all(_same(a, b) for a, b in zip(back, expected)), (back, expected)


def test_float_only_spellings_are_rejected_alike():
    descriptor = from_py({"x": "double"})
    record = parse_schema(descriptor)
    for text in _FLOAT_ONLY[:-1]:
        rows = [from_py({"x": "1.5"}), from_py({"x": text})]
        expected = _outcome(lambda: list(validated_rows(iter(rows), record)))
        assert expected[0] == "error", text
        assert _outcome(lambda: annotate_rows(iter(rows), descriptor)) == expected, text


def test_decimal_scale_and_signed_zero_survive():
    descriptor = from_py({"d": "decimal", "x": "double", "n": "long"})
    rows = [
        from_py({"d": "1.50", "x": "-0.0", "n": " -" + "0" * 4400 + "5 "}),
        from_py({"d": Decimal("2.000"), "x": -0.0, "n": 7.9}),
    ]
    frame = annotate_rows(iter(rows), descriptor)
    expected = list(validated_rows(iter(rows), parse_schema(descriptor)))
    assert all(_same(a, b) for a, b in zip(frame.iter_items(), expected))
    assert [repr(r.pairs["d"].value) for r in frame.iter_items()] == [
        "Decimal('1.50')",
        "Decimal('2.000')",
    ]
