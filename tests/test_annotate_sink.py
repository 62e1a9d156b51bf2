"""Frame-mode `annotate` casts each row straight into column builders. It
must accept exactly the rows that `validated_rows` (and so `validate_item`)
accepts, build the same values, and raise the validator's error, code and
full message, for the first row the validator rejects."""

from decimal import Decimal
from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

import jsoniqml.frame as frame_module
from jsoniqml.errors import DynamicError
from jsoniqml.frame import ArrayColumn, Frame, annotate_rows, validated_rows
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


# -- records of double fields only ------------------------------------------------
#
# A record whose fields are all `double` casts a row at a time into one buffer.
# It must build what the per-field builders build (`frame._RecordBuilder` over
# one scalar builder per field), and raise the validator's error where they do.

_WIDE = [str(i) for i in range(1, 9)]
_CLEAN_NUMERAL = st.builds("{}{}{}".format, _SIGN, _MANTISSA, _EXPONENT)
_PADDED_NUMERAL = st.builds("{}{}{}".format, _WS, _CLEAN_NUMERAL, _WS)
_ODD_TEXT = st.sampled_from(["NaN", "INF", "-INF", " NaN ", "inf", "1_0", "0x10", "-inf", ""])
# numerals as they stand, mostly, for rows of string atoms only
_STRING_FIELD = st.builds(
    AtomicValue,
    st.just("string"),
    st.one_of(_CLEAN_NUMERAL, _CLEAN_NUMERAL, _CLEAN_NUMERAL, _PADDED_NUMERAL, _ODD_TEXT),
)
_DOUBLE_FIELD = st.one_of(
    _STRING_FIELD,
    st.builds(AtomicValue, st.just("double"), st.floats(width=64)),
    st.builds(AtomicValue, st.just("integer"), st.integers(-(10**400), 10**400)),
    st.builds(AtomicValue, st.just("long"), st.integers(-(2**63), 2**63 - 1)),
    st.builds(
        AtomicValue,
        st.just("decimal"),
        st.decimals(allow_nan=False, allow_infinity=False, places=4, min_value=-10, max_value=10),
    ),
    st.builds(AtomicValue, st.just("boolean"), st.booleans()),
    st.just(AtomicValue("null", None)),
    st.builds(AtomicValue, st.just("date"), st.dates()),
    st.just(ArrayItem([AtomicValue("string", "1.0")])),
    st.just(ObjectItem({})),
)
# whole rows of one shape, which is what the batch takes, or of mixed fields
_UNIFORM_ROW = st.one_of(
    st.lists(st.builds(AtomicValue, st.just("string"), _CLEAN_NUMERAL), min_size=8, max_size=8),
    st.lists(_STRING_FIELD, min_size=8, max_size=8),
    st.lists(st.builds(AtomicValue, st.just("double"), st.floats(width=64)), min_size=8, max_size=8),
    st.lists(_DOUBLE_FIELD, min_size=8, max_size=8),
)
_WIDE_FAULTS = {
    None: lambda pairs: pairs,
    "missing field": lambda pairs: {k: v for k, v in pairs.items() if k != "5"},
    "extra field": lambda pairs: {**pairs, "9": AtomicValue("string", "1")},
    "renamed field": lambda pairs: {
        **{k: v for k, v in pairs.items() if k != "8"}, "x": pairs["8"]
    },
    "null field": lambda pairs: {**pairs, "3": AtomicValue("null", None)},
}
_WIDE_ROW = st.one_of(
    st.builds(
        lambda values, fault: ObjectItem(_WIDE_FAULTS[fault](dict(zip(_WIDE, values)))),
        _UNIFORM_ROW,
        # most rows carry no fault
        st.one_of(st.none(), st.none(), st.none(), st.sampled_from(list(_WIDE_FAULTS))),
    ),
    st.sampled_from([AtomicValue("string", "1.0"), ArrayItem([]), AtomicValue("null", None)]),
)


def _per_field_make_builder(ctype):
    """`frame.make_builder` without the double-record builder."""
    if ctype.kind == "Array":
        return frame_module._ArrayBuilder(ctype)
    if ctype.kind == "Record":
        return frame_module._RecordBuilder(ctype)
    return frame_module._ScalarBuilder(ctype)


def _per_field_frame(rows, descriptor):
    """`annotate_rows` with the per-field builders: the oracle."""
    with mock.patch.object(frame_module, "make_builder", _per_field_make_builder):
        return annotate_rows(rows, descriptor)


def _payloads(column) -> list:
    """Each column's kind and the repr of each payload, depth first."""
    if column.__class__ is Frame:
        return [("Record", column.nrows)] + [
            (name, _payloads(child)) for name, child in column.children
        ]
    if column.__class__ is ArrayColumn:
        return [("Array", column.offsets.tolist()), _payloads(column.flat)]
    values = column.values
    if isinstance(values, np.ndarray):
        if column.type.kind == "Double":
            assert values.dtype == np.float64
        values = values.tolist()
    return [column.type.kind, [repr(v) for v in values] if isinstance(values, list) else values]


@settings(max_examples=300)
@given(st.lists(_WIDE_ROW, min_size=1, max_size=6), st.booleans())
def test_double_record_batch_agrees_with_per_field_builders(rows, nested):
    schema = {name: "double" for name in _WIDE}
    if nested:
        schema = {"label": "string", "features": schema}
        rows = [ObjectItem({"label": AtomicValue("string", "a"), "features": r}) for r in rows]
    descriptor = from_py(schema)

    kind, expected = _outcome(lambda: _per_field_frame(iter(rows), descriptor))
    got_kind, got = _outcome(lambda: annotate_rows(iter(rows), descriptor))
    assert got_kind == kind, (expected, got)
    if kind == "error":
        assert got == expected
        return
    assert got.type == expected.type
    assert _payloads(got) == _payloads(expected)
    back = list(validated_rows(iter(rows), parse_schema(descriptor)))
    assert all(_same(a, b) for a, b in zip(got.iter_items(), back))


def test_double_record_batch_takes_rows_of_one_shape():
    descriptor = from_py({"a": "double", "b": "double"})
    rows = [
        from_py({"a": "1.5", "b": "-2e3"}),
        from_py({"a": 0.25, "b": -0.0}),
        from_py({"a": " 7 ", "b": "INF"}),  # cast field by field
        from_py({"b": "1", "a": 2}),
    ]
    builder = frame_module.make_builder(parse_schema(descriptor))
    assert builder.__class__ is frame_module._DoubleRecordBuilder
    frame = annotate_rows(iter(rows), descriptor)
    assert [repr(v) for v in frame.column("a").values.tolist()] == ["1.5", "0.25", "7.0", "2.0"]
    assert [repr(v) for v in frame.column("b").values.tolist()] == ["-2000.0", "-0.0", "inf", "1.0"]
