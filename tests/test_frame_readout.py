"""Frames are read out a column at a time (`items(lo, hi)`). Whatever the
range, the result must equal reading each row on its own through the old
per-row path, which this module keeps as an oracle: one numpy scalar per
value, `.item()`, and a checked atom. Frames cover every column kind, nested
records (all-double ones too), arrays with empty members, arrays of
records and a record with no fields, before and after `take`."""

from datetime import date, datetime
from decimal import Decimal
from itertools import islice

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from jsoniqml.errors import MaterializationCapError
from jsoniqml.frame import ArrayColumn, Frame, annotate_rows
from jsoniqml.items import ArrayItem, AtomicValue, ObjectItem, from_py
from jsoniqml.schema import FRAME_TO_ATOMIC

SCHEMA = {
    "n": "null",
    "s": "string",
    "d": "decimal",
    "t": "date",
    "ts": "dateTime",
    "h": "hexBinary",
    "b": "boolean",
    "i": "int",
    "l": "long",
    "x": "double",
    "f": "float",
    "r": {"k": "long", "w": "string", "inner": {"p": "double", "q": "double"}},
    "v": ["double"],
    "words": ["string"],
    "pairs": [{"u": "double", "z": "null"}],
    "points": [{"u": "double", "w": "double"}],
    "e": {},
}


def _atom(kind, strategy):
    return st.builds(AtomicValue, st.just(kind), strategy)


_TEXT = st.text(max_size=3)
_DOUBLE = _atom("double", st.floats(width=64))
_FIELDS = {
    "n": st.just(AtomicValue("null", None)),
    "s": _atom("string", _TEXT),
    "d": _atom(
        "decimal",
        st.one_of(
            st.decimals(allow_nan=False, allow_infinity=False, places=3),
            st.sampled_from([Decimal("-0"), Decimal("1.500"), Decimal("-0.0")]),
        ),
    ),
    "t": _atom("date", st.dates()),
    "ts": _atom("dateTime", st.datetimes()),
    "h": _atom("hexBinary", st.binary(max_size=3)),
    "b": _atom("boolean", st.booleans()),
    "i": _atom("int", st.integers(-(2**31), 2**31 - 1)),
    "l": _atom("long", st.integers(-(2**63), 2**63 - 1)),
    "x": _DOUBLE,
    "f": _atom("double", st.floats(width=32)),
    "r": st.builds(
        lambda k, w, p, q: ObjectItem(
            {"k": k, "w": w, "inner": ObjectItem({"p": p, "q": q})}
        ),
        _atom("long", st.integers(-5, 5)),
        _atom("string", _TEXT),
        _DOUBLE,
        _atom("string", st.sampled_from(["1.5", "-0.0", " 2 ", "NaN"])),
    ),
    "v": st.builds(ArrayItem, st.lists(_DOUBLE, max_size=3)),
    "words": st.builds(ArrayItem, st.lists(_atom("string", _TEXT), max_size=2)),
    "pairs": st.builds(
        ArrayItem,
        st.lists(
            st.builds(lambda u: ObjectItem({"u": u, "z": AtomicValue("null", None)}), _DOUBLE),
            max_size=2,
        ),
    ),
    "points": st.builds(
        ArrayItem,
        st.lists(
            st.builds(lambda u, w: ObjectItem({"u": u, "w": w}), _DOUBLE, _DOUBLE), max_size=2
        ),
    ),
    "e": st.just(ObjectItem({})),
}
_ROWS = st.lists(st.builds(ObjectItem, st.fixed_dictionaries(_FIELDS)), max_size=7)


def _oracle(column, i: int):
    """Row `i` of a column read on its own, as the per-row read-out did."""
    if column.__class__ is Frame:
        return ObjectItem({name: _oracle(child, i) for name, child in column.children})
    if column.__class__ is ArrayColumn:
        lo, hi = int(column.offsets[i]), int(column.offsets[i + 1])
        return ArrayItem([_oracle(column.flat, j) for j in range(lo, hi)])
    kind = FRAME_TO_ATOMIC[column.type.kind]
    if kind == "null":
        return AtomicValue("null", None)
    value = column.values[i]
    if isinstance(value, np.generic):
        value = value.item()
    return AtomicValue(kind, value)


def _same(a, b) -> bool:
    """Equal classes, kinds, payload types and payload reprs."""
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
    return len(a.members) == len(b.members) and all(
        _same(x, y) for x, y in zip(a.members, b.members)
    )


def _all_same(got, expected) -> bool:
    return len(got) == len(expected) and all(_same(a, b) for a, b in zip(got, expected))


def _check_readout(frame: Frame, stop: int, lo: int, hi: int) -> None:
    expected = [_oracle(frame, i) for i in range(frame.nrows)]
    assert _all_same(frame.materialize(frame.nrows), expected)
    assert _all_same(list(frame.iter_items()), expected)
    assert _all_same(list(islice(frame.iter_items(), stop)), expected[:stop])
    assert _all_same([frame.row_item(i) for i in range(frame.nrows)], expected)
    assert _all_same(frame.items(lo, hi), expected[lo:hi])
    for name, column in frame.children:
        column_expected = [_oracle(column, i) for i in range(frame.nrows)]
        assert _all_same(column.items(lo, hi), column_expected[lo:hi]), name
        assert _all_same([column.item_at(i) for i in range(frame.nrows)], column_expected), name


@settings(max_examples=150, deadline=None)
@given(_ROWS, st.data())
def test_column_readout_matches_per_row_oracle(rows, data):
    frame = annotate_rows(iter(rows), from_py(SCHEMA))
    assert frame.nrows == len(rows)
    n = frame.nrows
    stop = data.draw(st.integers(0, n + 1), "stop")
    lo = data.draw(st.integers(0, n), "lo")
    hi = data.draw(st.integers(lo, n), "hi")
    _check_readout(frame, stop, lo, hi)

    picks = st.lists(st.integers(0, n - 1), max_size=9) if n else st.just([])
    indices = np.array(data.draw(picks, "indices"), dtype=np.int64)
    taken = frame.take(indices)
    m = taken.nrows
    stop = data.draw(st.integers(0, m + 1), "taken stop")
    lo = data.draw(st.integers(0, m), "taken lo")
    hi = data.draw(st.integers(lo, m), "taken hi")
    _check_readout(taken, stop, lo, hi)


def test_chunks_cover_long_frames():
    # more rows than one chunk, so that iter_items reads several ranges
    rows = [from_py({"x": float(i), "v": [float(i)] * (i % 3)}) for i in range(700)]
    frame = annotate_rows(iter(rows), from_py({"x": "double", "v": ["double"]}))
    expected = [_oracle(frame, i) for i in range(frame.nrows)]
    assert _all_same(list(frame.iter_items()), expected)
    assert _all_same(list(islice(frame.iter_items(), 300)), expected[:300])


def test_materialize_checks_the_cap_first():
    frame = annotate_rows(iter([from_py({"x": 1.0})] * 3), from_py({"x": "double"}))
    assert len(frame.materialize(3)) == 3
    with pytest.raises(MaterializationCapError):
        frame.materialize(2)


def test_payload_types_of_every_kind():
    row = ObjectItem(
        {
            "t": AtomicValue("date", date(2020, 1, 2)),
            "ts": AtomicValue("dateTime", datetime(2020, 1, 2, 3, 4, 5)),
            "b": AtomicValue("boolean", True),
            "l": AtomicValue("long", 2**63 - 1),
        }
    )
    schema = {"t": "date", "ts": "dateTime", "b": "boolean", "l": "long"}
    (back,) = annotate_rows(iter([row]), from_py(schema)).materialize(1)
    assert _same(back, row)
