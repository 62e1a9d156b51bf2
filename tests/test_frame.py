import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from jsoniqml.errors import DynamicError, MaterializationCapError
from jsoniqml.frame import ArrayColumn, ScalarColumn, annotate_rows, frame_filter, make_builder
from jsoniqml.items import AtomicValue, ArrayItem, deep_equal, from_py
from jsoniqml.schema import FrameColumnType, parse_schema, validate_item


def small_frame():
    rows = [from_py({"label": 1, "prediction": 1}), from_py({"label": 0, "prediction": 1})]
    descriptor = from_py({"label": "int", "prediction": "int"})
    return annotate_rows(iter(rows), descriptor)


def label_eq_prediction(row):
    return deep_equal(row.pairs["label"], row.pairs["prediction"])


class TestFromToItems:
    def test_two_int_rows(self):
        frame = annotate_rows(iter([from_py({"a": 1}), from_py({"a": 2})]), from_py({"a": "int"}))
        assert frame.nrows == 2
        assert list(frame.children[0][1].values) == [1, 2]

    def test_empty(self):
        assert annotate_rows(iter([]), from_py({"a": "int"})).nrows == 0

    def test_mismatch_is_defensive_error(self):
        with pytest.raises(DynamicError) as err:
            annotate_rows(iter([from_py({"a": 1}), from_py({"a": "x"})]), from_py({"a": "int"}))
        # a row the column builders reject is reported by the validator
        assert err.value.code == "VALIDATION_ERROR"
        assert "row 1" in err.value.message

    def test_row_objects_in_schema_order(self):
        frame = small_frame()
        items = list(frame.iter_items())
        assert [list(o.pairs) for o in items] == [["label", "prediction"]] * 2
        assert items[0].pairs["label"].value == 1

    def test_nested_record_round_trip(self):
        descriptor = from_py({"name": "string", "meta": {"x": "double", "y": ["int"]}})
        record = parse_schema(descriptor)
        rows = [
            validate_item(from_py({"name": "a", "meta": {"x": 1.5, "y": [1, 2]}}), record),
            validate_item(from_py({"name": "b", "meta": {"x": 0.0, "y": []}}), record),
        ]
        frame = annotate_rows(iter(rows), descriptor)
        back = list(frame.iter_items())
        for a, b in zip(back, rows):
            assert deep_equal(a, b)


_rows = st.lists(
    st.fixed_dictionaries(
        {
            "s": st.text(max_size=6),
            "x": st.floats(allow_nan=False, allow_infinity=False, width=32),
            "v": st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=4),
        }
    ),
    max_size=10,
)


class TestRoundTripProperty:
    @given(_rows)
    def test_round_trip(self, rows_py):
        descriptor = from_py({"s": "string", "x": "double", "v": ["double"]})
        record = parse_schema(descriptor)
        rows = [validate_item(from_py(r), record) for r in rows_py]
        frame = annotate_rows(iter(rows), descriptor)
        back = list(frame.iter_items())
        assert len(back) == len(rows)
        for a, b in zip(back, rows):
            assert deep_equal(a, b)


def _taken_per_row(column: ArrayColumn, indices) -> "tuple[list, list]":
    """Offsets and members of `column.take(indices)`, one row at a time."""
    offsets, members = [0], []
    for i in indices:
        lo, hi = int(column.offsets[i]), int(column.offsets[i + 1])
        members.extend(column.flat.values[lo:hi].tolist())
        offsets.append(offsets[-1] + hi - lo)
    return offsets, members


class TestArrayTake:
    @given(
        st.lists(st.integers(0, 4), max_size=8).flatmap(
            lambda lengths: st.tuples(
                st.just(lengths),
                st.lists(st.integers(0, len(lengths) - 1), max_size=12)
                if lengths
                else st.just([]),
            )
        )
    )
    def test_matches_per_row_take(self, drawn):
        lengths, indices = drawn
        offsets = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]).astype(np.int64)
        ctype = FrameColumnType("Array", member=FrameColumnType("Double"))
        flat = ScalarColumn(ctype.member, np.arange(offsets[-1], dtype=np.float64) * 1.5)
        column = ArrayColumn(ctype, offsets, flat)
        taken = column.take(np.array(indices, dtype=np.int64))
        expected_offsets, expected_members = _taken_per_row(column, indices)
        assert taken.offsets.dtype == np.int64
        assert taken.offsets.tolist() == expected_offsets
        assert taken.flat.values.tolist() == expected_members

    def test_empty_arrays_empty_index_and_repeats(self):
        ctype = FrameColumnType("Array", member=FrameColumnType("Double"))
        offsets = np.array([0, 0, 3, 3, 5], dtype=np.int64)
        column = ArrayColumn(ctype, offsets, ScalarColumn(ctype.member, np.arange(5.0)))
        taken = column.take(np.array([3, 0, 1, 3, 1], dtype=np.int64))
        assert taken.offsets.tolist() == [0, 2, 2, 5, 7, 10]
        assert taken.flat.values.tolist() == [3.0, 4.0, 0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0]
        nothing = column.take(np.zeros(0, dtype=np.int64))
        assert nothing.offsets.tolist() == [0] and nothing.flat.values.tolist() == []


class TestFilter:
    def test_label_eq_prediction(self):
        filtered = frame_filter(small_frame(), label_eq_prediction)
        assert filtered.nrows == 1
        assert filtered.row_item(0).pairs["label"].value == 1

    def test_always_true_identity(self):
        frame = small_frame()
        filtered = frame_filter(frame, lambda row: True)
        assert filtered.nrows == frame.nrows
        for a, b in zip(filtered.iter_items(), frame.iter_items()):
            assert deep_equal(a, b)

    def test_differential_against_local_filter(self):
        descriptor = from_py({"k": "int", "v": "double"})
        rows = [from_py({"k": i, "v": float(i) * 1.5}) for i in range(20)]
        frame = annotate_rows(iter(rows), descriptor)

        def pred(row):
            return row.pairs["v"].value > 10.0

        via_frame = list(frame_filter(frame, pred).iter_items())
        via_local = [r for r in frame.iter_items() if pred(r)]
        assert len(via_frame) == len(via_local)
        for a, b in zip(via_frame, via_local):
            assert deep_equal(a, b)

    def test_error_carries_row_index(self):
        frame = small_frame()

        def boom(row):
            if row.pairs["label"].value == 0:
                raise DynamicError("TYPE_ERROR", "bad row")
            return True

        with pytest.raises(DynamicError) as err:
            frame_filter(frame, boom)
        assert "row 1" in err.value.message


def built_column(ctype, frame, fn):
    builder = make_builder(ctype)
    for row in frame.iter_items():
        assert builder.put(fn(row))
    return builder.finish()


class TestAddProjectCount:
    def test_add_constant_column(self):
        descriptor = from_py({"k": "int"})
        frame = annotate_rows((from_py({"k": i}) for i in range(3)), descriptor)
        ctype = FrameColumnType("Double")
        out = frame.with_column(
            "zero", built_column(ctype, frame, lambda row: AtomicValue("double", 0.0))
        )
        assert [name for name, _ in out.type.fields] == ["k", "zero"]
        assert list(out.children[1][1].values) == [0.0, 0.0, 0.0]

    def test_add_tokens_column(self):
        descriptor = from_py({"text": "string"})
        frame = annotate_rows(
            iter([from_py({"text": "a b"}), from_py({"text": "c"})]), descriptor
        )
        tokens_type = FrameColumnType("Array", member=FrameColumnType("String"))

        def tokens(row):
            return ArrayItem(
                [AtomicValue("string", t) for t in row.pairs["text"].value.split(" ")]
            )

        out = frame.with_column("tokens", built_column(tokens_type, frame, tokens))
        assert deep_equal(out.row_item(0).pairs["tokens"], from_py(["a", "b"]))
        assert deep_equal(out.row_item(1).pairs["tokens"], from_py(["c"]))

    def test_duplicate_column(self):
        frame = small_frame()
        ctype = FrameColumnType("Double")
        column = built_column(ctype, frame, lambda row: AtomicValue("double", 0.0))
        with pytest.raises(DynamicError) as err:
            frame.with_column("label", column)
        assert err.value.code == "DUPLICATE_COLUMN"

    def test_column_of_wrong_length(self):
        frame = small_frame()
        ctype = FrameColumnType("Double")
        column = built_column(ctype, frame.take(np.arange(1)), lambda row: AtomicValue("double", 0.0))
        with pytest.raises(DynamicError) as err:
            frame.with_column("zero", column)
        assert err.value.code == "SCHEMA_MISMATCH"
        assert err.value.message == "column zero has 1 rows, frame has 2"

    def test_unknown_column(self):
        with pytest.raises(DynamicError) as err:
            small_frame().column("nope")
        assert err.value.code == "UNKNOWN_COLUMN"


class TestSequenceEquivalence:
    def test_stream_of_frame_matches_rows(self):
        frame = small_frame()
        rows = [frame.row_item(i) for i in range(frame.nrows)]
        assert frame.count() == len(rows)
        for cap in (frame.nrows, frame.nrows + 1):
            via_materialize = frame.materialize(cap)
            assert len(via_materialize) == len(rows)
            for a, b in zip(via_materialize, rows):
                assert deep_equal(a, b)
        with pytest.raises(MaterializationCapError) as err:
            frame.materialize(frame.nrows - 1)
        assert err.value.cap == frame.nrows - 1
