import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from jsoniqml import run_query
from jsoniqml.errors import DynamicError
from jsoniqml.frame import annotate_rows
from jsoniqml.items import AtomicValue, ObjectItem, deep_equal, from_py
from jsoniqml.modes import POLICIES
from jsoniqml.schema import FrameColumnType, parse_schema, validate_item

# one parameter tuple per table row; date appears twice in the source table
# and maps through the single Date rule both times
TYPE_TABLE_ROWS = [
    ("byte", "Byte"),
    ("short", "Short"),
    ("int", "Integer"),
    ("long", "Long"),
    ("boolean", "Boolean"),
    ("double", "Double"),
    ("float", "Float"),
    ("decimal", "Decimal"),
    ("string", "String"),
    ("null", "Null"),
    ("date", "Date"),
    ("dateTime", "Timestamp"),
    ("date", "Date"),
    ("hexBinary", "Binary"),
]


class TestParseSchema:
    def test_record_with_wide_double_record(self):
        descriptor = from_py(
            {"label": "string", "features": {str(i): "double" for i in range(1, 4097)}}
        )
        record = parse_schema(descriptor)
        assert record.kind == "Record"
        fields = dict(record.fields)
        assert fields["label"] == FrameColumnType("String")
        features = fields["features"]
        assert features.kind == "Record" and len(features.fields) == 4096
        assert all(sub == FrameColumnType("Double") for _, sub in features.fields)

    def test_array_descriptor(self):
        ctype = parse_schema(from_py(["double"]))
        assert ctype == FrameColumnType("Array", member=FrameColumnType("Double"))

    def test_unknown_type_name(self):
        with pytest.raises(DynamicError) as err:
            parse_schema(from_py("quaternion"))
        assert err.value.code == "UNKNOWN_TYPE_NAME"

    def test_arbitrary_precision_integer_not_a_schema_type(self):
        with pytest.raises(DynamicError) as err:
            parse_schema(from_py("integer"))
        assert err.value.code == "UNKNOWN_TYPE_NAME"

    def test_malformed_array(self):
        with pytest.raises(DynamicError) as err:
            parse_schema(from_py(["double", "double"]))
        assert err.value.code == "MALFORMED_SCHEMA"

    def test_malformed_atomic(self):
        with pytest.raises(DynamicError) as err:
            parse_schema(from_py(3))
        assert err.value.code == "MALFORMED_SCHEMA"


class TestMapFrameType:
    @pytest.mark.parametrize("source,target", TYPE_TABLE_ROWS)
    def test_atomic_rows(self, source, target):
        assert parse_schema(from_py(source)) == FrameColumnType(target)

    def test_array_row(self):
        out = parse_schema(from_py(["double"]))
        assert out == FrameColumnType("Array", member=FrameColumnType("Double"))

    def test_object_row(self):
        out = parse_schema(from_py({"a": "int"}))
        assert out.kind == "Record"
        assert out.fields == (("a", FrameColumnType("Integer")),)

    def test_injective_over_distinct_atomics(self):
        targets = {}
        for source, target in TYPE_TABLE_ROWS:
            targets.setdefault(target, set()).add(source)
        for target, sources in targets.items():
            assert len(sources) == 1, f"{target} reached from {sources}"


class TestValidateItem:
    def test_label_cast_to_declared_string(self):
        record = parse_schema(from_py({"label": "string", "features": {"1": "double"}}))
        out = validate_item(from_py({"label": 1, "features": {"1": "-4.893"}}), record)
        assert out.pairs["label"] == AtomicValue("string", "1")
        assert out.pairs["features"].pairs["1"] == AtomicValue("double", -4.893)

    def test_missing_field_path(self):
        record = parse_schema(from_py({"a": "string", "b": "double"}))
        with pytest.raises(DynamicError) as err:
            validate_item(from_py({"a": "x"}), record)
        assert err.value.code == "VALIDATION_ERROR"
        assert "$.b" in err.value.message and "missing" in err.value.message

    def test_extra_field_rejected(self):
        record = parse_schema(from_py({"a": "string"}))
        with pytest.raises(DynamicError) as err:
            validate_item(from_py({"a": "x", "z": 1}), record)
        assert "$.z" in err.value.message

    def test_string_to_double(self):
        ctype = parse_schema(from_py("double"))
        assert validate_item(from_py("3.5"), ctype) == AtomicValue("double", 3.5)

    def test_null_only_for_null_kind(self):
        record = parse_schema(from_py({"a": "double"}))
        with pytest.raises(DynamicError):
            validate_item(from_py({"a": None}), record)
        record_null = parse_schema(from_py({"a": "null"}))
        out = validate_item(from_py({"a": None}), record_null)
        assert out.pairs["a"].kind == "null"

    def test_idempotent(self):
        record = parse_schema(from_py({"a": "double", "b": ["int"]}))
        once = validate_item(from_py({"a": "1.5", "b": [1, 2]}), record)
        twice = validate_item(once, record)
        assert deep_equal(once, twice)


# random rows matching a fixed small schema
_SCHEMA_PY = {"name": "string", "score": "double", "tags": ["string"], "meta": {"n": "int"}}
_row_strategy = st.fixed_dictionaries(
    {
        "name": st.text(max_size=8),
        "score": st.floats(allow_nan=False, allow_infinity=False, width=32),
        "tags": st.lists(st.text(max_size=5), max_size=3),
        "meta": st.fixed_dictionaries({"n": st.integers(-(2**31), 2**31 - 1)}),
    }
)


class TestAnnotate:
    def test_columnar_storage_invisible(self):
        rows = [
            from_py({"label": 1, "features": {"1": "-4.893", "2": "15.133"}}),
            from_py({"label": 0, "features": {"1": "2.5", "2": "0.0"}}),
        ]
        descriptor = from_py({"label": "string", "features": {"1": "double", "2": "double"}})
        frame = annotate_rows(iter(rows), descriptor)
        record = parse_schema(descriptor)
        direct = [validate_item(row, record) for row in rows]
        via_frame = list(frame.iter_items())
        assert len(via_frame) == len(direct)
        for a, b in zip(via_frame, direct):
            assert deep_equal(a, b)

    @given(st.lists(_row_strategy, max_size=8))
    def test_differential_on_random_rows(self, rows_py):
        rows = [from_py(r) for r in rows_py]
        descriptor = from_py(_SCHEMA_PY)
        frame = annotate_rows(iter(rows), descriptor)
        record = parse_schema(descriptor)
        direct = [validate_item(r, record) for r in rows]
        via_frame = list(frame.iter_items())
        assert len(via_frame) == len(direct)
        for a, b in zip(via_frame, direct):
            assert deep_equal(a, b)

    def test_empty_rows_keep_schema(self):
        frame = annotate_rows(iter([]), from_py({"a": "double"}))
        assert frame.nrows == 0
        assert frame.type.fields == (("a", FrameColumnType("Double")),)

    def test_non_object_row(self):
        with pytest.raises(DynamicError) as err:
            annotate_rows(iter([from_py(1), from_py(2)]), from_py({"a": "double"}))
        assert err.value.code == "NON_OBJECT_ROW"

    def test_row_index_in_validation_error(self):
        rows = [from_py({"a": "1.0"}), from_py({"a": "oops"})]
        with pytest.raises(DynamicError) as err:
            annotate_rows(iter(rows), from_py({"a": "double"}))
        assert "row 1" in err.value.message


# one fault per row, applied to a row drawn from `_row_strategy`
_FAULTS = {
    "missing field": lambda r: {k: v for k, v in r.items() if k != "score"},
    "missing nested field": lambda r: {**r, "meta": {}},
    "undeclared field": lambda r: {**r, "extra": 1},
    "undeclared nested field": lambda r: {**r, "meta": {**r["meta"], "z": True}},
    "uncastable value": lambda r: {**r, "score": "oops"},
    "uncastable nested value": lambda r: {**r, "meta": {"n": "1.5x"}},
    "null into string": lambda r: {**r, "name": None},
    "null into array member": lambda r: {**r, "tags": r["tags"] + [None]},
    "array for record": lambda r: {**r, "meta": [r["meta"]["n"]]},
    "atomic row": lambda r: r["score"],
    "array row": lambda r: r["tags"],
}

_faulty_rows = st.lists(
    st.tuples(_row_strategy, st.sampled_from([None, *_FAULTS])), min_size=1, max_size=5
)


def _raised(thunk) -> DynamicError:
    with pytest.raises(DynamicError) as err:
        thunk()
    return err.value


class TestBadRows:
    @given(_faulty_rows)
    def test_validator_frame_and_queries_agree(self, drawn):
        assume(any(fault is not None for _, fault in drawn))
        rows = [from_py(r if fault is None else _FAULTS[fault](r)) for r, fault in drawn]
        descriptor = from_py(_SCHEMA_PY)

        # the first bad row decides, as validate_item reports it
        record = parse_schema(descriptor)
        for i, row in enumerate(rows):
            if not isinstance(row, ObjectItem):
                expected = ("NON_OBJECT_ROW", f"row {i} is not an object ({type(row).__name__})")
                break
            try:
                validate_item(row, record)
            except DynamicError as err:
                expected = (err.code, f"row {i}: {err.message}")
                break

        err = _raised(lambda: annotate_rows(iter(rows), descriptor))
        assert (err.code, err.message) == expected

        # the grammar has no sequence constructor, so a FLWOR picks row $ri
        # for each i
        pick = f"$r{len(rows) - 1}"
        for i in reversed(range(len(rows) - 1)):
            pick = f"if ($i eq {i}) then $r{i} else ({pick})"
        query = f"annotate(for $i in 0 to {len(rows) - 1} return {pick}, $schema)"
        variables = {f"r{i}": row for i, row in enumerate(rows)}
        variables["schema"] = descriptor
        positions = set()
        for policy in POLICIES:
            err = _raised(lambda: run_query(query, variables, policy=policy))
            assert (err.code, err.message) == expected, policy
            positions.add(err.position)
        # every policy reports the error at the annotate call, local mode too
        assert positions == {(1, 1)}
