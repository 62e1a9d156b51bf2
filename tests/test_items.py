import math
from datetime import date, datetime
from decimal import Decimal

import pytest
import hypothesis.strategies as st
from hypothesis import given

from conftest import json_items
from jsoniqml.errors import DynamicError, EngineError
from jsoniqml.items import (
    ArrayItem,
    AtomicValue,
    FunctionItem,
    ObjectItem,
    SequenceValue,
    atomic_cast,
    canonical_serialize,
    deep_equal,
    effective_boolean_value,
    from_py,
    object_item,
    parse_canonical,
)


def seq(*items):
    return SequenceValue.from_list(list(items))


class TestCanonicalSerialize:
    def test_identity_shaped_rendering(self):
        item = from_py({"a": 1, "b": [2.5]})
        assert canonical_serialize(item) == '{"a": 1, "b": [2.5]}'

    def test_empty_array(self):
        assert canonical_serialize(ArrayItem([])) == "[]"

    def test_function_item_rejected(self):
        fn = FunctionItem(name=None, param_names=("x",), signature=(None, None))
        item = from_py({"model": 1})
        item.pairs["model"] = fn
        with pytest.raises(DynamicError) as err:
            canonical_serialize(item)
        assert err.value.code == "SERIALIZE_FUNCTION"

    def test_double_shortest_form(self):
        assert canonical_serialize(AtomicValue("double", 2.5)) == "2.5"
        assert canonical_serialize(AtomicValue("double", 0.1)) == "0.1"
        assert canonical_serialize(AtomicValue("double", 1e300)) == "1e+300"

    def test_nan_inf_tokens(self):
        assert canonical_serialize(AtomicValue("double", float("nan"))) == "NaN"
        assert canonical_serialize(AtomicValue("double", float("inf"))) == "INF"
        assert canonical_serialize(AtomicValue("double", float("-inf"))) == "-INF"

    def test_decimal_scale_preserved(self):
        assert canonical_serialize(AtomicValue("decimal", Decimal("0.0"))) == "0.0"
        assert canonical_serialize(AtomicValue("decimal", Decimal("2.50"))) == "2.50"

    def test_dates_render_quoted(self):
        assert canonical_serialize(AtomicValue("date", date(2021, 1, 5))) == '"2021-01-05"'
        item = AtomicValue("dateTime", datetime(2021, 1, 5, 10, 30))
        assert canonical_serialize(item) == '"2021-01-05T10:30:00"'

    def test_string_escapes(self):
        assert canonical_serialize(AtomicValue("string", 'a"b\n')) == '"a\\"b\\n"'


class TestRoundTrip:
    @given(json_items)
    def test_parse_of_serialize_is_deep_equal(self, item):
        assert deep_equal(parse_canonical(canonical_serialize(item)), item)

    def test_nan_round_trip(self):
        out = parse_canonical("NaN")
        assert out.kind == "double" and math.isnan(out.value)
        assert deep_equal(out, AtomicValue("double", float("nan")))


class TestParseCanonicalErrors:
    @pytest.mark.parametrize(
        "text", ['"\\u12"', '"\\u+1_2"', '"\\u"', '"\\u00g1"', '"\\u 123"', "1" * 5000]
    )
    def test_bad_text_is_item_parse_error(self, text):
        with pytest.raises(DynamicError) as err:
            parse_canonical(text)
        assert err.value.code == "ITEM_PARSE_ERROR"

    def test_four_hex_digits_escape(self):
        assert parse_canonical('"\\u00e9\\u0041b"').value == "\u00e9Ab"

    @given(st.text())
    def test_arbitrary_text_parses_or_raises_engine_error(self, text):
        try:
            parse_canonical(text)
        except EngineError:
            pass


class TestDeepEqual:
    def test_numeric_promotion(self):
        assert deep_equal(AtomicValue("int", 1), AtomicValue("double", 1.0))

    def test_key_order_irrelevant(self):
        assert deep_equal(from_py({"a": 1, "b": 2}), from_py({"b": 2, "a": 1}))

    def test_nested_arrays(self):
        assert not deep_equal(from_py([1, [2]]), from_py([1, [3]]))

    def test_functions_never_equal(self):
        fn = FunctionItem(name=None, param_names=(), signature=(None,))
        assert not deep_equal(fn, fn)

    @given(json_items)
    def test_reflexive(self, item):
        assert deep_equal(item, item)

    @given(json_items, json_items)
    def test_symmetric(self, a, b):
        assert deep_equal(a, b) == deep_equal(b, a)

    def test_transitive_across_numeric_kinds(self):
        a = AtomicValue("int", 2)
        b = AtomicValue("double", 2.0)
        c = AtomicValue("decimal", Decimal("2"))
        assert deep_equal(a, b) and deep_equal(b, c) and deep_equal(a, c)

    def test_integer_float_comparison_is_exact(self):
        # 2**53 + 1 is not representable as a double; promotion must not
        # round it away, or equality would stop being transitive
        big = 2**53
        assert deep_equal(AtomicValue("integer", big), AtomicValue("double", float(big)))
        assert not deep_equal(AtomicValue("integer", big + 1), AtomicValue("double", float(big)))

    @given(json_items, json_items, json_items)
    def test_transitive_on_random_items(self, a, b, c):
        if deep_equal(a, b) and deep_equal(b, c):
            assert deep_equal(a, c)


class TestEffectiveBooleanValue:
    def test_empty_false(self):
        assert effective_boolean_value(SequenceValue.empty()) is False

    def test_nonempty_string_true(self):
        assert effective_boolean_value(seq(AtomicValue("string", "indoor"))) is True

    def test_zero_false(self):
        assert effective_boolean_value(seq(AtomicValue("integer", 0))) is False

    def test_nan_false(self):
        assert effective_boolean_value(seq(AtomicValue("double", float("nan")))) is False

    def test_null_false(self):
        assert effective_boolean_value(seq(AtomicValue("null", None))) is False

    def test_object_errors(self):
        with pytest.raises(DynamicError) as err:
            effective_boolean_value(seq(ObjectItem({})))
        assert err.value.code == "EBV_ERROR"

    def test_multi_item_errors(self):
        with pytest.raises(DynamicError) as err:
            effective_boolean_value(seq(AtomicValue("integer", 1), AtomicValue("integer", 2)))
        assert err.value.code == "EBV_ERROR"


class TestAtomicCast:
    def test_messy_feature_token_to_double(self):
        out = atomic_cast(AtomicValue("string", "-4.893"), "double")
        assert out == AtomicValue("double", -4.893)

    def test_integer_to_string(self):
        assert atomic_cast(AtomicValue("integer", 1), "string") == AtomicValue("string", "1")

    def test_lexical_error(self):
        with pytest.raises(DynamicError) as err:
            atomic_cast(AtomicValue("string", "abc"), "double")
        assert err.value.code == "LEXICAL_ERROR"

    def test_range_error(self):
        with pytest.raises(DynamicError) as err:
            atomic_cast(AtomicValue("integer", 300), "byte")
        assert err.value.code == "RANGE_ERROR"

    def test_no_cast_rule(self):
        with pytest.raises(DynamicError) as err:
            atomic_cast(AtomicValue("boolean", True), "double")
        assert err.value.code == "NO_CAST_RULE"

    def test_scientific_notation(self):
        assert atomic_cast(AtomicValue("string", "1.5e2"), "double").value == 150.0

    def test_special_double_tokens(self):
        assert math.isnan(atomic_cast(AtomicValue("string", "NaN"), "double").value)
        assert atomic_cast(AtomicValue("string", "-INF"), "double").value == float("-inf")
        with pytest.raises(DynamicError):
            atomic_cast(AtomicValue("string", "Infinity"), "double")

    def test_float_narrowing(self):
        out = atomic_cast(AtomicValue("double", 0.1), "float")
        assert out.kind == "float"
        assert abs(out.value - 0.1) < 1e-7 and out.value != 0.1

    def test_double_to_int_truncates(self):
        assert atomic_cast(AtomicValue("double", -2.7), "int").value == -2

    def test_string_to_date(self):
        assert atomic_cast(AtomicValue("string", "2021-01-05"), "date").value == date(2021, 1, 5)

    def test_timezone_rejected(self):
        with pytest.raises(DynamicError) as err:
            atomic_cast(AtomicValue("string", "2021-01-05T10:00:00+02:00"), "dateTime")
        assert err.value.code == "LEXICAL_ERROR"

    def test_string_boolean_forms(self):
        assert atomic_cast(AtomicValue("string", "1"), "boolean").value is True
        assert atomic_cast(AtomicValue("string", "false"), "boolean").value is False


class TestCastProperties:
    @given(st.integers(-(10**12), 10**12))
    def test_integer_string_round_trip(self, value):
        item = AtomicValue("integer", value)
        back = atomic_cast(atomic_cast(item, "string"), "integer")
        assert back.value == value

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_double_string_round_trip(self, value):
        item = AtomicValue("double", value)
        back = atomic_cast(atomic_cast(item, "string"), "double")
        assert back.value == value or (back.value == 0.0 and value == 0.0)

    @given(st.integers(-128, 127))
    def test_byte_widens_and_narrows(self, value):
        item = AtomicValue("byte", value)
        widened = atomic_cast(item, "long")
        assert atomic_cast(widened, "byte").value == value


class TestSequenceValue:
    def test_single_and_count(self):
        s = SequenceValue.single(AtomicValue("integer", 1))
        assert s.count() == 1 and s.first().value == 1

    def test_stream_single_consumer(self):
        s = SequenceValue.from_iter(iter([AtomicValue("integer", 1)]))
        list(s.iter_items())
        with pytest.raises(RuntimeError):
            list(s.iter_items())

    def test_materialize_cap(self):
        s = SequenceValue.from_iter(AtomicValue("integer", i) for i in range(100))
        with pytest.raises(Exception) as err:
            s.materialize(10)
        assert "MATERIALIZATION_CAP_EXCEEDED" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(DynamicError) as err:
            object_item([("a", AtomicValue("integer", 1)), ("a", AtomicValue("integer", 2))])
        assert err.value.code == "DUPLICATE_OBJECT_KEY"
