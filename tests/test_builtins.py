import pytest
import hypothesis.strategies as st
from hypothesis import given

from jsoniqml.engine import run_query, run_query_lines
from jsoniqml.errors import DynamicError, SourceIOError

MESSY_FIRST_LINE = (
    "animal:0.7420,outdoor:0.9710,pet:0.6130,white:0.6790 -4.893 -3.803 -25.799 "
    "-34.55 -6.622 -13.547"
)


class TestTokenize:
    def test_messy_line_head_is_label_token(self):
        line = "animal:0.7420,outdoor:0.9710,pet:0.6130,white:0.6790 -4.893 -3.803"
        out = run_query('tokenize($l, " ")', {"l": line})
        assert len(out) == 3
        head = run_query('head(tokenize($l, " "))', {"l": line})
        assert head[0].value == "animal:0.7420,outdoor:0.9710,pet:0.6130,white:0.6790"

    def test_empty_string_yields_empty(self):
        assert run_query_lines('count(tokenize("", " "))') == ["0"]

    def test_trailing_separator_dropped(self):
        assert run_query_lines('count(tokenize("a b ", " "))') == ["2"]

    def test_inner_empty_tokens_kept(self):
        assert run_query_lines('count(tokenize("a  b", " "))') == ["3"]

    def test_empty_separator_rejected(self):
        with pytest.raises(DynamicError):
            run_query('tokenize("ab", "")')

    @given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=4), min_size=1, max_size=5))
    def test_tokenize_inverts_join(self, tokens):
        joined = " ".join(tokens)
        out = run_query('tokenize($s, " ")', {"s": joined})
        assert [item.value for item in out] == tokens


class TestScalarBuiltins:
    def test_contains(self):
        assert run_query_lines('contains("hello", "ell")') == ["true"]
        assert run_query_lines('contains("", "x")') == ["false"]

    def test_string_of_integer(self):
        assert run_query_lines("string(42)") == ['"42"']

    def test_string_of_empty(self):
        assert run_query_lines("string(())") == ['""']

    def test_string_of_object_errors(self):
        with pytest.raises(DynamicError) as err:
            run_query("string({})")
        assert err.value.code == "TYPE_ERROR"

    def test_head_tail(self):
        assert run_query_lines("head(1 to 3)") == ["1"]
        assert run_query_lines("count(head(()))") == ["0"]
        assert run_query_lines("tail(1 to 3)") == ["2", "3"]
        assert run_query_lines("count(tail(()))") == ["0"]


class TestMergedConstructor:
    def test_schema_construction_pattern(self):
        out = run_query_lines('{| for $i in 1 to 3 return { string($i) : 0.0 } |}')
        assert out == ['{"1": 0.0, "2": 0.0, "3": 0.0}']

    def test_empty_merge(self):
        assert run_query_lines("{| () |}") == ["{}"]


class TestCount:
    def test_count_of_frame_without_materialization(self):
        query = """
        let $d := annotate((for $i in 1 to 2 return { "v" : $i }), { "v" : "int" })
        return count($d)
        """
        assert run_query_lines(query) == ["2"]


class TestUnparsedTextLines:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_text(MESSY_FIRST_LINE + "\nsecond:1.0 2.0\n")
        out = run_query("unparsed-text-lines($input)", {"input": str(path)})
        assert len(out) == 2
        assert out[0].value == MESSY_FIRST_LINE

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert run_query_lines("count(unparsed-text-lines($input))", {"input": str(path)}) == ["0"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(SourceIOError):
            run_query(
                "count(unparsed-text-lines($input))", {"input": str(tmp_path / "nope.txt")}
            )


class TestConvertTwoMessyRows:
    """The cleaning function applied to the two documented messy lines."""

    CONVERT = """
    declare function local:convert($input)
    {
     annotate(
      for $l in unparsed-text-lines($input)
      let $tokens := tokenize($l, " ")
      let $left := head($tokens)
      let $right := tail($tokens)
      let $label := if (contains($left, "indoor")) then 0 else 1
      let $features := {|
        for $i at $p in $right
        return { string($p) : $i }
      |}
      return { "label" : $label, "features" : $features },
      { "label" : "string",
        "features" : {| for $i in 1 to 6 return { string($i) : "double" } |} }
     )
    };
    local:convert($input)
    """

    MESSY = (
        "animal:0.7420,outdoor:0.9710,pet:0.6130,white:0.6790 "
        "-4.893 -3.803 -25.799 -34.55 -6.622 -13.547\n"
        "animal:0.1234,indoor:0.3413,pet:0.6130,black:0.87534 "
        "-8.311 15.133 2.973 -25.972 -11.422 -0.067\n"
    )

    def test_frame_shape_and_values(self, tmp_path):
        from jsoniqml.engine import compile_query, evaluate_query

        path = tmp_path / "messy.txt"
        path.write_text(self.MESSY)
        compiled = compile_query(self.CONVERT)
        result = evaluate_query(compiled, {"input": str(path)})
        assert result.is_frame()
        frame = result.frame
        assert frame.nrows == 2
        names = dict(frame.type.fields)
        assert names["label"].kind == "String"
        assert names["features"].kind == "Record"
        assert len(names["features"].fields) == 6
        assert all(t.kind == "Double" for _, t in names["features"].fields)
        rows = [frame.row_item(i) for i in range(2)]
        assert rows[0].pairs["label"].value == "1"  # outdoor line
        assert rows[1].pairs["label"].value == "0"  # indoor line
        assert rows[0].pairs["features"].pairs["1"].value == -4.893
        assert rows[1].pairs["features"].pairs["2"].value == 15.133


class TestModelPersistenceBuiltins:
    def test_save_then_load_predicts_identically(self, tmp_path):
        model_path = str(tmp_path / "model.json")
        query = f"""
        let $train := annotate(
          (for $i in 1 to 6
           return {{ "label" : $i mod 2, "features" : {{ "x" : $i, "y" : 6 - $i }} }}),
          {{ "label" : "double", "features" : {{ "x" : "double", "y" : "double" }} }})
        let $va := get-transformer("VectorAssembler",
          {{ "inputCols" : ["features"], "outputCol" : "fv" }})
        let $svc := get-estimator("LinearSVC", {{ "featuresCol" : "fv", "maxIter" : 3 }})
        let $pipe := get-estimator("Pipeline", {{ "stages" : [$va, $svc] }})
        let $model := $pipe($train, {{}})
        let $saved := save-model($model, "{model_path}")
        let $loaded := load-model("{model_path}")
        for $r in $loaded($train, {{}})
        return $r.prediction
        """
        first = run_query_lines(query)
        second = run_query_lines(query)
        assert first == second and len(first) == 6

    def test_load_unknown_kind(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"kind": "martian", "params": {}, "weights": [], "intercept": 0.0}')
        with pytest.raises(DynamicError) as err:
            run_query(f'load-model("{path}")')
        assert err.value.code == "UNKNOWN_MODEL_KIND"

    def test_save_non_registry_function(self, tmp_path):
        path = tmp_path / "fn.json"
        query = (
            "declare function local:id($x) { $x }\n"
            f'save-model(local:id#1, "{path}")'
        )
        with pytest.raises(DynamicError) as err:
            run_query(query)
        assert err.value.code == "UNKNOWN_MODEL_KIND"
