import math

import pytest

from jsoniqml.engine import run_query, run_query_lines
from jsoniqml.errors import DynamicError, MaterializationCapError
from jsoniqml.items import AtomicValue
from jsoniqml.modes import POLICIES

MESSY_FIRST_LINE = (
    "animal:0.7420,outdoor:0.9710,pet:0.6130,white:0.6790 -4.893 -3.803 -25.799"
)


class TestFLWOR:
    def test_for_return(self):
        assert run_query_lines("for $i in 1 to 3 return $i * 2") == ["2", "4", "6"]

    def test_tuple_stream_nesting(self):
        out = run_query_lines(
            "for $i in 1 to 2 for $j in 1 to 2 return [$i, $j]"
        )
        assert out == ["[1, 1]", "[1, 2]", "[2, 1]", "[2, 2]"]

    def test_let_binds_whole_sequence(self):
        assert run_query_lines("let $s := 1 to 3 return count($s)") == ["3"]

    def test_positional_binding(self):
        out = run_query_lines('for $t at $p in tokenize("a b", " ") return { string($p) : $t }')
        assert out == ['{"1": "a"}', '{"2": "b"}']

    def test_where_filters(self):
        assert run_query_lines("for $i in 1 to 6 where ($i mod 2) eq 0 return $i") == [
            "2",
            "4",
            "6",
        ]

    def test_order_by_stable(self):
        # equal keys keep encounter order
        out = run_query_lines("for $i in 1 to 6 order by $i mod 2 return $i")
        assert out == ["2", "4", "6", "1", "3", "5"]

    def test_order_by_constant_key_is_identity(self):
        out = run_query_lines("for $i in 1 to 8 order by 1 return $i")
        assert out == [str(i) for i in range(1, 9)]
        out_desc = run_query_lines("for $i in 1 to 8 order by 1 descending return $i")
        assert out_desc == [str(i) for i in range(1, 9)]

    def test_order_by_descending(self):
        out = run_query_lines("for $i in 1 to 4 order by $i descending return $i")
        assert out == ["4", "3", "2", "1"]

    def test_mixed_sort_keys_error(self):
        with pytest.raises(DynamicError) as err:
            run_query('for $i in 1 to 2 order by (if ($i eq 1) then 1 else "a") return $i')
        assert err.value.code == "TYPE_ERROR"


class TestLabelLogic:
    def test_messy_line_gets_label_one(self):
        query = (
            "let $tokens := tokenize($line, \" \") "
            "let $left := head($tokens) "
            "return if (contains($left, \"indoor\")) then 0 else 1"
        )
        out = run_query(query, {"line": MESSY_FIRST_LINE})
        assert out[0].value == 1

    def test_accuracy_fraction(self):
        # four rows, three matches
        query = """
        let $prediction := annotate(
          (for $i in 1 to 4
           return { "label" : (if ($i le 3) then 1 else 0), "prediction" : 1 }),
          { "label" : "int", "prediction" : "int" })
        let $total := count($prediction)
        return count($prediction[$$.label eq $$.prediction]) div $total
        """
        out = run_query(query)
        assert out[0] == AtomicValue("double", 0.75)


class TestDynamicCalls:
    def test_identity_function(self):
        out = run_query_lines(
            "declare function local:id($x) { $x }\n"
            "let $f := local:id#1 return $f(1 to 3)"
        )
        assert out == ["1", "2", "3"]

    def test_not_a_function(self):
        with pytest.raises(DynamicError) as err:
            run_query("let $f := 5 return $f(1)")
        assert err.value.code == "NOT_A_FUNCTION"

    def test_arity_mismatch(self):
        with pytest.raises(DynamicError) as err:
            run_query(
                "declare function local:id($x) { $x }\n"
                "let $f := local:id#1 return $f(1, 2)"
            )
        assert err.value.code == "ARITY_MISMATCH"

    def test_builtin_reference(self):
        assert run_query_lines("let $c := count#1 return $c(1 to 4)") == ["4"]

    def test_estimator_call_returns_model_item(self):
        query = """
        let $train := annotate(
          (for $i in 1 to 4
           return { "label" : $i mod 2, "features" : { "x" : $i } }),
          { "label" : "double", "features" : { "x" : "double" } })
        let $va := get-transformer("VectorAssembler",
          { "inputCols" : ["features"], "outputCol" : "fv" })
        let $svc := get-estimator("LinearSVC", { "featuresCol" : "fv", "maxIter" : 2 })
        let $pipe := get-estimator("Pipeline", { "stages" : [$va, $svc] })
        let $model := $pipe($train, {})
        return count($model($train, {}))
        """
        assert run_query_lines(query) == ["4"]


class TestErrors:
    def test_arithmetic_type_error(self):
        with pytest.raises(DynamicError) as err:
            run_query('1 + "a"')
        assert err.value.code == "TYPE_ERROR"
        assert err.value.position is not None

    def test_division_by_zero_idiv(self):
        with pytest.raises(DynamicError) as err:
            run_query("1 idiv 0")
        assert err.value.code == "DIVISION_BY_ZERO"

    def test_double_division_by_zero_is_infinite(self):
        assert run_query_lines("1 div 0") == ["INF"]
        assert math.isnan(run_query("0 div 0")[0].value)

    def test_comparison_kind_mismatch(self):
        with pytest.raises(DynamicError) as err:
            run_query('1 eq "a"')
        assert err.value.code == "TYPE_ERROR"

    def test_empty_comparison_is_empty(self):
        assert run_query_lines("count(() eq 1)") == ["0"]

    def test_merge_duplicate_key(self):
        with pytest.raises(DynamicError) as err:
            run_query('{| for $i in 1 to 2 return { "k" : $i } |}')
        assert err.value.code == "DUPLICATE_KEY_IN_MERGE"

    def test_duplicate_object_key(self):
        with pytest.raises(DynamicError) as err:
            run_query('{ "a" : 1, "a" : 2 }')
        assert err.value.code == "DUPLICATE_OBJECT_KEY"

    def test_unbound_external(self):
        with pytest.raises(DynamicError) as err:
            run_query("$missing + 1")
        assert err.value.code == "UNDEFINED_VARIABLE"


class TestMaterialization:
    def test_small_sequence_fits(self):
        assert run_query_lines("let $s := 1 to 3 return count($s)", cap=10) == ["3"]

    def test_let_binding_over_cap(self):
        with pytest.raises(MaterializationCapError):
            run_query("let $s := 1 to 100 return count($s)", cap=10)

    def test_for_iteration_is_lazy(self):
        # iteration never materializes, only the let does
        assert run_query_lines("count(for $i in 1 to 100 return $i)", cap=10) == ["100"]

    def test_frame_exempt_from_cap(self):
        query = """
        let $d := annotate(
          (for $i in 1 to 200 return { "v" : $i }),
          { "v" : "int" })
        return count($d)
        """
        assert run_query_lines(query, cap=50) == ["200"]
        with pytest.raises(MaterializationCapError):
            run_query_lines(query, policy="force-local", cap=50)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "query,position",
        [
            # the binding site: let clause, array constructor, order by, call
            ("let $x := 1 to 20 return count($x)", (1, 1)),
            ("count([1 to 20])", (1, 7)),
            ("count(for $i in 1 to 20 order by $i return $i)", (1, 25)),
            ("declare function local:f($x) { count($x) }; local:f(1 to 20)", (1, 45)),
            # a top-level result has no binding site
            ("1 to 20", None),
            ('annotate(for $i in 1 to 20 return { "a" : $i }, { "a" : "int" })', None),
        ],
    )
    def test_over_cap_position(self, query, position, policy):
        with pytest.raises(MaterializationCapError) as err:
            run_query(query, policy=policy, cap=10)
        assert (err.value.code, err.value.position) == ("MATERIALIZATION_CAP_EXCEEDED", position)
        assert err.value.message == "sequence exceeded the materialization cap of 10 items"
        assert err.value.exit_code == 5


class TestLookupSemantics:
    def test_lookup_maps_over_sequence(self):
        out = run_query_lines('(for $i in 1 to 3 return {"v": $i}).v')
        assert out == ["1", "2", "3"]

    def test_absent_key_is_empty(self):
        assert run_query_lines('count({"a": 1}.b)') == ["0"]

    def test_non_object_skipped(self):
        assert run_query_lines("count((1 to 3).k)") == ["0"]

    def test_predicate_absent_key_drops_row(self):
        out = run_query_lines('count((for $i in 1 to 3 return {"v": $i})[$$.w eq 1])')
        assert out == ["0"]


class TestModeAssumptionEnforcement:
    """The compile-time call heuristic is checked at runtime; a wrong guess
    raises rather than silently degrading. Wrong guesses cannot arise from
    the registry builtins themselves, so the tests plant one."""

    def _compiled_call(self, text):
        from jsoniqml.builtins import CATALOG
        from jsoniqml.engine import compile_query
        from jsoniqml.runtime import Evaluator

        compiled = compile_query(text)
        calls = [it for it in compiled.tree.root.walk() if it.kind == "dynamic-call"]
        assert calls
        return compiled, calls[-1], Evaluator(compiled.tree, CATALOG, {}, cap=10**6)

    def test_single_item_assumption_violated(self):
        text = (
            "declare function local:two() { 1 to 2 }\n"
            "let $f := local:two#0 return $f()"
        )
        compiled, call, ev = self._compiled_call(text)
        call.call_assumption = "estimator"
        with pytest.raises(DynamicError) as err:
            ev.run().materialize(100)
        assert err.value.code == "MODE_ASSUMPTION_VIOLATED"

    def test_frame_assumption_violated(self):
        text = (
            "declare function local:rows() { for $i in 1 to 2 return {\"v\": $i} }\n"
            "let $f := local:rows#0 return $f()"
        )
        compiled, call, ev = self._compiled_call(text)
        call.call_assumption = "transformer-frame"
        with pytest.raises(DynamicError) as err:
            ev.run().materialize(100)
        assert err.value.code == "MODE_ASSUMPTION_VIOLATED"


class TestModeEquivalenceSmoke:
    def test_forced_local_equals_auto(self):
        query = """
        let $d := annotate(
          (for $i in 1 to 20 return { "label" : $i mod 2, "v" : $i * 1.5 }),
          { "label" : "int", "v" : "double" })
        for $r in $d where $r.v gt 10.0 return $r
        """
        auto = run_query_lines(query, policy="auto")
        local = run_query_lines(query, policy="force-local")
        frame = run_query_lines(query, policy="frame")
        assert auto == local == frame


class TestRecursionDepth:
    def test_recursion_120_deep_under_every_policy(self):
        query = (
            "declare function local:f($n)"
            "{ if ($n le 0) then 0 else local:f($n - 1) + 1 }; local:f(120)"
        )
        for policy in ("auto", "force-local", "frame"):
            assert run_query_lines(query, policy=policy) == ["120"]

    def test_unbounded_recursion_is_an_engine_error(self):
        query = (
            "declare function local:even($n) { if (0) then true else local:odd($n - 1) };"
            "declare function local:odd($n) { if ($n eq 0) then false else local:even($n - 1) };"
            "[local:even(10), local:odd(7)]"
        )
        for policy in ("auto", "force-local", "frame"):
            with pytest.raises(DynamicError) as info:
                run_query_lines(query, policy=policy)
            assert info.value.code == "RECURSION_LIMIT"

    def test_deep_nesting_is_an_engine_error_at_compile_time(self):
        for query in ("(" * 3000 + "1" + ")" * 3000, "[" * 3000 + "]" * 3000):
            for policy in ("auto", "force-local", "frame"):
                with pytest.raises(DynamicError) as info:
                    run_query(query, policy=policy)
                assert info.value.code == "RECURSION_LIMIT"
