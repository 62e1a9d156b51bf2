from pathlib import Path

from jsoniqml.ast_nodes import LetClause
from jsoniqml.builtins import CATALOG
from jsoniqml.engine import compile_query
from jsoniqml.modes import (
    FRAME_MODE,
    LOCAL_ONE,
    LOCAL_SEQ,
    ST_ESTIMATOR,
    ST_TRANSFORMER,
    combine_modes,
)

PIPELINE_QUERY = (Path(__file__).parent / "data" / "pipeline_query.jq").read_text()


def compiled(text, policy="auto"):
    return compile_query(text, policy)


def find_iters(root, kind):
    return [it for it in root.walk() if it.kind == kind]


def let_value_iter(flwor_iter, var):
    for clause, child in flwor_iter.clause_iters:
        if isinstance(clause, LetClause) and clause.var == var:
            return child
    raise AssertionError(var)


class TestBasicAssignments:
    def test_pure_arithmetic_is_local_one(self):
        tree = compiled("1 + 1").tree
        assert all(it.mode == LOCAL_ONE for it in tree.root.walk())

    def test_range_is_local_seq(self):
        tree = compiled("1 to 3").tree
        assert tree.root.mode == LOCAL_SEQ

    def test_annotate_is_frame(self):
        text = 'annotate(for $i in 1 to 2 return {"a": $i}, {"a": "int"})'
        tree = compiled(text).tree
        assert tree.root.mode == FRAME_MODE

    def test_force_local_forbids_frame(self):
        text = 'annotate(for $i in 1 to 2 return {"a": $i}, {"a": "int"})'
        tree = compiled(text, policy="force-local").tree
        assert all(it.mode != FRAME_MODE for it in tree.root.walk())


class TestPipelineTreeAssignments:
    def test_fig_tree_modes(self):
        query = compiled(PIPELINE_QUERY)
        tree = query.tree
        # the convert body's annotate call runs columnar
        convert = tree.functions["local:convert#1"]
        annotate_iters = [
            it
            for it in convert.body.walk()
            if it.kind == "static-call" and it.node.name == "annotate"
        ]
        assert annotate_iters and all(it.mode == FRAME_MODE for it in annotate_iters)
        assert convert.body_mode == FRAME_MODE

        root = tree.root
        pipeline_fit = let_value_iter(root, "pip")
        assert pipeline_fit.kind == "dynamic-call"
        assert pipeline_fit.mode == LOCAL_ONE
        assert pipeline_fit.call_assumption == "estimator"
        assert pipeline_fit.static_type == ST_TRANSFORMER

        prediction = let_value_iter(root, "prediction")
        assert prediction.kind == "dynamic-call"
        assert prediction.mode == FRAME_MODE
        assert prediction.call_assumption == "transformer-frame"

    def test_row_building_builtins_modes(self):
        convert = compiled(PIPELINE_QUERY).tree.functions["local:convert#1"]
        calls = {
            it.node.name: it
            for it in convert.body.walk()
            if it.kind == "static-call" and it.node.name != "annotate"
        }
        # head($tokens) returns at most one item, so `$left` binds it bare
        assert calls["head"].mode == LOCAL_ONE
        assert calls["head"].children[0].mode == LOCAL_SEQ
        assert calls["contains"].children[0].mode == LOCAL_ONE
        assert calls["tail"].mode == LOCAL_SEQ
        assert calls["tokenize"].mode == LOCAL_SEQ
        assert calls["string"].mode == LOCAL_ONE

    def test_estimator_lookup_static_types(self):
        tree = compiled(PIPELINE_QUERY).tree
        get_calls = [
            it
            for it in tree.root.walk()
            if it.kind == "static-call" and it.node.name in ("get-estimator", "get-transformer")
        ]
        for it in get_calls:
            assert it.mode == LOCAL_ONE
            expected = ST_ESTIMATOR if it.node.name == "get-estimator" else ST_TRANSFORMER
            assert it.static_type == expected

    def test_predicate_over_frame_lowered(self):
        tree = compiled(PIPELINE_QUERY).tree
        predicates = find_iters(tree.root, "predicate")
        assert predicates and predicates[0].frame_lowered
        assert predicates[0].mode == FRAME_MODE

    def test_frame_policy_disables_predicate_lowering(self):
        tree = compiled(PIPELINE_QUERY, policy="frame").tree
        predicates = find_iters(tree.root, "predicate")
        assert predicates and not predicates[0].frame_lowered
        # but the transformer call still produces a frame
        prediction = let_value_iter(tree.root, "prediction")
        assert prediction.mode == FRAME_MODE


class TestHeuristicInvariant:
    def test_estimator_callsites_are_local_one(self):
        tree = compiled(PIPELINE_QUERY).tree
        for it in tree.root.walk():
            if it.kind != "dynamic-call":
                continue
            callee = it.children[0]
            if callee.static_type == ST_ESTIMATOR:
                assert it.mode == LOCAL_ONE
            if callee.static_type == ST_TRANSFORMER and it.children[1].mode == FRAME_MODE:
                assert it.mode == FRAME_MODE


MUTUAL = (
    "declare function local:f($n) { local:g($n) };\n"
    "declare function local:g($n) { local:f($n) };\n"
    "local:f(1 to 3)"
)

RECURSIVE_ONE = (
    "declare function local:fact($n) { if ($n le 1) then 1 else $n * local:fact($n - 1) }\n"
    "local:fact(5)"
)


class TestConvergence:
    def test_mutual_recursion_settles_local_seq(self):
        query = compiled(MUTUAL)
        tree = query.tree
        assert tree.passes <= 3
        for key in ("local:f#1", "local:g#1"):
            assert tree.functions[key].body_mode in (LOCAL_SEQ,)

    def test_mutual_recursion_brute_force_oracle(self):
        # oracle: iterate the mode map independently until stable, using the
        # same combine rule; both functions must end at the most general mode
        modes = {"f": None, "g": None}
        for _ in range(10):
            new = {"f": modes["g"] or "unset", "g": modes["f"] or "unset"}
            new = {k: (LOCAL_SEQ if v == "unset" else v) for k, v in new.items()}
            if new == modes:
                break
            modes = new
        tree = compiled(MUTUAL).tree
        assert tree.functions["local:f#1"].body.mode == combine_modes(
            tree.functions["local:f#1"].body.mode, modes["f"]
        )

    def test_recursive_single_item_function(self):
        tree = compiled(RECURSIVE_ONE).tree
        assert tree.functions["local:fact#1"].body_mode == LOCAL_ONE

    def test_pass_bound(self):
        for text in (PIPELINE_QUERY, MUTUAL, RECURSIVE_ONE, "1 + 1"):
            tree = compiled(text).tree
            n_fns = len(tree.functions)
            assert tree.passes <= 1 + n_fns

    def test_stability_under_repeat(self):
        first = compiled(PIPELINE_QUERY).tree
        second = compiled(PIPELINE_QUERY).tree
        modes_first = [it.mode for it in first.root.walk()]
        modes_second = [it.mode for it in second.root.walk()]
        assert modes_first == modes_second

    def test_rerunning_inference_is_idempotent(self):
        from jsoniqml.modes import infer_execution_modes

        query = compiled(PIPELINE_QUERY)
        before = [it.mode for it in query.tree.root.walk()]
        infer_execution_modes(query.tree, CATALOG, "auto")
        after = [it.mode for it in query.tree.root.walk()]
        assert before == after


class TestCombine:
    def test_lattice_meet(self):
        assert combine_modes(LOCAL_ONE, LOCAL_ONE) == LOCAL_ONE
        assert combine_modes(FRAME_MODE, FRAME_MODE) == FRAME_MODE
        assert combine_modes(LOCAL_ONE, FRAME_MODE) == LOCAL_SEQ
        assert combine_modes(LOCAL_SEQ, LOCAL_ONE) == LOCAL_SEQ


FRAME_PARAM_VIA_ITEM = (
    "declare function local:f($d){ count(for $r in $d where $r.a eq 1 return $r) }; "
    "let $g := local:f#1 "
    'let $fr := annotate(for $i in 1 to 3 return {"a": $i}, {"a": "int"}) '
    'return [local:f($fr), $g(for $i in 1 to 3 return {"a": $i})]'
)

ONE_PARAM_VIA_ITEM = (
    "declare function local:f($x){ count($x) }; "
    "let $g := local:f#1 return [local:f(1), $g(1 to 5)]"
)


class TestFunctionItems:
    """A function used as an item can be called with any argument, so static
    callers alone cannot fix its parameter modes."""

    def test_referenced_function_params_are_most_general(self):
        for text in (FRAME_PARAM_VIA_ITEM, ONE_PARAM_VIA_ITEM):
            for policy in ("auto", "force-local", "frame"):
                info = compiled(text, policy).tree.functions["local:f#1"]
                assert info.param_modes == [LOCAL_SEQ]
                assert info.param_stypes == [None]

    def test_frame_param_called_through_item_agrees_across_policies(self):
        from jsoniqml import run_query_lines

        results = {
            policy: run_query_lines(FRAME_PARAM_VIA_ITEM, policy=policy)
            for policy in ("auto", "force-local", "frame")
        }
        assert set(map(tuple, results.values())) == {("[1, 1]",)}

    def test_one_param_called_through_item_agrees_across_policies(self):
        from jsoniqml import run_query_lines

        results = {
            policy: run_query_lines(ONE_PARAM_VIA_ITEM, policy=policy)
            for policy in ("auto", "force-local", "frame")
        }
        assert set(map(tuple, results.values())) == {("[1, 5]",)}


class TestLookupModes:
    def test_lookup_of_one_item_is_local_one(self):
        tree = compiled('for $r in (for $i in 1 to 2 return {"a": $i}) return $r.a').tree
        lookup = find_iters(tree.root, "lookup")[0]
        assert lookup.mode == LOCAL_ONE

    def test_lookup_of_a_sequence_is_local_seq(self):
        tree = compiled('(for $i in 1 to 2 return {"a": $i}).a').tree
        lookup = find_iters(tree.root, "lookup")[0]
        assert lookup.mode == LOCAL_SEQ
