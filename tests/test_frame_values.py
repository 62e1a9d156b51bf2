"""A `frame`-mode iterator's value is the `Frame` itself.

The first class pins how frames flow through conditionals, static and
dynamic calls, pipeline stages and item consumers under each mode policy.
The last test checks the invariant the runtime relies on instead of asking
values whether they are frames: every callable compiled from a `frame`-mode
iterator returns a `Frame`.
"""

from pathlib import Path

import pytest

import jsoniqml.runtime as runtime
from corpus import CORPUS
from jsoniqml import run_query, run_query_lines
from jsoniqml.datagen import generate_dataset
from jsoniqml.errors import EngineError
from jsoniqml.frame import Frame
from jsoniqml.modes import FRAME_MODE, POLICIES

ROWS = 'for $i in 1 to 4 return { "label" : $i mod 2, "text" : "A b" }'
ANNOTATE = f'annotate({ROWS}, {{ "label" : "int", "text" : "string" }})'
TOKENIZER = 'get-transformer("Tokenizer", { "inputCol" : "text", "outputCol" : "tokens" })'
TOKEN_ROWS = [
    f'{{"label": {label}, "text": "A b", "tokens": ["a", "b"]}}' for label in (1, 0, 1, 0)
]

KEEP = "declare function local:keep($rows, $params) { $rows };\n"
ID = "declare function local:id($x) { $x };\n"


def outcome(query, policy, cap):
    """Output lines, or the (code, position) of the engine error raised."""
    try:
        return run_query_lines(query, policy=policy, cap=cap)
    except EngineError as err:
        return (err.code, err.position)


def by_policy(query, cap=1_000_000):
    return {policy: outcome(query, policy, cap) for policy in POLICIES}


def everywhere(expected):
    return {policy: expected for policy in POLICIES}


class TestFrameFlows:
    def test_conditional_frame_feeds_a_transformer(self):
        query = f"let $tok := {TOKENIZER} return $tok(if (1 eq 1) then {ANNOTATE} else (), {{}})"
        got = by_policy(query)
        assert got["auto"] == got["frame"] == TOKEN_ROWS
        assert got["force-local"] == ("NOT_A_FRAME", (1, 102))

    def test_static_call_keeps_the_frame(self):
        query = f"{ID}let $tok := {TOKENIZER} return $tok(local:id({ANNOTATE}), {{}})"
        got = by_policy(query)
        assert got["auto"] == got["frame"] == TOKEN_ROWS
        assert got["force-local"] == ("NOT_A_FRAME", (2, 102))

    def test_general_call_streams_the_frame(self):
        query = (
            f"{ID}let $tok := {TOKENIZER} let $id := local:id#1 "
            f"return $tok($id({ANNOTATE}), {{}})"
        )
        assert by_policy(query) == everywhere(("NOT_A_FRAME", (2, 124)))

    def test_user_function_pipeline_stage(self):
        query = (
            f"{KEEP}let $tok := {TOKENIZER}\n"
            'let $pipe := get-estimator("Pipeline", { "stages" : [local:keep#2, $tok] })\n'
            f"let $model := $pipe({ANNOTATE}, {{}})\n"
            f"return $model({ANNOTATE}, {{}})"
        )
        got = by_policy(query)
        assert got["auto"] == got["frame"] == TOKEN_ROWS
        assert got["force-local"] == ("NOT_A_FRAME", (4, 20))

    def test_item_consumers_of_a_frame(self):
        assert by_policy(f"string({ANNOTATE})") == everywhere(("TYPE_ERROR", (1, 1)))
        assert by_policy(f"if ({ANNOTATE}) then 1 else 2") == everywhere(("EBV_ERROR", (1, 1)))

    def test_top_level_frame_over_the_cap(self):
        query = 'annotate(for $i in 1 to 20 return { "a" : $i }, { "a" : "int" })'
        assert by_policy(query, cap=10) == everywhere(("MATERIALIZATION_CAP_EXCEEDED", None))


# probes that put a frame through every iterator kind that can be in frame mode
FRAME_PROBES = [
    f"count({ANNOTATE}[$$.label eq 1])",
    f"for $r in {ANNOTATE} where $r.label eq 0 return $r",
    f"let $d := {ANNOTATE} return count($d)",
    f"if (1 eq 2) then {ANNOTATE} else {ANNOTATE}",
    # a conditional with one frame branch is local-seq, whichever branch runs
    f"count(if (1 eq 1) then {ANNOTATE} else ())",
    f"count(if (1 eq 2) then {ANNOTATE} else ())",
    f"({ANNOTATE})",
    f"{ID}local:id({ANNOTATE})",
    f"let $tok := {TOKENIZER} return $tok({ANNOTATE}, {{}})",
    f"{KEEP}let $tok := {TOKENIZER}\n"
    'let $pipe := get-estimator("Pipeline", { "stages" : [local:keep#2, $tok] })\n'
    f"return $pipe({ANNOTATE}, {{}})({ANNOTATE}, {{}})",
]

PIPELINE_QUERY = Path(__file__).parent / "data" / "pipeline_query.jq"


@pytest.fixture
def frame_results_checked(monkeypatch):
    """Wrap every callable compiled from a `frame`-mode iterator so that it
    asserts its result is a `Frame`; returns the kinds of the checked ones."""
    compile_original = runtime._compile
    checked = []

    def compile_checked(it, program):
        run = compile_original(it, program)
        if it.mode != FRAME_MODE:
            return run

        def run_checked(ev, ctx):
            result = run(ev, ctx)
            assert isinstance(result, Frame), (it, type(result))
            checked.append(it.kind)
            return result

        return run_checked

    monkeypatch.setattr(runtime, "_compile", compile_checked)
    return checked


@pytest.mark.parametrize("policy", ["auto", "frame"])
def test_frame_mode_callables_return_frames(policy, frame_results_checked, tmp_path):
    for entry in CORPUS:
        variables = {}
        if entry.input_text is not None:
            path = tmp_path / f"{entry.name}.txt"
            path.write_text(entry.input_text)
            variables["input"] = str(path)
        run_query(entry.text, variables, policy=policy)
    for probe in FRAME_PROBES:
        run_query(probe, policy=policy)
    generate_dataset(40, 64, 1.0, 42, tmp_path / "train.txt")
    generate_dataset(10, 64, 1.0, 43, tmp_path / "test.txt")
    variables = {
        "training-input": str(tmp_path / "train.txt"),
        "test-input": str(tmp_path / "test.txt"),
    }
    run_query(PIPELINE_QUERY.read_text(), variables, policy=policy)
    kinds = set(frame_results_checked)
    assert {"static-call", "dynamic-call", "var", "if"} <= kinds
    if policy == "auto":
        assert {"predicate", "flwor"} <= kinds
