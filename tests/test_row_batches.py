"""A frame-mode `annotate` whose rows come from one `for` over text lines,
`let`s and an object constructor builds them a batch of lines at a time, as
column kernels cast straight into the column builders (`runtime._row_batches`,
`frame.annotate_batches`). A batch the kernels or the builders refuse is
built and put row by row.

The differential tests run the paper's `local:convert` and the `scan`
benchmark's query over messy line files four ways: batched under `auto` and
`frame`, per row (the batch plan switched off), and under `force-local`, where
no frame is built. All four must agree exactly: the serialized rows byte for
byte, or the error's code, full message and position. The naive reference
evaluator must agree on the rows, or on the error's code.
"""

import io
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import jsoniqml.builtins as builtins_module
import jsoniqml.frame as frame_module
import jsoniqml.runtime as runtime
from jsoniqml.builtins import CATALOG
from jsoniqml.engine import run_query_lines
from jsoniqml.errors import EngineError
from jsoniqml.items import AtomicValue, canonical_serialize
from jsoniqml.parser import parse
from jsoniqml.resolver import resolve
from jsoniqml.runtime import DEFAULT_CAP

import reference_eval

DATA_DIR = Path(__file__).parent / "data"
PIPELINE_QUERY = (DATA_DIR / "pipeline_query.jq").read_text(encoding="utf-8")
CONVERT_QUERY = PIPELINE_QUERY[: PIPELINE_QUERY.index("let $training-data")] + (
    "local:convert($input)\n"
)
# the query of the `scan` benchmark workload (perfbench/workloads.py)
SCAN_QUERY = """\
let $d := annotate(
  for $l in unparsed-text-lines($input)
  let $tokens := tokenize($l, " ")
  return { "label" : (if (contains(head($tokens), "indoor")) then 0 else 1),
           "v" : head(tail($tokens)) },
  { "label" : "int", "v" : "double" })
return [count($d[$$.label eq 1]),
        count($d[$$.v gt 0]),
        count($d[$$.label eq 0 and $$.v lt 0.25])]
"""


def outcome(query: str, path: Path, policy: str, batched: bool = True, cap: int = DEFAULT_CAP):
    """The serialized result lines, or the error's code, message and position."""
    patch = mock.patch.object(runtime, "_compile_row_batches", lambda it, program: None)
    try:
        if batched:
            return ("ok", run_query_lines(query, {"input": str(path)}, policy, cap))
        with patch:
            return ("ok", run_query_lines(query, {"input": str(path)}, policy, cap))
    except EngineError as err:
        return (err.code, err.message, err.position)


def reference_outcome(query: str, path: Path):
    resolved = resolve(parse(query), set(CATALOG))
    variables = {"input": AtomicValue("string", str(path))}
    try:
        items = reference_eval.evaluate_module(resolved, variables)
    except EngineError as err:
        return (err.code,)
    return ("ok", [canonical_serialize(item) for item in items])


def assert_agree(query: str, path: Path) -> tuple:
    batched = outcome(query, path, "auto")
    assert outcome(query, path, "auto", batched=False) == batched
    assert outcome(query, path, "frame") == batched
    assert outcome(query, path, "force-local") == batched
    reference = reference_outcome(query, path)
    assert reference == batched[: len(reference)]
    return batched


# head and tail straight into string fields: no double cast refuses for them
STRINGS_QUERY = """\
annotate(
  for $l in unparsed-text-lines($input)
  let $t := tokenize($l, " ")
  let $rest := tail($t)
  return { "first" : head($t), "second" : head($rest), "line" : ($l) },
  { "first" : "string", "second" : "string", "line" : "string" })
"""


# -- messy lines ----------------------------------------------------------------

_GOOD = ["0.5", "-1.25", "3", "1e3", "-.5", "2.", "+7", "0"]
# tokens a double cast takes per row but the batch does not, or neither does
_ODD = ["NaN", "INF", "-INF", "inf", "1_0", "0x10", "", " 1.5", "\t2"]


@st.composite
def lines(draw, d: int):
    label = draw(st.sampled_from(["indoor:0.5", "outdoor:0.25", "xindoorx", "a"]))
    count = draw(st.sampled_from([d, d, d, d, d - 1, d + 1]))
    features = [draw(st.sampled_from(_GOOD)) for _ in range(min(count, 3))]
    features += [_GOOD[i % len(_GOOD)] for i in range(count - len(features))]
    if draw(st.integers(0, 5)) == 0:  # one odd token somewhere
        features[draw(st.integers(0, len(features) - 1))] = draw(st.sampled_from(_ODD))
    line = " ".join([label] + features)
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return ""
    if shape == 1:
        return " " + line
    if shape == 2:
        return line + " "
    if shape == 3:
        return line.replace(" ", "  ", 1)
    return line


def files(d: int):
    # up to three batches, mostly good lines
    return st.lists(lines(d), min_size=0, max_size=40)


def write_lines(tmp_path: Path, rows: "list[str]") -> Path:
    path = tmp_path / "lines.txt"
    path.write_text("".join(line + "\n" for line in rows), encoding="utf-8")
    return path


GOOD_LINE = "indoor:1 " + " ".join(_GOOD[i % len(_GOOD)] for i in range(64))


@settings(max_examples=40)
@given(rows=files(64))
@example(rows=[GOOD_LINE] * 40)
@example(rows=[GOOD_LINE] * 20 + [GOOD_LINE + " 1"] + [GOOD_LINE] * 19)
@example(rows=[GOOD_LINE] * 17 + [""] + [GOOD_LINE] * 3)
@example(rows=[GOOD_LINE.replace(" 3 ", " NaN ")] * 18)
def test_convert_batched_agrees(tmp_path_factory, rows):
    path = write_lines(tmp_path_factory.mktemp("convert"), rows)
    assert_agree(CONVERT_QUERY, path)


@settings(max_examples=40)
@given(rows=files(3))
@example(rows=["indoor:1 0.5 1"] * 16 + ["a 1_0 2"] + ["a 0.1"] * 5)
@example(rows=["indoor:1 0.5"] * 33)
@example(rows=["a"] * 3)
def test_scan_batched_agrees(tmp_path_factory, rows):
    path = write_lines(tmp_path_factory.mktemp("scan"), rows)
    assert_agree(SCAN_QUERY, path)


@settings(max_examples=40)
@given(rows=files(2))
@example(rows=["a b c"] * 17 + ["a "] + ["a b"] * 3)
@example(rows=["a b"] * 20 + [""] + ["a b"])
def test_strings_batched_agree(tmp_path_factory, rows):
    path = write_lines(tmp_path_factory.mktemp("strings"), rows)
    assert_agree(STRINGS_QUERY, path)


def test_bad_row_in_a_later_batch_keeps_its_index_and_message(tmp_path):
    rows = [GOOD_LINE] * 20 + [GOOD_LINE.replace(" 3 ", " 0x10 ", 1)] + [GOOD_LINE] * 19
    code, message, position = assert_agree(CONVERT_QUERY, write_lines(tmp_path, rows))
    assert (code, position) == ("VALIDATION_ERROR", (3, 2))
    assert message == (
        "row 20: at $.features.3: cannot cast string to double: cannot parse '0x10' as double"
    )


def test_convert_result_is_the_input(tmp_path):
    rows = ["indoor:1 " + " ".join(str(i + j) for j in range(64)) for i in range(35)]
    status, out = assert_agree(CONVERT_QUERY, write_lines(tmp_path, rows))
    assert status == "ok" and len(out) == 35
    features = ", ".join(f'"{j + 1}": {float(34 + j)!r}' for j in range(64))
    assert out[-1] == '{"label": "0", "features": {' + features + "}}"


def test_a_let_over_the_cap_raises_where_the_row_path_does(tmp_path):
    # 65 tokens a line: `let $tokens` is over a cap of 64, `let $right` not
    path = write_lines(tmp_path, [GOOD_LINE] * 20)
    for cap in (64, 65):
        batched = outcome(CONVERT_QUERY, path, "auto", cap=cap)
        assert batched == outcome(CONVERT_QUERY, path, "auto", batched=False, cap=cap)
    assert outcome(CONVERT_QUERY, path, "auto", cap=64) == (
        "MATERIALIZATION_CAP_EXCEEDED",
        "sequence exceeded the materialization cap of 64 items",
        (5, 3),
    )
    assert outcome(CONVERT_QUERY, path, "auto", cap=65)[0] == "ok"


# -- an error while the lines are read --------------------------------------------


def engine_outcomes_agree(query: str, path: Path) -> tuple:
    batched = outcome(query, path, "auto")
    assert outcome(query, path, "auto", batched=False) == batched
    assert outcome(query, path, "frame") == batched
    return batched


def test_read_error_after_a_bad_row_in_the_same_batch(tmp_path):
    # the reader decodes a buffer at a time and fails on the bad byte at the
    # end of the file when it needs the second buffer, at line `boundary`; the
    # batch that this read ends holds a bad row two lines before it, which
    # the per-row path builds before it reads on
    rows = [GOOD_LINE] * 60
    data = "".join(line + "\n" for line in rows).encode("utf-8")
    boundary = data[: io.DEFAULT_BUFFER_SIZE].count(b"\n")
    assert (boundary - 2) // runtime.ANNOTATE_BATCH == boundary // runtime.ANNOTATE_BATCH
    rows[boundary - 2] = GOOD_LINE.replace(" 3 ", " x ", 1)  # the same length
    path = tmp_path / "bad.txt"
    path.write_bytes("".join(line + "\n" for line in rows).encode("utf-8") + b"\xff")
    code, message, _ = engine_outcomes_agree(CONVERT_QUERY, path)
    assert code == "VALIDATION_ERROR" and message.startswith(f"row {boundary - 2}: ")

    path.write_bytes(data + b"\xff")
    assert engine_outcomes_agree(CONVERT_QUERY, path)[0] == "IO_ERROR"


# -- which annotates get a batch plan ---------------------------------------------


def annotate_calls(query: str, variables: dict) -> "dict[str, int]":
    """Calls of the batched and the unbatched annotate, and of the per-row
    puts that both make (for the batched one, a batch that refused)."""
    calls = {"batches": 0, "rows": 0, "puts": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    with mock.patch.object(
        runtime, "annotate_batches", counted("batches", runtime.annotate_batches)
    ), mock.patch.object(
        builtins_module, "annotate_rows", counted("rows", builtins_module.annotate_rows)
    ), mock.patch.object(frame_module, "_put_rows", counted("puts", frame_module._put_rows)):
        run_query_lines(query, variables)
    return calls


def test_pipeline_and_scan_take_the_batch_plan(tmp_path):
    # good lines: every batch lands whole, and none is put row by row
    path = write_lines(tmp_path, [GOOD_LINE, GOOD_LINE.replace("indoor", "out")] * 20)
    calls = annotate_calls(PIPELINE_QUERY, {"training-input": str(path), "test-input": str(path)})
    assert calls == {"batches": 2, "rows": 0, "puts": 0}
    assert annotate_calls(SCAN_QUERY, {"input": str(path)}) == {"batches": 1, "rows": 0, "puts": 0}
    assert annotate_calls(STRINGS_QUERY, {"input": str(path)}) == {
        "batches": 1, "rows": 0, "puts": 0
    }


@pytest.mark.parametrize(
    "clause",
    [
        'where contains($l, "a")',
        "order by $l",
        "for $x in (1)",
        'let $t := tokenize($l, $input)',  # an outer variable is no batch kernel
        "let $n := string($l)",  # nor is string#1
    ],
)
def test_other_flwors_take_the_row_path(tmp_path, clause):
    path = write_lines(tmp_path, ["b a", "a c"])
    query = (
        f"count(annotate(for $l in unparsed-text-lines($input) {clause} "
        'return {"s": $l}, {"s": "string"}))'
    )
    assert annotate_calls(query, {"input": str(path)}) == {"batches": 0, "rows": 1, "puts": 1}
