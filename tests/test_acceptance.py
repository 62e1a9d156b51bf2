"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (each test prints an ACCEPTANCE line as well, visible with -s).
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest

from jsoniqml.cli import main as cli_main
from jsoniqml.datagen import generate_dataset
from jsoniqml.errors import DynamicError
from jsoniqml.frame import annotate_rows
from jsoniqml.items import (
    ArrayItem,
    AtomicValue,
    ObjectItem,
    canonical_serialize,
    deep_equal,
    from_py,
    parse_canonical,
)
from jsoniqml.libsvm import write_libsvm
from jsoniqml.ml import kernels
from jsoniqml.ml.params import validate_params
from jsoniqml.ml.persistence import load_model, save_model
from jsoniqml.ml.registry import get_estimator, get_transformer
from jsoniqml.printer import print_module
from jsoniqml.schema import FrameColumnType, parse_schema

from corpus import CORPUS
from querygen import generate_module
from test_ml import apply_fn, column_values, fit, make_frame, vectors_frame

DATA_DIR = Path(__file__).parent / "data"
PIPELINE_QUERY_PATH = DATA_DIR / "pipeline_query.jq"


def report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def test_criterion_1_end_to_end_pipeline(tmp_path):
    """Clean messy text, train, predict, and score: accuracy >= 0.95,
    under 30 seconds, byte-identical across runs (one of them in a separate
    process, so the determinism claim is not an artifact of shared state)."""
    import subprocess
    import sys

    train = tmp_path / "train.txt"
    test = tmp_path / "test.txt"
    generate_dataset(2000, 64, 1.0, 42, train)
    generate_dataset(500, 64, 1.0, 43, test)

    argv = [
        "run",
        "--query", str(PIPELINE_QUERY_PATH),
        "--var", f"training-input={train}",
        "--var", f"test-input={test}",
    ]

    out_a = tmp_path / "out_a.txt"
    started = time.monotonic()
    code = cli_main(argv + ["--output", str(out_a)])
    elapsed = time.monotonic() - started
    assert code == 0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"

    out_b = tmp_path / "out_b.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "jsoniqml.cli", *argv, "--output", str(out_b)],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr

    assert out_a.read_bytes() == out_b.read_bytes(), "outputs are not byte-identical"
    accuracy = float(out_a.read_text().strip())
    assert accuracy >= 0.95, f"accuracy {accuracy}"
    report(1, f"accuracy {accuracy} in {elapsed:.1f}s, deterministic across processes")


def test_criterion_2_mode_equivalence_and_ablation(tmp_path):
    """Corpus output identical under auto and force-local below the cap; at
    100K rows with cap 10K force-local hits the cap while auto succeeds."""
    for entry in CORPUS:
        query_path = tmp_path / f"{entry.name}.jq"
        query_path.write_text(entry.text)
        argv_extra = []
        if entry.input_text is not None:
            input_path = tmp_path / f"{entry.name}.txt"
            input_path.write_text(entry.input_text)
            argv_extra = ["--var", f"input={input_path}"]
        outputs = {}
        for policy in ("auto", "force-local"):
            out_path = tmp_path / f"{entry.name}.{policy}.out"
            code = cli_main(
                ["run", "--query", str(query_path), "--mode", policy,
                 "--output", str(out_path), *argv_extra]
            )
            assert code == 0, f"{entry.name} under {policy}"
            outputs[policy] = out_path.read_bytes()
        assert outputs["auto"] == outputs["force-local"], entry.name

    big = tmp_path / "big.txt"
    generate_dataset(100_000, 4, 1.0, 7, big)
    query = tmp_path / "ablation.jq"
    query.write_text(
        "let $d := annotate(\n"
        "  for $l in unparsed-text-lines($input)\n"
        '  let $tokens := tokenize($l, " ")\n'
        '  return { "label" : (if (contains(head($tokens), "indoor")) then 0 else 1),\n'
        '           "v" : head(tail($tokens)) },\n'
        '  { "label" : "int", "v" : "double" })\n'
        "return count($d[$$.label eq 1])\n"
    )
    auto_out = tmp_path / "auto.txt"
    code = cli_main(
        ["run", "--query", str(query), "--var", f"input={big}",
         "--cap", "10000", "--mode", "auto", "--output", str(auto_out)]
    )
    assert code == 0
    assert auto_out.read_text().strip() == "50000"

    code = cli_main(
        ["run", "--query", str(query), "--var", f"input={big}",
         "--cap", "10000", "--mode", "force-local", "--output", str(tmp_path / "x.txt")]
    )
    assert code == 5, "force-local must exit with the cap family"
    report(2, f"{len(CORPUS)} queries mode-equivalent; 100K ablation: auto ok, force-local capped")


TYPE_TABLE = [
    ("byte", FrameColumnType("Byte")),
    ("short", FrameColumnType("Short")),
    ("int", FrameColumnType("Integer")),
    ("long", FrameColumnType("Long")),
    ("boolean", FrameColumnType("Boolean")),
    ("double", FrameColumnType("Double")),
    ("float", FrameColumnType("Float")),
    ("decimal", FrameColumnType("Decimal")),
    ("string", FrameColumnType("String")),
    ("null", FrameColumnType("Null")),
    ("date", FrameColumnType("Date")),
    ("dateTime", FrameColumnType("Timestamp")),
    ("date", FrameColumnType("Date")),  # listed twice in the source table
    ("hexBinary", FrameColumnType("Binary")),
    (["double"], FrameColumnType("Array", member=FrameColumnType("Double"))),
    ({"f": "int"}, FrameColumnType("Record", fields=(("f", FrameColumnType("Integer")),))),
]


def test_criterion_3_type_mapping_table():
    """All 16 rows of the type-mapping table, exact equality."""
    assert len(TYPE_TABLE) == 16
    for source, expected in TYPE_TABLE:
        assert parse_schema(from_py(source)) == expected, source
    report(3, "16/16 type-mapping rows exact")


def _expect_param_ok(name, params_py_or_item):
    item = params_py_or_item if isinstance(params_py_or_item, ObjectItem) else from_py(params_py_or_item)
    return validate_params(name, item)


def _expect_param_error(name, params_py_or_item, code):
    item = params_py_or_item if isinstance(params_py_or_item, ObjectItem) else from_py(params_py_or_item)
    with pytest.raises(DynamicError) as err:
        validate_params(name, item)
    assert err.value.code == code, f"{name}: wanted {code}, got {err.value.code}"


def test_criterion_4_param_type_table():
    """Each parameter-type row accepts a conforming value and rejects a
    nonconforming one with the exact error code."""
    # boolean
    assert _expect_param_ok("LogisticRegression", {"fitIntercept": True}) == {"fitIntercept": True}
    _expect_param_error("LogisticRegression", {"fitIntercept": 1}, "PARAM_TYPE_ERROR")
    # double[][] / Matrix -> [["double"]]
    ok = _expect_param_ok("LogisticRegression", {"lowerBoundsOnCoefficients": [[0.0, 1.5]]})
    assert ok["lowerBoundsOnCoefficients"] == [[0.0, 1.5]]
    _expect_param_error(
        "LogisticRegression", {"lowerBoundsOnCoefficients": [0.0, 1.5]}, "PARAM_TYPE_ERROR"
    )
    # double[] / Vector -> ["double"]
    assert _expect_param_ok("LogisticRegression", {"thresholds": [0.4, 0.6]}) == {
        "thresholds": [0.4, 0.6]
    }
    _expect_param_error("LogisticRegression", {"thresholds": "half"}, "PARAM_TYPE_ERROR")
    # double (also the float and long rows: numeric items promote to double)
    assert _expect_param_ok("LinearSVC", {"stepSize": 0.25}) == {"stepSize": 0.25}
    assert _expect_param_ok("LinearSVC", {"stepSize": 1}) == {"stepSize": 1.0}
    _expect_param_error("LinearSVC", {"stepSize": "fast"}, "PARAM_TYPE_ERROR")
    # int[] -> ["integer"]
    assert _expect_param_ok("VectorSlicer", {"indices": [0, 2]}) == {"indices": [0, 2]}
    _expect_param_error("VectorSlicer", {"indices": [0.5]}, "PARAM_TYPE_ERROR")
    # int -> integer
    assert _expect_param_ok("LinearSVC", {"maxIter": 5}) == {"maxIter": 5}
    _expect_param_error("LinearSVC", {"maxIter": "five"}, "PARAM_TYPE_ERROR")
    # String[] -> ["string"]
    assert _expect_param_ok("VectorAssembler", {"inputCols": ["a", "b"]}) == {
        "inputCols": ["a", "b"]
    }
    _expect_param_error("VectorAssembler", {"inputCols": [1]}, "PARAM_TYPE_ERROR")
    # String -> string
    assert _expect_param_ok("LinearSVC", {"featuresCol": "fv"}) == {"featuresCol": "fv"}
    _expect_param_error("LinearSVC", {"featuresCol": 3}, "PARAM_TYPE_ERROR")
    # Transformer / Estimator -> function(object*, object) ...
    va = get_transformer(
        AtomicValue("string", "VectorAssembler"),
        from_py({"inputCols": ["features"], "outputCol": "fv"}),
    )
    svc = get_estimator(AtomicValue("string", "LinearSVC"), from_py({}))
    stages_ok = validate_params("Pipeline", ObjectItem({"stages": ArrayItem([va, svc])}))
    assert stages_ok["stages"] == [va, svc]
    _expect_param_error("Pipeline", {"stages": [5]}, "PARAM_TYPE_ERROR")
    # unknown keys always rejected
    _expect_param_error("LinearSVC", {"bogus": 1}, "UNKNOWN_PARAM")
    # DataFrame -> object*: fit/transform demand a physical frame
    frame = vectors_frame([[1.0]], labels=[1.0])
    model = fit(svc, frame, {"maxIter": 1})
    assert model is not None
    from jsoniqml.items import SequenceValue
    from test_ml import make_evaluator

    ev = make_evaluator()
    with pytest.raises(DynamicError) as err:
        ev.invoke_function(
            svc,
            [SequenceValue.single(from_py(1)), SequenceValue.single(ObjectItem({}))],
            (1, 1),
        )
    assert err.value.code == "NOT_A_FRAME"
    # ParamMap -> object: the second argument must be a parameter object
    with pytest.raises(DynamicError) as err:
        ev.invoke_function(
            svc,
            [SequenceValue.from_frame(frame), SequenceValue.single(from_py(1))],
            (1, 1),
        )
    assert err.value.code == "TYPE_ERROR"
    report(4, "param-type table rows accept/reject with exact codes")


def test_criterion_5_gradient_oracle():
    """100 random small instances: analytic gradients match central finite
    differences at h=1e-6 within relative error 1e-5."""
    rng = np.random.default_rng(20240)
    h = 1e-6
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) > 0.5).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        reg = float(rng.choice([0.0, 0.01, 0.1]))
        for loss, grad in (
            (kernels.logistic_loss, kernels.logistic_gradient),
            (kernels.hinge_loss, kernels.hinge_gradient),
        ):
            gw, gb = grad(w, b, X, y, reg)
            numeric = np.empty(d + 1)
            for j in range(d):
                delta = np.zeros(d)
                delta[j] = h
                numeric[j] = (loss(w + delta, b, X, y, reg) - loss(w - delta, b, X, y, reg)) / (2 * h)
            numeric[d] = (loss(w, b + h, X, y, reg) - loss(w, b - h, X, y, reg)) / (2 * h)
            analytic = np.append(gw, gb)
            denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1.0)
            rel = np.linalg.norm(analytic - numeric) / denom
            assert rel < 1e-5, f"relative error {rel}"
        checked += 1
    assert checked == 100
    report(5, "100/100 gradient checks within 1e-5")


def test_criterion_6_naive_bayes_parity():
    """Negative features raise NEGATIVE_FEATURE; the one-hot two-class
    example predicts perfectly."""
    nb = get_estimator(AtomicValue("string", "NaiveBayes"), from_py({}))
    bad = vectors_frame([[0.5, -0.1]], labels=[0.0])
    with pytest.raises(DynamicError) as err:
        fit(nb, bad)
    assert err.value.code == "NEGATIVE_FEATURE"

    train = vectors_frame([[1.0, 0.0], [0.0, 1.0]], labels=[0.0, 1.0])
    model = fit(nb, train)
    out = apply_fn(model, train).frame
    preds = [i.value for i in column_values(out, "prediction")]
    assert preds == [0.0, 1.0]
    report(6, "NEGATIVE_FEATURE raised; one-hot example predicted perfectly")


def test_criterion_7_differential_flwor_semantics():
    """500 generated queries agree with the naive reference evaluator."""
    from test_reference_eval import engine_vs_reference

    for seed in range(100_000, 100_500):
        text = print_module(generate_module(seed))
        engine_vs_reference(text)
    report(7, "500/500 generated queries match the reference evaluator")


def test_criterion_8_round_trips(tmp_path):
    """Item <-> canonical JSON, rows <-> frame, model save <-> load."""
    # item <-> canonical text over seeded random JSON-shaped items
    rng = random.Random(99)

    def random_item(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.5:
            return rng.choice(
                [
                    from_py(rng.randint(-(10**9), 10**9)),
                    from_py(rng.uniform(-1e6, 1e6)),
                    from_py(rng.choice(["", "a b", 'quote"inside', "été"])),
                    from_py(rng.random() < 0.5),
                    from_py(None),
                ]
            )
        if roll < 0.75:
            return ArrayItem([random_item(depth - 1) for _ in range(rng.randint(0, 4))])
        return ObjectItem(
            {f"k{i}": random_item(depth - 1) for i in range(rng.randint(0, 4))}
        )

    for _ in range(300):
        item = random_item(5)
        assert deep_equal(parse_canonical(canonical_serialize(item)), item)

    # rows <-> frame
    descriptor = from_py({"s": "string", "x": "double", "v": ["double"], "m": {"n": "int"}})
    record = parse_schema(descriptor)
    from jsoniqml.schema import validate_item

    rows = [
        validate_item(
            from_py(
                {
                    "s": f"row{i}",
                    "x": i * 0.25,
                    "v": [float(j) for j in range(i % 4)],
                    "m": {"n": i},
                }
            ),
            record,
        )
        for i in range(25)
    ]
    frame = annotate_rows(iter(rows), descriptor)
    back = list(frame.iter_items())
    assert len(back) == len(rows)
    for a, b in zip(back, rows):
        assert deep_equal(a, b)

    # model save <-> load: identical predictions on a fixed test frame
    svc = get_estimator(
        AtomicValue("string", "LinearSVC"), from_py({"maxIter": 5, "stepSize": 0.5})
    )
    train = vectors_frame(
        [[1.0, 0.0], [-1.0, 0.5], [2.0, -1.0], [-2.0, 1.0]], labels=[1.0, 0.0, 1.0, 0.0]
    )
    model = fit(svc, train)
    path = tmp_path / "svc.json"
    save_model(model, path)
    loaded = load_model(path)
    test_frame = vectors_frame([[0.5, 0.5], [-0.5, -0.5], [3.0, 0.0]])
    a = [i.value for i in column_values(apply_fn(model, test_frame).frame, "prediction")]
    b = [i.value for i in column_values(apply_fn(loaded, test_frame).frame, "prediction")]
    assert a == b
    report(8, "item/frame/model round trips exact")


def test_criterion_9_libsvm_writer(tmp_path):
    """The cleaned two-row example renders the documented LibSVM text."""
    frame = make_frame(
        [
            {"label": 0, "features": [-4.893, -3.803, -25.799, -34.55, -6.622, -13.547]},
            {"label": 1, "features": [-8.311, 15.133, 2.973, -25.972, -11.422, -0.067]},
        ],
        {"label": "int", "features": ["double"]},
    )
    path = tmp_path / "out.svm"
    write_libsvm(frame, "label", "features", path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("0 1:-4.893 2:-3.803 3:-25.799")
    assert lines[1].startswith("1 1:-8.311 2:15.133 3:2.973")
    assert lines[0] == "0 1:-4.893 2:-3.803 3:-25.799 4:-34.55 5:-6.622 6:-13.547"
    assert lines[1] == "1 1:-8.311 2:15.133 3:2.973 4:-25.972 5:-11.422 6:-0.067"
    report(9, "LibSVM lines byte-exact")
