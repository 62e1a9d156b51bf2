"""Consistency of the builtin catalog with its one calling convention.

Every builtin declares one parameter reader per argument and a result mode
the inference knows. A `"one"` builtin gives the same result through a
function reference as in a static call, and a static call reads its
`local-one` arguments without building a sequence.
"""

import pytest

from jsoniqml import run_query, run_query_lines
from jsoniqml.builtins import CATALOG, Param
from jsoniqml.items import FunctionItem, SequenceValue
from jsoniqml.modes import POLICIES


@pytest.mark.parametrize("key", sorted(CATALOG))
def test_spec_shape(key):
    spec = CATALOG[key]
    assert spec.key == key
    assert int(key.rpartition("#")[2]) == len(spec.params)
    assert all(isinstance(param, Param) for param in spec.params)
    assert spec.result_mode in ("one", "seq", "frame")


# valid arguments for each "one" builtin; `$model` is a saved and loaded
# model's path
ONE_CALLS = {
    "contains#2": '"hello", "ell"',
    "head#1": "for $i in 3 to 5 return $i",
    "count#1": "for $i in 3 to 5 return $i",
    "string#1": "12.5",
    "get-transformer#2": '"VectorAssembler", {"inputCols": ["x"], "outputCol": "v"}',
    "get-estimator#2": '"LinearSVC", {"featuresCol": "v"}',
    "load-model#1": "$path",
}


def test_every_one_builtin_is_covered():
    assert {key for key, spec in CATALOG.items() if spec.result_mode == "one"} == set(ONE_CALLS)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("model") / "model.json")
    run_query(
        'save-model(get-estimator("LinearSVC", {"featuresCol": "v", "maxIter": 1})('
        'get-transformer("VectorAssembler", {"inputCols": ["x"], "outputCol": "v"})('
        'annotate({"label": 1.0, "x": 1.0}, {"label": "double", "x": "double"}), {}), {}), '
        f'"{path}")'
    )
    return path


def _result(query, path, policy):
    items = run_query(query, {"path": path}, policy=policy)
    # function items cannot be serialized; their tag names what they wrap
    return [
        (item.name, item.arity, item.native.tag)
        if isinstance(item, FunctionItem)
        else run_query_lines("$x", {"x": item})[0]
        for item in items
    ]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("key", sorted(ONE_CALLS))
def test_one_builtin_same_through_function_reference(key, policy, model_path):
    name, _, _ = key.rpartition("#")
    arguments = ONE_CALLS[key]
    static = _result(f"{name}({arguments})", model_path, policy)
    dynamic = _result(f"let $f := {key} return $f({arguments})", model_path, policy)
    assert len(static) == 1
    assert static == dynamic


def test_local_one_arguments_are_not_boxed(monkeypatch):
    built = []
    init = SequenceValue.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(SequenceValue, "__init__", counting_init)

    def sequences_built(n):
        built.clear()
        query = (
            f"for $i in 1 to {n} "
            'return {"c": contains(string($i), "1"), "n": count($i), "h": head($i)}'
        )
        assert len(run_query(query)) == n
        return len(built)

    # the range and the FLWOR build a fixed number; no call builds one
    assert sequences_built(1) == sequences_built(40)
