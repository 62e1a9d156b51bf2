"""Argument faults of every catalog builtin, called statically and through a
function reference, under all three mode policies.

Each row is `(target, arguments, static outcome, dynamic outcome)`. The static
query is `name(arguments)`; the dynamic one binds `name#arity` to `$f` and
calls `$f(arguments)`. An outcome is the `(code, position, message)` of the
error raised, or the serialized result lines. The faults per parameter are:
empty, two items, an integer (the wrong kind for every non-sequence
parameter) and an object. `ORDER` has two faults or an argument error at
once, which pins the order in which they are reported. The fitted model is
bound to `$model`; no row writes a file.
"""

import pytest

from jsoniqml import run_query, run_query_lines
from jsoniqml.errors import EngineError
from jsoniqml.modes import POLICIES

ROWS = [
    (
        'unparsed-text-lines#1',
        '()',
        ('IO_ERROR', (1, 1), "cannot open : [Errno 21] Is a directory: '.'"),
        ('IO_ERROR', (1, 11), "cannot open : [Errno 21] Is a directory: '.'"),
    ),
    (
        'unparsed-text-lines#1',
        'for $i in 1 to 2 return "unused/lines.txt"',
        ('TYPE_ERROR', (1, 1), 'unparsed-text-lines expects at most one item'),
        ('TYPE_ERROR', (1, 42), 'unparsed-text-lines expects at most one item'),
    ),
    (
        'unparsed-text-lines#1',
        '1',
        ('TYPE_ERROR', (1, 1), 'unparsed-text-lines expects a string'),
        ('TYPE_ERROR', (1, 42), 'unparsed-text-lines expects a string'),
    ),
    (
        'unparsed-text-lines#1',
        '{"k": 1}',
        ('TYPE_ERROR', (1, 1), 'unparsed-text-lines expects a string'),
        ('TYPE_ERROR', (1, 42), 'unparsed-text-lines expects a string'),
    ),
    ('tokenize#2', '(), " "', [], []),
    (
        'tokenize#2',
        'for $i in 1 to 2 return "a b", " "',
        ('TYPE_ERROR', (1, 1), 'tokenize expects at most one item'),
        ('TYPE_ERROR', (1, 31), 'tokenize expects at most one item'),
    ),
    (
        'tokenize#2',
        '1, " "',
        ('TYPE_ERROR', (1, 1), 'tokenize expects a string'),
        ('TYPE_ERROR', (1, 31), 'tokenize expects a string'),
    ),
    (
        'tokenize#2',
        '{"k": 1}, " "',
        ('TYPE_ERROR', (1, 1), 'tokenize expects a string'),
        ('TYPE_ERROR', (1, 31), 'tokenize expects a string'),
    ),
    (
        'tokenize#2',
        '"a b", ()',
        ('TYPE_ERROR', (1, 1), 'tokenize separator must be nonempty'),
        ('TYPE_ERROR', (1, 31), 'tokenize separator must be nonempty'),
    ),
    (
        'tokenize#2',
        '"a b", for $i in 1 to 2 return " "',
        ('TYPE_ERROR', (1, 1), 'tokenize separator expects at most one item'),
        ('TYPE_ERROR', (1, 31), 'tokenize separator expects at most one item'),
    ),
    (
        'tokenize#2',
        '"a b", 1',
        ('TYPE_ERROR', (1, 1), 'tokenize separator expects a string'),
        ('TYPE_ERROR', (1, 31), 'tokenize separator expects a string'),
    ),
    (
        'tokenize#2',
        '"a b", {"k": 1}',
        ('TYPE_ERROR', (1, 1), 'tokenize separator expects a string'),
        ('TYPE_ERROR', (1, 31), 'tokenize separator expects a string'),
    ),
    ('contains#2', '(), "a"', ['false'], ['false']),
    (
        'contains#2',
        'for $i in 1 to 2 return "ab", "a"',
        ('TYPE_ERROR', (1, 1), 'contains expects at most one item'),
        ('TYPE_ERROR', (1, 31), 'contains expects at most one item'),
    ),
    (
        'contains#2',
        '1, "a"',
        ('TYPE_ERROR', (1, 1), 'contains expects a string'),
        ('TYPE_ERROR', (1, 31), 'contains expects a string'),
    ),
    (
        'contains#2',
        '{"k": 1}, "a"',
        ('TYPE_ERROR', (1, 1), 'contains expects a string'),
        ('TYPE_ERROR', (1, 31), 'contains expects a string'),
    ),
    ('contains#2', '"ab", ()', ['true'], ['true']),
    (
        'contains#2',
        '"ab", for $i in 1 to 2 return "a"',
        ('TYPE_ERROR', (1, 1), 'contains expects at most one item'),
        ('TYPE_ERROR', (1, 31), 'contains expects at most one item'),
    ),
    (
        'contains#2',
        '"ab", 1',
        ('TYPE_ERROR', (1, 1), 'contains expects a string'),
        ('TYPE_ERROR', (1, 31), 'contains expects a string'),
    ),
    (
        'contains#2',
        '"ab", {"k": 1}',
        ('TYPE_ERROR', (1, 1), 'contains expects a string'),
        ('TYPE_ERROR', (1, 31), 'contains expects a string'),
    ),
    ('head#1', '()', [], []),
    ('head#1', 'for $i in 1 to 2 return "a"', ['"a"'], ['"a"']),
    ('head#1', '1', ['1'], ['1']),
    ('head#1', '{"k": 1}', ['{"k": 1}'], ['{"k": 1}']),
    ('tail#1', '()', [], []),
    ('tail#1', 'for $i in 1 to 2 return "a"', ['"a"'], ['"a"']),
    ('tail#1', '1', [], []),
    ('tail#1', '{"k": 1}', [], []),
    ('count#1', '()', ['0'], ['0']),
    ('count#1', 'for $i in 1 to 2 return "a"', ['2'], ['2']),
    ('count#1', '1', ['1'], ['1']),
    ('count#1', '{"k": 1}', ['1'], ['1']),
    ('string#1', '()', ['""'], ['""']),
    (
        'string#1',
        'for $i in 1 to 2 return "a"',
        ('TYPE_ERROR', (1, 1), 'string() expects at most one item'),
        ('TYPE_ERROR', (1, 29), 'string() expects at most one item'),
    ),
    ('string#1', '1', ['"1"'], ['"1"']),
    (
        'string#1',
        '{"k": 1}',
        ('TYPE_ERROR', (1, 1), 'string() of an object, array, or function'),
        ('TYPE_ERROR', (1, 29), 'string() of an object, array, or function'),
    ),
    ('annotate#2', '(), {"a": "int"}', [], []),
    (
        'annotate#2',
        'for $i in 1 to 2 return {"a": 1}, {"a": "int"}',
        ['{"a": 1}', '{"a": 1}'],
        ['{"a": 1}', '{"a": 1}'],
    ),
    (
        'annotate#2',
        '1, {"a": "int"}',
        ('NON_OBJECT_ROW', (1, 1), 'row 0 is not an object (AtomicValue)'),
        ('NON_OBJECT_ROW', (1, 11), 'row 0 is not an object (AtomicValue)'),
    ),
    (
        'annotate#2',
        '{"k": 1}, {"a": "int"}',
        ('VALIDATION_ERROR', (1, 1), 'row 0: at $.a: missing field'),
        ('VALIDATION_ERROR', (1, 11), 'row 0: at $.a: missing field'),
    ),
    (
        'annotate#2',
        '{"a": 1}, ()',
        ('TYPE_ERROR', (1, 1), 'annotate schema expects exactly one item'),
        ('TYPE_ERROR', (1, 31), 'annotate schema expects exactly one item'),
    ),
    (
        'annotate#2',
        '{"a": 1}, for $i in 1 to 2 return {"a": "int"}',
        ('TYPE_ERROR', (1, 1), 'annotate schema expects exactly one item'),
        ('TYPE_ERROR', (1, 31), 'annotate schema expects exactly one item'),
    ),
    (
        'annotate#2',
        '{"a": 1}, 1',
        ('MALFORMED_SCHEMA', (1, 1), 'atomic type name must be a string, got integer'),
        ('MALFORMED_SCHEMA', (1, 31), 'atomic type name must be a string, got integer'),
    ),
    (
        'annotate#2',
        '{"a": 1}, {"k": 1}',
        ('MALFORMED_SCHEMA', (1, 1), 'atomic type name must be a string, got integer'),
        ('MALFORMED_SCHEMA', (1, 31), 'atomic type name must be a string, got integer'),
    ),
    (
        'get-transformer#2',
        '(), {"inputCols": ["x"], "outputCol": "y"}',
        ('TYPE_ERROR', (1, 1), 'get-transformer name expects exactly one item'),
        ('TYPE_ERROR', (1, 38), 'get-transformer name expects exactly one item'),
    ),
    (
        'get-transformer#2',
        'for $i in 1 to 2 return "VectorAssembler", {"inputCols": ["x"], "outputCol": "y"}',
        ('TYPE_ERROR', (1, 1), 'get-transformer name expects exactly one item'),
        ('TYPE_ERROR', (1, 38), 'get-transformer name expects exactly one item'),
    ),
    (
        'get-transformer#2',
        '1, {"inputCols": ["x"], "outputCol": "y"}',
        ('UNKNOWN_TRANSFORMER', (1, 1), 'transformer name must be a string'),
        ('UNKNOWN_TRANSFORMER', (1, 38), 'transformer name must be a string'),
    ),
    (
        'get-transformer#2',
        '{"k": 1}, {"inputCols": ["x"], "outputCol": "y"}',
        ('UNKNOWN_TRANSFORMER', (1, 1), 'transformer name must be a string'),
        ('UNKNOWN_TRANSFORMER', (1, 38), 'transformer name must be a string'),
    ),
    (
        'get-transformer#2',
        '"VectorAssembler", ()',
        ('TYPE_ERROR', (1, 1), 'get-transformer parameters expects exactly one item'),
        ('TYPE_ERROR', (1, 38), 'get-transformer parameters expects exactly one item'),
    ),
    (
        'get-transformer#2',
        '"VectorAssembler", for $i in 1 to 2 return {"inputCols": ["x"], "outputCol": "y"}',
        ('TYPE_ERROR', (1, 1), 'get-transformer parameters expects exactly one item'),
        ('TYPE_ERROR', (1, 38), 'get-transformer parameters expects exactly one item'),
    ),
    (
        'get-transformer#2',
        '"VectorAssembler", 1',
        ('PARAM_TYPE_ERROR', (1, 1), 'VectorAssembler parameters must be an object'),
        ('PARAM_TYPE_ERROR', (1, 38), 'VectorAssembler parameters must be an object'),
    ),
    (
        'get-transformer#2',
        '"VectorAssembler", {"k": 1}',
        ('UNKNOWN_PARAM', (1, 1), "VectorAssembler has no parameter 'k'"),
        ('UNKNOWN_PARAM', (1, 38), "VectorAssembler has no parameter 'k'"),
    ),
    (
        'get-estimator#2',
        '(), {"featuresCol": "y"}',
        ('TYPE_ERROR', (1, 1), 'get-estimator name expects exactly one item'),
        ('TYPE_ERROR', (1, 36), 'get-estimator name expects exactly one item'),
    ),
    (
        'get-estimator#2',
        'for $i in 1 to 2 return "LinearSVC", {"featuresCol": "y"}',
        ('TYPE_ERROR', (1, 1), 'get-estimator name expects exactly one item'),
        ('TYPE_ERROR', (1, 36), 'get-estimator name expects exactly one item'),
    ),
    (
        'get-estimator#2',
        '1, {"featuresCol": "y"}',
        ('UNKNOWN_ESTIMATOR', (1, 1), 'estimator name must be a string'),
        ('UNKNOWN_ESTIMATOR', (1, 36), 'estimator name must be a string'),
    ),
    (
        'get-estimator#2',
        '{"k": 1}, {"featuresCol": "y"}',
        ('UNKNOWN_ESTIMATOR', (1, 1), 'estimator name must be a string'),
        ('UNKNOWN_ESTIMATOR', (1, 36), 'estimator name must be a string'),
    ),
    (
        'get-estimator#2',
        '"LinearSVC", ()',
        ('TYPE_ERROR', (1, 1), 'get-estimator parameters expects exactly one item'),
        ('TYPE_ERROR', (1, 36), 'get-estimator parameters expects exactly one item'),
    ),
    (
        'get-estimator#2',
        '"LinearSVC", for $i in 1 to 2 return {"featuresCol": "y"}',
        ('TYPE_ERROR', (1, 1), 'get-estimator parameters expects exactly one item'),
        ('TYPE_ERROR', (1, 36), 'get-estimator parameters expects exactly one item'),
    ),
    (
        'get-estimator#2',
        '"LinearSVC", 1',
        ('PARAM_TYPE_ERROR', (1, 1), 'LinearSVC parameters must be an object'),
        ('PARAM_TYPE_ERROR', (1, 36), 'LinearSVC parameters must be an object'),
    ),
    (
        'get-estimator#2',
        '"LinearSVC", {"k": 1}',
        ('UNKNOWN_PARAM', (1, 1), "LinearSVC has no parameter 'k'"),
        ('UNKNOWN_PARAM', (1, 36), "LinearSVC has no parameter 'k'"),
    ),
    (
        'save-model#2',
        '(), "unused/model.json"',
        ('TYPE_ERROR', (1, 1), 'save-model expects exactly one item'),
        ('TYPE_ERROR', (1, 33), 'save-model expects exactly one item'),
    ),
    (
        'save-model#2',
        'for $i in 1 to 2 return $model, "unused/model.json"',
        ('TYPE_ERROR', (1, 1), 'save-model expects exactly one item'),
        ('TYPE_ERROR', (1, 33), 'save-model expects exactly one item'),
    ),
    (
        'save-model#2',
        '1, "unused/model.json"',
        ('UNKNOWN_MODEL_KIND', (1, 1), 'save-model expects a model function item'),
        ('UNKNOWN_MODEL_KIND', (1, 33), 'save-model expects a model function item'),
    ),
    (
        'save-model#2',
        '{"k": 1}, "unused/model.json"',
        ('UNKNOWN_MODEL_KIND', (1, 1), 'save-model expects a model function item'),
        ('UNKNOWN_MODEL_KIND', (1, 33), 'save-model expects a model function item'),
    ),
    (
        'save-model#2',
        '$model, ()',
        ('IO_ERROR', None, "cannot write model to : [Errno 21] Is a directory: '.'"),
        ('IO_ERROR', None, "cannot write model to : [Errno 21] Is a directory: '.'"),
    ),
    (
        'save-model#2',
        '$model, for $i in 1 to 2 return "unused/model.json"',
        ('TYPE_ERROR', (1, 1), 'save-model path expects at most one item'),
        ('TYPE_ERROR', (1, 33), 'save-model path expects at most one item'),
    ),
    (
        'save-model#2',
        '$model, 1',
        ('TYPE_ERROR', (1, 1), 'save-model path expects a string'),
        ('TYPE_ERROR', (1, 33), 'save-model path expects a string'),
    ),
    (
        'save-model#2',
        '$model, {"k": 1}',
        ('TYPE_ERROR', (1, 1), 'save-model path expects a string'),
        ('TYPE_ERROR', (1, 33), 'save-model path expects a string'),
    ),
    (
        'load-model#1',
        '()',
        ('IO_ERROR', None, "cannot read model from : [Errno 21] Is a directory: '.'"),
        ('IO_ERROR', None, "cannot read model from : [Errno 21] Is a directory: '.'"),
    ),
    (
        'load-model#1',
        'for $i in 1 to 2 return "unused/model.json"',
        ('TYPE_ERROR', (1, 1), 'load-model path expects at most one item'),
        ('TYPE_ERROR', (1, 33), 'load-model path expects at most one item'),
    ),
    (
        'load-model#1',
        '1',
        ('TYPE_ERROR', (1, 1), 'load-model path expects a string'),
        ('TYPE_ERROR', (1, 33), 'load-model path expects a string'),
    ),
    (
        'load-model#1',
        '{"k": 1}',
        ('TYPE_ERROR', (1, 1), 'load-model path expects a string'),
        ('TYPE_ERROR', (1, 33), 'load-model path expects a string'),
    ),
]

ORDER = [
    (
        'tokenize#2',
        '1, {"k": 1}',
        ('TYPE_ERROR', (1, 1), 'tokenize expects a string'),
        ('TYPE_ERROR', (1, 31), 'tokenize expects a string'),
    ),
    (
        'contains#2',
        '1, 1 idiv 0',
        ('DIVISION_BY_ZERO', (1, 15), 'idiv by zero'),
        ('DIVISION_BY_ZERO', (1, 37), 'idiv by zero'),
    ),
    (
        'annotate#2',
        '1, ()',
        ('TYPE_ERROR', (1, 1), 'annotate schema expects exactly one item'),
        ('TYPE_ERROR', (1, 31), 'annotate schema expects exactly one item'),
    ),
    (
        'get-transformer#2',
        '1, 1',
        ('UNKNOWN_TRANSFORMER', (1, 1), 'transformer name must be a string'),
        ('UNKNOWN_TRANSFORMER', (1, 38), 'transformer name must be a string'),
    ),
    (
        'save-model#2',
        '1, 1',
        ('UNKNOWN_MODEL_KIND', (1, 1), 'save-model expects a model function item'),
        ('UNKNOWN_MODEL_KIND', (1, 33), 'save-model expects a model function item'),
    ),
    (
        'save-model#2',
        '1, for $i in 1 to 2 return "unused/model.json"',
        ('UNKNOWN_MODEL_KIND', (1, 1), 'save-model expects a model function item'),
        ('UNKNOWN_MODEL_KIND', (1, 33), 'save-model expects a model function item'),
    ),
    (
        'string#1',
        'for $i in 1 to 2 return {"k": 1}',
        ('TYPE_ERROR', (1, 1), 'string() expects at most one item'),
        ('TYPE_ERROR', (1, 29), 'string() expects at most one item'),
    ),
]


@pytest.fixture(scope="module")
def model():
    return run_query(
        'get-estimator("LinearSVC", {"featuresCol": "v", "maxIter": 1})('
        'get-transformer("VectorAssembler", {"inputCols": ["x"], "outputCol": "v"})('
        'annotate({"label": 1.0, "x": 1.0}, {"label": "double", "x": "double"}), {}), {})'
    )[0]


def _outcome(query, model, policy):
    try:
        return run_query_lines(query, {"model": model}, policy=policy)
    except EngineError as err:
        return (err.code, err.position, err.message)


def _queries(target, arguments):
    name, _, _ = target.rpartition("#")
    return f"{name}({arguments})", f"let $f := {target} return $f({arguments})"


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "target,arguments,static,dynamic",
    ROWS + ORDER,
    ids=[f"{target}({arguments})" for target, arguments, _, _ in ROWS + ORDER],
)
def test_argument_fault(target, arguments, static, dynamic, policy, model):
    static_query, dynamic_query = _queries(target, arguments)
    assert _outcome(static_query, model, policy) == static
    assert _outcome(dynamic_query, model, policy) == dynamic


def test_every_builtin_has_rows():
    from jsoniqml.builtins import CATALOG

    assert {target for target, _, _, _ in ROWS} == set(CATALOG)
