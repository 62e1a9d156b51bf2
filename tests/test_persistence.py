import json
from functools import lru_cache

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from jsoniqml.errors import DynamicError, EngineError
from jsoniqml.frame import Frame
from jsoniqml.items import AtomicValue, deep_equal, from_py
from jsoniqml.ml.persistence import _item_from_dict, load_model, save_model
from jsoniqml.ml.registry import artifact_to_dict, get_estimator, get_transformer

from test_ml import apply_fn, column_values, fit, make_frame, vectors_frame


def svc_model(max_iter=5):
    fn = get_estimator(AtomicValue("string", "LinearSVC"), from_py({"maxIter": max_iter}))
    train = vectors_frame([[1.0, -1.0], [-1.0, 1.0]], labels=[1.0, 0.0])
    return fit(fn, train), train


class TestSaveLoad:
    def test_round_trip_identical_predictions(self, tmp_path):
        model, train = svc_model()
        path = tmp_path / "svc.json"
        save_model(model, path)
        loaded = load_model(path)
        original = [i.value for i in column_values(apply_fn(model, train), "prediction")]
        reloaded = [i.value for i in column_values(apply_fn(loaded, train), "prediction")]
        assert original == reloaded

    def test_frozen_key_names(self, tmp_path):
        model, _ = svc_model()
        path = tmp_path / "svc.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert set(doc) >= {"kind", "params", "weights", "intercept"}
        assert doc["kind"] == "LinearSVC"
        assert isinstance(doc["weights"], list)

    def test_deterministic_bytes(self, tmp_path):
        model, _ = svc_model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_pipeline_round_trip(self, tmp_path):
        from jsoniqml.items import ArrayItem, ObjectItem
        from jsoniqml.items import SequenceValue
        from test_ml import make_evaluator

        va = get_transformer(
            AtomicValue("string", "VectorAssembler"),
            from_py({"inputCols": ["features"], "outputCol": "fv"}),
        )
        svc = get_estimator(
            AtomicValue("string", "LinearSVC"), from_py({"featuresCol": "fv", "maxIter": 3})
        )
        pipe = get_estimator(AtomicValue("string", "Pipeline"), ObjectItem({"stages": ArrayItem([va, svc])}))
        frame = make_frame(
            [
                {"label": 0.0, "features": {"x": -1.0}},
                {"label": 1.0, "features": {"x": 1.0}},
            ],
            {"label": "double", "features": {"x": "double"}},
        )
        ev = make_evaluator()
        model = ev.invoke_function(
            pipe,
            [frame, SequenceValue.single(ObjectItem({}))],
            (1, 1),
        ).first()
        path = tmp_path / "pipe.json"
        save_model(model, path)
        loaded = load_model(path)
        out_a = apply_fn(model, frame)
        out_b = apply_fn(loaded, frame)
        for a, b in zip(out_a.iter_items(), out_b.iter_items()):
            assert deep_equal(a, b)

    def test_naive_bayes_round_trip(self, tmp_path):
        fn = get_estimator(AtomicValue("string", "NaiveBayes"), from_py({}))
        train = vectors_frame([[1.0, 0.0], [0.0, 1.0]], labels=[0.0, 1.0])
        model = fit(fn, train)
        path = tmp_path / "nb.json"
        save_model(model, path)
        loaded = load_model(path)
        a = [i.value for i in column_values(apply_fn(model, train), "prediction")]
        b = [i.value for i in column_values(apply_fn(loaded, train), "prediction")]
        assert a == b

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"kind": "martian", "params": {}, "weights": [], "intercept": 0.0}')
        with pytest.raises(DynamicError) as err:
            load_model(path)
        assert err.value.code == "UNKNOWN_MODEL_KIND"

    def test_save_to_unwritable_path_is_io_error(self, tmp_path):
        from jsoniqml.errors import SourceIOError

        model, _ = svc_model()
        with pytest.raises(SourceIOError):
            save_model(model, tmp_path)  # a directory, not a file

    def test_unfitted_transformer_not_saveable(self, tmp_path):
        va = get_transformer(
            AtomicValue("string", "VectorAssembler"),
            from_py({"inputCols": ["a"], "outputCol": "b"}),
        )
        with pytest.raises(DynamicError) as err:
            save_model(va, tmp_path / "t.json")
        assert err.value.code == "UNKNOWN_MODEL_KIND"


class TestPipelineDocument:
    def test_saved_pipeline_document_is_pinned(self, tmp_path):
        from jsoniqml.items import ArrayItem, ObjectItem, SequenceValue
        from test_ml import make_evaluator

        va = get_transformer(
            AtomicValue("string", "VectorAssembler"),
            from_py({"inputCols": ["features"], "outputCol": "fv"}),
        )
        scaler = get_estimator(
            AtomicValue("string", "MaxAbsScaler"), from_py({"featuresCol": "fv", "outputCol": "sf"})
        )
        svc = get_estimator(
            AtomicValue("string", "LinearSVC"), from_py({"featuresCol": "sf", "maxIter": 3})
        )
        pipe = get_estimator(
            AtomicValue("string", "Pipeline"), ObjectItem({"stages": ArrayItem([va, scaler, svc])})
        )
        frame = make_frame(
            [
                {"label": 0.0, "features": {"x": -2.0, "y": 1.0}},
                {"label": 1.0, "features": {"x": 4.0, "y": -0.5}},
            ],
            {"label": "double", "features": {"x": "double", "y": "double"}},
        )
        model = make_evaluator().invoke_function(
            pipe,
            [frame, SequenceValue.single(ObjectItem({}))],
            (1, 1),
        ).first()
        path = tmp_path / "pipe.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        # key order is part of the saved bytes
        assert list(doc) == ["kind", "params", "weights", "intercept", "stages"]
        assert [list(stage) for stage in doc["stages"]] == [
            ["kind", "params", "weights", "intercept"],
            ["kind", "params", "weights", "intercept", "maxAbs"],
            ["kind", "params", "weights", "intercept"],
        ]
        assert list(doc["stages"][2]["params"]) == [
            "featuresCol", "labelCol", "predictionCol", "labelKind"
        ]
        svc_weights = doc["stages"][2].pop("weights")
        assert svc_weights == pytest.approx([0.225, -0.225])
        assert doc == {
            "kind": "Pipeline",
            "params": {},
            "weights": [],
            "intercept": 0.0,
            "stages": [
                {
                    "kind": "VectorAssembler",
                    "params": {"inputCols": ["features"], "outputCol": "fv"},
                    "weights": [],
                    "intercept": 0.0,
                },
                {
                    "kind": "MaxAbsScaler",
                    "params": {"featuresCol": "fv", "outputCol": "sf"},
                    "weights": [],
                    "intercept": 0.0,
                    "maxAbs": [4.0, 1.0],
                },
                {
                    "kind": "LinearSVC",
                    "params": {
                        "featuresCol": "sf",
                        "labelCol": "label",
                        "predictionCol": "prediction",
                        "labelKind": "double",
                    },
                    "intercept": 0.0,
                },
            ],
        }


def saved_document(model, tmp_path) -> dict:
    path = tmp_path / "model.json"
    save_model(model, path)
    return json.loads(path.read_text())


@lru_cache(maxsize=None)
def saved_documents() -> "tuple[str, ...]":
    """Saved LinearSVC, NaiveBayes, MaxAbsScaler and Pipeline documents, as
    JSON text, all applicable to `apply_frame()`."""
    from jsoniqml.items import ArrayItem, ObjectItem

    train = apply_frame()
    va = get_transformer(
        AtomicValue("string", "VectorAssembler"),
        from_py({"inputCols": ["features"], "outputCol": "fv"}),
    )
    scaler = get_estimator(
        AtomicValue("string", "MaxAbsScaler"), from_py({"featuresCol": "fv", "outputCol": "sf"})
    )
    svc = get_estimator(
        AtomicValue("string", "LinearSVC"), from_py({"featuresCol": "sf", "maxIter": 3})
    )
    pipe = get_estimator(
        AtomicValue("string", "Pipeline"), ObjectItem({"stages": ArrayItem([va, scaler, svc])})
    )
    models = [
        fit(get_estimator(AtomicValue("string", "LinearSVC"), from_py({"maxIter": 3})), train),
        fit(get_estimator(AtomicValue("string", "NaiveBayes"), from_py({})), train),
        fit(get_estimator(AtomicValue("string", "MaxAbsScaler"), from_py({})), train),
        fit(pipe, train),
    ]
    return tuple(json.dumps(artifact_to_dict(m.native.artifact)) for m in models)


def apply_frame():
    return vectors_frame([[1.0, 0.5], [0.0, 2.0], [3.0, 0.0]], labels=[1.0, 0.0, 1.0])


def load_and_apply(document):
    return apply_fn(_item_from_dict(document), apply_frame())


class TestMalformedDocuments:
    def svc(self, tmp_path) -> dict:
        return saved_document(svc_model()[0], tmp_path)

    def test_saved_documents_load_and_apply(self):
        for text in saved_documents():
            assert isinstance(load_and_apply(json.loads(text)), Frame)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {"kind": "LinearSVC"},
            lambda doc: {**doc, "weights": "abc"},
            lambda doc: {**doc, "intercept": "x"},
            lambda doc: {**doc, "params": [1]},
            lambda doc: {**doc, "params": {**doc["params"], "labelKind": "zzz"}},
        ],
    )
    def test_linear_svc_document(self, tmp_path, edit):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(self.svc(tmp_path))))
        with pytest.raises(DynamicError) as err:
            load_model(path)
        assert err.value.code == "MALFORMED_MODEL"
        assert err.value.exit_code == 3

    @pytest.mark.parametrize(
        "kind, key", [("NaiveBayes", "featureLogLikelihood"), ("MaxAbsScaler", "maxAbs")]
    )
    def test_document_without_its_numbers(self, tmp_path, kind, key):
        model = fit(get_estimator(AtomicValue("string", kind), from_py({})), apply_frame())
        document = saved_document(model, tmp_path)
        del document[key]
        with pytest.raises(DynamicError) as err:
            _item_from_dict(document)
        assert err.value.code == "MALFORMED_MODEL"

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_mutated_document_applies_or_raises_engine_error(self, data):
        document = json.loads(data.draw(st.sampled_from(saved_documents())))
        path = data.draw(st.sampled_from(list(_paths(document))))
        if path and data.draw(st.booleans()):
            mutated = _mutated(document, path, _DELETE)
        else:
            original = _get(document, path)
            replacement = data.draw(
                st.sampled_from([v for v in _JSON_VALUES if _json_type(v) != _json_type(original)])
            )
            mutated = _mutated(document, path, replacement)
        try:
            load_and_apply(mutated)
        except EngineError:
            pass


_DELETE = object()
_JSON_VALUES = (None, True, 0, 1.5, "s", [], {}, [1.0], {"a": 1})


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _paths(value, path=()):
    """The path of every value in a document, the root included."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _get(document, path):
    for key in path:
        document = document[key]
    return document


def _mutated(document, path, replacement):
    """`document` with the value at `path` deleted (`_DELETE`) or replaced."""
    if not path:
        return replacement
    parent = _get(document, path[:-1])
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return document
