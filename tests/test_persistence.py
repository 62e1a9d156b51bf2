import json

import pytest

from jsoniqml.errors import DynamicError
from jsoniqml.frame import frame_to_items
from jsoniqml.items import AtomicValue, deep_equal, from_py
from jsoniqml.ml.persistence import load_model, save_model
from jsoniqml.ml.registry import get_estimator, get_transformer

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
        original = [i.value for i in column_values(apply_fn(model, train).frame, "prediction")]
        reloaded = [i.value for i in column_values(apply_fn(loaded, train).frame, "prediction")]
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
            [SequenceValue.from_frame(frame), SequenceValue.single(ObjectItem({}))],
            (1, 1),
        ).first()
        path = tmp_path / "pipe.json"
        save_model(model, path)
        loaded = load_model(path)
        out_a = apply_fn(model, frame).frame
        out_b = apply_fn(loaded, frame).frame
        for a, b in zip(frame_to_items(out_a).iter_items(), frame_to_items(out_b).iter_items()):
            assert deep_equal(a, b)

    def test_naive_bayes_round_trip(self, tmp_path):
        fn = get_estimator(AtomicValue("string", "NaiveBayes"), from_py({}))
        train = vectors_frame([[1.0, 0.0], [0.0, 1.0]], labels=[0.0, 1.0])
        model = fit(fn, train)
        path = tmp_path / "nb.json"
        save_model(model, path)
        loaded = load_model(path)
        a = [i.value for i in column_values(apply_fn(model, train).frame, "prediction")]
        b = [i.value for i in column_values(apply_fn(loaded, train).frame, "prediction")]
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
            [SequenceValue.from_frame(frame), SequenceValue.single(ObjectItem({}))],
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
