import math

import numpy as np
import pytest

from jsoniqml.builtins import CATALOG
from jsoniqml.engine import compile_query
from jsoniqml.errors import DynamicError
from jsoniqml.frame import annotate_rows
from jsoniqml.items import AtomicValue, SequenceValue, deep_equal, from_py
from jsoniqml.ml import kernels
from jsoniqml.ml.params import PARAM_SPECS, param_defaults, validate_params
from jsoniqml.ml.registry import get_estimator, get_transformer
from jsoniqml.runtime import Evaluator


def make_evaluator():
    compiled = compile_query("1")
    return Evaluator(compiled.tree, CATALOG, {}, cap=10**6)


def make_frame(rows_py, schema_py):
    return annotate_rows((from_py(r) for r in rows_py), from_py(schema_py))


def transformer(name, params_py):
    return get_transformer(AtomicValue("string", name), from_py(params_py))


def estimator(name, params_py):
    return get_estimator(AtomicValue("string", name), from_py(params_py))


def apply_fn(fn, frame, params_py=None):
    ev = make_evaluator()
    args = [SequenceValue.from_frame(frame), SequenceValue.single(from_py(params_py or {}))]
    return ev.invoke_function(fn, args, (1, 1))


def fit(fn, frame, params_py=None):
    return apply_fn(fn, frame, params_py).first()


def vectors_frame(vectors, labels=None):
    rows = []
    for i, vec in enumerate(vectors):
        row = {"features": list(vec)}
        if labels is not None:
            row["label"] = labels[i]
        rows.append(row)
    schema = {"features": ["double"]}
    if labels is not None:
        schema["label"] = "double"
    return make_frame(rows, schema)


def column_values(frame, name):
    col = frame.column(name)
    return [col.item_at(i) for i in range(frame.nrows)]


class TestRegistryLookup:
    def test_vector_assembler_lookup(self):
        fn = transformer("VectorAssembler", {"inputCols": ["features"], "outputCol": "fv"})
        assert fn.native.shape == "transformer"
        assert fn.arity == 2

    def test_tokenizer_defaults_supplied_at_call_time(self):
        fn = transformer("Tokenizer", {})
        frame = make_frame([{"text": "Hi I heard"}], {"text": "string"})
        out = apply_fn(fn, frame, {"inputCol": "text", "outputCol": "tokens"}).frame
        assert deep_equal(out.row_item(0).pairs["tokens"], from_py(["hi", "i", "heard"]))

    def test_unknown_transformer(self):
        with pytest.raises(DynamicError) as err:
            transformer("Bogus", {})
        assert err.value.code == "UNKNOWN_TRANSFORMER"

    def test_unknown_estimator_random_forest(self):
        with pytest.raises(DynamicError) as err:
            estimator("RandomForest", {})
        assert err.value.code == "UNKNOWN_ESTIMATOR"

    def test_estimator_signature_is_higher_order(self):
        fn = estimator("LinearSVC", {"maxIter": 1})
        assert fn.native.shape == "estimator"
        assert fn.signature[-1].startswith("function(")


class TestValidateParams:
    def test_max_iter_integer(self):
        out = validate_params("LinearSVC", from_py({"maxIter": 5}))
        assert out == {"maxIter": 5}
        merged = param_defaults("LinearSVC") | out
        assert merged["maxIter"] == 5 and merged["labelCol"] == "label"

    def test_max_iter_wrong_type(self):
        with pytest.raises(DynamicError) as err:
            validate_params("LinearSVC", from_py({"maxIter": "five"}))
        assert err.value.code == "PARAM_TYPE_ERROR"
        assert "integer" in err.value.message and "string" in err.value.message

    def test_unknown_param(self):
        with pytest.raises(DynamicError) as err:
            validate_params("LinearSVC", from_py({"bogus": 1}))
        assert err.value.code == "UNKNOWN_PARAM"

    def test_stages_accept_function_items(self):
        va = transformer("VectorAssembler", {"inputCols": ["f"], "outputCol": "fv"})
        svc = estimator("LinearSVC", {})
        from jsoniqml.items import ArrayItem, ObjectItem

        params = ObjectItem({"stages": ArrayItem([va, svc])})
        out = validate_params("Pipeline", params)
        assert out["stages"] == [va, svc]

    def test_stages_reject_atomics(self):
        with pytest.raises(DynamicError) as err:
            validate_params("Pipeline", from_py({"stages": [5]}))
        assert err.value.code == "PARAM_TYPE_ERROR"

    def test_spec_round_trip_for_every_registered_param(self):
        samples = {
            "boolean": from_py(True),
            "double": from_py(0.5),
            "integer": from_py(3),
            "string": from_py("col"),
        }
        array_samples = {
            "double": from_py([0.5, 1.5]),
            "integer": from_py([1, 2]),
            "string": from_py(["a"]),
        }
        matrix = from_py([[0.5, 1.5]])
        for name, spec in PARAM_SPECS.items():
            for key, entry in spec.items():
                if entry.type in samples:
                    item = samples[entry.type]
                elif isinstance(entry.type, tuple) and entry.type[1] in array_samples:
                    item = array_samples[entry.type[1]]
                elif isinstance(entry.type, tuple) and isinstance(entry.type[1], tuple):
                    item = matrix
                else:
                    continue  # function-typed params covered above
                from jsoniqml.items import ObjectItem

                out = validate_params(name, ObjectItem({key: item}))
                assert key in out
        for name in PARAM_SPECS:
            with pytest.raises(DynamicError):
                validate_params(name, from_py({"definitely_not_a_param": 1}))

    def test_call_time_overrides_creation_time(self):
        fn = estimator("LinearSVC", {"maxIter": 1, "stepSize": 1.0, "regParam": 0.0})
        frame = vectors_frame([[1.0]], labels=[1.0])
        model_a = fit(fn, frame)
        model_b = fit(fn, frame, {"maxIter": 0})
        assert model_a.native.artifact.weights == [1.0]
        assert model_b.native.artifact.weights == [0.0]


class TestTokenizer:
    def test_lowercase_whitespace_split(self):
        fn = transformer("Tokenizer", {"inputCol": "text", "outputCol": "tokens"})
        frame = make_frame(
            [{"text": "Hi I heard"}, {"text": ""}, {"text": "  spaced\tout  "}],
            {"text": "string"},
        )
        out = apply_fn(fn, frame).frame
        expected = [["hi", "i", "heard"], [], ["spaced", "out"]]
        for i, exp in enumerate(expected):
            assert deep_equal(out.row_item(i).pairs["tokens"], from_py(exp))

    def test_reference_split_oracle(self):
        texts = ["Hi I heard", "A  B", "", "one"]
        fn = transformer("Tokenizer", {"inputCol": "t", "outputCol": "tok"})
        frame = make_frame([{"t": t} for t in texts], {"t": "string"})
        out = apply_fn(fn, frame).frame
        for i, text in enumerate(texts):
            assert deep_equal(out.row_item(i).pairs["tok"], from_py(text.lower().split()))

    def test_not_a_frame(self):
        fn = transformer("Tokenizer", {"inputCol": "t", "outputCol": "tok"})
        ev = make_evaluator()
        rows = SequenceValue.from_list([from_py({"t": "a"})])
        with pytest.raises(DynamicError) as err:
            ev.invoke_function(fn, [rows, SequenceValue.single(from_py({}))], (1, 1))
        assert err.value.code == "NOT_A_FRAME"

    def test_unknown_column(self):
        fn = transformer("Tokenizer", {"inputCol": "missing", "outputCol": "tok"})
        frame = make_frame([{"t": "a"}], {"t": "string"})
        with pytest.raises(DynamicError) as err:
            apply_fn(fn, frame)
        assert err.value.code == "UNKNOWN_COLUMN"

    def test_input_frame_unmodified(self):
        fn = transformer("Tokenizer", {"inputCol": "t", "outputCol": "tok"})
        frame = make_frame([{"t": "a b"}], {"t": "string"})
        before = [list(o.pairs) for o in frame.iter_items()]
        out = apply_fn(fn, frame).frame
        after = [list(o.pairs) for o in frame.iter_items()]
        assert before == after
        assert [name for name, _ in out.type.fields] == ["t", "tok"]


class TestVectorAssembler:
    def test_record_flattening_in_schema_order(self):
        fn = transformer("VectorAssembler", {"inputCols": ["features"], "outputCol": "fv"})
        frame = make_frame(
            [{"features": {"1": 1.5, "2": 2.5, "3": -1.0}}],
            {"features": {"1": "double", "2": "double", "3": "double"}},
        )
        out = apply_fn(fn, frame).frame
        assert deep_equal(out.row_item(0).pairs["fv"], from_py([1.5, 2.5, -1.0]))

    def test_scalar_and_vector_concatenation(self):
        fn = transformer("VectorAssembler", {"inputCols": ["x", "v"], "outputCol": "fv"})
        frame = make_frame(
            [{"x": 1.0, "v": [2.0, 3.0]}, {"x": 4.0, "v": [5.0, 6.0]}],
            {"x": "double", "v": ["double"]},
        )
        out = apply_fn(fn, frame).frame
        assert deep_equal(out.row_item(1).pairs["fv"], from_py([4.0, 5.0, 6.0]))

    def test_integer_scalar_widens(self):
        fn = transformer("VectorAssembler", {"inputCols": ["k"], "outputCol": "fv"})
        frame = make_frame([{"k": 3}], {"k": "int"})
        out = apply_fn(fn, frame).frame
        assert deep_equal(out.row_item(0).pairs["fv"], from_py([3.0]))

    def test_string_column_rejected(self):
        fn = transformer("VectorAssembler", {"inputCols": ["s"], "outputCol": "fv"})
        frame = make_frame([{"s": "x"}], {"s": "string"})
        with pytest.raises(DynamicError) as err:
            apply_fn(fn, frame)
        assert err.value.code == "NON_NUMERIC_INPUT"

    def test_unknown_input_column(self):
        fn = transformer("VectorAssembler", {"inputCols": ["nope"], "outputCol": "fv"})
        frame = make_frame([{"x": 1.0}], {"x": "double"})
        with pytest.raises(DynamicError) as err:
            apply_fn(fn, frame)
        assert err.value.code == "UNKNOWN_COLUMN"

    def test_ragged_vector_inputs_concatenate_per_row(self):
        fn = transformer("VectorAssembler", {"inputCols": ["x", "features"], "outputCol": "fv"})
        frame = make_frame(
            [{"x": 9.0, "features": [1.0]}, {"x": 8.0, "features": [2.0, 3.0]}],
            {"x": "double", "features": ["double"]},
        )
        out = apply_fn(fn, frame).frame
        assert deep_equal(out.row_item(0).pairs["fv"], from_py([9.0, 1.0]))
        assert deep_equal(out.row_item(1).pairs["fv"], from_py([8.0, 2.0, 3.0]))


class TestVectorSlicer:
    def test_slice_selects_dimensions(self):
        fn = transformer(
            "VectorSlicer", {"inputCol": "features", "outputCol": "s", "indices": [2, 0]}
        )
        frame = vectors_frame([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = apply_fn(fn, frame).frame
        assert deep_equal(out.row_item(0).pairs["s"], from_py([3.0, 1.0]))

    def test_out_of_range_index(self):
        fn = transformer(
            "VectorSlicer", {"inputCol": "features", "outputCol": "s", "indices": [9]}
        )
        frame = vectors_frame([[1.0, 2.0]])
        with pytest.raises(DynamicError) as err:
            apply_fn(fn, frame)
        assert err.value.code == "INDEX_OUT_OF_RANGE"


class TestMaxAbsScaler:
    def test_hand_computed_scaling(self):
        fn = estimator("MaxAbsScaler", {"featuresCol": "features", "outputCol": "scaled"})
        train = vectors_frame([[2.0, -4.0], [1.0, 2.0]])
        model = fit(fn, train)
        assert model.native.artifact.extra["maxAbs"] == [2.0, 4.0]
        out = apply_fn(model, train).frame
        assert deep_equal(out.row_item(0).pairs["scaled"], from_py([1.0, -1.0]))
        assert deep_equal(out.row_item(1).pairs["scaled"], from_py([0.5, 0.5]))

    def test_zero_dimension_unchanged(self):
        fn = estimator("MaxAbsScaler", {})
        train = vectors_frame([[0.0, 1.0], [0.0, -2.0]])
        model = fit(fn, train)
        out = apply_fn(model, train).frame
        assert deep_equal(out.row_item(0).pairs["scaledFeatures"], from_py([0.0, 0.5]))

    def test_empty_training_set(self):
        fn = estimator("MaxAbsScaler", {})
        with pytest.raises(DynamicError) as err:
            fit(fn, vectors_frame([]))
        assert err.value.code == "EMPTY_TRAINING_SET"

    def test_post_transform_bound_property(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 4)) * 10
        fn = estimator("MaxAbsScaler", {})
        train = vectors_frame(X.tolist())
        model = fit(fn, train)
        out = apply_fn(model, train).frame
        col = out.column("scaledFeatures")
        scaled = col.flat.values.reshape(20, 4)
        assert np.all(np.abs(scaled) <= 1.0 + 1e-12)

    def test_ragged_vectors(self):
        fn = estimator("MaxAbsScaler", {})
        frame = vectors_frame([[1.0, 2.0], [1.0]])
        with pytest.raises(DynamicError) as err:
            fit(fn, frame)
        assert err.value.code == "RAGGED_VECTORS"


class TestLogisticRegression:
    def test_separable_pair_learns(self):
        fn = estimator(
            "LogisticRegression",
            {"maxIter": 100, "stepSize": 1.0, "regParam": 0.0},
        )
        train = vectors_frame([[-1.0], [1.0]], labels=[0.0, 1.0])
        model = fit(fn, train)
        w = model.native.artifact.weights[0]
        assert w > 0
        out = apply_fn(model, train).frame
        preds = [item.value for item in column_values(out, "prediction")]
        assert preds == [0.0, 1.0]

    def test_first_step_positive_weight(self):
        fn = estimator("LogisticRegression", {"maxIter": 1, "stepSize": 1.0, "regParam": 0.0})
        train = vectors_frame([[-1.0], [1.0]], labels=[0.0, 1.0])
        model = fit(fn, train)
        assert model.native.artifact.weights[0] == pytest.approx(0.5)
        assert model.native.artifact.intercept == 0.0

    def test_zero_iterations_predicts_one(self):
        fn = estimator("LogisticRegression", {"maxIter": 0})
        train = vectors_frame([[-1.0], [1.0]], labels=[0.0, 1.0])
        model = fit(fn, train)
        assert model.native.artifact.weights == [0.0]
        out = apply_fn(model, train).frame
        assert [i.value for i in column_values(out, "prediction")] == [1.0, 1.0]

    def test_bad_label(self):
        fn = estimator("LogisticRegression", {})
        train = vectors_frame([[1.0]], labels=[2.0])
        with pytest.raises(DynamicError) as err:
            fit(fn, train)
        assert err.value.code == "BAD_LABEL"

    def test_fit_intercept_false_keeps_zero(self):
        fn = estimator(
            "LogisticRegression",
            {"maxIter": 50, "stepSize": 1.0, "fitIntercept": False},
        )
        train = vectors_frame([[0.5], [1.0]], labels=[0.0, 1.0])
        model = fit(fn, train)
        assert model.native.artifact.intercept == 0.0

    def test_thresholds_shift_decision(self):
        train = vectors_frame([[-1.0], [1.0]], labels=[0.0, 1.0])
        fn = estimator("LogisticRegression", {"maxIter": 20, "stepSize": 1.0})
        model = fit(fn, train)
        skewed = apply_fn(model, train, {"thresholds": [0.001, 0.999]}).frame
        preds = [i.value for i in column_values(skewed, "prediction")]
        assert preds == [0.0, 0.0]

    def test_thresholds_need_one_entry_per_class(self):
        train = vectors_frame([[-1.0], [1.0]], labels=[0.0, 1.0])
        model = fit(estimator("LogisticRegression", {"maxIter": 2}), train)
        for thresholds in ([0.5], [0.2, 0.3, 0.5]):
            with pytest.raises(DynamicError) as err:
                apply_fn(model, train, {"thresholds": thresholds})
            assert err.value.code == "PARAM_TYPE_ERROR"

    def test_coefficient_bounds_clip(self):
        fn = estimator(
            "LogisticRegression",
            {
                "maxIter": 100,
                "stepSize": 1.0,
                "upperBoundsOnCoefficients": [[0.1]],
                "lowerBoundsOnCoefficients": [[-1.0]],
            },
        )
        train = vectors_frame([[-1.0], [1.0]], labels=[0.0, 1.0])
        model = fit(fn, train)
        assert model.native.artifact.weights[0] <= 0.1 + 1e-12


class TestLinearSVC:
    def test_single_point_one_step(self):
        fn = estimator("LinearSVC", {"maxIter": 1, "stepSize": 1.0, "regParam": 0.0})
        train = vectors_frame([[1.0]], labels=[1.0])
        model = fit(fn, train)
        assert model.native.artifact.weights == [1.0]
        assert model.native.artifact.intercept == 1.0

    def test_ragged_vectors(self):
        fn = estimator("LinearSVC", {})
        frame = vectors_frame([[1.0, 2.0], [1.0]], labels=[0.0, 1.0])
        with pytest.raises(DynamicError) as err:
            fit(fn, frame)
        assert err.value.code == "RAGGED_VECTORS"

    def test_dimension_mismatch_at_predict(self):
        fn = estimator("LinearSVC", {"maxIter": 1})
        model = fit(fn, vectors_frame([[1.0, 2.0]], labels=[1.0]))
        with pytest.raises(DynamicError) as err:
            apply_fn(model, vectors_frame([[1.0]]))
        assert err.value.code == "RAGGED_VECTORS"

    def test_determinism_bitwise(self):
        fn = estimator("LinearSVC", {"maxIter": 7, "stepSize": 0.3, "regParam": 0.01})
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        y = (X[:, 0] > 0).astype(float)
        train = vectors_frame(X.tolist(), labels=y.tolist())
        a = fit(fn, train).native.artifact
        b = fit(fn, train).native.artifact
        assert a.weights == b.weights and a.intercept == b.intercept


class TestGradients:
    def test_hinge_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 3))
        y = (rng.random(12) > 0.5).astype(float)
        w = rng.normal(size=3)
        b = 0.2
        gw, gb = kernels.hinge_gradient(w, b, X, y, reg=0.1)
        h = 1e-6
        for j in range(3):
            delta = np.zeros(3)
            delta[j] = h
            numeric = (
                kernels.hinge_loss(w + delta, b, X, y, 0.1)
                - kernels.hinge_loss(w - delta, b, X, y, 0.1)
            ) / (2 * h)
            assert numeric == pytest.approx(gw[j], rel=1e-5, abs=1e-8)
        numeric_b = (
            kernels.hinge_loss(w, b + h, X, y, 0.1) - kernels.hinge_loss(w, b - h, X, y, 0.1)
        ) / (2 * h)
        assert numeric_b == pytest.approx(gb, rel=1e-5, abs=1e-8)

    def test_logistic_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(9, 2))
        y = (rng.random(9) > 0.5).astype(float)
        w = rng.normal(size=2)
        b = -0.3
        gw, gb = kernels.logistic_gradient(w, b, X, y, reg=0.05)
        h = 1e-6
        for j in range(2):
            delta = np.zeros(2)
            delta[j] = h
            numeric = (
                kernels.logistic_loss(w + delta, b, X, y, 0.05)
                - kernels.logistic_loss(w - delta, b, X, y, 0.05)
            ) / (2 * h)
            assert numeric == pytest.approx(gw[j], rel=1e-5, abs=1e-8)
        numeric_b = (
            kernels.logistic_loss(w, b + h, X, y, 0.05)
            - kernels.logistic_loss(w, b - h, X, y, 0.05)
        ) / (2 * h)
        assert numeric_b == pytest.approx(gb, rel=1e-5, abs=1e-8)


class TestNaiveBayes:
    def test_negative_feature_rejected(self):
        fn = estimator("NaiveBayes", {})
        train = vectors_frame([[1.0, -0.5]], labels=[0.0])
        with pytest.raises(DynamicError) as err:
            fit(fn, train)
        assert err.value.code == "NEGATIVE_FEATURE"

    def test_one_hot_two_classes(self):
        fn = estimator("NaiveBayes", {"smoothing": 1.0})
        train = vectors_frame([[1.0, 0.0], [0.0, 1.0]], labels=[0.0, 1.0])
        model = fit(fn, train)
        theta = np.array(model.native.artifact.extra["featureLogLikelihood"])
        # hand-computed with s=1, d=2: theta_0 = log(2/3), log(1/3)
        assert theta[0][0] == pytest.approx(math.log(2 / 3))
        assert theta[0][1] == pytest.approx(math.log(1 / 3))
        out = apply_fn(model, train).frame
        preds = [i.value for i in column_values(out, "prediction")]
        assert preds == [0.0, 1.0]

    def test_likelihoods_normalize(self):
        rng = np.random.default_rng(9)
        X = np.abs(rng.normal(size=(15, 4)))
        y = rng.integers(0, 3, size=15).astype(float)
        fn = estimator("NaiveBayes", {})
        model = fit(fn, vectors_frame(X.tolist(), labels=y.tolist()))
        theta = np.array(model.native.artifact.extra["featureLogLikelihood"])
        sums = np.exp(theta).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-12)

    def test_single_class_predicts_it(self):
        fn = estimator("NaiveBayes", {})
        train = vectors_frame([[1.0], [2.0]], labels=[1.0, 1.0])
        model = fit(fn, train)
        out = apply_fn(model, vectors_frame([[5.0]])).frame
        assert column_values(out, "prediction")[0].value == 1.0

    def test_tie_breaks_to_lowest_class(self):
        fn = estimator("NaiveBayes", {"smoothing": 1.0})
        train = vectors_frame([[1.0], [1.0]], labels=[0.0, 1.0])
        model = fit(fn, train)
        out = apply_fn(model, vectors_frame([[1.0]])).frame
        assert column_values(out, "prediction")[0].value == 0.0

    def test_fractional_label_rejected(self):
        fn = estimator("NaiveBayes", {})
        with pytest.raises(DynamicError) as err:
            fit(fn, vectors_frame([[1.0]], labels=[1.5]))
        assert err.value.code == "BAD_LABEL"

    def test_negative_label_rejected(self):
        fn = estimator("NaiveBayes", {})
        frame = make_frame(
            [{"label": "-1", "features": [1.0]}],
            {"label": "string", "features": ["double"]},
        )
        with pytest.raises(DynamicError) as err:
            fit(fn, frame)
        assert err.value.code == "BAD_LABEL"

    def test_negative_feature_at_predict_time(self):
        fn = estimator("NaiveBayes", {})
        model = fit(fn, vectors_frame([[1.0], [2.0]], labels=[0.0, 1.0]))
        with pytest.raises(DynamicError) as err:
            apply_fn(model, vectors_frame([[-1.0]]))
        assert err.value.code == "NEGATIVE_FEATURE"


class TestPipeline:
    def test_assemble_then_classify(self):
        va = transformer("VectorAssembler", {"inputCols": ["features"], "outputCol": "fv"})
        svc = estimator("LinearSVC", {"featuresCol": "fv", "maxIter": 5, "stepSize": 0.5})
        from jsoniqml.items import ArrayItem, ObjectItem

        pipe = estimator("Pipeline", {})
        frame = make_frame(
            [
                {"label": 0.0, "features": {"x": -1.0}},
                {"label": 1.0, "features": {"x": 1.0}},
            ],
            {"label": "double", "features": {"x": "double"}},
        )
        ev = make_evaluator()
        stage_params = SequenceValue.single(ObjectItem({"stages": ArrayItem([va, svc])}))
        model = ev.invoke_function(
            pipe, [SequenceValue.from_frame(frame), stage_params], (1, 1)
        ).first()
        out = apply_fn(model, frame).frame
        assert [name for name, _ in out.type.fields] == ["label", "features", "fv", "prediction"]
        assert [i.value for i in column_values(out, "prediction")] == [0.0, 1.0]

    def test_single_transformer_pipeline_is_that_transformer(self):
        tok = transformer("Tokenizer", {"inputCol": "t", "outputCol": "tok"})
        from jsoniqml.items import ArrayItem, ObjectItem

        pipe = estimator("Pipeline", {})
        frame = make_frame([{"t": "A b"}], {"t": "string"})
        ev = make_evaluator()
        model = ev.invoke_function(
            pipe,
            [SequenceValue.from_frame(frame), SequenceValue.single(ObjectItem({"stages": ArrayItem([tok])}))],
            (1, 1),
        ).first()
        via_pipe = apply_fn(model, frame).frame
        direct = apply_fn(tok, frame).frame
        for a, b in zip(via_pipe.iter_items(), direct.iter_items()):
            assert deep_equal(a, b)

    def test_empty_stages_rejected(self):
        pipe = estimator("Pipeline", {})
        frame = make_frame([{"t": "a"}], {"t": "string"})
        with pytest.raises(DynamicError) as err:
            apply_fn(pipe, frame, {"stages": []})
        assert err.value.code == "STAGE_TYPE_ERROR"

    def test_stage_errors_carry_stage_index(self):
        bad = transformer("Tokenizer", {"inputCol": "missing", "outputCol": "tok"})
        from jsoniqml.items import ArrayItem, ObjectItem

        pipe = estimator("Pipeline", {})
        frame = make_frame([{"t": "a"}], {"t": "string"})
        ev = make_evaluator()
        with pytest.raises(DynamicError) as err:
            ev.invoke_function(
                pipe,
                [
                    SequenceValue.from_frame(frame),
                    SequenceValue.single(ObjectItem({"stages": ArrayItem([bad])})),
                ],
                (1, 1),
            )
        assert err.value.code == "UNKNOWN_COLUMN"
        assert "stage 0" in err.value.message

    def test_user_function_as_transformer_stage(self):
        # an arity-2 user function whose body revalidates rows acts as a stage
        from jsoniqml.engine import run_query_lines

        query = """
        declare function local:noop($rows, $params) {
          annotate(
            for $r in $rows return { "label" : $r.label, "features" : $r.features },
            { "label" : "double", "features" : ["double"] })
        };
        let $train := annotate(
          (for $i in 1 to 4
           return { "label" : (if ($i le 2) then 0 else 1),
                    "features" : [ $i - 2.5 ] }),
          { "label" : "double", "features" : ["double"] })
        let $svc := get-estimator("LinearSVC", { "maxIter" : 3, "stepSize" : 1.0 })
        let $pipe := get-estimator("Pipeline", { "stages" : [local:noop#2, $svc] })
        let $model := $pipe($train, {})
        for $r in $model($train, {})
        return $r.prediction
        """
        assert run_query_lines(query) == ["0.0", "0.0", "1.0", "1.0"]

    def test_pipeline_model_equals_sequential_stages(self):
        scaler = estimator("MaxAbsScaler", {"featuresCol": "features", "outputCol": "sc"})
        svc = estimator(
            "LinearSVC", {"featuresCol": "sc", "maxIter": 4, "stepSize": 0.5}
        )
        from jsoniqml.items import ArrayItem, ObjectItem

        train = vectors_frame([[2.0], [-2.0], [4.0]], labels=[1.0, 0.0, 1.0])
        ev = make_evaluator()
        pipe = estimator("Pipeline", {})
        model = ev.invoke_function(
            pipe,
            [
                SequenceValue.from_frame(train),
                SequenceValue.single(ObjectItem({"stages": ArrayItem([scaler, svc])})),
            ],
            (1, 1),
        ).first()
        via_pipeline = apply_fn(model, train).frame

        scaler_model = fit(scaler, train)
        step1 = apply_fn(scaler_model, train).frame
        svc_model = fit(svc, step1)
        sequential = apply_fn(svc_model, step1).frame
        for a, b in zip(
            via_pipeline.iter_items(), sequential.iter_items()
        ):
            assert deep_equal(a, b)


class TestEmptyFrames:
    def test_transformers_accept_zero_rows(self):
        frame = make_frame([], {"t": "string", "features": ["double"]})
        tok = transformer("Tokenizer", {"inputCol": "t", "outputCol": "tok"})
        assert apply_fn(tok, frame).frame.nrows == 0
        va = transformer("VectorAssembler", {"inputCols": ["features"], "outputCol": "fv"})
        assert apply_fn(va, frame).frame.nrows == 0

    def test_model_predicts_zero_rows(self):
        fn = estimator("LinearSVC", {"maxIter": 1})
        model = fit(fn, vectors_frame([[1.0, 2.0]], labels=[1.0]))
        empty = vectors_frame([])
        out = apply_fn(model, empty).frame
        assert out.nrows == 0
        assert "prediction" in dict(out.type.fields)

    def test_zero_field_schema_counts_rows(self):
        from jsoniqml.engine import run_query_lines

        out = run_query_lines(
            "count(annotate((for $i in 1 to 3 return {}), {}))"
        )
        assert out == ["3"]


class TestPredictionKindMirrorsLabel:
    def test_string_labels_give_string_predictions(self):
        fn = estimator("LinearSVC", {"maxIter": 3, "stepSize": 1.0})
        frame = make_frame(
            [
                {"label": "0", "features": [-1.0]},
                {"label": "1", "features": [1.0]},
            ],
            {"label": "string", "features": ["double"]},
        )
        model = fit(fn, frame)
        out = apply_fn(model, frame).frame
        preds = column_values(out, "prediction")
        assert [p.kind for p in preds] == ["string", "string"]
        assert [p.value for p in preds] == ["0", "1"]

    def test_int_labels_give_int_predictions(self):
        fn = estimator("LinearSVC", {"maxIter": 3, "stepSize": 1.0})
        frame = make_frame(
            [{"label": 0, "features": [-1.0]}, {"label": 1, "features": [1.0]}],
            {"label": "int", "features": ["double"]},
        )
        model = fit(fn, frame)
        preds = column_values(apply_fn(model, frame).frame, "prediction")
        assert [p.kind for p in preds] == ["int", "int"]
