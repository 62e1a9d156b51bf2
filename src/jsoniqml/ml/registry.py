"""Estimator and transformer registry.

Estimators and transformers are looked up by name and handed back as
function items of signature (object*, object). Applying a transformer (or a
fitted model) appends its output column(s) to the input frame; calling an
estimator fits it and returns the model as another function item. Both
require the input sequence to physically be a frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from ..errors import DynamicError
from ..frame import ArrayColumn, Frame, ScalarColumn
from ..items import (
    AtomicValue,
    FunctionItem,
    ObjectItem,
    SequenceValue,
    atomic_cast,
)
from ..runtime import NativeHandle
from ..schema import ATOMIC_TO_FRAME, FRAME_TO_ATOMIC, FrameColumnType
from . import kernels
from .params import (
    ESTIMATOR_NAMES,
    TRANSFORMER_NAMES,
    merged_params,
    require_param,
    validate_params,
)

_DOUBLE = FrameColumnType("Double")
_VECTOR_TYPE = FrameColumnType("Array", member=_DOUBLE)

_NUMERIC_COLUMN_KINDS = {"Byte", "Short", "Integer", "Long", "Double", "Float", "Decimal"}


@dataclass
class ModelArtifact:
    """Everything needed to reapply a fitted model deterministically."""

    kind: str
    params: dict
    weights: "list[float]" = field(default_factory=list)
    intercept: float = 0.0
    extra: dict = field(default_factory=dict)


def artifact_to_dict(artifact: ModelArtifact) -> dict:
    """The saved model document: the frozen keys, then kind-specific ones."""
    return {
        "kind": artifact.kind,
        "params": artifact.params,
        "weights": artifact.weights,
        "intercept": artifact.intercept,
        **artifact.extra,
    }


# ---------------------------------------------------------------------------
# Frame access helpers
# ---------------------------------------------------------------------------


def _require_frame(seq: SequenceValue, what: str) -> Frame:
    if not seq.is_frame():
        raise DynamicError(
            "NOT_A_FRAME", f"{what} requires the object sequence to physically be a frame"
        )
    return seq.frame


def _single_param_object(seq: SequenceValue, what: str) -> ObjectItem:
    items = seq.iter_items()
    first = next(items, None)
    if first is None or next(items, None) is not None or not isinstance(first, ObjectItem):
        raise DynamicError("TYPE_ERROR", f"{what} expects a single parameter object")
    return first


def _numeric_values(col, ctype) -> np.ndarray:
    if isinstance(col.values, np.ndarray):
        return col.values.astype(np.float64)
    if ctype.kind == "Decimal":
        return np.array([float(v) for v in col.values], dtype=np.float64)
    raise DynamicError("NON_NUMERIC_INPUT", f"column of type {ctype.kind} is not numeric")


def features_matrix(frame: Frame, col_name: str, expect_d: "int | None" = None) -> np.ndarray:
    """Uniform-length double-vector column as an (n, d) matrix."""
    ctype, col = frame.column(col_name)
    if not (ctype.kind == "Array" and ctype.member.kind == "Double"):
        raise DynamicError(
            "NON_NUMERIC_INPUT", f"column {col_name!r} is not a vector of doubles"
        )
    if frame.nrows == 0:
        return np.zeros((0, expect_d or 0))
    lengths = np.diff(col.offsets)
    d = int(lengths[0])
    if not np.all(lengths == d):
        raise DynamicError("RAGGED_VECTORS", f"column {col_name!r} has ragged vectors")
    if expect_d is not None and d != expect_d:
        raise DynamicError(
            "RAGGED_VECTORS",
            f"column {col_name!r} has dimension {d}, model expects {expect_d}",
        )
    flat = col.flat.values
    return flat.reshape(frame.nrows, d)


def labels_vector(frame: Frame, col_name: str) -> "tuple[np.ndarray, str]":
    """Label column cast to doubles; returns (values, original atomic kind)."""
    ctype, col = frame.column(col_name)
    label_kind = FRAME_TO_ATOMIC.get(ctype.kind)
    if ctype.kind in ("Byte", "Short", "Integer", "Long", "Double", "Float"):
        return col.values.astype(np.float64), label_kind
    if ctype.kind == "Decimal":
        return np.array([float(v) for v in col.values], dtype=np.float64), label_kind
    if ctype.kind == "String":
        out = np.empty(len(col.values))
        for i, text in enumerate(col.values):
            try:
                out[i] = atomic_cast(AtomicValue("string", text), "double").value
            except DynamicError:
                raise DynamicError("BAD_LABEL", f"label {text!r} is not numeric") from None
        return out, label_kind
    raise DynamicError("BAD_LABEL", f"label column of type {ctype.kind} cannot be cast to numbers")


def _binary_labels(frame: Frame, col_name: str):
    y, label_kind = labels_vector(frame, col_name)
    bad = (y != 0.0) & (y != 1.0)
    if np.any(bad):
        raise DynamicError("BAD_LABEL", f"label {y[bad][0]} is not 0 or 1")
    return y, label_kind


def _vector_column(X: np.ndarray) -> ArrayColumn:
    n, d = X.shape
    offsets = np.arange(n + 1, dtype=np.int64) * d
    flat = ScalarColumn(_DOUBLE, np.ascontiguousarray(X, dtype=np.float64).reshape(-1))
    return ArrayColumn(_VECTOR_TYPE, offsets, flat)


def _prediction_column(preds: np.ndarray, label_kind: str):
    """Predictions mirror the atomic kind of the label column seen at fit."""
    ctype = FrameColumnType(ATOMIC_TO_FRAME[label_kind])
    ints = preds.astype(np.int64)
    if label_kind == "string":
        values = [str(int(v)) for v in ints]
    elif label_kind in ("double", "float"):
        values = ints.astype(np.float64)
    elif label_kind in ("byte", "short", "int", "long"):
        values = ints
    elif label_kind == "decimal":
        values = [Decimal(int(v)) for v in ints]
    else:  # pragma: no cover - fit rejects other label kinds
        raise DynamicError("BAD_LABEL", f"cannot express predictions as {label_kind}")
    return ctype, ScalarColumn(ctype, values)


# ---------------------------------------------------------------------------
# Transformers
# ---------------------------------------------------------------------------


def _apply_tokenizer(frame: Frame, params: dict) -> Frame:
    input_col = require_param("Tokenizer", params, "inputCol")
    output_col = require_param("Tokenizer", params, "outputCol")
    ctype, col = frame.column(input_col)
    if ctype.kind != "String":
        raise DynamicError("TYPE_ERROR", f"column {input_col!r} is not a string column")
    offsets = [0]
    flat: list = []
    for text in col.values:
        tokens = text.lower().split()
        flat.extend(tokens)
        offsets.append(offsets[-1] + len(tokens))
    string_type = FrameColumnType("String")
    out_type = FrameColumnType("Array", member=string_type)
    column = ArrayColumn(
        out_type, np.array(offsets, dtype=np.int64), ScalarColumn(string_type, flat)
    )
    return frame.with_column(output_col, out_type, column)


def _assembler_part(frame: Frame, name: str):
    """One input column as either an (n, k) fixed block or a ragged pair."""
    ctype, col = frame.column(name)
    if ctype.kind in _NUMERIC_COLUMN_KINDS:
        return _numeric_values(col, ctype).reshape(frame.nrows, 1)
    if ctype.kind == "Array" and ctype.member.kind == "Double":
        lengths = np.diff(col.offsets)
        if frame.nrows and np.all(lengths == lengths[0]):
            return col.flat.values.reshape(frame.nrows, int(lengths[0]))
        return (col.offsets, col.flat.values)
    if ctype.kind == "Record":
        children = []
        for child_name, child_col in col.children:
            child_type = child_col.type
            if child_type.kind not in _NUMERIC_COLUMN_KINDS:
                raise DynamicError(
                    "NON_NUMERIC_INPUT",
                    f"record field {child_name!r} of column {name!r} is not numeric",
                )
            children.append(_numeric_values(child_col, child_type))
        if not children:
            return np.zeros((frame.nrows, 0))
        return np.stack(children, axis=1)
    raise DynamicError("NON_NUMERIC_INPUT", f"column {name!r} cannot be assembled")


def _apply_vector_assembler(frame: Frame, params: dict) -> Frame:
    input_cols = require_param("VectorAssembler", params, "inputCols")
    output_col = require_param("VectorAssembler", params, "outputCol")
    parts = [_assembler_part(frame, name) for name in input_cols]
    if all(isinstance(p, np.ndarray) for p in parts):
        X = np.hstack(parts) if parts else np.zeros((frame.nrows, 0))
        column = _vector_column(X)
        return frame.with_column(output_col, _VECTOR_TYPE, column)
    # ragged input vectors: concatenate row by row
    offsets = [0]
    flat: list = []
    for i in range(frame.nrows):
        for part in parts:
            if isinstance(part, np.ndarray):
                flat.extend(part[i])
            else:
                off, values = part
                flat.extend(values[off[i] : off[i + 1]])
        offsets.append(len(flat))
    column = ArrayColumn(
        _VECTOR_TYPE,
        np.array(offsets, dtype=np.int64),
        ScalarColumn(_DOUBLE, np.array(flat, dtype=np.float64)),
    )
    return frame.with_column(output_col, _VECTOR_TYPE, column)


def _apply_vector_slicer(frame: Frame, params: dict) -> Frame:
    input_col = require_param("VectorSlicer", params, "inputCol")
    output_col = require_param("VectorSlicer", params, "outputCol")
    indices = require_param("VectorSlicer", params, "indices")
    X = features_matrix(frame, input_col)
    d = X.shape[1] if frame.nrows else 0
    for idx in indices:
        if not 0 <= idx < max(d, 1):
            raise DynamicError(
                "INDEX_OUT_OF_RANGE", f"slice index {idx} out of range for dimension {d}"
            )
    sliced = X[:, indices] if frame.nrows else np.zeros((0, len(indices)))
    return frame.with_column(output_col, _VECTOR_TYPE, _vector_column(sliced))


_TRANSFORMER_APPLY = {
    "Tokenizer": _apply_tokenizer,
    "VectorAssembler": _apply_vector_assembler,
    "VectorSlicer": _apply_vector_slicer,
}


def make_transformer_item(name: str, creation_params: dict) -> FunctionItem:
    def invoke(ev, args, pos):
        frame = _require_frame(args[0], name)
        call = validate_params(name, _single_param_object(args[1], name))
        params = merged_params(name, creation_params, call)
        return SequenceValue.from_frame(_TRANSFORMER_APPLY[name](frame, params))

    return FunctionItem(
        name=name,
        param_names=("input", "params"),
        signature=("object*", "object", "object*"),
        native=NativeHandle(
            tag=f"transformer:{name}", shape="transformer", invoke=invoke, params=creation_params
        ),
    )


def get_transformer(name_item, params_item) -> FunctionItem:
    if not (isinstance(name_item, AtomicValue) and name_item.kind == "string"):
        raise DynamicError("UNKNOWN_TRANSFORMER", "transformer name must be a string")
    name = name_item.value
    if name not in TRANSFORMER_NAMES:
        raise DynamicError("UNKNOWN_TRANSFORMER", f"unknown transformer {name!r}")
    creation = validate_params(name, params_item)
    return make_transformer_item(name, creation)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _apply_linear_model(artifact: ModelArtifact, frame: Frame, params: dict) -> Frame:
    w = np.asarray(artifact.weights, dtype=np.float64)
    X = features_matrix(frame, params["featuresCol"], expect_d=len(w))
    z = X @ w + artifact.intercept
    if artifact.kind == "LogisticRegression" and params.get("thresholds") is not None:
        t0, t1 = params["thresholds"]
        if t0 <= 0 or t1 <= 0:
            raise DynamicError("PARAM_TYPE_ERROR", "thresholds must be positive")
        p1 = kernels.sigmoid(z)
        preds = (p1 / t1 > (1.0 - p1) / t0).astype(np.int64)
    else:
        preds = (z >= 0.0).astype(np.int64)
    ctype, column = _prediction_column(preds, params["labelKind"])
    return frame.with_column(params["predictionCol"], ctype, column)


def _apply_naive_bayes(artifact: ModelArtifact, frame: Frame, params: dict) -> Frame:
    theta = np.asarray(artifact.extra["featureLogLikelihood"], dtype=np.float64)
    X = features_matrix(frame, params["featuresCol"], expect_d=theta.shape[1])
    if np.any(X < 0):
        raise DynamicError("NEGATIVE_FEATURE", "naive bayes requires nonnegative features")
    classes = np.asarray(artifact.extra["classes"], dtype=np.int64)
    priors = np.asarray(artifact.extra["classLogPriors"], dtype=np.float64)
    thresholds = params.get("thresholds")
    if thresholds is not None:
        if len(thresholds) != len(classes) or any(t <= 0 for t in thresholds):
            raise DynamicError(
                "PARAM_TYPE_ERROR", "thresholds must be positive, one per class"
            )
    preds = kernels.naive_bayes_predict(X, classes, priors, theta, thresholds)
    ctype, column = _prediction_column(preds, params["labelKind"])
    return frame.with_column(params["predictionCol"], ctype, column)


def _apply_max_abs(artifact: ModelArtifact, frame: Frame, params: dict) -> Frame:
    scale = np.asarray(artifact.extra["maxAbs"], dtype=np.float64)
    X = features_matrix(frame, params["featuresCol"], expect_d=len(scale))
    scaled = kernels.max_abs_transform(X, scale)
    return frame.with_column(params["outputCol"], _VECTOR_TYPE, _vector_column(scaled))


_MODEL_APPLY = {
    "LogisticRegression": _apply_linear_model,
    "LinearSVC": _apply_linear_model,
    "NaiveBayes": _apply_naive_bayes,
    "MaxAbsScaler": _apply_max_abs,
}


def make_model_item(artifact: ModelArtifact) -> FunctionItem:
    def invoke(ev, args, pos):
        frame = _require_frame(args[0], f"{artifact.kind} model")
        call = validate_params(artifact.kind, _single_param_object(args[1], artifact.kind))
        params = dict(artifact.params)
        params.update(call)
        return SequenceValue.from_frame(_MODEL_APPLY[artifact.kind](artifact, frame, params))

    return FunctionItem(
        name=f"{artifact.kind}Model",
        param_names=("input", "params"),
        signature=("object*", "object", "object*"),
        native=NativeHandle(
            tag=f"model:{artifact.kind}",
            shape="transformer",
            invoke=invoke,
            params=artifact.params,
            artifact=artifact,
        ),
    )


def make_pipeline_model_item(stages: "list[FunctionItem]") -> FunctionItem:
    artifact = _pipeline_artifact(stages)

    def invoke(ev, args, pos):
        frame = _require_frame(args[0], "Pipeline model")
        validate_params("Pipeline", _single_param_object(args[1], "Pipeline"))
        current = SequenceValue.from_frame(frame)
        for i, stage in enumerate(stages):
            current = _apply_stage(ev, stage, current, i, pos)
        return current

    return FunctionItem(
        name="PipelineModel",
        param_names=("input", "params"),
        signature=("object*", "object", "object*"),
        native=NativeHandle(
            tag="model:Pipeline",
            shape="transformer",
            invoke=invoke,
            params={},
            artifact=artifact,
        ),
    )


def _pipeline_artifact(stages) -> "ModelArtifact | None":
    stage_dicts = []
    for stage in stages:
        handle = stage.native
        if handle is None:
            return None  # user-defined stage: not persistable
        if handle.tag.startswith("model:") and handle.artifact is not None:
            artifact = handle.artifact
        elif handle.tag.startswith("transformer:"):
            artifact = ModelArtifact(kind=handle.tag.split(":", 1)[1], params=handle.params)
        else:
            return None
        stage_dicts.append(artifact_to_dict(artifact))
    return ModelArtifact(kind="Pipeline", params={}, extra={"stages": stage_dicts})


def _apply_stage(ev, stage: FunctionItem, current: SequenceValue, index: int, pos):
    empty = SequenceValue.single(ObjectItem({}))
    try:
        result = ev.invoke_function(stage, [current, empty], pos)
    except DynamicError as err:
        raise DynamicError(err.code, f"stage {index}: {err.message}", err.position) from err
    if not result.is_frame():
        raise DynamicError(
            "STAGE_TYPE_ERROR", f"stage {index} did not produce a frame", pos
        )
    return result


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _bounds_vector(params: dict, key: str, d: int):
    rows = params.get(key)
    if rows is None:
        return None
    if len(rows) != 1 or len(rows[0]) != d:
        raise DynamicError(
            "PARAM_TYPE_ERROR", f"{key} must be a 1 x {d} matrix for binary classification"
        )
    return np.asarray(rows[0], dtype=np.float64)


def _model_params(params: dict, label_kind: str, with_thresholds: bool = False) -> dict:
    echo = {
        "featuresCol": params["featuresCol"],
        "labelCol": params["labelCol"],
        "predictionCol": params["predictionCol"],
        "labelKind": label_kind,
    }
    if with_thresholds and params.get("thresholds") is not None:
        echo["thresholds"] = params["thresholds"]
    return echo


def _fit_linear(name: str, loss: str, frame: Frame, params: dict) -> ModelArtifact:
    if frame.nrows == 0:
        raise DynamicError("EMPTY_TRAINING_SET", f"{name} requires a nonempty training set")
    X = features_matrix(frame, params["featuresCol"])
    y, label_kind = _binary_labels(frame, params["labelCol"])
    lower = _bounds_vector(params, "lowerBoundsOnCoefficients", X.shape[1])
    upper = _bounds_vector(params, "upperBoundsOnCoefficients", X.shape[1])
    w, b = kernels.gd_fit(
        X,
        y,
        loss,
        max_iter=params["maxIter"],
        step=params["stepSize"],
        reg=params["regParam"],
        fit_intercept=params["fitIntercept"],
        lower=lower,
        upper=upper,
    )
    return ModelArtifact(
        kind=name,
        params=_model_params(params, label_kind, with_thresholds=(name == "LogisticRegression")),
        weights=[float(v) for v in w],
        intercept=float(b),
    )


def _fit_logistic_regression(ev, frame, params):
    return _fit_linear("LogisticRegression", "logistic", frame, params)


def _fit_linear_svc(ev, frame, params):
    return _fit_linear("LinearSVC", "hinge", frame, params)


def _fit_naive_bayes(ev, frame: Frame, params: dict) -> ModelArtifact:
    if frame.nrows == 0:
        raise DynamicError("EMPTY_TRAINING_SET", "NaiveBayes requires a nonempty training set")
    if params["smoothing"] < 0:
        raise DynamicError("PARAM_TYPE_ERROR", "smoothing must be nonnegative")
    X = features_matrix(frame, params["featuresCol"])
    y, label_kind = labels_vector(frame, params["labelCol"])
    if np.any(y != np.floor(y)) or np.any(y < 0):
        bad = y[(y != np.floor(y)) | (y < 0)][0]
        raise DynamicError("BAD_LABEL", f"label {bad} is not a nonnegative integer")
    classes, priors, theta = kernels.naive_bayes_fit(X, y, params["smoothing"])
    model_params = _model_params(params, label_kind, with_thresholds=True)
    return ModelArtifact(
        kind="NaiveBayes",
        params=model_params,
        extra={
            "classes": [int(c) for c in classes],
            "classLogPriors": [float(p) for p in priors],
            "featureLogLikelihood": [[float(v) for v in row] for row in theta],
        },
    )


def _fit_max_abs(ev, frame: Frame, params: dict) -> ModelArtifact:
    if frame.nrows == 0:
        raise DynamicError("EMPTY_TRAINING_SET", "MaxAbsScaler requires a nonempty training set")
    X = features_matrix(frame, params["featuresCol"])
    scale = kernels.max_abs_fit(X)
    return ModelArtifact(
        kind="MaxAbsScaler",
        params={"featuresCol": params["featuresCol"], "outputCol": params["outputCol"]},
        extra={"maxAbs": [float(v) for v in scale]},
    )


_FITTERS = {
    "LogisticRegression": _fit_logistic_regression,
    "LinearSVC": _fit_linear_svc,
    "NaiveBayes": _fit_naive_bayes,
    "MaxAbsScaler": _fit_max_abs,
}


def _fit_pipeline(ev, frame: Frame, params: dict, pos) -> FunctionItem:
    stages = require_param("Pipeline", params, "stages")
    if not stages:
        raise DynamicError("STAGE_TYPE_ERROR", "Pipeline requires a nonempty stage list")
    current = SequenceValue.from_frame(frame)
    fitted: list[FunctionItem] = []
    empty = SequenceValue.single(ObjectItem({}))
    for i, stage in enumerate(stages):
        if stage.native is not None and stage.native.shape == "estimator":
            try:
                model_seq = ev.invoke_function(stage, [current, empty], pos)
            except DynamicError as err:
                raise DynamicError(err.code, f"stage {i}: {err.message}", err.position) from err
            model = model_seq.first()
            fitted.append(model)
            current = _apply_stage(ev, model, current, i, pos)
        else:
            current = _apply_stage(ev, stage, current, i, pos)
            fitted.append(stage)
    return make_pipeline_model_item(fitted)


def make_estimator_item(name: str, creation_params: dict) -> FunctionItem:
    def invoke(ev, args, pos):
        frame = _require_frame(args[0], name)
        call = validate_params(name, _single_param_object(args[1], name))
        params = merged_params(name, creation_params, call)
        if name == "Pipeline":
            model = _fit_pipeline(ev, frame, params, pos)
        else:
            artifact = _FITTERS[name](ev, frame, params)
            model = make_model_item(artifact)
        return SequenceValue.single(model)

    return FunctionItem(
        name=name,
        param_names=("input", "params"),
        signature=("object*", "object", "function(object*, object) as object*"),
        native=NativeHandle(
            tag=f"estimator:{name}", shape="estimator", invoke=invoke, params=creation_params
        ),
    )


def get_estimator(name_item, params_item) -> FunctionItem:
    if not (isinstance(name_item, AtomicValue) and name_item.kind == "string"):
        raise DynamicError("UNKNOWN_ESTIMATOR", "estimator name must be a string")
    name = name_item.value
    if name not in ESTIMATOR_NAMES:
        raise DynamicError("UNKNOWN_ESTIMATOR", f"unknown estimator {name!r}")
    creation = validate_params(name, params_item)
    return make_estimator_item(name, creation)
