"""Estimator and transformer registry.

Estimators and transformers are looked up by name and handed back as
function items of signature (object*, object). Applying a transformer (or a
fitted model) appends its output column(s) to the input frame and returns the
new `Frame`, a `frame`-mode value; calling an estimator fits it and returns
the model as another function item. Both take the input `Frame` itself: a
`frame`-mode argument is one, and any other input is `NOT_A_FRAME`. One
factory, `_native_stage`, builds every such item.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from functools import partial

import numpy as np

from ..errors import DynamicError
from ..frame import ArrayColumn, Frame, ScalarColumn
from ..items import (
    AtomicValue,
    FunctionItem,
    ObjectItem,
    SequenceValue,
    at_most_one,
    atomic_cast,
)
from ..runtime import NativeHandle
from ..schema import ATOMIC_TO_FRAME, FRAME_TO_ATOMIC, FrameColumnType
from . import kernels
from .params import (
    ESTIMATOR_NAMES,
    TRANSFORMER_NAMES,
    column_params,
    merged_params,
    require_param,
    validate_params,
)

_DOUBLE = FrameColumnType("Double")
_VECTOR_TYPE = FrameColumnType("Array", member=_DOUBLE)

_NUMERIC_COLUMN_KINDS = {"Byte", "Short", "Integer", "Long", "Double", "Float", "Decimal"}

# the atomic kinds a label column may have; predictions mirror it
LABEL_KINDS = frozenset(FRAME_TO_ATOMIC[k] for k in _NUMERIC_COLUMN_KINDS | {"String"})

_EMPTY_PARAMS = SequenceValue.single(ObjectItem({}))


@dataclass
class ModelArtifact:
    """Everything needed to reapply a transformer or a fitted model
    deterministically."""

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


def _numeric_values(col) -> np.ndarray:
    if col.type.kind == "Decimal":
        return np.array([float(v) for v in col.values], dtype=np.float64)
    return col.values.astype(np.float64)


def features_matrix(frame: Frame, col_name: str, expect_d: "int | None" = None) -> np.ndarray:
    """Uniform-length double-vector column as an (n, d) matrix."""
    col = frame.column(col_name)
    if not (col.type.kind == "Array" and col.type.member.kind == "Double"):
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
    col = frame.column(col_name)
    kind = col.type.kind
    if kind in _NUMERIC_COLUMN_KINDS:
        return _numeric_values(col), FRAME_TO_ATOMIC[kind]
    if kind == "String":
        out = np.empty(len(col.values))
        for i, text in enumerate(col.values):
            try:
                out[i] = atomic_cast(AtomicValue("string", text), "double").value
            except DynamicError:
                raise DynamicError("BAD_LABEL", f"label {text!r} is not numeric") from None
        return out, "string"
    raise DynamicError("BAD_LABEL", f"label column of type {kind} cannot be cast to numbers")


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


def _prediction_column(preds: np.ndarray, label_kind: str) -> ScalarColumn:
    """Predictions mirror the atomic kind of the label column seen at fit."""
    ints = preds.astype(np.int64)
    if label_kind == "string":
        values = [str(int(v)) for v in ints]
    elif label_kind == "decimal":
        values = [Decimal(int(v)) for v in ints]
    elif label_kind in ("double", "float"):
        values = ints.astype(np.float64)
    else:
        values = ints
    return ScalarColumn(FrameColumnType(ATOMIC_TO_FRAME[label_kind]), values)


# ---------------------------------------------------------------------------
# Stage items
# ---------------------------------------------------------------------------


def _native_stage(
    role: str, kind: str, run, artifact: "ModelArtifact | None" = None
) -> FunctionItem:
    """The function item of an ML stage: a transformer, a fitted model or a
    pipeline model (each returns a frame), or an estimator (returns a model).

    The call parameters are checked against the spec of `kind`, then
    `run(ev, frame, call, pos)` gets the input frame and those parameters.
    """
    what = f"{kind} model" if role == "model" else kind

    def invoke(ev, args, pos):
        frame = args[0]
        if frame.__class__ is not Frame:
            raise DynamicError(
                "NOT_A_FRAME", f"{what} requires the object sequence to physically be a frame"
            )
        message = f"{kind} expects a single parameter object"
        call = at_most_one(args[1], "TYPE_ERROR", message)
        if not isinstance(call, ObjectItem):
            raise DynamicError("TYPE_ERROR", message)
        return run(ev, frame, validate_params(kind, call), pos)

    output = "function(object*, object) as object*" if role == "estimator" else "object*"
    return FunctionItem(
        name=f"{kind}Model" if role == "model" else kind,
        param_names=("input", "params"),
        signature=("object*", "object", output),
        native=NativeHandle(tag=f"{role}:{kind}", invoke=invoke, artifact=artifact),
    )


def get_stage(role: str, name_item, params_item) -> FunctionItem:
    """`get-transformer` and `get-estimator`: a stage by name, with its
    creation-time parameters checked."""
    names = TRANSFORMER_NAMES if role == "transformer" else ESTIMATOR_NAMES
    code = f"UNKNOWN_{role.upper()}"
    if not (isinstance(name_item, AtomicValue) and name_item.kind == "string"):
        raise DynamicError(code, f"{role} name must be a string")
    name = name_item.value
    if name not in names:
        raise DynamicError(code, f"unknown {role} {name!r}")
    creation = validate_params(name, params_item)
    if role == "transformer":
        return make_model_item(ModelArtifact(kind=name, params=creation))
    return _estimator_item(name, creation)


get_transformer = partial(get_stage, "transformer")
get_estimator = partial(get_stage, "estimator")


def make_model_item(artifact: ModelArtifact) -> FunctionItem:
    """A transformer or a fitted model, applied with its own parameters
    overridden by the call's."""
    apply = MODEL_APPLY[artifact.kind]

    def run(ev, frame, call, pos):
        return apply(artifact, frame, {**artifact.params, **call})

    role = "transformer" if artifact.kind in TRANSFORMER_NAMES else "model"
    return _native_stage(role, artifact.kind, run, artifact)


def make_pipeline_model_item(stages: "list[FunctionItem]") -> FunctionItem:
    def run(ev, frame, call, pos):
        for i, stage in enumerate(stages):
            frame = _apply_stage(ev, stage, frame, i, pos)
        return frame

    return _native_stage("model", "Pipeline", run, _pipeline_artifact(stages))


def _estimator_item(kind: str, creation: dict) -> FunctionItem:
    def run(ev, frame, call, pos):
        params = merged_params(kind, creation, call)
        if kind == "Pipeline":
            return SequenceValue.single(_fit_pipeline(ev, frame, params, pos))
        if frame.nrows == 0:
            raise DynamicError("EMPTY_TRAINING_SET", f"{kind} requires a nonempty training set")
        return SequenceValue.single(make_model_item(_FITTERS[kind](frame, params)))

    return _native_stage("estimator", kind, run)


def _pipeline_artifact(stages) -> "ModelArtifact | None":
    stage_dicts = []
    for stage in stages:
        if stage.native is None or stage.native.artifact is None:
            return None  # user-defined stage: not persistable
        stage_dicts.append(artifact_to_dict(stage.native.artifact))
    return ModelArtifact(kind="Pipeline", params={}, extra={"stages": stage_dicts})


def _run_stage(ev, stage: FunctionItem, frame: Frame, index: int, pos):
    try:
        return ev.invoke_function(stage, [frame, _EMPTY_PARAMS], pos)
    except DynamicError as err:
        raise DynamicError(err.code, f"stage {index}: {err.message}", err.position) from err


def _apply_stage(ev, stage: FunctionItem, frame: Frame, index: int, pos) -> Frame:
    result = _run_stage(ev, stage, frame, index, pos)
    # a user-defined stage may return anything
    if result.__class__ is not Frame:
        raise DynamicError(
            "STAGE_TYPE_ERROR", f"stage {index} did not produce a frame", pos
        )
    return result


def _fit_pipeline(ev, frame: Frame, params: dict, pos) -> FunctionItem:
    stages = require_param("Pipeline", params, "stages")
    if not stages:
        raise DynamicError("STAGE_TYPE_ERROR", "Pipeline requires a nonempty stage list")
    fitted: list[FunctionItem] = []
    for i, stage in enumerate(stages):
        if stage.native is not None and stage.native.shape == "estimator":
            stage = _run_stage(ev, stage, frame, i, pos).first()
        frame = _apply_stage(ev, stage, frame, i, pos)
        fitted.append(stage)
    return make_pipeline_model_item(fitted)


# ---------------------------------------------------------------------------
# Transformers
# ---------------------------------------------------------------------------


def _apply_tokenizer(artifact: ModelArtifact, frame: Frame, params: dict) -> Frame:
    input_col = require_param("Tokenizer", params, "inputCol")
    output_col = require_param("Tokenizer", params, "outputCol")
    col = frame.column(input_col)
    if col.type.kind != "String":
        raise DynamicError("TYPE_ERROR", f"column {input_col!r} is not a string column")
    offsets = [0]
    flat: list = []
    for text in col.values:
        tokens = text.lower().split()
        flat.extend(tokens)
        offsets.append(offsets[-1] + len(tokens))
    string_type = FrameColumnType("String")
    column = ArrayColumn(
        FrameColumnType("Array", member=string_type),
        np.array(offsets, dtype=np.int64),
        ScalarColumn(string_type, flat),
    )
    return frame.with_column(output_col, column)


def _assembler_part(frame: Frame, name: str):
    """One input column as either an (n, k) fixed block or a ragged pair."""
    col = frame.column(name)
    kind = col.type.kind
    if kind in _NUMERIC_COLUMN_KINDS:
        return _numeric_values(col).reshape(frame.nrows, 1)
    if kind == "Array" and col.type.member.kind == "Double":
        lengths = np.diff(col.offsets)
        if frame.nrows and np.all(lengths == lengths[0]):
            return col.flat.values.reshape(frame.nrows, int(lengths[0]))
        return (col.offsets, col.flat.values)
    if kind == "Record":
        children = []
        for child_name, child_col in col.children:
            if child_col.type.kind not in _NUMERIC_COLUMN_KINDS:
                raise DynamicError(
                    "NON_NUMERIC_INPUT",
                    f"record field {child_name!r} of column {name!r} is not numeric",
                )
            children.append(_numeric_values(child_col))
        if not children:
            return np.zeros((frame.nrows, 0))
        return np.stack(children, axis=1)
    raise DynamicError("NON_NUMERIC_INPUT", f"column {name!r} cannot be assembled")


def _apply_vector_assembler(artifact: ModelArtifact, frame: Frame, params: dict) -> Frame:
    input_cols = require_param("VectorAssembler", params, "inputCols")
    output_col = require_param("VectorAssembler", params, "outputCol")
    parts = [_assembler_part(frame, name) for name in input_cols]
    if all(isinstance(p, np.ndarray) for p in parts):
        X = np.hstack(parts) if parts else np.zeros((frame.nrows, 0))
        return frame.with_column(output_col, _vector_column(X))
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
    return frame.with_column(output_col, column)


def _apply_vector_slicer(artifact: ModelArtifact, frame: Frame, params: dict) -> Frame:
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
    return frame.with_column(output_col, _vector_column(sliced))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _apply_linear_model(artifact: ModelArtifact, frame: Frame, params: dict) -> Frame:
    w = np.asarray(artifact.weights, dtype=np.float64)
    X = features_matrix(frame, params["featuresCol"], expect_d=len(w))
    z = X @ w + artifact.intercept
    thresholds = params.get("thresholds")
    if artifact.kind == "LogisticRegression" and thresholds is not None:
        if len(thresholds) != 2:
            raise DynamicError("PARAM_TYPE_ERROR", "thresholds must have one entry per class")
        t0, t1 = thresholds
        if t0 <= 0 or t1 <= 0:
            raise DynamicError("PARAM_TYPE_ERROR", "thresholds must be positive")
        p1 = kernels.sigmoid(z)
        preds = (p1 / t1 > (1.0 - p1) / t0).astype(np.int64)
    else:
        preds = (z >= 0.0).astype(np.int64)
    column = _prediction_column(preds, params["labelKind"])
    return frame.with_column(params["predictionCol"], column)


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
    column = _prediction_column(preds, params["labelKind"])
    return frame.with_column(params["predictionCol"], column)


def _apply_max_abs(artifact: ModelArtifact, frame: Frame, params: dict) -> Frame:
    scale = np.asarray(artifact.extra["maxAbs"], dtype=np.float64)
    X = features_matrix(frame, params["featuresCol"], expect_d=len(scale))
    scaled = kernels.max_abs_transform(X, scale)
    return frame.with_column(params["outputCol"], _vector_column(scaled))


# every kind a transformer or fitted-model item can have
MODEL_APPLY = {
    "Tokenizer": _apply_tokenizer,
    "VectorAssembler": _apply_vector_assembler,
    "VectorSlicer": _apply_vector_slicer,
    "LogisticRegression": _apply_linear_model,
    "LinearSVC": _apply_linear_model,
    "NaiveBayes": _apply_naive_bayes,
    "MaxAbsScaler": _apply_max_abs,
}


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


def _model_params(kind: str, params: dict, label_kind: str) -> dict:
    """A classifier's parameters as its model keeps them: the column names,
    the label kind and any thresholds."""
    echo = {key: params[key] for key in column_params(kind)}
    echo["labelKind"] = label_kind
    if params.get("thresholds") is not None:
        echo["thresholds"] = params["thresholds"]
    return echo


def _fit_linear(kind: str, loss: str, frame: Frame, params: dict) -> ModelArtifact:
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
        kind=kind,
        params=_model_params(kind, params, label_kind),
        weights=[float(v) for v in w],
        intercept=float(b),
    )


def _fit_naive_bayes(frame: Frame, params: dict) -> ModelArtifact:
    if params["smoothing"] < 0:
        raise DynamicError("PARAM_TYPE_ERROR", "smoothing must be nonnegative")
    X = features_matrix(frame, params["featuresCol"])
    y, label_kind = labels_vector(frame, params["labelCol"])
    if np.any(y != np.floor(y)) or np.any(y < 0):
        bad = y[(y != np.floor(y)) | (y < 0)][0]
        raise DynamicError("BAD_LABEL", f"label {bad} is not a nonnegative integer")
    classes, priors, theta = kernels.naive_bayes_fit(X, y, params["smoothing"])
    return ModelArtifact(
        kind="NaiveBayes",
        params=_model_params("NaiveBayes", params, label_kind),
        extra={
            "classes": [int(c) for c in classes],
            "classLogPriors": [float(p) for p in priors],
            "featureLogLikelihood": [[float(v) for v in row] for row in theta],
        },
    )


def _fit_max_abs(frame: Frame, params: dict) -> ModelArtifact:
    X = features_matrix(frame, params["featuresCol"])
    scale = kernels.max_abs_fit(X)
    return ModelArtifact(
        kind="MaxAbsScaler",
        params={key: params[key] for key in column_params("MaxAbsScaler")},
        extra={"maxAbs": [float(v) for v in scale]},
    )


_FITTERS = {
    "LogisticRegression": partial(_fit_linear, "LogisticRegression", "logistic"),
    "LinearSVC": partial(_fit_linear, "LinearSVC", "hinge"),
    "NaiveBayes": _fit_naive_bayes,
    "MaxAbsScaler": _fit_max_abs,
}
