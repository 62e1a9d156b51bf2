"""Parameter specs and validation for estimators and transformers.

Parameter values arrive as items and are converted to plain Python values
according to a per-name spec. Unknown keys and type mismatches are rejected
before anything is fitted or applied; creation-time and call-time parameter
objects are validated the same way, with call-time entries winning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import DynamicError
from ..items import (
    ArrayItem,
    AtomicValue,
    FunctionItem,
    INTEGER_KINDS,
    Item,
    NUMERIC_KINDS,
    ObjectItem,
)

# semantic parameter types
BOOLEAN = "boolean"
DOUBLE = "double"
INTEGER = "integer"
STRING = "string"
VECTOR = ("array", DOUBLE)  # [ "double" ]
MATRIX = ("array", VECTOR)  # [ [ "double" ] ]
INT_ARRAY = ("array", INTEGER)
STRING_ARRAY = ("array", STRING)
TRANSFORMER_FN = "transformer-function"
ESTIMATOR_FN = "estimator-function"
STAGE_FN = "stage-function"  # transformer- or estimator-shaped
STAGES = ("array", STAGE_FN)


@dataclass(frozen=True)
class ParamEntry:
    type: Any
    default: Any = None


def type_name(ptype) -> str:
    if isinstance(ptype, tuple):
        return f"[{type_name(ptype[1])}]"
    return ptype


def _is_transformer_shaped(fn: FunctionItem) -> bool:
    if fn.native is not None:
        return fn.native.shape == "transformer"
    # arity-2 user functions may act as transformers
    return fn.arity == 2


def _is_estimator_shaped(fn: FunctionItem) -> bool:
    return fn.native is not None and fn.native.shape == "estimator"


def convert_param(key: str, ptype, item: Item):
    """Convert one item to the spec's Python value or raise PARAM_TYPE_ERROR."""

    def bad(actual: str):
        raise DynamicError(
            "PARAM_TYPE_ERROR",
            f"parameter {key!r} expects {type_name(ptype)}, got {actual}",
        )

    if isinstance(ptype, tuple):
        if not isinstance(item, ArrayItem):
            bad(_describe(item))
        values = [convert_param(key, ptype[1], member) for member in item.members]
        if ptype == MATRIX and len({len(v) for v in values}) > 1:
            bad("a ragged array of arrays")
        return values
    if ptype == BOOLEAN:
        if isinstance(item, AtomicValue) and item.kind == "boolean":
            return item.value
        bad(_describe(item))
    if ptype == INTEGER:
        if isinstance(item, AtomicValue) and item.kind in INTEGER_KINDS:
            return item.value
        bad(_describe(item))
    if ptype == DOUBLE:
        if isinstance(item, AtomicValue) and item.kind in NUMERIC_KINDS:
            return float(item.value)
        bad(_describe(item))
    if ptype == STRING:
        if isinstance(item, AtomicValue) and item.kind == "string":
            return item.value
        bad(_describe(item))
    if ptype == TRANSFORMER_FN:
        if isinstance(item, FunctionItem) and _is_transformer_shaped(item):
            return item
        bad(_describe(item))
    if ptype == ESTIMATOR_FN:
        if isinstance(item, FunctionItem) and _is_estimator_shaped(item):
            return item
        bad(_describe(item))
    if ptype == STAGE_FN:
        if isinstance(item, FunctionItem) and (
            _is_transformer_shaped(item) or _is_estimator_shaped(item)
        ):
            return item
        bad(_describe(item))
    raise AssertionError(f"unknown param type {ptype!r}")


def _describe(item: Item) -> str:
    if isinstance(item, AtomicValue):
        return item.kind
    if isinstance(item, ArrayItem):
        return "array"
    if isinstance(item, ObjectItem):
        return "object"
    return "function"


PARAM_SPECS: "dict[str, dict[str, ParamEntry]]" = {
    "Tokenizer": {
        "inputCol": ParamEntry(STRING),
        "outputCol": ParamEntry(STRING),
    },
    "VectorAssembler": {
        "inputCols": ParamEntry(STRING_ARRAY),
        "outputCol": ParamEntry(STRING),
    },
    "VectorSlicer": {
        "inputCol": ParamEntry(STRING),
        "outputCol": ParamEntry(STRING),
        "indices": ParamEntry(INT_ARRAY),
    },
    "LogisticRegression": {
        "featuresCol": ParamEntry(STRING, default="features"),
        "labelCol": ParamEntry(STRING, default="label"),
        "predictionCol": ParamEntry(STRING, default="prediction"),
        "maxIter": ParamEntry(INTEGER, default=10),
        "stepSize": ParamEntry(DOUBLE, default=0.1),
        "regParam": ParamEntry(DOUBLE, default=0.0),
        "fitIntercept": ParamEntry(BOOLEAN, default=True),
        "thresholds": ParamEntry(VECTOR),
        "lowerBoundsOnCoefficients": ParamEntry(MATRIX),
        "upperBoundsOnCoefficients": ParamEntry(MATRIX),
    },
    "LinearSVC": {
        "featuresCol": ParamEntry(STRING, default="features"),
        "labelCol": ParamEntry(STRING, default="label"),
        "predictionCol": ParamEntry(STRING, default="prediction"),
        "maxIter": ParamEntry(INTEGER, default=10),
        "stepSize": ParamEntry(DOUBLE, default=0.1),
        "regParam": ParamEntry(DOUBLE, default=0.0),
        "fitIntercept": ParamEntry(BOOLEAN, default=True),
    },
    "NaiveBayes": {
        "featuresCol": ParamEntry(STRING, default="features"),
        "labelCol": ParamEntry(STRING, default="label"),
        "predictionCol": ParamEntry(STRING, default="prediction"),
        "smoothing": ParamEntry(DOUBLE, default=1.0),
        "thresholds": ParamEntry(VECTOR),
    },
    "MaxAbsScaler": {
        "featuresCol": ParamEntry(STRING, default="features"),
        "outputCol": ParamEntry(STRING, default="scaledFeatures"),
    },
    "Pipeline": {
        "stages": ParamEntry(STAGES),
    },
}

TRANSFORMER_NAMES = ("Tokenizer", "VectorAssembler", "VectorSlicer")
ESTIMATOR_NAMES = ("LogisticRegression", "LinearSVC", "NaiveBayes", "MaxAbsScaler", "Pipeline")


def validate_params(name: str, params: Item) -> dict:
    """Check a parameter object against the spec for `name`.

    Returns only the explicitly supplied entries, converted; defaults are
    merged separately so call-time objects can override creation-time ones
    without defaults clobbering either.
    """
    spec = PARAM_SPECS[name]
    if not isinstance(params, ObjectItem):
        raise DynamicError("PARAM_TYPE_ERROR", f"{name} parameters must be an object")
    out = {}
    for key, value in params.pairs.items():
        entry = spec.get(key)
        if entry is None:
            raise DynamicError("UNKNOWN_PARAM", f"{name} has no parameter {key!r}")
        out[key] = convert_param(key, entry.type, value)
    return out


def param_defaults(name: str) -> dict:
    return {
        key: entry.default
        for key, entry in PARAM_SPECS[name].items()
        if entry.default is not None
    }


def merged_params(name: str, creation: dict, call: dict) -> dict:
    merged = param_defaults(name)
    merged.update(creation)
    merged.update(call)
    return merged


def column_params(name: str) -> "list[str]":
    """The string parameters of `name`, which are the columns it reads and
    writes; a fitted model keeps them, so its saved document must hold them."""
    return [key for key, entry in PARAM_SPECS[name].items() if entry.type == STRING]


def require_param(name: str, params: dict, key: str):
    value = params.get(key)
    if value is None:
        raise DynamicError("MISSING_PARAM", f"{name} requires parameter {key!r}")
    return value
