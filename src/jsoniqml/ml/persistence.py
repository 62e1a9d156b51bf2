"""Model persistence.

A fitted model serializes to a JSON document with frozen top-level keys
{"kind", "params", "weights", "intercept"} plus kind-specific fields
(pipeline stages nest recursively). Loading checks the document and
reconstructs a function item with identical transform behavior; a document
the model could not be applied from raises `MALFORMED_MODEL`.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import DynamicError, SourceIOError
from ..items import FunctionItem, from_py
from .params import PARAM_SPECS, column_params, validate_params
from .registry import (
    LABEL_KINDS,
    MODEL_APPLY,
    ModelArtifact,
    artifact_to_dict,
    make_model_item,
    make_pipeline_model_item,
)

_FROZEN_KEYS = ("kind", "params", "weights", "intercept")


def _model_path(path, verb: str, pos) -> Path:
    # Path("") would name the current directory
    if path == "":
        raise SourceIOError(f"cannot {verb} model: the path is empty", pos)
    return Path(path)


def save_model(model: FunctionItem, path, pos=None) -> None:
    """Write the model's document to `path`; an I/O error is located at `pos`."""
    handle = getattr(model, "native", None)
    if handle is None or not handle.tag.startswith("model:") or handle.artifact is None:
        raise DynamicError(
            "UNKNOWN_MODEL_KIND", "only registry-created models can be persisted"
        )
    document = artifact_to_dict(handle.artifact)
    target = _model_path(path, "write", pos)
    try:
        target.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    except OSError as err:
        raise SourceIOError(f"cannot write model to {path}: {err}", pos) from err


def _malformed(message: str) -> DynamicError:
    return DynamicError("MALFORMED_MODEL", f"model document: {message}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, key: str, length: "int | None" = None) -> list:
    """`value` checked to be a list of numbers, of `length` if given."""
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        raise _malformed(f"{key!r} must be a list of numbers")
    if length is not None and len(value) != length:
        raise _malformed(f"{key!r} must have {length} entries")
    return value


def _checked_params(kind: str, params) -> dict:
    """The parameters a fitted `kind` keeps: every column name as a string,
    a label kind `fit` can produce if it has a label, and entries that pass
    the kind's parameter spec."""
    if not isinstance(params, dict):
        raise _malformed("'params' must be an object")
    for key in column_params(kind):
        if not isinstance(params.get(key), str):
            raise _malformed(f"parameter {key!r} must be a string")
    label_kind = params.get("labelKind")
    if "labelCol" in PARAM_SPECS[kind] and not (
        isinstance(label_kind, str) and label_kind in LABEL_KINDS
    ):
        raise _malformed("'labelKind' must be a label kind")
    try:
        validate_params(kind, from_py({k: v for k, v in params.items() if k != "labelKind"}))
    except DynamicError as err:
        raise _malformed(err.message) from err
    return params


def _item_from_dict(document: dict) -> FunctionItem:
    if not isinstance(document, dict) or "kind" not in document:
        raise DynamicError("UNKNOWN_MODEL_KIND", "model document has no kind")
    kind = document["kind"]
    extra = {k: v for k, v in document.items() if k not in _FROZEN_KEYS}
    if kind == "Pipeline":
        stages = extra.get("stages", [])
        if not isinstance(stages, list):
            raise _malformed("'stages' must be a list")
        return make_pipeline_model_item([_item_from_dict(stage) for stage in stages])
    if not isinstance(kind, str) or kind not in MODEL_APPLY:
        raise DynamicError("UNKNOWN_MODEL_KIND", f"unknown model kind {kind!r}")
    intercept = document.get("intercept", 0.0)
    if not _is_number(intercept):
        raise _malformed("'intercept' must be a number")
    if kind == "NaiveBayes":
        theta = extra.get("featureLogLikelihood")
        if not (isinstance(theta, list) and theta and all(isinstance(r, list) for r in theta)):
            raise _malformed("'featureLogLikelihood' must be a nonempty list of lists")
        for row in theta:
            _numbers(row, "featureLogLikelihood", len(theta[0]))
        _numbers(extra.get("classLogPriors"), "classLogPriors", len(theta))
        classes = _numbers(extra.get("classes"), "classes", len(theta))
        if not all(isinstance(c, int) for c in classes):
            raise _malformed("'classes' must be integers")
    if kind == "MaxAbsScaler":
        _numbers(extra.get("maxAbs"), "maxAbs")
    artifact = ModelArtifact(
        kind=kind,
        params=_checked_params(kind, document.get("params", {})),
        weights=_numbers(document.get("weights", []), "weights"),
        intercept=intercept,
        extra=extra,
    )
    return make_model_item(artifact)


def load_model(path, pos=None) -> FunctionItem:
    """The model whose document is at `path`; an I/O error is located at `pos`."""
    source = _model_path(path, "read", pos)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as err:
        raise SourceIOError(f"cannot read model from {path}: {err}", pos) from err
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise DynamicError("UNKNOWN_MODEL_KIND", f"model file is not JSON: {err}") from err
    return _item_from_dict(document)
