"""Model persistence.

A fitted model serializes to a JSON document with frozen top-level keys
{"kind", "params", "weights", "intercept"} plus kind-specific fields
(pipeline stages nest recursively). Loading reconstructs a function item
with identical transform behavior.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import DynamicError, SourceIOError
from ..items import FunctionItem
from .params import TRANSFORMER_NAMES
from .registry import (
    ModelArtifact,
    artifact_to_dict,
    make_model_item,
    make_pipeline_model_item,
    make_transformer_item,
)

_MODEL_KINDS = ("LogisticRegression", "LinearSVC", "NaiveBayes", "MaxAbsScaler")
_FROZEN_KEYS = ("kind", "params", "weights", "intercept")


def save_model(model: FunctionItem, path) -> None:
    handle = getattr(model, "native", None)
    if handle is None or not handle.tag.startswith("model:") or handle.artifact is None:
        raise DynamicError(
            "UNKNOWN_MODEL_KIND", "only registry-created models can be persisted"
        )
    document = artifact_to_dict(handle.artifact)
    try:
        Path(path).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    except OSError as err:
        raise SourceIOError(f"cannot write model to {path}: {err}") from err


def _item_from_dict(document: dict) -> FunctionItem:
    if not isinstance(document, dict) or "kind" not in document:
        raise DynamicError("UNKNOWN_MODEL_KIND", "model document has no kind")
    kind = document["kind"]
    extra = {k: v for k, v in document.items() if k not in _FROZEN_KEYS}
    if kind == "Pipeline":
        stages = [_item_from_dict(stage) for stage in extra.get("stages", [])]
        return make_pipeline_model_item(stages)
    if kind in _MODEL_KINDS:
        artifact = ModelArtifact(
            kind=kind,
            params=document.get("params", {}),
            weights=document.get("weights", []),
            intercept=document.get("intercept", 0.0),
            extra=extra,
        )
        return make_model_item(artifact)
    if kind in TRANSFORMER_NAMES:
        return make_transformer_item(kind, document.get("params", {}))
    raise DynamicError("UNKNOWN_MODEL_KIND", f"unknown model kind {kind!r}")


def load_model(path) -> FunctionItem:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise SourceIOError(f"cannot read model from {path}: {err}") from err
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise DynamicError("UNKNOWN_MODEL_KIND", f"model file is not JSON: {err}") from err
    return _item_from_dict(document)
