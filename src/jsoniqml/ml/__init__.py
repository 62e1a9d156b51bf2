from .params import PARAM_SPECS, validate_params
from .persistence import load_model, save_model
from .registry import (
    ModelArtifact,
    features_matrix,
    get_estimator,
    get_stage,
    get_transformer,
    make_model_item,
)

__all__ = [
    "PARAM_SPECS",
    "ModelArtifact",
    "features_matrix",
    "get_estimator",
    "get_stage",
    "get_transformer",
    "load_model",
    "make_model_item",
    "save_model",
    "validate_params",
]
