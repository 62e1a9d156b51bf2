"""LibSVM text writer: `<label> 1:<v1> 2:<v2> ...` with 1-based indices and
zero-valued entries omitted."""

from __future__ import annotations

from pathlib import Path

from .errors import DynamicError, SourceIOError
from .frame import Frame
from .items import render_double


def _render_label(value, kind: str) -> str:
    if kind in ("Byte", "Short", "Integer", "Long"):
        return str(int(value))
    if kind in ("Double", "Float"):
        return render_double(float(value))
    if kind == "Decimal":
        return str(value)
    raise DynamicError("TYPE_ERROR", f"label column of type {kind} is not numeric")


def write_libsvm(frame: Frame, label_col: str, features_col: str, path) -> None:
    labels = frame.column(label_col)
    features = frame.column(features_col)
    label_type, features_type = labels.type, features.type
    if not (features_type.kind == "Array" and features_type.member.kind == "Double"):
        raise DynamicError(
            "TYPE_ERROR", f"column {features_col!r} is not a vector of doubles"
        )
    if label_type.kind == "Null" or label_type.kind in ("String", "Boolean", "Date", "Timestamp", "Binary", "Array", "Record"):
        raise DynamicError("TYPE_ERROR", f"label column of type {label_type.kind} is not numeric")

    offsets = features.offsets
    flat = features.flat.values
    lines = []
    for i in range(frame.nrows):
        parts = [_render_label(labels.values[i], label_type.kind)]
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        for j in range(lo, hi):
            value = float(flat[j])
            if value != 0.0:
                parts.append(f"{j - lo + 1}:{render_double(value)}")
        lines.append(" ".join(parts))
    try:
        Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    except OSError as err:
        raise SourceIOError(f"cannot write {path}: {err}") from err
