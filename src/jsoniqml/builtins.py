"""Builtin function catalog.

Each entry declares the builtin's execution-mode behavior (looked up during
inference) and its evaluator. Builtin arguments arrive as lazily evaluated
sequences; aggregates like count and sinks like annotate consume them
without materializing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .errors import DynamicError, SourceIOError
from .frame import annotate_rows
from .items import (
    AtomicValue,
    FunctionItem,
    Item,
    ObjectItem,
    SequenceValue,
    render_atomic,
    trusted_atomic,
)
from .ml import get_estimator, get_transformer, load_model, save_model
from .modes import FRAME_MODE, ST_ESTIMATOR, ST_TRANSFORMER
from .schema import parse_schema, validate_item


@dataclass(frozen=True)
class BuiltinSpec:
    key: str
    result_mode: str  # "one" | "seq" | "frame"
    static_type: Optional[str]
    fn: Callable
    # one-argument builtins may also take their argument as a bare item
    # (None when empty), for callers that hold it unboxed
    item_fn: Optional[Callable] = None


def _single_item(seq: SequenceValue, what: str) -> Item:
    items = seq.iter_items()
    first = next(items, None)
    if first is None or next(items, None) is not None:
        raise DynamicError("TYPE_ERROR", f"{what} expects exactly one item")
    return first


def _string_arg(seq: SequenceValue, what: str) -> str:
    items = seq.iter_items()
    first = next(items, None)
    if first is None:
        return ""
    if next(items, None) is not None:
        raise DynamicError("TYPE_ERROR", f"{what} expects at most one item")
    if not (isinstance(first, AtomicValue) and first.kind == "string"):
        raise DynamicError("TYPE_ERROR", f"{what} expects a string")
    return first.value


def _bi_unparsed_text_lines(ev, it, ctx, args):
    uri = _string_arg(args[0], "unparsed-text-lines")
    path = Path(uri)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as err:
        raise SourceIOError(f"cannot open {uri}: {err}", it.node.pos) from err

    def lines():
        with handle:
            try:
                for line in handle:
                    yield AtomicValue("string", line.rstrip("\r\n"))
            except UnicodeDecodeError as err:
                raise SourceIOError(f"cannot read {uri}: {err}", it.node.pos) from err

    return SequenceValue.from_iter(lines())


def _bi_tokenize(ev, it, ctx, args):
    text = _string_arg(args[0], "tokenize")
    sep = _string_arg(args[1], "tokenize separator")
    if sep == "":
        raise DynamicError("TYPE_ERROR", "tokenize separator must be nonempty")
    if text == "":
        return SequenceValue.empty()
    parts = text.split(sep)
    if text.endswith(sep):
        parts = parts[:-1]
    return SequenceValue.from_list([trusted_atomic("string", p) for p in parts])


def _bi_contains(ev, it, ctx, args):
    haystack = _string_arg(args[0], "contains")
    needle = _string_arg(args[1], "contains")
    return SequenceValue.single(AtomicValue("boolean", needle in haystack))


def _bi_head(ev, it, ctx, args):
    first = next(args[0].iter_items(), None)
    if first is None:
        return SequenceValue.empty()
    return SequenceValue.single(first)


def _bi_tail(ev, it, ctx, args):
    def gen():
        items = args[0].iter_items()
        next(items, None)
        yield from items

    return SequenceValue.from_iter(gen())


def _bi_count(ev, it, ctx, args):
    return SequenceValue.single(AtomicValue("integer", args[0].count()))


def _bi_string(ev, it, ctx, args):
    items = args[0].iter_items()
    first = next(items, None)
    if first is not None and next(items, None) is not None:
        raise DynamicError("TYPE_ERROR", "string() expects at most one item")
    return SequenceValue.single(_string_of(first))


def _string_of(item: Optional[Item]) -> AtomicValue:
    if item is None:
        return trusted_atomic("string", "")
    if item.__class__ is not AtomicValue:
        raise DynamicError("TYPE_ERROR", "string() of an object, array, or function")
    return trusted_atomic("string", render_atomic(item))


def _bi_annotate(ev, it, ctx, args):
    descriptor = _single_item(args[1], "annotate schema")
    rows = args[0]
    if it.mode == FRAME_MODE:
        return SequenceValue.from_frame(annotate_rows(rows.iter_items(), descriptor))

    # local mode: validate lazily, one row at a time
    td = parse_schema(descriptor)
    if td.kind != "record":
        raise DynamicError("MALFORMED_SCHEMA", "annotate requires an object schema")

    def validated():
        index = 0
        for row in rows.iter_items():
            if not isinstance(row, ObjectItem):
                raise DynamicError(
                    "NON_OBJECT_ROW", f"row {index} is not an object ({type(row).__name__})"
                )
            try:
                yield validate_item(row, td)
            except DynamicError as err:
                raise DynamicError(err.code, f"row {index}: {err.message}") from err
            index += 1

    return SequenceValue.from_iter(validated())


def _bi_get_transformer(ev, it, ctx, args):
    name = _single_item(args[0], "get-transformer name")
    params = _single_item(args[1], "get-transformer parameters")
    return SequenceValue.single(get_transformer(name, params))


def _bi_get_estimator(ev, it, ctx, args):
    name = _single_item(args[0], "get-estimator name")
    params = _single_item(args[1], "get-estimator parameters")
    return SequenceValue.single(get_estimator(name, params))


def _bi_save_model(ev, it, ctx, args):
    model = _single_item(args[0], "save-model")
    if not isinstance(model, FunctionItem):
        raise DynamicError("UNKNOWN_MODEL_KIND", "save-model expects a model function item")
    path = _string_arg(args[1], "save-model path")
    save_model(model, path)
    return SequenceValue.empty()


def _bi_load_model(ev, it, ctx, args):
    path = _string_arg(args[0], "load-model path")
    return SequenceValue.single(load_model(path))


CATALOG: "dict[str, BuiltinSpec]" = {
    spec.key: spec
    for spec in (
        BuiltinSpec("unparsed-text-lines#1", "seq", None, _bi_unparsed_text_lines),
        BuiltinSpec("tokenize#2", "seq", None, _bi_tokenize),
        BuiltinSpec("contains#2", "one", None, _bi_contains),
        BuiltinSpec("head#1", "seq", None, _bi_head),
        BuiltinSpec("tail#1", "seq", None, _bi_tail),
        BuiltinSpec("count#1", "one", None, _bi_count),
        BuiltinSpec("string#1", "one", None, _bi_string, item_fn=_string_of),
        BuiltinSpec("annotate#2", "frame", None, _bi_annotate),
        BuiltinSpec("get-transformer#2", "one", ST_TRANSFORMER, _bi_get_transformer),
        BuiltinSpec("get-estimator#2", "one", ST_ESTIMATOR, _bi_get_estimator),
        BuiltinSpec("save-model#2", "seq", None, _bi_save_model),
        BuiltinSpec("load-model#1", "one", ST_TRANSFORMER, _bi_load_model),
    )
}
