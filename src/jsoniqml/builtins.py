"""Builtin function catalog.

Each entry declares the builtin's execution-mode behavior (looked up during
inference) and its evaluator. Builtin arguments arrive as lazily evaluated
sequences or frames; aggregates like count and sinks like annotate consume
them without materializing. In `frame` mode `annotate` returns the `Frame`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from .errors import DynamicError, SourceIOError
from .frame import annotate_rows, annotate_schema, validated_rows
from .items import (
    AtomicValue,
    FunctionItem,
    Item,
    SequenceValue,
    at_most_one,
    render_atomic,
    trusted_atomic,
)
from .ml import get_stage, load_model, save_model
from .modes import FRAME_MODE, ST_ESTIMATOR, ST_TRANSFORMER
# unused here, but perfbench/tracing.py swaps `validate_item` in this module
# as well as in `frame`, so the name must stay bound
from .schema import validate_item  # noqa: F401


@dataclass(frozen=True)
class BuiltinSpec:
    key: str
    result_mode: str  # "one" | "seq" | "frame"
    static_type: Optional[str]
    fn: Callable
    # one-argument builtins may also take their argument as a bare item
    # (None when empty), for callers that hold it unboxed
    item_fn: Optional[Callable] = None


def _single_item(seq, what: str) -> Item:
    message = f"{what} expects exactly one item"
    item = at_most_one(seq, "TYPE_ERROR", message)
    if item is None:
        raise DynamicError("TYPE_ERROR", message)
    return item


def _string_arg(seq, what: str) -> str:
    item = at_most_one(seq, "TYPE_ERROR", f"{what} expects at most one item")
    if item is None:
        return ""
    if not (isinstance(item, AtomicValue) and item.kind == "string"):
        raise DynamicError("TYPE_ERROR", f"{what} expects a string")
    return item.value


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
    item = at_most_one(args[0], "TYPE_ERROR", "string() expects at most one item")
    return SequenceValue.single(_string_of(item))


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
        return annotate_rows(rows.iter_items(), descriptor)
    # local mode validates lazily; a bad row raises at this call's position
    # even though the rows are pulled after it returns
    record = annotate_schema(descriptor)
    return SequenceValue.from_iter(validated_rows(rows.iter_items(), record, it.node.pos))


def _bi_get_stage(role, ev, it, ctx, args):
    name = _single_item(args[0], f"get-{role} name")
    params = _single_item(args[1], f"get-{role} parameters")
    return SequenceValue.single(get_stage(role, name, params))


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
        BuiltinSpec("get-transformer#2", "one", ST_TRANSFORMER, partial(_bi_get_stage, "transformer")),
        BuiltinSpec("get-estimator#2", "one", ST_ESTIMATOR, partial(_bi_get_stage, "estimator")),
        BuiltinSpec("save-model#2", "seq", None, _bi_save_model),
        BuiltinSpec("load-model#1", "one", ST_TRANSFORMER, _bi_load_model),
    )
}
