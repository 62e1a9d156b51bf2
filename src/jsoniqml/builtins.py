"""Builtin function catalog and its one calling convention.

Each entry declares the builtin's result mode (looked up during inference),
its static type, one parameter reader per argument, and its body.

A reader turns one evaluated argument into the plain value the body takes:
`string_param` a Python str ("" for the empty sequence), `item_param` exactly
one item, `optional_param` at most one item (None when empty) and `SEQUENCE`
the items themselves. Every reader has two forms, and the runtime picks one
per argument at compile time from the argument's mode: `one` reads a
`local-one` argument's bare item (None when empty) and never builds a
sequence; `seq` reads a `SequenceValue` or a `Frame`. Every argument is
evaluated before the first reader runs, and the readers run in argument
order. The body receives the call's iterator (for its mode and position) and
the read values. A `"one"` builtin returns a bare item or None, a `"seq"`
builtin a `SequenceValue`, and `annotate` in `frame` mode the `Frame`.

A function item for a builtin (`tokenize#2`) applies the `seq` forms to its
boxed arguments and boxes a `"one"` result (`runtime._run_builtin_fnref`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from .errors import DynamicError, SourceIOError
from .frame import annotate_rows, annotate_schema, validated_rows
from .items import (
    FALSE,
    POSITION_STRINGS,
    SHARED_POSITIONS,
    TRUE,
    AtomicValue,
    FunctionItem,
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


def _identity(value):
    return value


class Param:
    """How a builtin reads one argument: `one` from a `local-one` argument's
    bare item (None when empty), `seq` from a `SequenceValue` or `Frame`.
    A plain class, as a dataclass would add about 0.7 ms to the import."""

    __slots__ = ("one", "seq")

    def __init__(self, one: Callable, seq: Callable):
        self.one = one
        self.seq = seq

    @property
    def direct(self) -> bool:
        """Whether a `local-one` argument is passed to the body as it is."""
        return self.one is _identity


def string_param(what: str) -> Param:
    """A string; "" for the empty sequence."""
    many, wrong = f"{what} expects at most one item", f"{what} expects a string"

    def from_item(item):
        if item is None:
            return ""
        if item.__class__ is not AtomicValue or item.kind != "string":
            raise DynamicError("TYPE_ERROR", wrong)
        return item.value

    return Param(from_item, lambda seq: from_item(at_most_one(seq, "TYPE_ERROR", many)))


def item_param(what: str, check: Optional[Callable] = None) -> Param:
    """Exactly one item, which `check` (if given) may reject by raising."""
    message = f"{what} expects exactly one item"

    def from_item(item):
        if item is None:
            raise DynamicError("TYPE_ERROR", message)
        if check is not None:
            check(item)
        return item

    return Param(from_item, lambda seq: from_item(at_most_one(seq, "TYPE_ERROR", message)))


def optional_param(what: str) -> Param:
    """At most one item; None for the empty sequence."""
    message = f"{what} expects at most one item"
    return Param(_identity, lambda seq: at_most_one(seq, "TYPE_ERROR", message))


def _one_as_items(item) -> tuple:
    return () if item is None else (item,)


# the items themselves: a tuple from a local-one argument, otherwise the
# SequenceValue or Frame as it is, for the body to read lazily
SEQUENCE = Param(_one_as_items, _identity)


def _iter_items(items):
    return iter(items) if items.__class__ is tuple else items.iter_items()


@dataclass(frozen=True)
class BuiltinSpec:
    key: str
    result_mode: str  # "one" | "seq" | "frame"
    static_type: Optional[str]
    fn: Callable  # fn(call iterator, *read arguments)
    params: "tuple[Param, ...]"


def _bi_unparsed_text_lines(it, uri):
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


def _bi_tokenize(it, text, sep):
    if sep == "":
        raise DynamicError("TYPE_ERROR", "tokenize separator must be nonempty")
    if text == "":
        return SequenceValue.empty()
    parts = text.split(sep)
    if text.endswith(sep):
        parts = parts[:-1]
    return SequenceValue.from_list([trusted_atomic("string", p) for p in parts])


def _bi_contains(it, haystack, needle):
    return TRUE if needle in haystack else FALSE


def _bi_head(it, items):
    return next(_iter_items(items), None)


def _bi_tail(it, items):
    if items.__class__ is tuple:
        return SequenceValue.empty()
    if items.__class__ is SequenceValue and isinstance(items._payload, list):
        return SequenceValue(SequenceValue.STREAM, items._payload[1:])

    def gen():
        rest = items.iter_items()
        next(rest, None)
        yield from rest

    return SequenceValue.from_iter(gen())


def _bi_count(it, items):
    return trusted_atomic("integer", len(items) if items.__class__ is tuple else items.count())


def _bi_string(it, item):
    if item is None:
        return trusted_atomic("string", "")
    if item.__class__ is not AtomicValue:
        raise DynamicError("TYPE_ERROR", "string() of an object, array, or function")
    if item.kind == "integer" and 0 <= item.value < SHARED_POSITIONS:
        return POSITION_STRINGS[item.value]
    return trusted_atomic("string", render_atomic(item))


def _bi_annotate(it, rows, descriptor):
    if it.mode == FRAME_MODE:
        return annotate_rows(_iter_items(rows), descriptor)
    # local mode validates lazily; a bad row raises at this call's position
    # even though the rows are pulled after it returns
    record = annotate_schema(descriptor)
    return SequenceValue.from_iter(validated_rows(_iter_items(rows), record, it.node.pos))


def _bi_get_stage(role, it, name, params):
    return get_stage(role, name, params)


def _check_model(item) -> None:
    if not isinstance(item, FunctionItem):
        raise DynamicError("UNKNOWN_MODEL_KIND", "save-model expects a model function item")


def _bi_save_model(it, model, path):
    save_model(model, path, it.node.pos)
    return SequenceValue.empty()


def _bi_load_model(it, path):
    return load_model(path, it.node.pos)


def _stage_params(role: str) -> tuple:
    return (item_param(f"get-{role} name"), item_param(f"get-{role} parameters"))


CATALOG: "dict[str, BuiltinSpec]" = {
    spec.key: spec
    for spec in (
        BuiltinSpec("unparsed-text-lines#1", "seq", None, _bi_unparsed_text_lines,
                    (string_param("unparsed-text-lines"),)),
        BuiltinSpec("tokenize#2", "seq", None, _bi_tokenize,
                    (string_param("tokenize"), string_param("tokenize separator"))),
        BuiltinSpec("contains#2", "one", None, _bi_contains,
                    (string_param("contains"), string_param("contains"))),
        BuiltinSpec("head#1", "one", None, _bi_head, (SEQUENCE,)),
        BuiltinSpec("tail#1", "seq", None, _bi_tail, (SEQUENCE,)),
        BuiltinSpec("count#1", "one", None, _bi_count, (SEQUENCE,)),
        BuiltinSpec("string#1", "one", None, _bi_string, (optional_param("string()"),)),
        BuiltinSpec("annotate#2", "frame", None, _bi_annotate,
                    (SEQUENCE, item_param("annotate schema"))),
        BuiltinSpec("get-transformer#2", "one", ST_TRANSFORMER,
                    partial(_bi_get_stage, "transformer"), _stage_params("transformer")),
        BuiltinSpec("get-estimator#2", "one", ST_ESTIMATOR,
                    partial(_bi_get_stage, "estimator"), _stage_params("estimator")),
        BuiltinSpec("save-model#2", "seq", None, _bi_save_model,
                    (item_param("save-model", _check_model), string_param("save-model path"))),
        BuiltinSpec("load-model#1", "one", ST_TRANSFORMER, _bi_load_model,
                    (string_param("load-model path"),)),
    )
}
