"""Compact schema descriptors and validation against them.

A descriptor is itself an item: a string names an atomic type, a one-element
array wraps a member type, and an object maps field names to nested
descriptors. Parsing a descriptor yields its frame column type directly, and
validation walks that type. Validation is cast-based: atomic values are
coerced to the declared kind, all declared fields are required, and
undeclared fields are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DynamicError
from .items import (
    ArrayItem,
    AtomicValue,
    Item,
    ObjectItem,
    atomic_cast,
)


@dataclass(frozen=True)
class FrameColumnType:
    kind: str  # Byte Short Integer Long Boolean Double Float Decimal String
    #            Null Date Timestamp Binary Array Record
    member: "Optional[FrameColumnType]" = None
    fields: "Optional[tuple[tuple[str, FrameColumnType], ...]]" = None


# The atomic names admitted in schemas and the frame kind each maps to.
# Arbitrary-precision `integer` is intentionally not among them.
ATOMIC_TO_FRAME = {
    "byte": "Byte",
    "short": "Short",
    "int": "Integer",
    "long": "Long",
    "boolean": "Boolean",
    "double": "Double",
    "float": "Float",
    "decimal": "Decimal",
    "string": "String",
    "null": "Null",
    "date": "Date",
    "dateTime": "Timestamp",
    "hexBinary": "Binary",
}

# The frame vocabulary maps back onto item kinds one-to-one.
FRAME_TO_ATOMIC = {v: k for k, v in ATOMIC_TO_FRAME.items()}


def parse_schema(descriptor: Item) -> FrameColumnType:
    """Parse a descriptor item into the frame type it declares."""
    if isinstance(descriptor, AtomicValue):
        if descriptor.kind != "string":
            raise DynamicError(
                "MALFORMED_SCHEMA", f"atomic type name must be a string, got {descriptor.kind}"
            )
        name = descriptor.value
        if name not in ATOMIC_TO_FRAME:
            raise DynamicError("UNKNOWN_TYPE_NAME", f"unknown type name {name!r}")
        return FrameColumnType(ATOMIC_TO_FRAME[name])
    if isinstance(descriptor, ArrayItem):
        if len(descriptor.members) != 1:
            raise DynamicError(
                "MALFORMED_SCHEMA",
                f"array descriptor must have exactly one member, got {len(descriptor.members)}",
            )
        return FrameColumnType("Array", member=parse_schema(descriptor.members[0]))
    if isinstance(descriptor, ObjectItem):
        return FrameColumnType(
            "Record",
            fields=tuple((name, parse_schema(sub)) for name, sub in descriptor.pairs.items()),
        )
    raise DynamicError("MALFORMED_SCHEMA", "descriptor must be a string, array, or object")


def _fail(path: str, reason: str):
    raise DynamicError("VALIDATION_ERROR", f"at {path}: {reason}")


def validate_item(item: Item, ctype: FrameColumnType, path: str = "$") -> Item:
    """Return the annotated item: atomics cast to the declared kind, records
    checked for exactly the declared fields, arrays validated member-wise."""
    if ctype.kind == "Record":
        if not isinstance(item, ObjectItem):
            _fail(path, "expected an object")
        out = {}
        for name, sub in ctype.fields:
            if name not in item.pairs:
                _fail(f"{path}.{name}", "missing field")
            out[name] = validate_item(item.pairs[name], sub, f"{path}.{name}")
        # `out` now holds exactly the declared fields
        for name in item.pairs:
            if name not in out:
                _fail(f"{path}.{name}", "field not declared in schema")
        return ObjectItem(out)
    if ctype.kind == "Array":
        if not isinstance(item, ArrayItem):
            _fail(path, "expected an array")
        return ArrayItem(
            [validate_item(m, ctype.member, f"{path}[{i}]") for i, m in enumerate(item.members)]
        )
    kind = FRAME_TO_ATOMIC[ctype.kind]
    if not isinstance(item, AtomicValue):
        _fail(path, f"expected an atomic of kind {kind}")
    if item.kind == "null" and kind != "null":
        _fail(path, f"null is not a {kind}")
    try:
        return atomic_cast(item, kind)
    except DynamicError as err:
        _fail(path, f"cannot cast {item.kind} to {kind}: {err.message}")
    raise AssertionError  # unreachable
