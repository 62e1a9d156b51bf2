"""Columnar storage for validated homogeneous object sequences.

A frame is a record column: named child columns of equal length under a
record type, one per field. Scalar numeric columns are flat numpy buffers;
array columns hold a nondecreasing offsets vector plus a flattened member
column (dense vector storage); a nested record column is itself a frame.
Frames are immutable after construction and observationally equivalent to
the stream of their row objects.

`annotate` has one row loop, `validated_rows`: it checks each row against
the frame type the schema parses to, through `validate_item`. Local mode
streams its output; `annotate_rows` transposes it into column builders,
which append without checking again.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DynamicError
from .items import ArrayItem, AtomicValue, Item, ObjectItem
from .schema import FRAME_TO_ATOMIC, FrameColumnType, parse_schema, validate_item

_NUMPY_SCALAR = {
    "Byte": np.int64,
    "Short": np.int64,
    "Integer": np.int64,
    "Long": np.int64,
    "Double": np.float64,
    "Float": np.float64,
    "Boolean": np.bool_,
}

# builders collect these kinds unboxed, eight bytes a value
_ARRAY_TYPECODE = {
    "Byte": "q",
    "Short": "q",
    "Integer": "q",
    "Long": "q",
    "Double": "d",
    "Float": "d",
}


# ---------------------------------------------------------------------------
# Column vectors: each has a `type`, a length, `item_at` and `take`; a record
# column is a `Frame`.
# ---------------------------------------------------------------------------


class ScalarColumn:
    def __init__(self, ctype: FrameColumnType, values):
        self.type = ctype
        self.values = values  # numpy array, plain list, or int count for Null

    def __len__(self) -> int:
        if self.type.kind == "Null":
            return self.values
        return len(self.values)

    def item_at(self, i: int) -> Item:
        kind = FRAME_TO_ATOMIC[self.type.kind]
        if self.type.kind == "Null":
            return AtomicValue("null", None)
        v = self.values[i]
        if isinstance(v, np.generic):
            v = v.item()
        return AtomicValue(kind, v)

    def take(self, indices: np.ndarray) -> "ScalarColumn":
        if self.type.kind == "Null":
            return ScalarColumn(self.type, len(indices))
        if isinstance(self.values, np.ndarray):
            return ScalarColumn(self.type, self.values[indices])
        return ScalarColumn(self.type, [self.values[i] for i in indices])


class ArrayColumn:
    def __init__(self, ctype: FrameColumnType, offsets: np.ndarray, flat):
        assert ctype.kind == "Array"
        self.type = ctype
        self.offsets = offsets  # int64, length nrows + 1, nondecreasing
        self.flat = flat

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def item_at(self, i: int) -> Item:
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return ArrayItem([self.flat.item_at(j) for j in range(lo, hi)])

    def take(self, indices: np.ndarray) -> "ArrayColumn":
        lengths = self.offsets[indices + 1] - self.offsets[indices]
        new_offsets = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_offsets[1:])
        if len(indices):
            flat_idx = np.concatenate(
                [np.arange(self.offsets[i], self.offsets[i + 1]) for i in indices]
            )
        else:
            flat_idx = np.zeros(0, dtype=np.int64)
        return ArrayColumn(self.type, new_offsets, self.flat.take(flat_idx))


class Frame:
    """Named columns of equal length under a record type: the top level of an
    annotated sequence, and every record column nested in it."""

    def __init__(self, ctype: FrameColumnType, children: list, nrows: int):
        assert ctype.kind == "Record"
        self.type = ctype
        self.children = children  # [(name, column)] in field order
        self.nrows = nrows

    def __len__(self) -> int:
        return self.nrows

    def item_at(self, i: int) -> ObjectItem:
        return ObjectItem({name: col.item_at(i) for name, col in self.children})

    # a row of the top level is read through `row_item` and a nested record
    # through `item_at`, so that perfbench/tracing.py can count row reads
    row_item = item_at

    def iter_items(self) -> Iterator[ObjectItem]:
        for i in range(self.nrows):
            yield self.row_item(i)

    def take(self, indices: np.ndarray) -> "Frame":
        return Frame(self.type, [(n, c.take(indices)) for n, c in self.children], len(indices))

    def column(self, name: str) -> "ScalarColumn | ArrayColumn | Frame":
        for cname, col in self.children:
            if cname == name:
                return col
        raise DynamicError("UNKNOWN_COLUMN", f"no column named {name!r}")

    def with_column(self, name: str, column) -> "Frame":
        if any(cname == name for cname, _ in self.children):
            raise DynamicError("DUPLICATE_COLUMN", f"column {name!r} already exists")
        if len(column) != self.nrows:
            raise DynamicError(
                "SCHEMA_MISMATCH", f"column {name} has {len(column)} rows, frame has {self.nrows}"
            )
        ctype = FrameColumnType("Record", fields=self.type.fields + ((name, column.type),))
        return Frame(ctype, self.children + [(name, column)], self.nrows)


# ---------------------------------------------------------------------------
# Builders: they append rows that `validate_item` has already checked, so
# they check nothing themselves.
# ---------------------------------------------------------------------------


class _ScalarBuilder:
    def __init__(self, ctype: FrameColumnType):
        self.ctype = ctype
        typecode = _ARRAY_TYPECODE.get(ctype.kind)
        self.values = [] if typecode is None else array(typecode)

    def append(self, item: Item):
        self.values.append(item.value)

    def finish(self) -> ScalarColumn:
        if self.ctype.kind == "Null":
            return ScalarColumn(self.ctype, len(self.values))
        np_type = _NUMPY_SCALAR.get(self.ctype.kind)
        if np_type is not None:
            return ScalarColumn(self.ctype, np.array(self.values, dtype=np_type))
        return ScalarColumn(self.ctype, self.values)


class _ArrayBuilder:
    def __init__(self, ctype: FrameColumnType):
        self.ctype = ctype
        self.flat = make_builder(ctype.member)
        self.offsets = [0]

    def append(self, item: Item):
        for member in item.members:
            self.flat.append(member)
        self.offsets.append(self.offsets[-1] + len(item.members))

    def finish(self) -> ArrayColumn:
        return ArrayColumn(
            self.ctype, np.array(self.offsets, dtype=np.int64), self.flat.finish()
        )


class _RecordBuilder:
    def __init__(self, ctype: FrameColumnType):
        self.ctype = ctype
        self.children = [(name, make_builder(t)) for name, t in ctype.fields]
        self.count = 0

    def append(self, item: Item):
        pairs = item.pairs
        for name, builder in self.children:
            builder.append(pairs[name])
        self.count += 1

    def finish(self) -> Frame:
        return Frame(self.ctype, [(n, b.finish()) for n, b in self.children], self.count)


def make_builder(ctype: FrameColumnType):
    if ctype.kind == "Array":
        return _ArrayBuilder(ctype)
    if ctype.kind == "Record":
        return _RecordBuilder(ctype)
    return _ScalarBuilder(ctype)


# ---------------------------------------------------------------------------
# Frame operations
# ---------------------------------------------------------------------------


def annotate_schema(descriptor: Item) -> FrameColumnType:
    """The record type an `annotate` descriptor declares."""
    record = parse_schema(descriptor)
    if record.kind != "Record":
        raise DynamicError("MALFORMED_SCHEMA", "annotate requires an object schema")
    return record


def validated_rows(
    rows: "Iterable[Item]", record: FrameColumnType, pos=None
) -> "Iterator[ObjectItem]":
    """Validate each row against the record type, lazily, one at a time.

    Failures carry the 0-based row index and the source position `pos`.
    """
    for i, row in enumerate(rows):
        if not isinstance(row, ObjectItem):
            raise DynamicError(
                "NON_OBJECT_ROW", f"row {i} is not an object ({type(row).__name__})", pos
            )
        try:
            validated = validate_item(row, record)
        except DynamicError as err:
            raise DynamicError(err.code, f"row {i}: {err.message}", pos) from err
        yield validated


def annotate_rows(rows: "Iterable[Item]", descriptor: Item) -> Frame:
    """Validate each row against the descriptor and store columnar.

    Rows are consumed one at a time and go straight into column builders, so
    the item sequence is never materialized.
    """
    record = annotate_schema(descriptor)
    builder = _RecordBuilder(record)
    for row in validated_rows(rows, record):
        builder.append(row)
    return builder.finish()


def frame_filter(frame: Frame, predicate: "Callable[[ObjectItem], bool]") -> Frame:
    """Keep rows whose predicate holds; order and schema are unchanged."""
    mask = np.zeros(frame.nrows, dtype=bool)
    for i in range(frame.nrows):
        try:
            mask[i] = predicate(frame.row_item(i))
        except DynamicError as err:
            raise DynamicError(err.code, f"row {i}: {err.message}", err.position) from err
    return frame.take(np.nonzero(mask)[0])
