"""Columnar storage for validated homogeneous object sequences.

A frame is a record column: named child columns of equal length under a
record type, one per field. Scalar numeric columns are flat numpy buffers;
array columns hold a nondecreasing offsets vector plus a flattened member
column (dense vector storage); a nested record column is itself a frame.
Frames are immutable after construction and observationally equivalent to
the stream of their row objects: a top-level frame is the value of every
`frame`-mode iterator, and answers the sequence calls (`iter_items`, `count`,
`materialize`) that item consumers make.

Both forms of `annotate` check rows against the record type the schema
parses to. Local mode streams `validated_rows`, which builds each validated
row through `validate_item`. Frame mode, `annotate_rows`, is a sink: each
column builder's `put` checks one value (field count, names and kinds, in
schema order) and casts it straight into the column's payload buffer, so no
atom, object or array is built. A row a builder rejects is validated again
by `validate_item`, so every error, with its `row i:` prefix and its path,
is the validator's.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DynamicError, MaterializationCapError
from .items import ArrayItem, AtomicValue, Item, ObjectItem, cast_value
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
        starts = self.offsets[indices]
        lengths = self.offsets[indices + 1] - starts
        new_offsets = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_offsets[1:])
        # member j of taken row r sits at starts[r] + (j - new_offsets[r])
        shift = np.repeat(starts - new_offsets[:-1], lengths)
        flat_idx = np.arange(new_offsets[-1], dtype=np.int64) + shift
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

    def count(self) -> int:
        return self.nrows

    def materialize(self, cap: int) -> "list[ObjectItem]":
        """The rows as objects; a frame of more than `cap` rows raises."""
        if self.nrows > cap:
            raise MaterializationCapError(cap)
        return list(self.iter_items())

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
# Builders: `put` checks one value against the builder's type and appends
# its payload, cast to the declared kind; it returns False, possibly after
# appending part of the value, where `validate_item` would raise. Then the
# caller gives up the build and asks the validator for the error.
# ---------------------------------------------------------------------------


class _ScalarBuilder:
    def __init__(self, ctype: FrameColumnType):
        self.ctype = ctype
        self.target = FRAME_TO_ATOMIC[ctype.kind]
        typecode = _ARRAY_TYPECODE.get(ctype.kind)
        self.values = [] if typecode is None else array(typecode)

    def put(self, item: Item) -> bool:
        if item.__class__ is not AtomicValue:
            return False
        try:
            self.values.append(cast_value(item.kind, item.value, self.target))
        except DynamicError:
            return False
        return True

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

    def put(self, item: Item) -> bool:
        if item.__class__ is not ArrayItem:
            return False
        put = self.flat.put
        for member in item.members:
            if not put(member):
                return False
        self.offsets.append(self.offsets[-1] + len(item.members))
        return True

    def finish(self) -> ArrayColumn:
        return ArrayColumn(
            self.ctype, np.array(self.offsets, dtype=np.int64), self.flat.finish()
        )


class _RecordBuilder:
    def __init__(self, ctype: FrameColumnType):
        self.ctype = ctype
        self.children = [(name, make_builder(t)) for name, t in ctype.fields]
        self.puts = tuple([(name, builder.put) for name, builder in self.children])
        self.count = 0

    def put(self, item: Item) -> bool:
        # exactly the declared fields: as many as declared, each of them present
        if item.__class__ is not ObjectItem:
            return False
        pairs = item.pairs
        if len(pairs) != len(self.puts):
            return False
        for name, put in self.puts:
            value = pairs.get(name)
            if value is None or not put(value):
                return False
        self.count += 1
        return True

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


def _validated_row(i: int, row: Item, record: FrameColumnType, pos) -> ObjectItem:
    """Row `i` validated against the record type; failures carry the row
    index and the source position `pos`."""
    if not isinstance(row, ObjectItem):
        raise DynamicError(
            "NON_OBJECT_ROW", f"row {i} is not an object ({type(row).__name__})", pos
        )
    try:
        return validate_item(row, record)
    except DynamicError as err:
        raise DynamicError(err.code, f"row {i}: {err.message}", pos) from err


def validated_rows(
    rows: "Iterable[Item]", record: FrameColumnType, pos=None
) -> "Iterator[ObjectItem]":
    """Validate each row against the record type, lazily, one at a time."""
    for i, row in enumerate(rows):
        yield _validated_row(i, row, record, pos)


def annotate_rows(rows: "Iterable[Item]", descriptor: Item) -> Frame:
    """Validate each row against the descriptor and store columnar.

    Rows are consumed one at a time and cast straight into column builders,
    so neither the item sequence nor a validated row is ever built. A row
    the builders reject is validated again, to raise the validator's error.
    """
    record = annotate_schema(descriptor)
    builder = _RecordBuilder(record)
    put = builder.put
    for i, row in enumerate(rows):
        if not put(row):
            _validated_row(i, row, record, None)
            raise AssertionError(f"row {i}: the column builders rejected a valid row")
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
