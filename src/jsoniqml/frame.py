"""Columnar storage for validated homogeneous object sequences.

A frame pairs an ordered schema with one column vector per field. Scalar
numeric columns are flat numpy buffers; array columns hold a nondecreasing
offsets vector plus a flattened member column (dense vector storage); record
columns are nested column groups. Frames are immutable after construction
and observationally equivalent to the stream of their row objects.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import DynamicError
from .items import ArrayItem, AtomicValue, Item, ObjectItem, SequenceValue
from .schema import (
    FRAME_TO_ATOMIC,
    FrameColumnType,
    map_frame_type,
    parse_schema,
    validate_item,
)

_NUMPY_SCALAR = {
    "Byte": np.int64,
    "Short": np.int64,
    "Integer": np.int64,
    "Long": np.int64,
    "Double": np.float64,
    "Float": np.float64,
    "Boolean": np.bool_,
}

_LIST_SCALAR = {"String", "Decimal", "Date", "Timestamp", "Binary"}

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
# Column vectors
# ---------------------------------------------------------------------------


class ColumnVector:
    type: FrameColumnType

    def __len__(self) -> int:
        raise NotImplementedError

    def item_at(self, i: int) -> Item:
        raise NotImplementedError

    def take(self, indices: np.ndarray) -> "ColumnVector":
        raise NotImplementedError


class ScalarColumn(ColumnVector):
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


class ArrayColumn(ColumnVector):
    def __init__(self, ctype: FrameColumnType, offsets: np.ndarray, flat: ColumnVector):
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


class RecordColumn(ColumnVector):
    def __init__(self, ctype: FrameColumnType, children: "list[tuple[str, ColumnVector]]", nrows: int):
        assert ctype.kind == "Record"
        self.type = ctype
        self.children = children
        self.nrows = nrows

    def __len__(self) -> int:
        return self.nrows

    def item_at(self, i: int) -> Item:
        return ObjectItem({name: col.item_at(i) for name, col in self.children})

    def take(self, indices: np.ndarray) -> "RecordColumn":
        return RecordColumn(
            self.type, [(n, c.take(indices)) for n, c in self.children], len(indices)
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _mismatch(expected: str, item) -> DynamicError:
    got = type(item).__name__
    return DynamicError("SCHEMA_MISMATCH", f"column expects {expected}, got {got}")


class _ScalarBuilder:
    def __init__(self, ctype: FrameColumnType):
        self.ctype = ctype
        self.kind = FRAME_TO_ATOMIC[ctype.kind]
        typecode = _ARRAY_TYPECODE.get(ctype.kind)
        self.values = [] if typecode is None else array(typecode)
        self.count = 0

    def append(self, item: Item):
        if not isinstance(item, AtomicValue) or item.kind != self.kind:
            raise _mismatch(self.kind, item)
        self.count += 1
        if self.ctype.kind != "Null":
            self.values.append(item.value)

    def finish(self) -> ScalarColumn:
        if self.ctype.kind == "Null":
            return ScalarColumn(self.ctype, self.count)
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
        if not isinstance(item, ArrayItem):
            raise _mismatch("array", item)
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
        if not isinstance(item, ObjectItem):
            raise _mismatch("object", item)
        for name, builder in self.children:
            if name not in item.pairs:
                raise _mismatch(f"field {name}", item)
            builder.append(item.pairs[name])
        self.count += 1

    def finish(self) -> RecordColumn:
        return RecordColumn(
            self.ctype, [(n, b.finish()) for n, b in self.children], self.count
        )


def make_builder(ctype: FrameColumnType):
    if ctype.kind == "Array":
        return _ArrayBuilder(ctype)
    if ctype.kind == "Record":
        return _RecordBuilder(ctype)
    return _ScalarBuilder(ctype)


# ---------------------------------------------------------------------------
# Frame
# ---------------------------------------------------------------------------


@dataclass
class Frame:
    schema: "list[tuple[str, FrameColumnType]]"
    columns: "list[ColumnVector]"
    nrows: int

    def __post_init__(self):
        for (name, _), col in zip(self.schema, self.columns):
            if len(col) != self.nrows:
                raise DynamicError(
                    "SCHEMA_MISMATCH", f"column {name} has {len(col)} rows, frame has {self.nrows}"
                )

    def column_names(self) -> "list[str]":
        return [name for name, _ in self.schema]

    def column(self, name: str) -> "tuple[FrameColumnType, ColumnVector]":
        for (cname, ctype), col in zip(self.schema, self.columns):
            if cname == name:
                return ctype, col
        raise DynamicError("UNKNOWN_COLUMN", f"no column named {name!r}")

    def has_column(self, name: str) -> bool:
        return any(cname == name for cname, _ in self.schema)

    def row_item(self, i: int) -> ObjectItem:
        return ObjectItem(
            {name: col.item_at(i) for (name, _), col in zip(self.schema, self.columns)}
        )

    def iter_items(self) -> Iterator[ObjectItem]:
        for i in range(self.nrows):
            yield self.row_item(i)

    def take(self, indices: np.ndarray) -> "Frame":
        return Frame(list(self.schema), [c.take(indices) for c in self.columns], len(indices))

    def with_column(self, name: str, ctype: FrameColumnType, column: ColumnVector) -> "Frame":
        if self.has_column(name):
            raise DynamicError("DUPLICATE_COLUMN", f"column {name!r} already exists")
        return Frame(
            list(self.schema) + [(name, ctype)], list(self.columns) + [column], self.nrows
        )


def record_type_of(frame: Frame) -> FrameColumnType:
    return FrameColumnType("Record", fields=tuple(frame.schema))


# ---------------------------------------------------------------------------
# Frame operations
# ---------------------------------------------------------------------------


def frame_from_items(rows: "Iterable[Item]", record: FrameColumnType) -> Frame:
    """Columnar transpose of already-validated rows."""
    if record.kind != "Record":
        raise DynamicError("MALFORMED_SCHEMA", "frame schema must be a record type")
    builders = [(name, make_builder(t)) for name, t in record.fields]
    nrows = 0
    for row in rows:
        if not isinstance(row, ObjectItem):
            raise _mismatch("object row", row)
        if set(row.pairs.keys()) != {n for n, _ in record.fields}:
            raise DynamicError("SCHEMA_MISMATCH", "row fields do not match the schema")
        for name, builder in builders:
            builder.append(row.pairs[name])
        nrows += 1
    return Frame(
        [(name, t) for name, t in record.fields],
        [b.finish() for _, b in builders],
        nrows,
    )


def frame_to_items(frame: Frame) -> SequenceValue:
    """Stream the rows back as objects, field names in schema order."""
    return SequenceValue.from_iter(frame.iter_items())


def annotate_rows(rows: "Iterable[Item]", descriptor: Item) -> Frame:
    """Validate each row against the descriptor and store columnar.

    Rows are consumed one at a time and go straight into column builders, so
    the item sequence is never materialized. Validation failures carry the
    0-based row index.
    """
    td = parse_schema(descriptor)
    if td.kind != "record":
        raise DynamicError("MALFORMED_SCHEMA", "annotate requires an object schema")
    record = map_frame_type(td)
    builders = [(name, make_builder(t)) for name, t in record.fields]
    nrows = 0
    for row in rows:
        if not isinstance(row, ObjectItem):
            raise DynamicError(
                "NON_OBJECT_ROW", f"row {nrows} is not an object ({type(row).__name__})"
            )
        try:
            validated = validate_item(row, td)
        except DynamicError as err:
            raise DynamicError(err.code, f"row {nrows}: {err.message}") from err
        for name, builder in builders:
            builder.append(validated.pairs[name])
        nrows += 1
    return Frame(
        [(name, t) for name, t in record.fields],
        [b.finish() for _, b in builders],
        nrows,
    )


def frame_filter(
    frame: Frame,
    predicate: "Callable[[ObjectItem], bool]",
    block_size: Optional[int] = None,
) -> Frame:
    """Keep rows whose predicate holds; order and schema are unchanged.

    `block_size` chunks the row range; results are independent of it.
    """
    step = block_size or max(frame.nrows, 1)
    masks = []
    for start in range(0, frame.nrows, step):
        block = np.zeros(min(step, frame.nrows - start), dtype=bool)
        for k in range(len(block)):
            i = start + k
            try:
                block[k] = predicate(frame.row_item(i))
            except DynamicError as err:
                raise DynamicError(err.code, f"row {i}: {err.message}", err.position) from err
        masks.append(block)
    if masks:
        mask = np.concatenate(masks)
        indices = np.nonzero(mask)[0]
    else:
        indices = np.zeros(0, dtype=np.int64)
    return frame.take(indices)


def frame_add_column(
    frame: Frame, name: str, ctype: FrameColumnType, generator: "Callable[[ObjectItem], Item]"
) -> Frame:
    """Append a generated column; existing columns are shared unchanged."""
    if frame.has_column(name):
        raise DynamicError("DUPLICATE_COLUMN", f"column {name!r} already exists")
    builder = make_builder(ctype)
    for i in range(frame.nrows):
        builder.append(generator(frame.row_item(i)))
    return frame.with_column(name, ctype, builder.finish())


def frame_project(frame: Frame, names: "list[str]") -> Frame:
    cols = []
    schema = []
    for name in names:
        ctype, col = frame.column(name)
        schema.append((name, ctype))
        cols.append(col)
    return Frame(schema, cols, frame.nrows)


def frame_count(frame: Frame) -> int:
    return frame.nrows
