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
atom, object or array is built. A record whose fields are all `double` (the
paper's feature record) has one builder with one row-major buffer, which
casts a row field by field. A row a
builder rejects is validated again by `validate_item`, so every error, with
its `row i:` prefix and its path, is the validator's.

A batched annotate (`annotate_batches`) takes its rows a batch at a time as a
record vector: the column vectors of the fields, built by the row-building
vector operations at the end of this module. Each builder's `stage` checks
and casts a whole column of the batch (the `double` record's with C-level
`map`s over the string numerals that need no strip), and the batch is
committed only when every column stages; it refuses, leaving the batch to
`put` row by row, wherever a row's cast could fail or differ from `put`'s.
So a batch that lands holds no invalid row, and errors stay the validator's.

Rows leave a frame through one reader per column type, `items(lo, hi)`: a
scalar column turns one slice into Python values with `tolist` and builds
the checked atoms, an array column slices its members by the offsets, and a
record zips its children's items. `materialize` reads every row at once,
`iter_items` reads chunks that double from one row, and `item_at`/`row_item`
read one row.

`frame_filter` keeps the rows for which a lowered condition holds. It runs
the condition's column kernel first: numpy operations over only the columns
the condition references, which build no row. A frame has one column type
for the whole filter, so the kernel decides once per call whether it can be
exact, and refuses where it could differ from the per-row path. Only then
is each row read out as an object and the condition interpreted on it, which
raises the per-row error with its `row i:` prefix.
"""

from __future__ import annotations

import operator
from array import array
from functools import partial
from itertools import accumulate, chain, repeat
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import DynamicError, MaterializationCapError
from .items import (
    DOUBLE_RE,
    INT_BOUNDS,
    INTEGER_KINDS,
    NULL,
    ArrayItem,
    AtomicValue,
    Item,
    ObjectItem,
    cast_value,
    render_atomic,
    trusted_atomic,
)
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
# Column vectors: each has a `type`, a length, `items`, `item_at` and `take`;
# a record column is a `Frame`. `items(lo, hi)` reads rows lo..hi-1 out as
# items, a column at a time; every other read-out is a range of it.
# ---------------------------------------------------------------------------

# the most rows `Frame.iter_items` reads out at once
_CHUNK = 256


class _Column:
    def item_at(self, i: int) -> Item:
        return self.items(i, i + 1)[0]


class ScalarColumn(_Column):
    def __init__(self, ctype: FrameColumnType, values):
        self.type = ctype
        self.values = values  # numpy array, plain list, or int count for Null

    def __len__(self) -> int:
        if self.type.kind == "Null":
            return self.values
        return len(self.values)

    def items(self, lo: int, hi: int) -> "list[AtomicValue]":
        if self.type.kind == "Null":
            return [NULL] * (hi - lo)
        values = self.values[lo:hi]
        if isinstance(values, np.ndarray):
            values = values.tolist()  # Python scalars, as the atoms hold them
        return list(map(AtomicValue, repeat(FRAME_TO_ATOMIC[self.type.kind]), values))

    def take(self, indices: np.ndarray) -> "ScalarColumn":
        if self.type.kind == "Null":
            return ScalarColumn(self.type, len(indices))
        if isinstance(self.values, np.ndarray):
            return ScalarColumn(self.type, self.values[indices])
        return ScalarColumn(self.type, [self.values[i] for i in indices])


class ArrayColumn(_Column):
    def __init__(self, ctype: FrameColumnType, offsets: np.ndarray, flat):
        assert ctype.kind == "Array"
        self.type = ctype
        self.offsets = offsets  # int64, length nrows + 1, nondecreasing
        self.flat = flat

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def items(self, lo: int, hi: int) -> "list[ArrayItem]":
        offsets = self.offsets[lo : hi + 1].tolist()
        base = offsets[0]
        members = self.flat.items(base, offsets[-1])
        return [ArrayItem(members[a - base : b - base]) for a, b in zip(offsets, offsets[1:])]

    def take(self, indices: np.ndarray) -> "ArrayColumn":
        starts = self.offsets[indices]
        lengths = self.offsets[indices + 1] - starts
        new_offsets = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_offsets[1:])
        # member j of taken row r sits at starts[r] + (j - new_offsets[r])
        shift = np.repeat(starts - new_offsets[:-1], lengths)
        flat_idx = np.arange(new_offsets[-1], dtype=np.int64) + shift
        return ArrayColumn(self.type, new_offsets, self.flat.take(flat_idx))


class Frame(_Column):
    """Named columns of equal length under a record type: the top level of an
    annotated sequence, and every record column nested in it."""

    def __init__(self, ctype: FrameColumnType, children: list, nrows: int):
        assert ctype.kind == "Record"
        self.type = ctype
        self.children = children  # [(name, column)] in field order
        self.nrows = nrows

    def __len__(self) -> int:
        return self.nrows

    def items(self, lo: int, hi: int) -> "list[ObjectItem]":
        if not self.children:
            return [ObjectItem({}) for _ in range(lo, hi)]
        names = [name for name, _ in self.children]
        columns = [column.items(lo, hi) for _, column in self.children]
        return [ObjectItem(dict(zip(names, row))) for row in zip(*columns)]

    # one row of the top level, for the per-row filter path; perfbench/tracing.py
    # counts the calls
    row_item = _Column.item_at

    def iter_items(self) -> Iterator[ObjectItem]:
        # chunks double from one row, so a consumer that stops early reads little
        lo, size = 0, 1
        while lo < self.nrows:
            hi = min(lo + size, self.nrows)
            yield from self.items(lo, hi)
            lo, size = hi, min(2 * size, _CHUNK)

    def count(self) -> int:
        return self.nrows

    def materialize(self, cap: int) -> "list[ObjectItem]":
        """The rows as objects; a frame of more than `cap` rows raises."""
        if self.nrows > cap:
            raise MaterializationCapError(cap)
        return self.items(0, self.nrows)

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

    def stage(self, vector: tuple, n: int):
        return partial(self.values.extend, _column_payloads(vector, n, self.target))

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

    def stage(self, vector: tuple, n: int):
        raise Refused  # no row-building kernel makes an array item

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

    def stage(self, vector: tuple, n: int):
        # exactly the declared fields, as `put` takes them
        kind, fields = vector
        if kind != "object" or len(fields) != len(self.children):
            raise Refused
        columns = [fields.get(name) for name, _ in self.children]
        if None in columns:
            raise Refused
        commits = [b.stage(column, n) for (_, b), column in zip(self.children, columns)]
        return partial(self._commit, commits, n)

    def _commit(self, commits: list, n: int) -> None:
        for commit in commits:
            commit()
        self.count += n

    def finish(self) -> Frame:
        return Frame(self.ctype, [(n, b.finish()) for n, b in self.children], self.count)


class _DoubleRecordBuilder:
    """A record whose fields are all `double`, cast into one row-major
    buffer: a batch's columns as one `extend` (`stage`), and a row that comes
    alone, or from a batch that refused, field by field as `_ScalarBuilder`
    casts (`put`)."""

    def __init__(self, ctype: FrameColumnType):
        self.ctype = ctype
        self.names = [name for name, _ in ctype.fields]
        # the field names of a positional record vector
        self.positional = self.names == [str(i) for i in range(1, len(self.names) + 1)]
        self.values = array("d")
        self.count = 0

    def put(self, item: Item) -> bool:
        if item.__class__ is not ObjectItem or len(item.pairs) != len(self.names):
            return False
        append = self.values.append
        for atom in map(item.pairs.get, self.names):  # None for a missing field
            if atom.__class__ is not AtomicValue:
                return False
            try:
                append(cast_value(atom.kind, atom.value, "double"))
            except DynamicError:
                return False
        self.count += 1
        return True

    def stage(self, vector: tuple, n: int):
        # the rows' members, when every row has one per field, are the fields
        # "1".."k" in order; string numerals that `items.DOUBLE_RE` takes as
        # they stand cast as `cast_value` casts them
        if vector[0] != "positional" or not self.positional:
            raise Refused
        texts = _positional_members(vector[1], len(self.names))
        if not all(map(DOUBLE_RE.fullmatch, texts)):
            raise Refused
        return partial(self._commit, texts, n)

    def _commit(self, texts: list, n: int) -> None:
        self.values.extend(map(float, texts))
        self.count += n

    def finish(self) -> Frame:
        # each column is a strided view of the (rows, fields) matrix
        matrix = np.frombuffer(self.values, dtype=np.float64).reshape(self.count, len(self.names))
        children = [
            (name, ScalarColumn(ctype, matrix[:, j]))
            for j, (name, ctype) in enumerate(self.ctype.fields)
        ]
        return Frame(self.ctype, children, self.count)


def _positional_members(value: tuple, k: int) -> list:
    """The members of a positional record vector's rows, row-major; Refused
    unless every row has exactly `k`."""
    starts, stops, flat = value
    if any(b - a != k for a, b in zip(starts, stops)):
        raise Refused  # a missing or an undeclared field
    members: list = []
    for a in starts:
        members += flat[a : a + k]
    return members


def _column_payloads(vector: tuple, n: int, target: str) -> list:
    """What `put` appends for each of `n` rows' values, cast to `target`,
    from a scalar vector; Refused wherever a row's cast is not one of these
    or could fail."""
    kind, values = vector
    if kind in _OPAQUE:
        raise Refused
    if isinstance(values, np.ndarray):
        values = values.tolist()
    else:
        values = [values] * n  # a literal: the same value in every row
    if kind == "string":
        if target == "string":
            return values
        if target == "double" and all(map(DOUBLE_RE.fullmatch, values)):
            return list(map(float, values))
    elif kind == "int":
        if target == "string":
            return [render_atomic(trusted_atomic("integer", v)) for v in values]
        bounds = INT_BOUNDS.get(target)
        if bounds is not None and bounds[0] <= min(values) and max(values) <= bounds[1]:
            return values
    raise Refused


def make_builder(ctype: FrameColumnType):
    if ctype.kind == "Array":
        return _ArrayBuilder(ctype)
    if ctype.kind == "Record":
        if ctype.fields and all(t.kind == "Double" for _, t in ctype.fields):
            return _DoubleRecordBuilder(ctype)
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


def _put_rows(builder, record: FrameColumnType, rows: "Iterable[Item]", start: int) -> int:
    """Put each row, the first numbered `start`; the number after the last."""
    put = builder.put
    for row in rows:
        if not put(row):
            _validated_row(start, row, record, None)
            raise AssertionError(f"row {start}: the column builders rejected a valid row")
        start += 1
    return start


def annotate_rows(rows: "Iterable[Item]", descriptor: Item) -> Frame:
    """Validate each row against the descriptor and store columnar.

    Rows are consumed one at a time and cast straight into column builders,
    so neither the item sequence nor a validated row is ever built. A row
    the builders reject is validated again, to raise the validator's error.
    """
    record = annotate_schema(descriptor)
    builder = make_builder(record)
    _put_rows(builder, record, rows, 0)
    return builder.finish()


def annotate_batches(batches: Iterable, descriptor: Item) -> Frame:
    """`annotate_rows` over rows that come a batch at a time, as
    `runtime._row_batches` yields them: `(n, columns, rows)` for `n` rows,
    where `columns()` returns their record vector or raises `Refused`, and
    `rows()` iterates their row objects. The builders stage the casts of a
    batch's columns first and commit them only when every column stages, so
    a batch lands whole or not at all. A batch that refuses is put row by
    row, numbered from the rows before it, and raises the validator's error
    for its first bad row."""
    record = annotate_schema(descriptor)
    builder = make_builder(record)
    _put_batches(builder, record, batches)
    return builder.finish()


def _put_batches(builder, record: FrameColumnType, batches: Iterable) -> None:
    # a function of its own, so that the last batch is freed before `finish`
    count = 0
    for n, columns, batch_rows in batches:
        try:
            commit = builder.stage(columns(), n)
        except Refused:
            count = _put_rows(builder, record, batch_rows(), count)
        else:
            commit()
            count += n


def frame_filter(
    frame: Frame,
    predicate: "Callable[[ObjectItem], bool]",
    kernel: "Optional[Callable[[Frame], tuple]]" = None,
) -> Frame:
    """Keep rows whose condition holds; order and schema are unchanged.

    The column kernel, when given, computes the condition's vector from the
    columns it reads. When it refuses, `predicate` runs once per row object
    and raises the per-row path's error, prefixed with the row index.
    """
    mask = None
    if kernel is not None and frame.nrows:
        try:
            with np.errstate(all="ignore"):
                mask = np.broadcast_to(vector_ebv(kernel(frame)), frame.nrows)
        except Refused:
            pass
    if mask is None:
        mask = np.zeros(frame.nrows, dtype=bool)
        for i in range(frame.nrows):
            try:
                mask[i] = predicate(frame.row_item(i))
            except DynamicError as err:
                raise DynamicError(err.code, f"row {i}: {err.message}", err.position) from err
    return frame.take(np.nonzero(mask)[0])


# ---------------------------------------------------------------------------
# Column kernels: the operators of a lowered condition, or of a batched
# annotate's row FLWOR, applied to whole columns. A vector is `(kind,
# values)`: the kind class that every row's value has (see `_KIND_CLASS`;
# "empty" and the `_OPAQUE` kinds are the non-atomic ones) and a numpy array
# with one value per row, or a plain Python scalar that stands for every row
# (a literal). Each operator raises `Refused` wherever the per-row path could
# raise or give another value, so a kernel that returns is exact, and one
# that refuses leaves the row objects, the error and its row index to the
# per-row path of `frame_filter` or `annotate_batches`.
# ---------------------------------------------------------------------------


class Refused(Exception):
    """A column kernel, or a builder's `stage`, cannot be exact here."""


_KIND_CLASS = {
    **{kind: "int" for kind in INTEGER_KINDS},
    "double": "double",
    "float": "double",
    "decimal": "decimal",
    "string": "string",
    "boolean": "boolean",
    "null": "null",
    "date": "date",
    "dateTime": "dateTime",
    "hexBinary": "hexBinary",
}
# the item kind whose rendering each class shares
_RENDER_KIND = {cls: kind for kind, cls in _KIND_CLASS.items()}
_RENDER_KIND["int"] = "integer"

EMPTY = ("empty", None)
# kinds whose values no scalar operator takes: the rows of a frame, an array
# column, and the row-building vectors below
_OPAQUE = frozenset({"record", "array", "sequence", "object", "positional"})
_NUMBERS = frozenset({"int", "double", "decimal"})
_ORDERED = frozenset({"string", "boolean", "date", "dateTime"})
_DTYPE = {"int": np.int64, "double": np.float64, "boolean": np.bool_}
_INT64_MAX = 2**63 - 1
_EXACT_DOUBLE = 2**53  # every integer up to this magnitude is a double
# the Python operator of each comparison and additive operator, which the
# per-row path applies to values and a kernel to columns
COMPARISONS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}
ADDITIVE = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def row_vector(frame: Frame) -> tuple:
    """The rows themselves: the vector of `$$`, or of a `for` variable."""
    return ("record", frame)


def literal_vector(atom: AtomicValue) -> tuple:
    return (_KIND_CLASS[atom.kind], atom.value)


def _column_vector(column) -> tuple:
    if column.__class__ is Frame:
        return ("record", column)
    if column.__class__ is ArrayColumn:
        return ("array", None)
    kind = _KIND_CLASS[FRAME_TO_ATOMIC[column.type.kind]]
    if kind == "null":
        return ("null", None)
    values = column.values
    if not isinstance(values, np.ndarray):
        values = _object_array(values)
    return (kind, values)


def _object_array(values: list) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _atomic_operands(*vectors) -> bool:
    """Refuse a record or array operand, which the per-row path rejects;
    True when any operand is empty."""
    for kind, _ in vectors:
        if kind in _OPAQUE:
            raise Refused
    return any(kind == "empty" for kind, _ in vectors)


def _ints(vector: tuple):
    """An integer vector's values as int64, or a scalar in the int64 range."""
    values = vector[1]
    if not isinstance(values, np.ndarray) and not -_INT64_MAX - 1 <= values <= _INT64_MAX:
        raise Refused
    return values


def _magnitude(values) -> int:
    if isinstance(values, np.ndarray):
        return max(-int(values.min()), int(values.max()))
    return abs(int(values))


def _doubles(vector: tuple):
    """A numeric vector's values as doubles, where the per-row path would
    convert them to double the same way: an integer beyond 2**53 would not
    convert exactly, nor compare like one (Python compares int and float
    exactly)."""
    kind, values = vector
    if kind == "double":
        return values
    if kind == "decimal":
        if isinstance(values, np.ndarray):
            return np.fromiter((float(v) for v in values), np.float64, len(values))
        return float(values)
    if _magnitude(_ints(vector)) > _EXACT_DOUBLE:
        raise Refused
    return values.astype(np.float64) if isinstance(values, np.ndarray) else float(values)


def vector_ebv(vector: tuple):
    """The effective boolean value of each row's value (`items.item_ebv`)."""
    kind, values = vector
    if kind in ("empty", "null"):
        return False
    if kind == "boolean":
        return values
    if kind == "string":
        return values != ""
    if kind in ("int", "decimal"):
        return values != 0
    if kind == "double":
        return (values != 0) & (values == values)  # NaN is false
    raise Refused  # EBV_ERROR


def vector_lookup(key: str, base: tuple) -> tuple:
    # a lookup on anything but an object, or of a missing key, is empty
    if base[0] != "record":
        return EMPTY
    try:
        return _column_vector(base[1].column(key))
    except DynamicError:
        return EMPTY


def vector_compare(op: str, left: tuple, right: tuple) -> tuple:
    """`runtime._compare_values` on each row."""
    if _atomic_operands(left, right):
        return EMPTY
    ka, kb = left[0], right[0]
    if ka == "null" or kb == "null":
        if op not in ("eq", "ne"):
            raise Refused  # null is not ordered
        return ("boolean", (ka == kb) == (op == "eq"))
    if ka in _NUMBERS and kb in _NUMBERS:
        if ka == kb:
            if ka == "int":
                return ("boolean", COMPARISONS[op](_ints(left), _ints(right)))
            return ("boolean", COMPARISONS[op](left[1], right[1]))
        if "decimal" in (ka, kb) and "int" in (ka, kb):
            raise Refused  # compared exactly per row, not as doubles
        return ("boolean", COMPARISONS[op](_doubles(left), _doubles(right)))
    if ka == kb and ka in _ORDERED:
        return ("boolean", COMPARISONS[op](left[1], right[1]))
    raise Refused  # values of these kinds do not compare


def vector_arithmetic(op: str, left: tuple, right: tuple) -> tuple:
    """`runtime._arithmetic` on each row."""
    if _atomic_operands(left, right):
        return EMPTY
    ka, kb = left[0], right[0]
    if ka not in _NUMBERS or kb not in _NUMBERS:
        raise Refused
    if op == "div":
        return ("double", np.true_divide(_doubles(left), _doubles(right)))
    if "double" in (ka, kb):
        x, y = _doubles(left), _doubles(right)
        if op in ("idiv", "mod") and np.any(y == 0):
            raise Refused  # DIVISION_BY_ZERO
        if op == "idiv":
            quotient = np.trunc(np.true_divide(x, y))
            if not np.all(np.abs(quotient) < 2.0**63):
                raise Refused  # not finite, or beyond int64
            return ("int", quotient.astype(np.int64))
        if op == "mod":
            return ("double", np.fmod(x, y))
        return ("double", ADDITIVE[op](x, y))
    if "decimal" in (ka, kb):
        raise Refused  # Decimal arithmetic stays per row
    x, y = _ints(left), _ints(right)
    mx, my = _magnitude(x), _magnitude(y)
    if op in ("idiv", "mod"):
        if np.any(y == 0):
            raise Refused  # DIVISION_BY_ZERO
        if max(mx, my) > _INT64_MAX:
            raise Refused  # -2**63 has no int64 magnitude
        quotient = np.abs(x) // np.abs(y)
        quotient = np.where((x >= 0) == (y >= 0), quotient, -quotient)
        return ("int", quotient if op == "idiv" else x - y * quotient)
    if (mx * my if op == "*" else mx + my) > _INT64_MAX:
        raise Refused  # Python integers do not wrap
    return ("int", ADDITIVE[op](x, y))


def vector_boolean(is_and: bool, left: tuple, right: tuple) -> tuple:
    # both sides over every row: where the right side could raise on a row
    # that the left decides, it refuses instead
    combine = np.logical_and if is_and else np.logical_or
    return ("boolean", combine(vector_ebv(left), vector_ebv(right)))


def vector_not(operand: tuple) -> tuple:
    return ("boolean", np.logical_not(vector_ebv(operand)))


def vector_if(cond: tuple, then: tuple, orelse: tuple) -> tuple:
    mask = vector_ebv(cond)
    if np.ndim(mask) == 0:
        return then if mask else orelse
    kind = then[0]
    if orelse[0] != kind or kind in _OPAQUE:
        raise Refused  # one kind per vector
    if kind in ("empty", "null"):
        return then
    if kind == "int":  # a literal beyond int64 fits in no int64 array
        _ints(then)
        _ints(orelse)
    dtype = _DTYPE.get(kind, object)
    return (kind, np.where(mask, np.asarray(then[1], dtype), np.asarray(orelse[1], dtype)))


def vector_string(operand: tuple) -> tuple:
    """`string#1` of each row's value."""
    if _atomic_operands(operand):
        return ("string", "")
    kind, values = operand
    if kind == "string":
        return operand
    render_kind = _RENDER_KIND[kind]
    if isinstance(values, (np.ndarray, np.generic)):
        values = values.tolist()  # Python values, which render_atomic takes
    if not isinstance(values, list):
        return ("string", render_atomic(trusted_atomic(render_kind, values)))
    return ("string", _object_array([render_atomic(trusted_atomic(render_kind, v)) for v in values]))


def vector_contains(haystack: tuple, needle: tuple) -> tuple:
    """`contains#2` of each row's values; an empty argument is ""."""
    strings = []
    for kind, values in (haystack, needle):
        if kind not in ("string", "empty"):
            raise Refused  # contains expects a string
        strings.append("" if kind == "empty" else values)
    return ("boolean", np.asarray(_CONTAINS(*strings), dtype=bool))


_CONTAINS = np.frompyfunc(operator.contains, 2, 1)


# ---------------------------------------------------------------------------
# Row-building vectors: a batched `annotate` evaluates its row FLWOR over a
# batch of `for` items with these and the operators above (see
# `runtime._row_batches`), and the builders' `stage` casts the result. A
# "sequence" vector holds each row's string tokens as `(starts, stops,
# flat)`: row r's items are flat[starts[r]:stops[r]]. An "object" vector is
# an object constructor's dict of field vectors, and a "positional" vector
# is the record `{| for $i at $p in $s return { string($p) : $i } |}` of a
# sequence vector's rows, held as that sequence. Each refuses where a row
# could raise or differ, as the operators above do.
# ---------------------------------------------------------------------------


_ATOMS_ONLY = frozenset({AtomicValue})
_STRINGS_ONLY = frozenset({"string"})
_KIND = operator.attrgetter("kind")
_VALUE = operator.attrgetter("value")


def items_vector(items: "list[Item]") -> tuple:
    """The vector of a batch of `for` items, which must be strings."""
    if set(map(type, items)) != _ATOMS_ONLY or set(map(_KIND, items)) != _STRINGS_ONLY:
        raise Refused
    return ("string", _object_array(list(map(_VALUE, items))))


def vector_tokenize(text: tuple, sep: tuple) -> tuple:
    """`tokenize#2` of each row: "" has no tokens, and one trailing empty
    token is dropped. The separator is one nonempty string for every row."""
    kind, values = text
    if kind != "string" or not isinstance(values, np.ndarray):
        raise Refused
    if sep[0] != "string" or not isinstance(sep[1], str) or sep[1] == "":
        raise Refused  # a separator per row, or the per-row TYPE_ERROR
    rows = list(map(str.split, values.tolist(), repeat(sep[1])))
    for tokens in rows:
        # the last token is empty exactly where the text is "" or ends with
        # the separator
        if not tokens[-1]:
            tokens.pop()
    stops = list(accumulate(map(len, rows)))
    return ("sequence", ([0] + stops[:-1], stops, list(chain.from_iterable(rows))))


def sequence_longest(vector: tuple) -> int:
    """The most items a row of a sequence vector has."""
    starts, stops, _ = vector[1]
    return max(map(operator.sub, stops, starts))


def vector_head(seq: tuple) -> tuple:
    """`head#1` of each row; Refused where a row's sequence is empty."""
    if seq[0] != "sequence":
        raise Refused
    starts, stops, flat = seq[1]
    if any(map(operator.ge, starts, stops)):
        raise Refused  # one kind per vector: no empty rows among strings
    return ("string", _object_array([flat[a] for a in starts]))


def vector_tail(seq: tuple) -> tuple:
    """`tail#1` of each row."""
    if seq[0] != "sequence":
        raise Refused
    starts, stops, flat = seq[1]
    return ("sequence", ([a + (a < b) for a, b in zip(starts, stops)], stops, flat))


def vector_positional(seq: tuple) -> tuple:
    """`{| for $i at $p in $seq return { string($p) : $i } |}` of each row."""
    if seq[0] != "sequence":
        raise Refused
    return ("positional", seq[1])


def vector_object(names: tuple, *values: tuple) -> tuple:
    """An object constructor of distinct literal keys, for each row."""
    return ("object", dict(zip(names, values)))
