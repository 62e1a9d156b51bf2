"""A lowered frame filter runs its condition as a column kernel, which
either computes the same rows as the per-row path or refuses and leaves the
rows, or the error, to it.

The differential test draws random frames and random lowerable conditions,
and runs each condition four ways: through the kernel (`auto`), through the
per-row path alone (`auto` with the kernel left out of `frame_filter`),
unlowered under the `frame` policy, and through the naive reference
evaluator on the validated rows. The kernel and the per-row path must agree
exactly: the count, or the error's code, full message and position. The
`frame` policy must agree on the count or on the code and the message
without its `row i:` prefix, and the reference on the count or the code.
No other exception may escape. The explicit examples pin one case of each
refusal, so that a kernel without it fails here whatever the draw.
"""

from contextlib import contextmanager
from unittest import mock

import hypothesis.strategies as st
from hypothesis import example, given, settings

import jsoniqml.runtime as runtime
from jsoniqml.builtins import CATALOG
from jsoniqml.engine import compile_query, evaluate_query
from jsoniqml.errors import EngineError
from jsoniqml.items import canonical_serialize, from_py
from jsoniqml.parser import parse
from jsoniqml.resolver import resolve
from jsoniqml.schema import parse_schema, validate_item

import reference_eval

SCHEMA = {
    "i": "int", "l": "long", "d": "double", "f": "float", "m": "decimal", "s": "string",
    "b": "boolean", "n": "null", "r": {"k": "long", "t": "string"}, "v": ["double"],
}

# lexical values, cast by the schema; long values sit near 2**53 and 2**63
_LONGS = [
    "0", "1", "-1", "2", "-3", "7",
    str(2**53 - 1), str(2**53), str(2**53 + 1), str(-(2**53) - 1),
    str(2**62), str(2**63 - 1), str(-(2**63)), "3037000500",
]
_DOUBLES = [
    "NaN", "INF", "-INF", "-0.0", "0.0", "0.5", "1.5", "-2.5", "3",
    str(2**53), str(2**53 + 2), "1e308", "-7",
]
_DECIMALS = ["0", "0.00", "0.25", "-1.50", "2.5", "3", str(2**53 + 1)]
_STRINGS = ["", "a", "ab", "b", "1", "INF", "true"]

ROWS = st.lists(
    st.fixed_dictionaries(
        {
            "i": st.sampled_from(["-3", "0", "1", "2", "3"]),
            "l": st.sampled_from(_LONGS),
            "d": st.sampled_from(_DOUBLES),
            "f": st.sampled_from(_DOUBLES),
            "m": st.sampled_from(_DECIMALS),
            "s": st.sampled_from(_STRINGS),
            "b": st.sampled_from(["true", "false"]),
            "n": st.none(),
            "r": st.fixed_dictionaries(
                {"k": st.sampled_from(_LONGS), "t": st.sampled_from(_STRINGS)}
            ),
            "v": st.lists(st.sampled_from(["1", "2.5"]), max_size=2),
        }
    ),
    max_size=6,
)


def frame_text(rows) -> str:
    """An `annotate` of the rows: row `$i` is chosen by a chain of `if`s."""
    texts = [canonical_serialize(from_py(row)) for row in rows]
    body = texts[-1] if texts else "{}"
    for i in range(len(texts) - 1, 0, -1):
        body = f"if ($i eq {i}) then {texts[i - 1]} else {body}"
    schema = canonical_serialize(from_py(SCHEMA))
    return f"annotate(for $i in 1 to {len(rows)} return {body}, {schema})"


# -- conditions: `@` stands for the row, `$$` or the `for` variable ----------

INTS = [
    "@.i", "@.l", "@.r.k", "0", "1", "2", str(2**53), str(2**62), str(2**63 - 1), str(2**64),
]
LONGS = ["@.l", "@.r.k", str(2**53 + 1)]
DOUBLES = ["@.d", "@.f", "1.5e0", "0e0", "9007199254740992.0e0"]
DECIMALS = ["@.m", "0.25", "2.5", "9007199254740993.0"]
NUMBERS = INTS + DOUBLES + DECIMALS
OTHERS = [
    "@.s", "@.r.t", "@.b", "@.n", "@.r", "@.v", "@.x", "@", "@.v.k", "@.r.k.z",
    '"a"', '""', "true", "false", "null", "()",
]
COMPARISONS = ["eq", "ne", "lt", "le", "gt", "ge"]
ARITHMETIC = ["+", "-", "*", "div", "idiv", "mod"]


def _binary(left, ops, right):
    return st.builds("({}) {} ({})".format, left, st.sampled_from(ops), right)


def _any_of(*pools):
    return st.sampled_from([operand for pool in pools for operand in pool])


NUMBER = st.one_of(_any_of(NUMBERS), _binary(_any_of(NUMBERS), ARITHMETIC, _any_of(NUMBERS)))
STRING = st.one_of(
    _any_of(["@.s", "@.r.t", '"a"', '""', "()"]), st.builds("string({})".format, NUMBER)
)
ODD = _any_of(["@.n", "null", "()", "@.r", "@.v", "@.x", "@", "@.b", "@.s", "true", '"a"'])
# one condition of each family; each family aims at some of the kernel's
# refusals, and the last ones mix everything
SIMPLE = st.one_of(
    # an integer against a double: exact per row, rounded if both were doubles
    _binary(_any_of(LONGS), COMPARISONS, _any_of(DOUBLES)),
    _binary(_any_of(DOUBLES), COMPARISONS, _any_of(LONGS)),
    # a Decimal against every numeric kind
    _binary(_any_of(DECIMALS), COMPARISONS, _any_of(NUMBERS)),
    # int64 arithmetic: overflow, zero divisors and -2**63
    _binary(_binary(_any_of(INTS), ARITHMETIC, _any_of(INTS)), COMPARISONS, _any_of(INTS)),
    # idiv and mod of doubles: zero divisors and quotients that are not finite
    _binary(
        _binary(_any_of(NUMBERS), ["idiv", "mod"], _any_of(NUMBERS)), COMPARISONS, _any_of(INTS)
    ),
    # null, empty, records, arrays, and kinds that do not compare
    _binary(ODD, COMPARISONS + ARITHMETIC, _any_of(NUMBERS, OTHERS)),
    _binary(_any_of(NUMBERS, OTHERS), COMPARISONS + ARITHMETIC, ODD),
    # an effective boolean value of each kind: NaN, "", 0, null, a record
    _any_of(["@.d", "@.f", "@.m", "@.s", "@.n", "@.i", "@.b", "@.r", "@.v", "@.x", "0.0"]),
    # strings
    _binary(STRING, COMPARISONS, STRING),
    st.builds("contains({}, {})".format, STRING, STRING),
    st.builds("contains({}, {})".format, _any_of(NUMBERS, OTHERS), STRING),
    st.builds("string({}) eq {}".format, _any_of(NUMBERS, OTHERS), STRING),
    _binary(NUMBER, COMPARISONS, NUMBER),
    NUMBER,
)
# a conditional value, whose branches may differ in kind
BRANCH = _any_of(
    ["@.i", "@.l", "@.d", "@.m", "@.s", "@.n", "()", "1", "1.5e0", str(2**64), '"a"']
)
CHOICE = st.builds(
    "(if ({}) then ({}) else ({})) {} ({})".format,
    SIMPLE,
    BRANCH,
    BRANCH,
    st.sampled_from(COMPARISONS + ARITHMETIC),
    _any_of(NUMBERS),
)
CONDITION = st.recursive(
    SIMPLE | CHOICE,
    lambda inner: st.one_of(
        _binary(inner, ["and", "or"], inner),
        st.builds("not({})".format, inner),
        st.builds("if ({}) then ({}) else ({})".format, inner, inner, inner),
    ),
    max_leaves=3,
)


# -- the four ways --------------------------------------------------------------


def query_text(source: str, condition: str, where: bool) -> str:
    if where:
        return f"count(for $r in {source} where {condition.replace('@', '$r')} return $r)"
    return f"count({source}[{condition.replace('@', '$$')}])"


def outcome(compiled):
    """The count, or the error's code, message and position; any exception
    that is not an engine error escapes and fails the test."""
    try:
        return evaluate_query(compiled).first().value
    except EngineError as err:
        return (err.code, err.message, err.position)


@contextmanager
def per_row_only():
    """`frame_filter` as `_run_frame_where` reaches it, without the kernel."""
    filter_rows = runtime.frame_filter

    def without_kernel(frame, predicate, kernel=None):
        return filter_rows(frame, predicate)

    with mock.patch.object(runtime, "frame_filter", without_kernel):
        yield


def reference_outcome(rows, condition: str, where: bool):
    """The count, or the code of the first row's error, of the condition
    evaluated by the reference evaluator on each validated row."""
    record = parse_schema(from_py(SCHEMA))
    resolved = resolve(parse(query_text("()", condition, where)), set(CATALOG))
    node = resolved.module.body.args[0]  # the predicate, or the FLWOR
    cond = node.clauses[1].condition if where else node.condition
    ref = reference_eval._Ref(resolved, {})
    kept = 0
    for row in rows:
        item = validate_item(from_py(row), record)
        env, dot = ({"r": [item]}, None) if where else ({}, item)
        try:
            kept += ref.ebv(ref.eval(cond, env, dot))
        except EngineError as err:
            return err.code
    return kept


def _strip_row(message: str) -> str:
    return message.split(": ", 1)[1] if message.startswith("row ") else message


def _row(**values) -> dict:
    base = {"i": "0", "l": "0", "d": "0", "f": "0", "m": "0", "s": "", "b": "false",
            "n": None, "r": {"k": "0", "t": ""}, "v": []}
    return {**base, **values}


@settings(max_examples=400, deadline=None)
@given(rows=ROWS, condition=CONDITION, where=st.booleans())
# an int64 beyond 2**53 against a double: numpy would round it and find it equal
@example(rows=[_row(l=str(2**53 + 1))], condition="(@.l) eq (9007199254740992.0e0)", where=False)
@example(rows=[_row(l=str(2**53 + 1), d=str(2**53))], condition="(@.l) ne (@.d)", where=True)
# a Decimal against an integer compares exactly, not as doubles
@example(rows=[_row(l=str(2**53))], condition="(9007199254740993.0) eq (@.l)", where=False)
# int64 overflow, zero divisors, and -2**63, whose magnitude is not an int64
@example(rows=[_row(l=str(2**62))], condition="((@.l) * (2)) gt (0)", where=False)
@example(rows=[_row(l=str(2**63 - 1))], condition="((@.l) + (@.l)) gt (0)", where=False)
@example(rows=[_row(i="2"), _row(i="0")], condition="((3) idiv (@.i)) eq (1)", where=False)
@example(rows=[_row(l=str(-(2**63)))], condition="((@.l) idiv ((0) - (1))) lt (0)", where=False)
@example(rows=[_row(d="1.5"), _row(d="0.0")], condition="((3) mod (@.d)) eq (0)", where=True)
# an idiv of doubles whose quotient is not finite
@example(rows=[_row(d="INF")], condition="((@.d) idiv (1.5e0)) eq (1)", where=False)
# null is not ordered; NaN is false; records and arrays are not atomic
@example(rows=[_row()], condition="(@.n) lt (1)", where=False)
@example(rows=[_row(d="NaN"), _row(d="1")], condition="@.d", where=False)
@example(rows=[_row()], condition="(@.r) eq (1)", where=True)
@example(rows=[_row(v=["1"])], condition='contains(@.v, "1")', where=False)
# a literal beyond int64, and branches of two kinds
@example(
    rows=[_row(), _row(i="1")], condition=f"(if (@.i) then (1) else ({2**64})) gt (0)", where=False
)
@example(
    rows=[_row(), _row(i="1")], condition="(if (@.i) then (@.i) else (@.d)) div (3)", where=False
)
# `and` spares row 0 the comparison that raises for row 1
@example(
    rows=[_row(s="a"), _row(i="3", s="b")], condition="((@.i) gt (2)) and ((@.s) eq (1))",
    where=False,
)
def test_kernel_matches_per_row_and_reference(rows, condition, where):
    query = query_text(frame_text(rows), condition, where)
    lowered = compile_query(query, "auto")
    kernel = outcome(lowered)
    with per_row_only():
        per_row = outcome(lowered)
    assert kernel == per_row, (query, kernel, per_row)

    unlowered = outcome(compile_query(query, "frame"))
    reference = reference_outcome(rows, condition, where)
    if isinstance(per_row, tuple):
        code, message, _ = per_row
        assert isinstance(unlowered, tuple) and unlowered[0] == code, (query, unlowered)
        assert _strip_row(message) == unlowered[1], (query, message, unlowered)
        assert reference == code, (query, reference, per_row)
    else:
        assert unlowered == per_row, (query, unlowered, per_row)
        assert reference == per_row, (query, reference, per_row)
