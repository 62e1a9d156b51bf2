"""Error code, source position and message prefix of every dynamic raise site.

Each row is one failing query, run under all three mode policies. The
expected outcome is a `(code, (line, column), message prefix)` triple, or a
dict from policy to triple where the policies legitimately differ: a
lowered frame filter prefixes `row i:` to errors raised for a row.
"""

import pytest

from jsoniqml import run_query
from jsoniqml.errors import DynamicError
from jsoniqml.modes import POLICIES

FRAME_ROWS = 'annotate(for $i in 1 to 3 return {"a": $i}, {"a": "int"})'
BAD_ROWS = 'annotate(for $i in 1 to 3 return {"a": if ($i eq 2) then "x" else $i}, {"a": "int"})'


def _by_policy(auto, local, frame):
    return {"auto": auto, "force-local": local, "frame": frame}


CASES = [
    ("$missing + 1", ("UNDEFINED_VARIABLE", (1, 1), "external variable $missing")),
    ('1 eq "a"', ("TYPE_ERROR", (1, 3), "cannot compare integer with string")),
    ("(1 to 2) eq 1", ("TYPE_ERROR", (1, 10), "comparison requires at most one item")),
    ("{} eq 1", ("TYPE_ERROR", (1, 4), "comparison requires an atomic value")),
    ('1 + "a"', ("TYPE_ERROR", (1, 3), "arithmetic on integer and string")),
    ("(1 to 2) * 2", ("TYPE_ERROR", (1, 10), "arithmetic requires at most one item")),
    ("{ () : 1 }", ("TYPE_ERROR", (1, 3), "object key must not be empty")),
    ("{ {} : 1 }", ("TYPE_ERROR", (1, 1), "object key requires an atomic value")),
    ('{ "a" : (1 to 2) }', ("TYPE_ERROR", (1, 9), "object value must be a single item")),
    ("{| 1 |}", ("TYPE_ERROR", (1, 1), "merged object constructor requires objects")),
    ('1 to "a"', ("TYPE_ERROR", (1, 3), "range bounds must be integers")),
    ('{ "a" : 1, string("a") : 2 }', ("DUPLICATE_OBJECT_KEY", (1, 1), "duplicate object key")),
    (
        '{| for $i in 1 to 2 return { "k" : $i } |}',
        ("DUPLICATE_KEY_IN_MERGE", (1, 1), "duplicate key 'k' in merge"),
    ),
    ("if (1 to 2) then 1 else 2", ("EBV_ERROR", (1, 1), "effective boolean value of a multi")),
    (
        'count(for $x in 1 to 3 where {"a": $x} return $x)',
        ("EBV_ERROR", (1, 1), "effective boolean value of an object"),
    ),
    ("not((1 to 3))", ("EBV_ERROR", (1, 1), "effective boolean value of a multi")),
    ("1 idiv 0", ("DIVISION_BY_ZERO", (1, 3), "idiv by zero")),
    ("1 mod 0", ("DIVISION_BY_ZERO", (1, 3), "mod by zero")),
    (
        "let $f := 1 return $f(2)",
        ("NOT_A_FUNCTION", (1, 22), "dynamic call target is not a single function item"),
    ),
    (
        "let $f := count#1 return $f(1, 2)",
        ("ARITY_MISMATCH", (1, 28), "function expects 1 arguments, got 2"),
    ),
    (
        "declare function local:f($x) { $x };\nlet $g := local:f#1 return $g()",
        ("ARITY_MISMATCH", (2, 30), "function expects 1 arguments, got 0"),
    ),
    (
        'for $x in 1 to 2 order by (if ($x eq 1) then "a" else 1) return $x',
        ("TYPE_ERROR", (1, 18), "mixed-type order-by keys"),
    ),
    (
        "for $x in 1 to 2 order by () return $x",
        ("TYPE_ERROR", (1, 18), "order-by key must not be empty"),
    ),
    (
        "for $x in 1 to 2 order by {} return $x",
        ("TYPE_ERROR", (1, 18), "order-by key requires an atomic value"),
    ),
    ("string((1 to 2))", ("TYPE_ERROR", (1, 1), "string() expects at most one item")),
    ("count((1 to 3)[$$ idiv 0])", ("DIVISION_BY_ZERO", (1, 19), "idiv by zero")),
    (
        'count(for $x in 1 to 3 return {"a": $x idiv 0})',
        ("DIVISION_BY_ZERO", (1, 40), "idiv by zero"),
    ),
    (
        "declare function local:f($x) { $x idiv 0 };\nlocal:f(1)",
        ("DIVISION_BY_ZERO", (1, 35), "idiv by zero"),
    ),
    (
        f"count({FRAME_ROWS}[$$.a idiv 0 eq 1])",
        _by_policy(
            ("DIVISION_BY_ZERO", (1, 70), "row 0: idiv by zero"),
            ("DIVISION_BY_ZERO", (1, 70), "idiv by zero"),
            ("DIVISION_BY_ZERO", (1, 70), "idiv by zero"),
        ),
    ),
    (
        f"count(for $r in {FRAME_ROWS} where $r.a idiv 0 eq 1 return $r)",
        _by_policy(
            ("DIVISION_BY_ZERO", (1, 86), "row 0: idiv by zero"),
            ("DIVISION_BY_ZERO", (1, 86), "idiv by zero"),
            ("DIVISION_BY_ZERO", (1, 86), "idiv by zero"),
        ),
    ),
    (
        f"count({BAD_ROWS})",
        _by_policy(
            ("VALIDATION_ERROR", (1, 7), "row 1: at $.a: cannot cast string to int"),
            ("VALIDATION_ERROR", (1, 7), "row 1: at $.a: cannot cast string to int"),
            ("VALIDATION_ERROR", (1, 7), "row 1: at $.a: cannot cast string to int"),
        ),
    ),
]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("query,expected", CASES, ids=[q for q, _ in CASES])
def test_error_code_position_and_message(query, expected, policy):
    if isinstance(expected, dict):
        expected = expected[policy]
    code, position, prefix = expected
    with pytest.raises(DynamicError) as err:
        run_query(query, policy=policy)
    assert (err.value.code, err.value.position) == (code, position)
    assert err.value.message.startswith(prefix), err.value.message
