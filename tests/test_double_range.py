"""Arithmetic and ordering on numbers beyond the double range or precision.

An integer operand that meets a double converts to double; beyond the double
range that conversion is an infinity, as in the cast table, and never a
Python `OverflowError`. An infinite dividend of `mod` gives NaN, as IEEE 754
does, and an `idiv` whose double quotient is not finite is a RANGE_ERROR.
Decimal `+ - * idiv mod` are exact however many digits the result has, and
an exponent beyond 999999 does not overflow; `order by` compares numeric keys
by their exact values.
Each case runs under every mode policy and against the reference evaluator.
"""

import pytest

from jsoniqml.builtins import CATALOG
from jsoniqml.engine import run_query_lines
from jsoniqml.errors import EngineError
from jsoniqml.items import canonical_serialize
from jsoniqml.modes import POLICIES
from jsoniqml.parser import parse
from jsoniqml.resolver import resolve

import reference_eval

# $y is (10^60)^6 = 10^360, beyond the largest double (about 1.8e308)
BIG = "let $x := 1" + "0" * 60 + " let $y := $x * $x * $x * $x * $x * $x "

# $h is 10^100000 as a decimal with one fractional digit; eleven factors of
# it have an exponent beyond the 999999 of the default decimal context
HUGE = "let $h := 1" + "0" * 100000 + ".0 return "
HUGE_PRODUCT = "1" + "0" * 1100000 + "." + "0" * 11

# (query, serialized items or an error code)
CASES = [
    (BIG + "return $y div 2", ["INF"]),
    (BIG + "return (0 - $y) div 2", ["-INF"]),
    (BIG + "return $y + 1.5e0", ["INF"]),
    (BIG + "return $y idiv 2.5e0", "RANGE_ERROR"),
    (BIG + "return $y mod 2.5e0", ["NaN"]),
    (BIG + "for $i in 1 to 2 order by $y * $i descending return $i", ["2", "1"]),
    (BIG + "return 1 idiv $y", ["0"]),
    (BIG + "return 1.5e0 mod $y", ["1.5"]),
    ("(1e0 div 0) idiv 1e0", "RANGE_ERROR"),
    ("(0e0 div 0) idiv 1e0", "RANGE_ERROR"),
    ("(1e0 div 0) mod 2e0", ["NaN"]),
    # a quotient beyond the 28 digits of the default decimal context
    ("100000000000000000000000000000000000 idiv 0.3", ["333333333333333333333333333333333333"]),
    ("100000000000000000000000000000000000 mod 0.3", ["0.1"]),
    ("(0 - 100000000000000000000000000000000000) idiv 0.3", ["-333333333333333333333333333333333333"]),
    ("(0 - 100000000000000000000000000000000000) mod 0.3", ["-0.1"]),
    (BIG + "return $y idiv 2.5", ["4" + "0" * 359]),
    (BIG + "return $y mod 2.5", ["0.0"]),
    # a remainder of more than 28 digits is not rounded
    ("1.00000000000000000000000000001 mod 3", ["1.00000000000000000000000000001"]),
    # nor is a sum, difference or product of more than 28 digits
    ("1.00000000000000000000000000001 + 0", ["1.00000000000000000000000000001"]),
    ("1.00000000000000000000000000001 - 1", ["0.00000000000000000000000000001"]),
    ("1.00000000000000000000000000001 * 3", ["3.00000000000000000000000000003"]),
    ("0 - 99999999999999999999999999999.9 - 0.1", ["-100000000000000000000000000000.0"]),
    (BIG + "return $y * 0.5 + 1", ["5" + "0" * 358 + "1.0"]),
    (HUGE + " * ".join(["$h"] * 11), [HUGE_PRODUCT]),
    (HUGE + "$h * $h - $h * $h", ["0.00"]),
    # distinct integers beyond 2^53 round to one double, but do not tie
    ("for $i in 1 to 2 order by 9007199254740992 + (2 - $i) return $i", ["2", "1"]),
    # the double 0.1 is a little more than the decimal 0.1
    (
        "for $i in 1 to 3 order by (if ($i eq 1) then 0.1 else if ($i eq 2) then 1e-1 else 0)"
        " descending return $i",
        ["2", "1", "3"],
    ),
    ("for $i in 1 to 2 order by 0e0 div 0 return $i", "TYPE_ERROR"),
]


def outcome(query, policy):
    try:
        return run_query_lines(query, policy=policy)
    except EngineError as err:
        return err.code


def reference_outcome(query):
    try:
        items = reference_eval.evaluate_module(resolve(parse(query), set(CATALOG)))
    except EngineError as err:
        return err.code
    return [canonical_serialize(item) for item in items]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("query,expected", CASES, ids=[q[-32:] for q, _ in CASES])
def test_matches_reference(query, expected, policy):
    assert outcome(query, policy) == expected
    assert reference_outcome(query) == expected


RESIDUAL = [
    ("9999999999.0 + 9999999999.0", "Overflow"),
    ("(0 - 9999999999.0) - 9999999999.0", "Overflow"),
    ("10000000000.0 * 10", "Overflow"),
    ("123456.0 mod 1.0", "InvalidOperation"),
]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("query,signal", RESIDUAL)
def test_residual_decimal_signal_is_a_range_error(query, signal, policy, monkeypatch):
    # no query reaches the exact context's limits, so a narrow context stands
    # in for it: 5 digits, exponents up to 9
    from decimal import Context

    from jsoniqml import runtime

    monkeypatch.setattr(runtime, "_EXACT", Context(prec=5, Emax=9))
    with pytest.raises(EngineError) as info:
        run_query_lines(query, policy=policy)
    assert info.value.code == "RANGE_ERROR"
    assert signal in info.value.message
    assert info.value.position is not None
