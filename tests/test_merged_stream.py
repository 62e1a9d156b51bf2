"""A merged object constructor over a FLWOR that returns an object
constructor, `{| for ... return { k : v } |}`, streams the returned pairs
into one object. Its values and its errors (code, message and position)
must be the same under every mode policy, and its values and error codes
must match the naive reference evaluator."""

import pytest

from jsoniqml.builtins import CATALOG
from jsoniqml.engine import run_query
from jsoniqml.errors import EngineError
from jsoniqml.items import canonical_serialize
from jsoniqml.modes import POLICIES
from jsoniqml.parser import parse
from jsoniqml.resolver import resolve

import reference_eval

WORDS = 'tokenize("a b c", " ")'

VALUES = [
    f"{{| for $w at $p in {WORDS} return {{ string($p) : $w }} |}}",
    f"{{| for $w at $p in {WORDS} return {{ $w : $p, string($p + 10) : [$p] }} |}}",
    f"{{| for $w in {WORDS} let $n := string($w) where $w ne \"b\" return {{ $n : $n }} |}}",
    "{| for $i in 1 to 0 return { string($i) : $i } |}",
    "{| for $i in 1 to 3 order by $i descending return { string($i) : () } |}",
    "{| for $i in 1 to 2 for $j in 1 to 2 return { string($i * 10 + $j) : $j } |}",
]

MERGE_DUPLICATE = "DUPLICATE_KEY_IN_MERGE"
NOT_OBJECTS = "merged object constructor requires objects"
EMPTY_KEY = "object key must not be empty"
BY_ZERO = "idiv by zero"

# (query, code, position, message)
ERRORS = [
    # a key repeated across iterations
    ('{| for $i in 1 to 2 return { "k" : $i } |}', MERGE_DUPLICATE, (1, 1),
     "duplicate key 'k' in merge"),
    ('{| for $w in tokenize("a b a", " ") return { $w : 1 } |}', MERGE_DUPLICATE, (1, 1),
     "duplicate key 'a' in merge"),
    ('{| for $i in 1 to 2 return { string($i) : $i, "x" : 0 } |}', MERGE_DUPLICATE, (1, 1),
     "duplicate key 'x' in merge"),
    # a returned item that is not an object
    ("{| for $i in 1 to 2 return $i |}", "TYPE_ERROR", (1, 1), NOT_OBJECTS),
    ('{| for $i in 1 to 2 return if ($i eq 2) then 1 else { "a" : 1 } |}', "TYPE_ERROR", (1, 1),
     NOT_OBJECTS),
    # a key repeated inside one multi-pair return
    ('{| for $i in 1 to 2 return { "a" : $i, string("a") : 2 } |}', "DUPLICATE_OBJECT_KEY",
     (1, 28), "duplicate object key 'a'"),
    ('{| for $i in 1 to 2 return { "x" : $i, string("y") : 1, "y" : 2 } |}',
     "DUPLICATE_OBJECT_KEY", (1, 28), "duplicate object key 'y'"),
    # the whole returned object is built before it is merged
    ('{| for $i in 1 to 2 return { "x" : 0, "y" : 1 idiv ($i - 2) } |}', "DIVISION_BY_ZERO",
     (1, 47), BY_ZERO),
    # an empty, a non-atomic or a multi-item key or value
    ("{| for $i in 1 to 2 return { () : $i } |}", "TYPE_ERROR", (1, 30), EMPTY_KEY),
    ('{| for $i at $p in 1 to 2 return { (if ($p eq 2) then () else "a") : $i } |}',
     "TYPE_ERROR", (1, 36), EMPTY_KEY),
    ("{| for $i in 1 to 2 return { {} : $i } |}", "TYPE_ERROR", (1, 28),
     "object key requires an atomic value"),
    ('{| for $i in 1 to 2 return { "a" : (1 to 2) } |}', "TYPE_ERROR", (1, 36),
     "object value must be a single item"),
    # an error in a `for` source, a `let` or a `where`
    ("{| for $i in 1 to 2 for $j in 1 idiv ($i - 2) return { string($i) : $j } |}",
     "DIVISION_BY_ZERO", (1, 33), BY_ZERO),
    ('{| for $i in 1 to 2 for $w in tokenize($i, " ") return { $w : $i } |}', "TYPE_ERROR",
     (1, 31), "tokenize expects a string"),
    ('{| for $i in 1 to "a" return { string($i) : $i } |}', "TYPE_ERROR", (1, 16),
     "range bounds must be integers"),
    ("{| for $i in 1 to 3 let $j := $i idiv ($i - 3) return { string($i) : $j } |}",
     "DIVISION_BY_ZERO", (1, 34), BY_ZERO),
    ('{| for $i in 1 to 3 where { "a" : $i } return { string($i) : $i } |}', "EBV_ERROR",
     (1, 1), "effective boolean value of an object, array, or function"),
    ("{| for $i in 1 to 3 where $i idiv ($i - 2) return { string($i) : $i } |}",
     "DIVISION_BY_ZERO", (1, 30), BY_ZERO),
]


def _engine(query, policy):
    try:
        return "value", [canonical_serialize(item) for item in run_query(query, policy=policy)]
    except EngineError as err:
        return "error", (err.code, err.message, err.position)


def _reference(query):
    resolved = resolve(parse(query), set(CATALOG.keys()))
    try:
        items = reference_eval.evaluate_module(resolved)
    except EngineError as err:
        return "error", err.code
    return "value", [canonical_serialize(item) for item in items]


@pytest.mark.parametrize("query", VALUES)
def test_values_agree(query):
    outcomes = {policy: _engine(query, policy) for policy in POLICIES}
    assert len(set(map(repr, outcomes.values()))) == 1, outcomes
    assert outcomes["auto"] == _reference(query)


@pytest.mark.parametrize("query,code,position,message", ERRORS, ids=[e[0] for e in ERRORS])
def test_errors_agree(query, code, position, message):
    for policy in POLICIES:
        assert _engine(query, policy) == ("error", (code, message, position)), policy
    assert _reference(query) == ("error", code)
