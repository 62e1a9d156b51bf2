"""Differential check: engine vs naive tuple-stream reference evaluator."""

import random
import re

import pytest

from jsoniqml.builtins import CATALOG
from jsoniqml.engine import run_query
from jsoniqml.items import deep_equal
from jsoniqml.parser import parse
from jsoniqml.printer import print_module
from jsoniqml.resolver import resolve

import reference_eval
from querygen import generate_module

HANDWRITTEN = [
    "for $i in 1 to 5 where ($i mod 2) eq 1 return $i * $i",
    "let $t := tokenize(\"a b c\", \" \") return [head($t), count($t)]",
    "for $i at $p in 4 to 6 order by $i descending return { string($p) : $i }",
    "declare function local:sq($x) { $x * $x }\nfor $i in 1 to 4 return local:sq($i)",
    "count((for $i in 1 to 9 return {\"v\": $i})[$$.v gt 4])",
    "{| for $i in 1 to 3 return { string($i) : $i * 2 } |}",
    "(for $i in 1 to 3 return {\"k\": $i}).k",
    "if (contains(\"hello\", \"he\")) then head(1 to 3) else ()",
    "for $i in 1 to 3 let $j := $i + 1 return [$i, $j, string($j)]",
    "1.5 + 2 * 3 - (7 idiv 2) + (7 mod 3)",
]


def engine_vs_reference(text):
    from jsoniqml.errors import EngineError

    module = parse(text)
    resolved = resolve(module, set(CATALOG.keys()))
    try:
        expected = reference_eval.evaluate_module(resolved)
        expected_error = None
    except EngineError as err:
        expected = None
        expected_error = err.code
    for policy in ("auto", "force-local"):
        try:
            actual = run_query(text, policy=policy)
            actual_error = None
        except EngineError as err:
            actual = None
            actual_error = err.code
        assert actual_error == expected_error, text
        if expected_error is None:
            assert len(actual) == len(expected), text
            for a, b in zip(actual, expected):
                assert deep_equal(a, b), text


@pytest.mark.parametrize("text", HANDWRITTEN)
def test_handwritten_queries_match_reference(text):
    engine_vs_reference(text)


@pytest.mark.parametrize("base_seed", range(8))
def test_generated_queries_match_reference(base_seed):
    for offset in range(25):
        seed = base_seed * 1000 + offset
        text = print_module(generate_module(seed))
        engine_vs_reference(text)


# generated queries raise almost never, so error paths are checked on
# mutants: one number literal replaced by a value of another kind or shape
_MUTANT_VALUES = ('"s"', "{}", "(1 to 2)", "0", "()", "[1]", "null", "2.5", "true")
_NUMBER_LITERAL = re.compile(r'(?<![\w$."#])\d+(\.\d+)?(?![\w"])')


@pytest.mark.parametrize("base_seed", range(4))
def test_mutated_queries_match_reference_values_and_error_codes(base_seed):
    rng = random.Random(base_seed)
    for offset in range(100):
        text = print_module(generate_module(base_seed * 1000 + offset))
        literals = list(_NUMBER_LITERAL.finditer(text))
        if not literals:
            continue
        m = rng.choice(literals)
        engine_vs_reference(text[: m.start()] + rng.choice(_MUTANT_VALUES) + text[m.end() :])
