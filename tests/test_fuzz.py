"""Crash-safety fuzzing: whatever the input, the engine surfaces only its
own error types (the CLI maps those to exit codes, so nothing else may
escape)."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from jsoniqml.engine import run_query
from jsoniqml.errors import EngineError

from corpus import CORPUS

_QUERY_TEXTS = [entry.text for entry in CORPUS if entry.input_text is None]


@given(st.text(max_size=80))
@settings(max_examples=300)
def test_arbitrary_text_raises_only_engine_errors(text):
    try:
        run_query(text, cap=10_000)
    except EngineError:
        pass


@given(st.integers(0, 10**9))
@settings(max_examples=200)
def test_mutated_corpus_raises_only_engine_errors(seed):
    rng = random.Random(seed)
    text = rng.choice(_QUERY_TEXTS)
    mutation = rng.randrange(4)
    if mutation == 0 and len(text) > 2:  # delete a slice
        i = rng.randrange(len(text) - 1)
        j = min(len(text), i + rng.randrange(1, 8))
        text = text[:i] + text[j:]
    elif mutation == 1:  # splice two corpus queries
        other = rng.choice(_QUERY_TEXTS)
        text = text[: rng.randrange(len(text))] + other[rng.randrange(len(other)) :]
    elif mutation == 2:  # inject a random token
        token = rng.choice([")", "(", "{|", "|}", "]", ",", "$x", "to", '"', ":=", "999"])
        i = rng.randrange(len(text))
        text = text[:i] + token + text[i:]
    # mutation == 3 leaves the query intact
    try:
        run_query(text, cap=10_000)
    except EngineError:
        pass
