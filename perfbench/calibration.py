"""A fixed pure-Python loop that measures how fast the machine runs right now.

The benchmark shares its machine with other tenants, who slow it by up to
half, for seconds at a time and at random. Each timed interval is therefore
bracketed by this loop, and reported in units of the loop's time scaled to
REFERENCE_S, its time on the unloaded 2-CPU machine the benchmark was defined
on. The loop does the kind of work the engine does (string splits, float
parsing, small objects, dict inserts and lookups) and uses nothing from the
engine, so a change to the engine cannot change it.
"""

from __future__ import annotations

import random
from time import perf_counter_ns

REFERENCE_S = 0.030

_WORDS = ("alpha", "beta", "gamma", "delta")


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _loop() -> int:
    rng = random.Random(5)
    kept = 0
    for _ in range(2000):
        line = " ".join(f"{rng.random():.3f}" for _ in range(16))
        row = {}
        for i, token in enumerate(line.split(" ")):
            row[str(i)] = _Cell(_WORDS[i % 4], float(token))
        kept += sum(1 for cell in row.values() if cell.value > 0.5)
    return kept


def calibrate() -> int:
    """Nanoseconds the loop takes now."""
    start = perf_counter_ns()
    _loop()
    return perf_counter_ns() - start


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that turns an interval timed between two calibrations into
    reference seconds per second measured."""
    return REFERENCE_S * 1e9 / ((before_ns + after_ns) / 2)
