"""The benchmark's four workloads: seeded inputs, the programs they run, and
output oracles that do not use the evaluator under test.

Every workload runs under the default `auto` mode policy. One operation is
`run_op`: compile a query, evaluate it, and serialize each top-level item,
which is what `jsoniqml run` does for one query. A pass runs a workload's
operations once, in order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from jsoniqml import canonical_serialize, compile_query, evaluate_query
from jsoniqml.builtins import CATALOG
from jsoniqml.datagen import generate_dataset
from jsoniqml.errors import EngineError
from jsoniqml.printer import print_module
from jsoniqml.resolver import resolve
from jsoniqml.runtime import DEFAULT_CAP

import reference_eval
from querygen import generate_module

ROOT = Path(__file__).resolve().parent.parent
PIPELINE_QUERY = ROOT / "tests" / "data" / "pipeline_query.jq"

# Narrow rows as in scripts/mode_ablation.py, counted under three predicates
# that `auto` lowers into frame filters.
SCAN_QUERY = """\
let $d := annotate(
  for $l in unparsed-text-lines($input)
  let $tokens := tokenize($l, " ")
  return { "label" : (if (contains(head($tokens), "indoor")) then 0 else 1),
           "v" : head(tail($tokens)) },
  { "label" : "int", "v" : "double" })
return [count($d[$$.label eq 1]),
        count($d[$$.v gt 0]),
        count($d[$$.label eq 0 and $$.v lt 0.25])]
"""


def evaluate(compiled, variables) -> list:
    """Evaluate a compiled query and collect its top-level items."""
    return evaluate_query(compiled, variables).materialize(DEFAULT_CAP)


def run_op(text: str, variables: dict) -> "list[str]":
    """One operation: compile, evaluate, serialize each top-level item."""
    compiled = compile_query(text)
    return [canonical_serialize(item) for item in evaluate(compiled, variables)]


@dataclass
class Inputs:
    program: Optional[str]  # compiled by the set-up probe; None: import only
    ops: "list[tuple[str, dict]]"  # (query text, variables), run in order by a pass
    units: int  # input rows (or queries) one pass takes through
    sizes: dict
    # check(op index, output lines) -> None, or why the output is wrong
    check: "Callable[[int, list[str]], Optional[str]]"
    accuracy: "Callable[[list[list[str]]], float]" = lambda outputs: 0.0


def _split_line(line: str) -> "tuple[int, list[str]]":
    tokens = line.split(" ")
    return (0 if "indoor" in tokens[0] else 1), tokens[1:]


def _read_lines(path: Path) -> "list[str]":
    return path.read_text(encoding="utf-8").splitlines()


def _dataset(rng: random.Random, n: int, d: int, path: Path) -> Path:
    generate_dataset(n, d, 1.0, rng.randrange(2**31), path)
    return path


def pipeline(seed: int, workdir: Path, tiny: bool) -> Inputs:
    n_train, n_test = (160, 40) if tiny else (240, 60)
    rng = random.Random(seed)
    train = _dataset(rng, n_train, 64, workdir / "train.txt")
    test = _dataset(rng, n_test, 64, workdir / "test.txt")
    text = PIPELINE_QUERY.read_text(encoding="utf-8")
    first: "list[list[str]]" = []

    def check(index, lines):
        if not first:
            first.append(lines)
        if lines != first[0]:
            return "output differs from the first pass"
        if len(lines) != 1:
            return f"expected one accuracy line, got {len(lines)}"
        accuracy = json.loads(lines[0])
        if not accuracy >= 0.95:
            return f"accuracy {accuracy} is below 0.95"
        return None

    return Inputs(
        program=text,
        ops=[(text, {"training-input": str(train), "test-input": str(test)})],
        units=n_train + n_test,
        sizes={"train_rows": n_train, "test_rows": n_test, "d": 64, "maxIter": 5},
        check=check,
        accuracy=lambda outputs: float(json.loads(outputs[0][0])),
    )


def scan(seed: int, workdir: Path, tiny: bool) -> Inputs:
    n = 200 if tiny else 3000
    path = _dataset(random.Random(seed), n, 4, workdir / "scan.txt")
    rows = [_split_line(line) for line in _read_lines(path)]
    rows = [(label, float(features[0])) for label, features in rows]
    expected = [
        sum(1 for label, _ in rows if label == 1),
        sum(1 for _, v in rows if v > 0),
        sum(1 for label, v in rows if label == 0 and v < 0.25),
    ]

    def check(index, lines):
        if len(lines) != 1 or json.loads(lines[0]) != expected:
            return f"expected counts {expected}, got {lines}"
        return None

    return Inputs(
        program=SCAN_QUERY,
        ops=[(SCAN_QUERY, {"input": str(path)})],
        units=n,
        sizes={"rows": n, "d": 4, "predicates": 3},
        check=check,
    )


def export_query() -> str:
    """The pipeline program's `local:convert` declaration, applied to one file."""
    text = PIPELINE_QUERY.read_text(encoding="utf-8")
    prolog = text[: text.index("let $training-data")]
    return prolog + "local:convert($input)\n"


def export(seed: int, workdir: Path, tiny: bool) -> Inputs:
    n = 40 if tiny else 250
    path = _dataset(random.Random(seed), n, 64, workdir / "export.txt")
    expected = []
    for line in _read_lines(path):
        label, features = _split_line(line)
        expected.append(
            {
                "label": str(label),
                "features": {str(p): float(v) for p, v in enumerate(features, start=1)},
            }
        )
    text = export_query()

    def check(index, lines):
        if len(lines) != len(expected):
            return f"expected {len(expected)} rows, got {len(lines)}"
        for i, (line, want) in enumerate(zip(lines, expected)):
            if json.loads(line) != want:
                return f"row {i} differs from its input line"
        return None

    return Inputs(
        program=text,
        ops=[(text, {"input": str(path)})],
        units=n,
        sizes={"rows": n, "d": 64},
        check=check,
    )


def queries(seed: int, workdir: Path, tiny: bool) -> Inputs:
    """Generated queries whose reference result is a value, not an error.

    The oracle evaluates the generator's own syntax tree, so the engine's
    printer-parser round trip is checked along with its evaluator.
    """
    n = 20 if tiny else 2000
    rng = random.Random(seed)
    ops, expected = [], []
    while len(ops) < n:
        query_seed = rng.randrange(2**31)
        text = print_module(generate_module(query_seed))
        try:
            resolved = resolve(generate_module(query_seed), set(CATALOG))
            items = reference_eval.evaluate_module(resolved)
        except EngineError:
            continue
        ops.append((text, {}))
        expected.append([canonical_serialize(item) for item in items])

    def check(index, lines):
        if lines != expected[index]:
            return f"query {index} differs from the reference evaluator"
        return None

    return Inputs(
        program=None,
        ops=ops,
        units=n,
        sizes={"queries": n},
        check=check,
    )


WORKLOADS = {"pipeline": pipeline, "scan": scan, "export": export, "queries": queries}
