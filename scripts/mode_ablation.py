"""Execution-mode ablation: run one validate-and-count query over a growing
dataset under each mode policy and report what happens.

force-local (no optimizations) must materialize the validated rows at the
let binding and dies on the cap once the data outgrows it; frame keeps
validation columnar but filters row-at-a-time; auto additionally lowers the
predicate into a column kernel, which compares the `label` column without
reading a row out of the frame. Prints one row per (n, policy).

Usage:
    python scripts/mode_ablation.py --sizes 1000 10000 100000 --cap 10000
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

from jsoniqml.datagen import generate_dataset
from jsoniqml.engine import run_query_lines
from jsoniqml.errors import EngineError

QUERY = """\
let $d := annotate(
  for $l in unparsed-text-lines($input)
  let $tokens := tokenize($l, " ")
  return { "label" : (if (contains(head($tokens), "indoor")) then 0 else 1),
           "v" : head(tail($tokens)) },
  { "label" : "int", "v" : "double" })
return count($d[$$.label eq 1])
"""

POLICIES = ("force-local", "frame", "auto")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 10000, 100000])
    parser.add_argument("--d", type=int, default=4)
    parser.add_argument("--cap", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{'rows':>8}  {'policy':<12} {'outcome':<32} {'time':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            data = Path(tmp) / f"data_{n}.txt"
            generate_dataset(n, args.d, 1.0, args.seed, data)
            for policy in POLICIES:
                started = time.monotonic()
                try:
                    lines = run_query_lines(
                        QUERY, {"input": str(data)}, policy=policy, cap=args.cap
                    )
                    outcome = f"ok, count={lines[0]}"
                except EngineError as err:
                    outcome = f"failed: {err.code}"
                elapsed = time.monotonic() - started
                print(f"{n:>8}  {policy:<12} {outcome:<32} {elapsed:>7.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
