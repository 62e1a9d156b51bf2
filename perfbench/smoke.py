"""Smoke check of the benchmark at tiny input sizes.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json and both modes, runs perfbench/run.py
with --tiny and checks that it exits 0, that the metrics it prints are
exactly the ones BENCHMARK.json names, with their units, and that every
oracle passed. Then checks that run.py fails without printing a result in a
directory that holds only the benchmark. Exits 1 on any problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def check_runs(spec) -> "list[str]":
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                differ = sorted(set(printed.items()) ^ set(expected.items()))
                problems.append(f"{where}: metrics differ: {differ}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures = f"{result['failed']}/{result['attempted']}"
                problems.append(f"{where}: oracle failures: {failures}")
            print(f"{where}: {len(printed)} metrics, {result['attempted']} operations checked")
    return problems


def check_bare_directory() -> "list[str]":
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "pipeline", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"benchmark-only directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"benchmark-only directory: exit {proc.returncode}, no result")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_runs(spec) + check_bare_directory()
    for problem in problems:
        print(f"problem: {problem}")
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
