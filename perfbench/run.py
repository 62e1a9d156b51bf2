"""jsoniqml benchmark: run one seeded workload, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

Workloads: pipeline, scan, export, queries (see perfbench/README.md). One
client runs operations back to back in this process (a closed loop, no
threads). With `--trace 0` the run reports the end-to-end metrics: set-up
time in fresh interpreters, throughput and median latency over passes with
tracing off, and peak traced allocation from a separate pass under
tracemalloc. Times are in reference seconds (see calibration.py). With
`--trace 1` it alternates untraced and traced passes and reports per-layer
self times and counts. Every output is checked against an oracle; the last
line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 9  # fresh interpreters per run; set-up time is their median
MIN_PASSES = 3  # per timed run, and traced passes per traced run
SEGMENT_NS = 100_000_000  # work between two calibrations within a pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("pipeline", "scan", "export", "queries")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and failed; a failure raised or missed its oracle."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0

    def check(self, index: int, lines) -> None:
        self.attempted += 1
        if isinstance(lines, Exception):
            problem = f"{type(lines).__name__}: {lines}"
        else:
            problem = self.inputs.check(index, lines)
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed: {problem}", file=sys.stderr)

    def check_all(self, outputs) -> None:
        for index, lines in enumerate(outputs):
            self.check(index, lines)


def run_ops(run_op, ops):
    """Run each operation once, in order; yield (ns taken, output lines or
    the exception raised)."""
    for text, variables in ops:
        start = perf_counter_ns()
        try:
            lines = run_op(text, variables)
        except Exception as err:  # a failed operation is counted; the run goes on
            lines = err
        yield perf_counter_ns() - start, lines


def run_pass(run_op, ops) -> "tuple[int, list]":
    """One pass over the operations: (ns taken, per-operation outputs)."""
    total, outputs = 0, []
    for ns, lines in run_ops(run_op, ops):
        total += ns
        outputs.append(lines)
    return total, outputs


def calibrated_pass(run_op, ops, before: int):
    """One pass, calibrating after every SEGMENT_NS of work. Returns
    (per-operation reference ns, outputs, ns as timed, last calibration)."""
    reference, outputs, segment = [], [], []
    timed = segment_ns = 0

    def close_segment():
        nonlocal before, segment_ns
        after = calibration.calibrate()
        factor = calibration.scale(before, after)
        reference.extend(ns * factor for ns in segment)
        segment.clear()
        segment_ns = 0
        before = after

    for ns, lines in run_ops(run_op, ops):
        outputs.append(lines)
        segment.append(ns)
        segment_ns += ns
        timed += ns
        if segment_ns >= SEGMENT_NS:
            close_segment()
    if segment:
        close_segment()
    return reference, outputs, timed, before


def setup_seconds(program) -> "tuple[float, float]":
    """Median time to import jsoniqml and compile `program`, each in a fresh
    interpreter: (reference seconds, seconds as timed)."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=program or "",
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probes.append([float(field) for field in proc.stdout.split()[-2:]])
    return tuple(statistics.median(column) for column in zip(*probes))


def end_to_end(workloads, inputs, tally, seconds):
    setup, setup_timed = setup_seconds(inputs.program)
    run_op = workloads.run_op
    passes, timed = [], []
    before = calibration.calibrate()
    while sum(timed) < seconds * 1e9 or len(passes) < MIN_PASSES:
        op_ns, outputs, pass_ns, before = calibrated_pass(run_op, inputs.ops, before)
        tally.check_all(outputs)
        passes.append(op_ns)
        timed.append(pass_ns)

    # peak allocation per operation, in a pass of its own so that
    # tracemalloc slows no timed pass
    gc.collect()
    peaks = []
    tracemalloc.start()
    try:
        for index, (_, lines) in enumerate(run_ops(run_op, inputs.ops)):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            tally.check(index, lines)
    finally:
        tracemalloc.stop()

    print(f"timed passes: {len(passes)}, operations per pass: {len(inputs.ops)}", file=sys.stderr)
    pass_s = statistics.median(sum(op_ns) for op_ns in passes) / 1e9
    metrics = {
        "setup_s": (setup, "s"),
        "rows_per_s": (inputs.units / pass_s, "1/s"),
        "query_p50_ms": (statistics.median(ns for op_ns in passes for ns in op_ns) / 1e6, "ms"),
        "peak_mem_mb": (statistics.fmean(peaks) / 2**20, "MB"),
    }
    as_timed = {
        "setup_s": setup_timed,
        "rows_per_s": inputs.units / (statistics.median(timed) / 1e9),
    }
    return metrics, as_timed


def per_layer(workloads, inputs, tally, seconds, workload):
    import tracing

    run_op = workloads.run_op
    untraced, traced, tracers = [], [], []
    while sum(untraced) + sum(traced) < seconds * 1e9 or len(traced) < MIN_PASSES:
        total, outputs = run_pass(run_op, inputs.ops)
        tally.check_all(outputs)
        untraced.append(total)

        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            tracer.begin(tracing.ROOT_SPAN)
            total, outputs = run_pass(run_op, inputs.ops)
            tracer.end()
        tally.check_all(outputs)
        traced.append(total)
        tracers.append(tracer)

    counted = defaultdict(int)
    with tracing.counting(counted):
        _, outputs = run_pass(run_op, inputs.ops)
    tally.check_all(outputs)

    print(f"untraced and traced passes: {len(traced)} each", file=sys.stderr)
    metrics = {}
    for name in tracing.SPANS:
        metrics[f"{name}_s"] = (statistics.median(t.self_ns[name] / 1e9 for t in tracers), "s")
    for name in tracing.TRACED_COUNTS:  # the same in every traced pass
        metrics[name] = (tracers[-1].counts[name], "count")
    for name in tracing.COUNTED:
        metrics[name] = (counted[name], "count")
    lines = [line for op in outputs if isinstance(op, list) for line in op]
    metrics["items.serialized_items"] = (len(lines), "count")
    metrics["items.serialized_bytes"] = (sum(len(line.encode()) + 1 for line in lines), "bytes")

    def unattributed(tracer):
        _, _, _, start, end = tracer.spans[-1]  # the root span ends last
        return tracer.self_ns[tracing.ROOT_SPAN] / (end - start)

    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    metrics["trace.unattributed_frac"] = (
        statistics.median(unattributed(t) for t in tracers),
        "fraction",
    )
    metrics["failed_frac"] = (tally.failed / tally.attempted, "fraction")
    raised = any(isinstance(op, Exception) for op in outputs)
    metrics["pipeline.accuracy"] = (0.0 if raised else inputs.accuracy(outputs), "fraction")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}.jsonl", "w", encoding="utf-8") as handle:
        for span_id, parent, name, start, end in tracers[-1].spans:
            span = {"id": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
            handle.write(json.dumps(span) + "\n")
    return metrics, {"untraced_pass_s": statistics.median(untraced) / 1e9}


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    for needed in (ROOT / "src" / "jsoniqml", ROOT / "tests" / "querygen.py"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a repository checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        tally = Tally(inputs)
        _, outputs = run_pass(workloads.run_op, inputs.ops)  # warm-up, checked, not timed
        tally.check_all(outputs)
        if args.trace:
            metrics, as_timed = per_layer(workloads, inputs, tally, args.seconds, args.workload)
        else:
            metrics, as_timed = end_to_end(workloads, inputs, tally, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": inputs.sizes,
        "environment": environment(),
        "reference_s": calibration.REFERENCE_S,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "as_timed": as_timed,
    }
    print(json.dumps(summary), file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    summary_path = OUT / f"{args.workload}-trace{args.trace}.json"
    summary_path.write_text(json.dumps(summary, indent=1) + "\n")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
