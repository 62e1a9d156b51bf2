"""Layer spans recorded from outside the engine.

The engine has no tracing of its own, so a traced pass swaps the public
function at each module boundary for a wrapper that records a span (id,
parent id, name, start, end) in memory, and puts the original back after
the pass. Names are swapped where the caller looks them up: `parse` as
`jsoniqml.engine` imported it, `validate_item` as `jsoniqml.frame` imported
it (so only the outermost call of the recursion is a span), and so on.

A layer's self time is its span's duration minus its child spans'. Spans nest
on the call stack, so children never overlap and their sum is the covered part.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import jsoniqml.engine as engine
import jsoniqml.frame as frame_module
import jsoniqml.runtime as runtime
from jsoniqml import builtins as builtins_module
from jsoniqml.ml import kernels, registry

import workloads

ROOT_SPAN = "pass"

# each span's self time per pass is the per-layer metric `<span>_s`
SPANS = (
    "parser.parse",
    "resolver.resolve",
    "modes.build_tree",
    "modes.infer",
    "runtime.eval",
    "runtime.row_build",
    "schema.validate",
    "frame.annotate",
    "frame.filter",
    "frame.take",
    "frame.readout",
    "ml.fit",
    "ml.transform",
    "ml.predict",
    "ml.features_matrix",
    "ml.gd_fit",
    "items.serialize",
)

# counts taken in the traced passes
TRACED_COUNTS = (
    "schema.validate_calls",
    "frame.annotate_rows",
    "frame.filter_rows_in",
    "frame.filter_rows_out",
    "frame.rows_read",
    "ml.fit_rows",
)

# counts taken in a separate untimed pass, because the wrapper around every
# `Evaluator.evaluate` call would distort the traced times
COUNTED = ("runtime.evaluate_calls", "modes.iterators")

_ML_SPANS = {"estimator": "ml.fit", "transformer": "ml.transform", "model": "ml.predict"}


class Tracer:
    """Spans of one pass, held in memory, with self time summed per name."""

    def __init__(self):
        self.spans: "list[tuple[int, int, str, int, int]]" = []
        self.self_ns: "dict[str, int]" = defaultdict(int)
        self.counts: "dict[str, int]" = defaultdict(int)
        self._stack: list = []  # [id, name, start, ns covered by children]
        self._last_id = 0

    def begin(self, name: str) -> None:
        self._last_id += 1
        self._stack.append([self._last_id, name, perf_counter_ns(), 0])

    def end(self) -> None:
        end = perf_counter_ns()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - covered
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.spans.append((span_id, parent_id, name, start, end))

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced


@contextmanager
def _swapped(replacements):
    """Set each (owner, attribute, value); restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    for owner, attr, value in replacements:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def traced(tracer: Tracer):
    """Context in which every layer boundary records spans into `tracer`."""
    Frame = frame_module.Frame
    Evaluator = runtime.Evaluator
    counts = tracer.counts

    orig_annotate = builtins_module.annotate_rows

    def row_pulls(rows):
        # annotate pulls its rows lazily from the row-building FLWOR
        rows = iter(rows)
        while True:
            tracer.begin("runtime.row_build")
            try:
                row = next(rows)
            except StopIteration:
                return
            finally:
                tracer.end()
            yield row

    def annotate_rows(rows, descriptor):
        tracer.begin("frame.annotate")
        try:
            result = orig_annotate(row_pulls(rows), descriptor)
        finally:
            tracer.end()
        counts["frame.annotate_rows"] += result.nrows
        return result

    orig_validate = frame_module.validate_item
    wrapped_validate = tracer.wrap(orig_validate, "schema.validate")

    def validate_item(*args, **kwargs):
        counts["schema.validate_calls"] += 1
        return wrapped_validate(*args, **kwargs)

    orig_filter = runtime.frame_filter

    def frame_filter(frame, *args, **kwargs):
        tracer.begin("frame.filter")
        try:
            result = orig_filter(frame, *args, **kwargs)
        finally:
            tracer.end()
        counts["frame.filter_rows_in"] += frame.nrows
        counts["frame.filter_rows_out"] += result.nrows
        return result

    wrapped_row_item = tracer.wrap(Frame.row_item, "frame.readout")

    def row_item(self, i):
        counts["frame.rows_read"] += 1
        return wrapped_row_item(self, i)

    orig_invoke = Evaluator.invoke_function

    def invoke_function(self, fn, args, pos):
        name = None
        if fn.native is not None:
            name = _ML_SPANS.get(fn.native.tag.split(":", 1)[0])
        if name is None:
            return orig_invoke(self, fn, args, pos)
        tracer.begin(name)
        try:
            return orig_invoke(self, fn, args, pos)
        finally:
            tracer.end()

    wrapped_gd_fit = tracer.wrap(kernels.gd_fit, "ml.gd_fit")

    def gd_fit(X, *args, **kwargs):
        counts["ml.fit_rows"] += X.shape[0]
        return wrapped_gd_fit(X, *args, **kwargs)

    return _swapped(
        [
            (engine, "parse", tracer.wrap(engine.parse, "parser.parse")),
            (engine, "resolve", tracer.wrap(engine.resolve, "resolver.resolve")),
            (engine, "build_tree", tracer.wrap(engine.build_tree, "modes.build_tree")),
            (
                engine,
                "infer_execution_modes",
                tracer.wrap(engine.infer_execution_modes, "modes.infer"),
            ),
            (workloads, "evaluate", tracer.wrap(workloads.evaluate, "runtime.eval")),
            (builtins_module, "annotate_rows", annotate_rows),
            (frame_module, "validate_item", validate_item),
            (builtins_module, "validate_item", validate_item),
            (runtime, "frame_filter", frame_filter),
            (Frame, "take", tracer.wrap(Frame.take, "frame.take")),
            (Frame, "row_item", row_item),
            (Evaluator, "invoke_function", invoke_function),
            (
                registry,
                "features_matrix",
                tracer.wrap(registry.features_matrix, "ml.features_matrix"),
            ),
            (kernels, "gd_fit", gd_fit),
            (
                workloads,
                "canonical_serialize",
                tracer.wrap(workloads.canonical_serialize, "items.serialize"),
            ),
        ]
    )


def counting(counts: "dict[str, int]"):
    """Context that counts `Evaluator.evaluate` calls and compiled iterators."""
    Evaluator = runtime.Evaluator
    orig_evaluate = Evaluator.evaluate
    orig_build = engine.build_tree

    def evaluate(self, it, ctx):
        counts["runtime.evaluate_calls"] += 1
        return orig_evaluate(self, it, ctx)

    def build_tree(resolved):
        tree = orig_build(resolved)
        roots = [tree.root] + [info.body for info in tree.functions.values()]
        counts["modes.iterators"] += sum(1 for root in roots for _ in root.walk())
        return tree

    return _swapped([(Evaluator, "evaluate", evaluate), (engine, "build_tree", build_tree)])
