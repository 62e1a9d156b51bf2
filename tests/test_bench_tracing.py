"""The benchmark's tracer (perfbench/tracing.py) swaps engine functions by
the names their callers look them up under. Entering and leaving its context
fails fast if one of those names is gone, which otherwise only the slow
benchmark smoke run would show."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_name_it_swaps(monkeypatch):
    # the tracer imports `workloads`, which imports test helpers by module name
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    with tracing.traced(tracing.Tracer()):
        pass
