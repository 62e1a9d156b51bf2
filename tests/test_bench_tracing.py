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


def test_tracer_counts_frame_mode_annotate(monkeypatch):
    # the tracer reaches annotate's row sink through the name
    # `builtins.annotate_rows`; the sink casts rows without `validate_item`
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    from jsoniqml import run_query

    tracer = tracing.Tracer()
    query = 'count(annotate(for $i in 1 to 3 return {"a": string($i)}, {"a": "double"}))'
    with tracing.traced(tracer):
        result = run_query(query, policy="frame")
    assert [item.value for item in result] == [3]
    assert tracer.counts["frame.annotate_rows"] == 3
    assert tracer.counts["schema.validate_calls"] == 0
    assert tracer.self_ns["frame.annotate"] > 0
