"""The benchmark's tracer (perfbench/tracing.py) swaps engine functions by
the names their callers look them up under. Entering and leaving its context
fails fast if one of those names is gone, which otherwise only the slow
benchmark smoke run would show."""

from pathlib import Path

import pytest

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


NARROW = (
    'annotate(for $i in 1 to 5 return {"a": $i, "s": string($i)}, '
    '{"a": "int", "s": "string"})'
)


@pytest.mark.parametrize(
    "condition,count,rows_read",
    [
        # the column kernel filters without reading a row
        ("$$.a gt 2", 3, 0),
        ('$$.a mod 2 eq 1 and contains($$.s, "3")', 1, 0),
        # a string column compared with an integer: the kernel refuses and
        # the per-row path reads the rows; `and` spares every row here ...
        ("$$.a gt 9 and $$.s eq 1", 0, 5),
        # ... and here the first row raises
        ("$$.s eq 1", None, 1),
    ],
)
def test_tracer_counts_lowered_filters(monkeypatch, condition, count, rows_read):
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    from jsoniqml import run_query
    from jsoniqml.errors import DynamicError

    tracer = tracing.Tracer()
    query = f"count({NARROW}[{condition}])"
    with tracing.traced(tracer):
        if count is None:
            with pytest.raises(DynamicError, match="row 0: cannot compare"):
                run_query(query, policy="auto")
        else:
            assert [item.value for item in run_query(query, policy="auto")] == [count]
    assert tracer.counts["frame.rows_read"] == rows_read
    if count is not None:
        assert tracer.counts["frame.filter_rows_in"] == 5
        assert tracer.counts["frame.filter_rows_out"] == count
