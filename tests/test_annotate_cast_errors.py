"""Golden rows: each cast error that an `annotate` can reach through the
validator, from a bad value in row 20 of 40 text lines, so that under `auto`
and `frame` it sits inside the second batch of a batched annotate (where the
row has a batch plan at all). The cast's own error (`items.cast_value`: a
RANGE_ERROR, LEXICAL_ERROR or NO_CAST_RULE) reaches the caller as the
validator's VALIDATION_ERROR, with the cast's message after the field's path.
Every policy must raise exactly the same error at the same position.
"""

import pytest

from jsoniqml.engine import run_query_lines
from jsoniqml.errors import EngineError

QUERY = """count(annotate(
  for $l in unparsed-text-lines($input)
  let $t := tokenize($l, " ")
  return {{ "v" : {value} }},
  {{ "v" : "{kind}" }}))"""

_BAD = 'if (contains($l, "bad")) then {} else {}'

# (schema kind, the row's value, the other rows' line, row 20's line, message)
GOLDEN = [
    (
        "int", _BAD.format("1e400", "1"), "1", "bad",
        "cannot cast double to int: cannot cast inf to int",
    ),
    (
        "decimal", _BAD.format("(0 div 0)", "1.5"), "1", "bad",
        "cannot cast double to decimal: cannot cast nan to decimal",
    ),
    (
        "byte", _BAD.format("300", "1"), "1", "bad",
        "cannot cast integer to byte: 300 out of range for byte",
    ),
    (
        "decimal", "head($t)", "1.5", "1.5x",
        "cannot cast string to decimal: cannot parse '1.5x' as decimal",
    ),
    (
        "boolean", "head($t)", "true", "yes",
        "cannot cast string to boolean: cannot parse 'yes' as boolean",
    ),
    (
        "date", "head($t)", "2020-01-01", "2020-13-01",
        "cannot cast string to date: cannot parse '2020-13-01' as date",
    ),
    (
        "dateTime", "head($t)", "2020-01-01T00:00:00", "2020-01-01T25:00:00",
        "cannot cast string to dateTime: cannot parse '2020-01-01T25:00:00' as dateTime",
    ),
    (
        "dateTime", "head($t)", "2020-01-01T00:00:00", "2020-01-01T00:00:00+01:00",
        "cannot cast string to dateTime: timezones are unsupported",
    ),
    (
        "int", _BAD.format("true", "head($t)"), "7", "bad",
        "cannot cast boolean to int: no cast from boolean to int",
    ),
]


@pytest.mark.parametrize("policy", ["auto", "frame", "force-local"])
@pytest.mark.parametrize("kind,value,good,bad,message", GOLDEN)
def test_cast_error_in_row_20(tmp_path, policy, kind, value, good, bad, message):
    lines = [good] * 40
    lines[20] = bad
    path = tmp_path / "rows.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    query = QUERY.format(value=value, kind=kind)
    with pytest.raises(EngineError) as info:
        run_query_lines(query, {"input": str(path)}, policy=policy)
    err = info.value
    assert (err.code, err.message, err.position) == (
        "VALIDATION_ERROR", f"row 20: at $.v: {message}", (1, 7)
    )


@pytest.mark.parametrize("policy", ["auto", "frame", "force-local"])
@pytest.mark.parametrize("kind,value,good,bad,message", GOLDEN)
def test_the_good_rows_alone_pass(tmp_path, policy, kind, value, good, bad, message):
    path = tmp_path / "rows.txt"
    path.write_text(f"{good}\n" * 40, encoding="utf-8")
    query = QUERY.format(value=value, kind=kind)
    assert run_query_lines(query, {"input": str(path)}, policy=policy) == ["40"]
