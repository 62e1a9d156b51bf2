"""Command-line driver.

Subcommands:
    run       execute a query file against bound external variables
    gen-data  write a synthetic messy-text dataset
    to-libsvm validate a JSON-lines file against a schema and write LibSVM

Every subcommand exits 0 on success and otherwise with the error's
exit-code family: 1 parse, 2 resolve, 3 dynamic (also for nesting or
recursion too deep), 4 io, 5 materialization cap. `run` writes its results
to stdout (or --output), one canonical line per top-level item; diagnostics
go to stderr only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import compile_query, evaluate_query
from .errors import EngineError, SourceIOError
from .frame import annotate_rows
from .items import (
    AtomicValue,
    Item,
    canonical_serialize,
    parse_canonical,
    render_atomic,
)
from .datagen import generate_dataset
from .libsvm import write_libsvm
from .modes import POLICIES, POLICY_AUTO
from .runtime import DEFAULT_CAP


def _parse_var(text: str) -> "tuple[str, Item]":
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise SystemExit(f"--var expects NAME=VALUE, got {text!r}")
    try:
        item = parse_canonical(raw)
    except EngineError:
        item = AtomicValue("string", raw)
    return name, item


def _render(item: Item, output_format: str) -> str:
    if output_format == "text" and isinstance(item, AtomicValue):
        return render_atomic(item)
    return canonical_serialize(item)


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise SourceIOError(f"cannot read {what}{path}: {err}") from err


def _cmd_run(args) -> None:
    variables = dict(_parse_var(v) for v in args.var or [])
    query_text = _read(args.query, "query ")
    if args.schema:
        variables["schema"] = parse_canonical(_read(args.schema, "schema "))
    compiled = compile_query(query_text, args.mode)
    result = evaluate_query(compiled, variables, cap=args.cap)

    sink = sys.stdout
    if args.output is not None:
        try:
            sink = open(args.output, "w", encoding="utf-8")
        except OSError as err:
            raise SourceIOError(f"cannot write {args.output}: {err}") from err
    try:
        for item in result.iter_items():
            sink.write(_render(item, args.format))
            sink.write("\n")
    finally:
        if sink is not sys.stdout:
            sink.close()


def _cmd_gen_data(args) -> None:
    generate_dataset(args.n, args.d, args.margin, args.seed, args.output)


def _cmd_to_libsvm(args) -> None:
    lines = _read(args.input, "").splitlines()
    descriptor = parse_canonical(_read(args.schema, "schema "))
    rows = (parse_canonical(line) for line in lines if line.strip())
    frame = annotate_rows(rows, descriptor)
    write_libsvm(frame, args.label, args.features, args.output)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jsoniqml")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a query file")
    p_run.add_argument("--query", required=True)
    p_run.add_argument(
        "--var",
        action="append",
        metavar="NAME=VALUE",
        help="external variable; VALUE parsed as JSON when possible, else bound as a string",
    )
    p_run.add_argument("--output")
    p_run.add_argument("--format", choices=("json-lines", "text"), default="json-lines")
    p_run.add_argument("--mode", choices=POLICIES, default=POLICY_AUTO)
    p_run.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_run.add_argument("--schema", help="JSON schema file bound as $schema")
    p_run.set_defaults(fn=_cmd_run)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic messy dataset")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--margin", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(fn=_cmd_gen_data)

    p_svm = sub.add_parser("to-libsvm", help="convert validated JSON lines to LibSVM")
    p_svm.add_argument("--input", required=True)
    p_svm.add_argument("--schema", required=True)
    p_svm.add_argument("--label", default="label")
    p_svm.add_argument("--features", default="features")
    p_svm.add_argument("--output", required=True)
    p_svm.set_defaults(fn=_cmd_to_libsvm)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; an error is printed to stderr as
    `error[CODE]( at line L, column C): message` and sets the exit code."""
    args = build_arg_parser().parse_args(argv)
    try:
        args.fn(args)
    except EngineError as err:
        position = ""
        if err.position is not None:
            position = f" at line {err.position[0]}, column {err.position[1]}"
        print(f"error[{err.code}]{position}: {err.message}", file=sys.stderr)
        return err.exit_code
    except RecursionError:
        print("error[RECURSION_LIMIT]: query nesting or recursion too deep", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
