import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from jsoniqml import lexer
from jsoniqml.ast_nodes import (
    FLWOR,
    Expr,
    ForClause,
    LetClause,
    Literal,
    MergedObjectConstructor,
    ObjectConstructor,
    OrderByClause,
    Predicate,
    RangeTo,
    SequenceExpr,
    SourceModule,
    StaticFunctionCall,
    WhereClause,
    walk,
)
from jsoniqml.errors import QueryParseError
from jsoniqml.items import AtomicValue
from jsoniqml.parser import parse, parse_expr_text
from jsoniqml.printer import print_module
from jsoniqml.runtime import _COMPILERS
from querygen import generate_module

PIPELINE_QUERY = (Path(__file__).parent / "data" / "pipeline_query.jq").read_text()


class TestLexer:
    def test_let_binding(self):
        types = [t.type for t in lexer.lex("let $x := 1")]
        assert types == [lexer.NAME, lexer.VAR, ":=", lexer.INTEGER, lexer.EOF]

    def test_context_lookup_comparison(self):
        tokens = lexer.lex("$$.label eq $$.prediction")
        values = [(t.type, t.value) for t in tokens[:-1]]
        assert values == [
            (lexer.CONTEXT, "$$"),
            (".", "."),
            (lexer.NAME, "label"),
            (lexer.NAME, "eq"),
            (lexer.CONTEXT, "$$"),
            (".", "."),
            (lexer.NAME, "prediction"),
        ]

    def test_unterminated_string_position(self):
        with pytest.raises(QueryParseError) as err:
            lexer.lex('"unterminated')
        assert err.value.code == "LEX_ERROR"
        assert err.value.position == (1, 1)

    def test_hyphenated_names(self):
        tokens = lexer.lex("get-transformer($vector-assembler)")
        assert tokens[0].value == "get-transformer"
        assert tokens[2].value == "vector-assembler"

    def test_hyphen_before_digit_is_minus(self):
        tokens = lexer.lex("$a-1")
        assert [t.type for t in tokens[:-1]] == [lexer.VAR, "-", lexer.INTEGER]

    def test_qualified_name(self):
        tokens = lexer.lex("local:convert($x)")
        assert tokens[0].value == "local:convert"

    def test_number_classes(self):
        kinds = [t.type for t in lexer.lex("1 1.5 1.5e2 2e0")][:-1]
        assert kinds == [lexer.INTEGER, lexer.DECIMAL, lexer.DOUBLE, lexer.DOUBLE]

    def test_nested_comment(self):
        tokens = lexer.lex("1 (: a (: b :) c :) 2")
        assert [t.type for t in tokens[:-1]] == [lexer.INTEGER, lexer.INTEGER]

    def test_illegal_character(self):
        with pytest.raises(QueryParseError) as err:
            lexer.lex("1 @ 2")
        assert err.value.position == (1, 3)

    def test_positions_track_lines(self):
        tokens = lexer.lex("1 +\n  2")
        assert tokens[2].line == 2 and tokens[2].col == 3


class TestParser:
    def test_pipeline_program_shape(self):
        module = parse(PIPELINE_QUERY)
        assert isinstance(module, SourceModule)
        assert len(module.prolog) == 1
        assert module.prolog[0].name == "local:convert"
        assert isinstance(module.body, FLWOR)

    def test_positional_for_with_computed_key(self):
        expr = parse_expr_text("for $i at $p in $right return { string($p) : $i }")
        assert isinstance(expr, FLWOR)
        clause = expr.clauses[0]
        assert isinstance(clause, ForClause)
        assert clause.var == "i" and clause.pos_var == "p"
        assert isinstance(expr.return_expr, ObjectConstructor)
        key_expr, _ = expr.return_expr.pairs[0]
        assert isinstance(key_expr, StaticFunctionCall) and key_expr.name == "string"

    def test_missing_comma_is_parse_error(self):
        with pytest.raises(QueryParseError) as err:
            parse_expr_text('{ "a": 1 "b": 2 }')
        assert err.value.code == "PARSE_ERROR"
        assert err.value.position is not None

    def test_merged_object_constructor(self):
        expr = parse_expr_text("{| for $i in 1 to 3 return { string($i) : 0.0 } |}")
        assert isinstance(expr, MergedObjectConstructor)
        assert isinstance(expr.source, FLWOR)

    def test_predicate_binds_context(self):
        expr = parse_expr_text("$prediction[$$.label eq $$.prediction]")
        assert isinstance(expr, Predicate)

    def test_range(self):
        expr = parse_expr_text("1 to 4096")
        assert isinstance(expr, RangeTo)

    def test_empty_parens(self):
        expr = parse_expr_text("()")
        assert isinstance(expr, SequenceExpr) and expr.inner is None

    def test_duplicate_function_rejected(self):
        text = (
            "declare function local:f($x) { $x };\n"
            "declare function local:f($y) { $y };\n1"
        )
        with pytest.raises(QueryParseError):
            parse(text)

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(QueryParseError):
            parse("declare function local:f($x, $x) { $x };\n1")

    def test_reserved_word_not_callable(self):
        with pytest.raises(QueryParseError):
            parse_expr_text("return(1)")

    def test_dangling_operator(self):
        with pytest.raises(QueryParseError):
            parse_expr_text("1 +")


def _strip(node):
    """Structural normal form: positions dropped, redundant grouping unwrapped."""
    from dataclasses import fields, is_dataclass

    if isinstance(node, SequenceExpr) and node.inner is not None:
        return _strip(node.inner)
    if is_dataclass(node) and not isinstance(node, type):
        values = []
        for f in fields(node):
            if f.name in ("pos", "binding", "target"):
                continue
            values.append((f.name, _strip(getattr(node, f.name))))
        return (type(node).__name__, tuple(values))
    if isinstance(node, list):
        return tuple(_strip(v) for v in node)
    if isinstance(node, tuple):
        return tuple(_strip(v) for v in node)
    return node


class TestPrinterRoundTrip:
    @given(st.integers(0, 10**9))
    @settings(max_examples=120)
    def test_parse_print_parse(self, seed):
        module = generate_module(seed)
        text = print_module(module)
        reparsed = parse(text)
        assert _strip(reparsed) == _strip(module)

    def test_pipeline_round_trip(self):
        module = parse(PIPELINE_QUERY)
        assert _strip(parse(print_module(module))) == _strip(module)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60)
    def test_positions_within_bounds(self, seed):
        text = print_module(generate_module(seed))
        module = parse(text)
        lines = _LINE_BREAK.split(text)
        for node in walk(module):
            line, col = node.pos
            assert 1 <= line <= len(lines)
            assert 1 <= col <= len(lines[line - 1]) + 1


class _Sentinels:
    """Distinct leaf expressions to fill a node's expression-valued fields."""

    def __init__(self):
        self.count = 0

    def one(self) -> Expr:
        self.count += 1
        return Literal(AtomicValue("integer", self.count))

    def value_for(self, annotation: str):
        annotation = annotation.strip("'\"")
        if annotation in ("Expr", "Optional[Expr]"):
            return self.one()
        if annotation == "list[Expr]":
            return [self.one(), self.one()]
        if annotation == "list[tuple[Expr, Expr]]":
            return [(self.one(), self.one()), (self.one(), self.one())]
        if annotation == "list[Clause]":
            return [
                ForClause("a", "i", self.one()),
                LetClause("b", self.one()),
                WhereClause(self.one()),
                OrderByClause(self.one()),
            ]
        assert "Expr" not in annotation and "Clause" not in annotation, annotation
        return None


def _expr_values(value) -> list:
    """Every Expr a field value holds, in declaration order, lists and
    key/value pairs flattened, clause fields looked into."""
    if isinstance(value, Expr):
        return [value]
    if isinstance(value, (list, tuple)):
        return [e for v in value for e in _expr_values(v)]
    if is_dataclass(value):
        return [e for f in fields(value) for e in _expr_values(getattr(value, f.name))]
    return []


class TestNodeShape:
    @pytest.mark.parametrize("cls", Expr.__subclasses__(), ids=lambda c: c.__name__)
    def test_children_are_the_expression_fields_in_order(self, cls):
        sentinels = _Sentinels()
        node = cls(**{f.name: sentinels.value_for(f.type) for f in fields(cls) if f.name != "pos"})
        expected = [e for f in fields(cls) for e in _expr_values(getattr(node, f.name))]
        assert [id(c) for c in node.children()] == [id(e) for e in expected]
        if isinstance(node, FLWOR):
            assert [id(c) for c in node.children()] == [
                id(clause.expr) for clause in node.clauses
            ] + [id(node.return_expr)]

    def test_empty_sequence_has_no_children(self):
        assert list(SequenceExpr(None).children()) == []

    def test_kinds_are_the_runtime_compilers(self):
        kinds = [cls.kind for cls in Expr.__subclasses__()]
        assert len(kinds) == len(set(kinds))
        assert set(kinds) == set(_COMPILERS)


# Inserted between tokens: whitespace, and comments that span lines and nest.
_SEPARATORS = (
    " ", "\n", "\t ", " \r\n  ", " (: one :) ", "\n(: a\n  b :)\n", " (: x (: y\n:)\n z :)",
    "\r", "\r\n", " (: a\r b\r\n :)\r",
)
# a line break is \n, \r\n or a lone \r
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def _spelling(token) -> str:
    if token.type == lexer.VAR:
        return "$" + token.value
    if token.type == lexer.STRING:
        return json.dumps(token.value, ensure_ascii=False)
    return token.value


def _position(text: str, offset: int) -> "tuple[int, int]":
    breaks = list(_LINE_BREAK.finditer(text, 0, offset))
    line_start = breaks[-1].end() if breaks else 0
    return len(breaks) + 1, offset - line_start + 1


class TestTokenPositions:
    @given(st.integers(0, 10**9), st.randoms(use_true_random=False))
    @settings(max_examples=120)
    def test_each_token_points_at_its_spelling(self, seed, rng):
        original = lexer.lex(print_module(generate_module(seed)))[:-1]
        parts, offsets, size = [], [], 0
        for token in original:
            sep = rng.choice(_SEPARATORS)
            parts.append(sep)
            offsets.append(size + len(sep))
            parts.append(_spelling(token))
            size += len(sep) + len(parts[-1])
        text = "".join(parts)
        tokens = lexer.lex(text)
        assert [(t.type, t.value) for t in tokens[:-1]] == [(t.type, t.value) for t in original]
        lines = _LINE_BREAK.split(text)
        for token, offset in zip(tokens, offsets):
            assert (token.line, token.col) == _position(text, offset)
            spelling = '"' if token.type == lexer.STRING else _spelling(token)
            assert lines[token.line - 1][token.col - 1 :].startswith(spelling)
        assert (tokens[-1].line, tokens[-1].col) == _position(text, len(text))
        sep = rng.choice(_SEPARATORS)
        with pytest.raises(QueryParseError) as err:
            lexer.lex(text + sep + "@")
        assert err.value.code == "LEX_ERROR"
        assert err.value.position == _position(text + sep, len(text + sep))

    def test_lex_error_after_multiline_comment(self):
        with pytest.raises(QueryParseError) as err:
            lexer.lex("1 (: a\n(: b\n :)\n:) + @")
        assert err.value.code == "LEX_ERROR"
        assert err.value.position == (4, 6)
