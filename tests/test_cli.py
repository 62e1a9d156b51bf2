from jsoniqml.cli import main


def run_cli(*argv):
    return main(list(argv))


def write(path, text):
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_simple_query_to_stdout(self, tmp_path, capsys):
        query = write(tmp_path / "q.jq", "1 + 1")
        assert run_cli("run", "--query", query) == 0
        assert capsys.readouterr().out == "2\n"

    def test_output_file(self, tmp_path):
        query = write(tmp_path / "q.jq", "for $i in 1 to 3 return $i")
        out = tmp_path / "out.txt"
        assert run_cli("run", "--query", query, "--output", str(out)) == 0
        assert out.read_text() == "1\n2\n3\n"

    def test_var_binds_string(self, tmp_path, capsys):
        query = write(tmp_path / "q.jq", "contains($name, \"oo\")")
        assert run_cli("run", "--query", query, "--var", "name=foo") == 0
        assert capsys.readouterr().out == "true\n"

    def test_var_binds_json(self, tmp_path, capsys):
        query = write(tmp_path / "q.jq", "$config.k + 1")
        assert run_cli("run", "--query", query, "--var", 'config={"k": 41}') == 0
        assert capsys.readouterr().out == "42\n"

    def test_text_format_unquotes_strings(self, tmp_path, capsys):
        query = write(tmp_path / "q.jq", '"hello"')
        assert run_cli("run", "--query", query, "--format", "text") == 0
        assert capsys.readouterr().out == "hello\n"

    def test_schema_file_binding(self, tmp_path, capsys):
        schema = write(tmp_path / "s.json", '{"v": "double"}')
        query = write(
            tmp_path / "q.jq",
            'count(annotate((for $i in 1 to 3 return {"v": $i}), $schema))',
        )
        assert run_cli("run", "--query", query, "--schema", schema) == 0
        assert capsys.readouterr().out == "3\n"


class TestExitCodes:
    def test_parse_error_is_1(self, tmp_path, capsys):
        query = write(tmp_path / "q.jq", '{ "a": 1 "b": 2 }')
        assert run_cli("run", "--query", query) == 1
        err = capsys.readouterr().err
        assert "PARSE_ERROR" in err and "line 1" in err

    def test_lex_error_is_1(self, tmp_path):
        query = write(tmp_path / "q.jq", '"unterminated')
        assert run_cli("run", "--query", query) == 1

    def test_resolve_error_is_2(self, tmp_path, capsys):
        query = write(tmp_path / "q.jq", "local:missing(1)")
        assert run_cli("run", "--query", query) == 2
        assert "UNKNOWN_FUNCTION" in capsys.readouterr().err

    def test_dynamic_error_is_3(self, tmp_path):
        query = write(tmp_path / "q.jq", '1 + "a"')
        assert run_cli("run", "--query", query) == 3

    def test_io_error_is_4(self, tmp_path):
        query = write(tmp_path / "q.jq", 'unparsed-text-lines("/definitely/missing.txt")')
        assert run_cli("run", "--query", query) == 4

    def test_non_utf8_input_is_4(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_bytes(b"ok line\n\xff\xfe not utf-8\n")
        query = write(tmp_path / "q.jq", f'count(unparsed-text-lines("{data}"))')
        assert run_cli("run", "--query", query) == 4
        err = capsys.readouterr().err
        assert err.startswith("error[IO_ERROR] at line 1, column 7:")
        assert "Traceback" not in err

    def test_missing_query_file_is_4(self, tmp_path):
        assert run_cli("run", "--query", str(tmp_path / "absent.jq")) == 4

    def test_cap_error_is_5(self, tmp_path):
        query = write(tmp_path / "q.jq", "let $s := 1 to 1000 return count($s)")
        assert run_cli("run", "--query", query, "--cap", "10") == 5

    def test_errors_go_to_stderr_only(self, tmp_path, capsys):
        query = write(tmp_path / "q.jq", '1 + "a"')
        run_cli("run", "--query", query)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "TYPE_ERROR" in captured.err


class TestGenData:
    def test_generates_file(self, tmp_path):
        out = tmp_path / "d.txt"
        assert run_cli(
            "gen-data", "--n", "4", "--d", "3", "--margin", "1.0", "--seed", "5",
            "--output", str(out),
        ) == 0
        assert len(out.read_text().splitlines()) == 4


class TestToLibsvm:
    def test_jsonl_to_libsvm(self, tmp_path):
        rows = tmp_path / "rows.jsonl"
        rows.write_text(
            '{"label": 0, "features": [-4.893, -3.803, -25.799]}\n'
            '{"label": 1, "features": [0.0, 2.0, 0.0]}\n'
        )
        schema = write(tmp_path / "s.json", '{"label": "int", "features": ["double"]}')
        out = tmp_path / "out.svm"
        assert run_cli(
            "to-libsvm", "--input", str(rows), "--schema", schema, "--output", str(out)
        ) == 0
        assert out.read_text() == "0 1:-4.893 2:-3.803 3:-25.799\n1 2:2.0\n"

    def test_bad_rows_exit_3(self, tmp_path):
        rows = tmp_path / "rows.jsonl"
        rows.write_text('{"label": "x", "features": [1.0]}\n')
        schema = write(tmp_path / "s.json", '{"label": "int", "features": ["double"]}')
        assert run_cli(
            "to-libsvm", "--input", str(rows), "--schema", schema,
            "--output", str(tmp_path / "o.svm"),
        ) == 3


class TestModePolicies:
    def test_auto_equals_force_local_below_cap(self, tmp_path, capsys):
        query = write(
            tmp_path / "q.jq",
            'let $d := annotate((for $i in 1 to 9 return {"v": $i}), {"v": "int"})\n'
            "return count($d[$$.v ge 5])",
        )
        assert run_cli("run", "--query", query, "--mode", "auto") == 0
        auto_out = capsys.readouterr().out
        assert run_cli("run", "--query", query, "--mode", "force-local") == 0
        local_out = capsys.readouterr().out
        assert auto_out == local_out == "5\n"
