import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtchar.cli
from qtchar.cli import main, parse_factors
from qtchar.errors import InconsistentExpansion, ParseError
from qtchar.fusion import FactorSpec


# a child process imports the same qtchar source as this test process
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(qtchar.__file__).resolve().parents[1])}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qtchar.cli", *argv],
        capture_output=True, text=True, env=CHILD_ENV)


def test_parse_factors():
    assert parse_factors("1:0,2:1") == [FactorSpec(1, 0), FactorSpec(2, 1)]
    assert parse_factors("1:-2@b") == [FactorSpec(1, -2, "b")]
    with pytest.raises(ParseError):
        parse_factors("1")
    with pytest.raises(ParseError):
        parse_factors("")


def test_fundamental_json(tmp_path):
    out = tmp_path / "d4.json"
    assert main(["fundamental", "--type", "D4", "--node", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["terms"]) == 28
    coeffs = sorted(tuple(map(tuple, t["coeff"])) for t in doc["terms"])
    assert coeffs.count(((0, 1), (2, 1))) == 1
    assert coeffs.count(((0, 1),)) == 27


def test_standard_with_decode(tmp_path):
    out = tmp_path / "std.json"
    assert main(["standard", "--type", "A2", "--factors", "1:0,2:1",
                 "--decode", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["terms"]) == 8
    annotated = {t["monomial"]: t["jordan"]["blocks"] for t in doc["terms"]}
    assert annotated["2_1 2_3^-1"] == [2]
    assert annotated["1_0 2_1"] == [1]


def test_decode_command(tmp_path):
    src = tmp_path / "chi.json"
    out = tmp_path / "decoded.json"
    main(["standard", "--type", "A2", "--factors", "1:0,1:0",
          "--out", str(src)])
    assert main(["decode", str(src), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    blocks = {t["monomial"]: t["jordan"]["blocks"] for t in doc["terms"]}
    assert blocks["1_0 1_2^-1 2_1"] == [2]
    assert blocks["2_3^-2"] == [1]


def test_decode_single_term_file(tmp_path):
    # a one-term document whose coefficient is 1 + 4t^2 + t^4
    doc = {
        "type": "E6",
        "orbits": ["a"],
        "highest": "3_0",
        "terms": [{"monomial": "3_0", "w": {"3_0": 1}, "v": {},
                   "coeff": [[0, 1], [2, 4], [4, 1]]}],
    }
    src = tmp_path / "one.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "decoded.json"
    assert main(["decode", str(src), "--out", str(out)]) == 0
    decoded = json.loads(out.read_text())
    assert decoded["terms"][0]["jordan"]["blocks"] == [3, 1, 1, 1]


def test_check_command_pass_and_fail(tmp_path, capsys):
    src = tmp_path / "chi.json"
    main(["fundamental", "--type", "A2", "--node", "1", "--out", str(src)])
    assert main(["check", str(src)]) == 0
    capsys.readouterr()

    doc = json.loads(src.read_text())
    doc["terms"][1]["coeff"] = [[0, 1], [3, 1]]  # odd degree
    src.write_text(json.dumps(doc))
    assert main(["check", str(src)]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_check_reports_terms_with_another_w(tmp_path, capsys):
    src = tmp_path / "chi.json"
    main(["fundamental", "--type", "A2", "--node", "1", "--out", str(src)])
    doc = json.loads(src.read_text())
    doc["terms"][2].update(monomial="1_0 2_3^-1", w={"1_0": 2})
    src.write_text(json.dumps(doc))
    assert main(["check", str(src)]) == 4
    out = capsys.readouterr().out
    assert out == "FAIL 1_0 2_3^-1: w differs from the highest monomial\n"
    # the other checks still run on every coefficient
    doc["terms"][0]["coeff"] = [[0, 2]]
    doc["terms"][1]["coeff"] = [[1, 1]]
    src.write_text(json.dumps(doc))
    assert main(["check", str(src)]) == 4
    assert capsys.readouterr().out == (
        "FAIL highest monomial does not have coefficient 1\n"
        "FAIL 1_2^-1 2_1: coefficient t fails constant-term, support\n"
        "FAIL 1_0 2_3^-1: w differs from the highest monomial\n")


@pytest.mark.parametrize("doc", [
    {"type": "A2", "orbits": ["a"], "highest": "1_0",
     "terms": [{"monomial": "1_0", "w": {"1_0": 1}, "v": {}, "coeff": 5}]},
    {"type": "A2", "orbits": ["a"], "highest": "1_0",
     "terms": [{"monomial": "1_0", "w": {"1_0": "x"}, "v": {},
                "coeff": [[0, 1]]}]},
    [{"type": "A2"}],
    {"type": "A2", "orbits": ["a"], "highest": "1_0"},
], ids=["coeff-not-a-list", "exponent-not-an-integer", "top-level-list",
        "no-terms"])
def test_malformed_document_is_a_usage_error(tmp_path, capsys, doc):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    assert main(["check", str(src)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["check", "dot", "decode"])
@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, command, case):
    src = tmp_path
    if case == "not-utf8":
        src = tmp_path / "utf16.json"
        src.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main([command, str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["fundamental", "--type", "A1", "--node", "1"],
    ["standard", "--type", "A1", "--factors", "1:0"],
    ["decode", "-"],
    ["dot", "-"],
], ids=["fundamental", "standard", "decode", "dot"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                            argv):
    doc = tmp_path / "chi.json"
    assert main(["fundamental", "--type", "A1", "--node", "1",
                 "--out", str(doc)]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc.read_text()))
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert err.count("\n") == 1


# SHA-256 of the output bytes, fixed before monomials were packed
PINNED_OUTPUT = [
    (["fundamental", "--type", "D4", "--node", "2"],
     "b764c73b88c3af21fc633b6caecc433cca3e5a589ee697dd267eb9520b19aa00"),
    (["fundamental", "--type", "D4", "--node", "2", "--decode"],
     "1fb65ffb820de81c9b369ca46fe541cd5b17a974af6937190e63379e46c7cef3"),
    (["fundamental", "--type", "E6", "--node", "3", "--decode"],
     "067aa8a29e2a1c54c1b065af3347536d1cd08252051f3fe79a966c4b539090af"),
    (["standard", "--type", "A2", "--factors", "1:0,2:1@b,1:2", "--decode"],
     "f28b5b2415e85ac65279059575b8882f065576d9072a8c6fc71c86c64817e7a4"),
    # factors over h shifts apart: the window splits into blocks
    (["standard", "--type", "D4", "--factors", "2:0,2:8", "--decode"],
     "9c65ef01fa005cf13b3ff8b247b7ef164b54cdb583eb0d6b2a84d2f89458fe53"),
    (["standard", "--type", "D4", "--factors", "2:0,2:8", "--format", "text"],
     "e6ff6d298befd68ebc4c56f9b2cc5ccad8f1b2ac26580378dead477cacf43b37"),
    (["standard", "--type", "D4", "--factors", "2:0,2:8", "--format", "dot"],
     "2c316d5039e5d6c75d487b9ee622c330b22cf318ec5c69f0bf6aa4c856f1f49b"),
    (["standard", "--type", "D4", "--factors", "2:0,1:7,2:8"],
     "599802bc5e9e8be59065e6b5ebc286090607c269adf1baf22bf00ca52da124fb"),
]


@pytest.mark.parametrize("argv,sha", PINNED_OUTPUT,
                         ids=[" ".join(a) for a, _ in PINNED_OUTPUT])
def test_output_bytes_pinned(tmp_path, argv, sha):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_dot_output(tmp_path):
    src = tmp_path / "chi.json"
    out = tmp_path / "chi.dot"
    main(["fundamental", "--type", "D4", "--node", "2", "--out", str(src)])
    assert main(["dot", str(src), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph")
    assert text.count(" -> ") == 40
    assert '"2_0" -> "1_1 2_2^-1 3_1 4_1" [label="2"];' in text
    assert '"2_2 2_4^-1" [label="(1 + t^2) 2_2 2_4^-1"];' in text


def test_dot_format_direct(tmp_path):
    out = tmp_path / "chi.dot"
    assert main(["fundamental", "--type", "A2", "--node", "1",
                 "--format", "dot", "--out", str(out)]) == 0
    assert out.read_text().count(" -> ") == 2


def test_text_format(capsys):
    assert main(["standard", "--type", "A2", "--factors", "1:0,1:0",
                 "--format", "text", "--decode"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].split("\t") == ["1_0^2", "1", "1", "1"]
    assert lines[1].split("\t") == ["1_0 1_2^-1 2_1", "1 + t^2", "2", "2"]


def test_byte_identical_runs():
    a = run_cli("fundamental", "--type", "D4", "--node", "2")
    b = run_cli("fundamental", "--type", "D4", "--node", "2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_exit_codes(monkeypatch, capsys):
    assert main(["fundamental", "--type", "X4", "--node", "1"]) == 2
    assert main(["fundamental", "--type", "A2", "--node", "7"]) == 2
    assert main(["standard", "--type", "A2", "--factors", "oops"]) == 2
    assert main(["decode", "/nonexistent/path.json"]) == 2
    capsys.readouterr()

    def inconsistent(*_args):
        raise InconsistentExpansion("planted")

    monkeypatch.setattr(qtchar.cli, "fundamental_qt", inconsistent)
    assert main(["fundamental", "--type", "D4", "--node", "2"]) == 3
    assert "computation error: planted" in capsys.readouterr().err
    proc = run_cli("bogus-command")
    assert proc.returncode == 2
    proc = run_cli("fundamental", "--type", "A2", "--node", "1",
                   "--depth-cap", "300")
    assert proc.returncode == 2
    assert "--depth-cap" in proc.stderr


def test_fixtures_command(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out
