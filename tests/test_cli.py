import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from test_serialize import _mutated_documents

import qtchar.cli
from qtchar import fixtures, fm, serialize
from qtchar.charalg import Window
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


BAD_ORBITS = ["x y", "9", "", "b\u00e9"]


@pytest.mark.parametrize("argv,orbit", [
    *(pytest.param(["fundamental", "--type", "A2", "--node", "1",
                    "--orbit", orbit], orbit, id=orbit)
      for orbit in BAD_ORBITS),
    *(pytest.param(["standard", "--type", "A2", "--factors",
                    f"1:0@{orbit}"], orbit, id=f"standard-{orbit}")
      for orbit in BAD_ORBITS),
])
def test_bad_orbit_name_is_a_usage_error(capsys, argv, orbit):
    # the window checks the name, for either command
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad orbit name {orbit!r}\n"


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
    # a one-term document whose coefficient is 1 + 4t^2 + t^4: the trivial
    # module's monomial, which has no string in any direction to audit
    doc = {
        "type": "E6",
        "orbits": [],
        "highest": "1",
        "terms": [{"monomial": "1", "w": {}, "v": {},
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
    # one character has one w: a term with another is a malformed document
    src = tmp_path / "chi.json"
    main(["fundamental", "--type", "A2", "--node", "1", "--out", str(src)])
    doc = json.loads(src.read_text())
    doc["terms"][2].update(monomial="1_0 2_3^-1", w={"1_0": 2})
    src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: term '1_0 2_3^-1': w differs from the "
                            "highest monomial\n")


def test_check_of_far_apart_exponents(tmp_path, capsys):
    # the validator reads the support, and the decoder is linear in the
    # exponent span, so one call stays in seconds
    src = tmp_path / "chi.json"
    main(["fundamental", "--type", "A2", "--node", "1", "--out", str(src)])
    doc = json.loads(src.read_text())
    doc["terms"][1]["coeff"] = [[0, 1], [2000000, 1]]
    src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(src)]) == 4
    assert capsys.readouterr().out == (
        "FAIL 1_2^-1 2_1: coefficient 1 + t^2000000 fails unimodal\n"
        "FAIL audit: direction 1: leftover mass t^2000000 at non-dominant "
        "1_2^-1 2_1\n")


def tampered_d4(tmp_path):
    """D4 node 2 with the coefficient of 1_1 3_3^-1 4_1 raised from 1 to
    5: every coefficient stays a Poincare polynomial, but the character
    has no per-direction decomposition."""
    src = tmp_path / "tampered.json"
    main(["fundamental", "--type", "D4", "--node", "2", "--out", str(src)])
    doc = json.loads(src.read_text())
    (term,) = [t for t in doc["terms"] if t["monomial"] == "1_1 3_3^-1 4_1"]
    term["coeff"] = [[0, 5]]
    src.write_text(json.dumps(doc))
    return src


AUDIT_MESSAGE = ("direction 1: leftover mass -4 at non-dominant "
                 "1_3^-1 2_2 3_3^-1 4_1")


def test_check_runs_the_audit(tmp_path, capsys):
    src = tampered_d4(tmp_path)
    capsys.readouterr()
    assert main(["check", str(src)]) == 4
    assert capsys.readouterr().out == f"FAIL audit: {AUDIT_MESSAGE}\n"


def test_dot_of_a_bad_document_is_a_validation_failure(tmp_path, capsys):
    src = tampered_d4(tmp_path)
    capsys.readouterr()
    assert main(["dot", str(src)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {AUDIT_MESSAGE}\n"


def test_dot_of_a_bad_document_writes_no_file(tmp_path, capsys):
    # the strings are peeled before the output is opened
    src = tampered_d4(tmp_path)
    out = tmp_path / "chi.dot"
    assert main(["dot", str(src), "--out", str(out)]) == 4
    assert not out.exists()


def test_decode_of_a_bad_document_is_a_validation_failure(tmp_path, capsys):
    src = tampered_d4(tmp_path)
    out = tmp_path / "decoded.json"
    capsys.readouterr()
    assert main(["decode", str(src), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {AUDIT_MESSAGE}\n"
    assert not out.exists()


A2_NODE_1 = [("1_0", {}), ("1_2^-1 2_1", {"1_1": 1}),
             ("2_3^-1", {"1_1": 1, "2_2": 1})]


def a2_node_1(terms=A2_NODE_1, extra=(), highest="1_0", w_key="1_0"):
    """The document of A2's node-1 fundamental, each term's w written
    under ``w_key``, with the terms ``extra`` appended."""
    return {"type": "A2", "orbits": ["a"], "highest": highest,
            "terms": [{"monomial": text, "w": {w_key: 1}, "v": v,
                       "coeff": [[0, 1]]} for text, v in terms]
            + list(extra)}


@pytest.mark.parametrize("doc,message", [
    ({"type": "A2", "orbits": ["a"], "highest": "1_0",
      "terms": [{"monomial": "1_0", "w": {"1_0": 1}, "v": {}, "coeff": 5}]},
     "coefficient 5 is not a list of [t-exponent, integer] pairs"),
    ({"type": "A2", "orbits": ["a"], "highest": "1_0",
      "terms": [{"monomial": "1_0", "w": {"1_0": "x"}, "v": {},
                 "coeff": [[0, 1]]}]},
     "exponent 'x' at '1_0' is not an integer"),
    ([{"type": "A2"}], "a character document must be a JSON object"),
    ({"type": "A2", "orbits": ["a"], "highest": "1_0"},
     "character document has no 'terms'"),
    (a2_node_1(extra=[{"monomial": "1_2^-1 2_1", "w": {"1_0": 1},
                       "v": {"1_1": 1}, "coeff": [[0, 5]]}]),
     "term '1_2^-1 2_1' repeats the (w, v) of an earlier term"),
    (a2_node_1(w_key="1_0@a\n"), "malformed exponent key '1_0@a\\n'"),
    (a2_node_1(w_key="\u0661_0"), "malformed exponent key '\u0661_0'"),
    (a2_node_1([*A2_NODE_1[:2], ("2_3^-1", {"1_1": 1, "2_2": 1,
                                            "2_02": 1})]),
     "exponent key '2_02' repeats '2_2'"),
    (a2_node_1(A2_NODE_1[1:]),
     "character document has no monomial with v = 0"),
    ({"type": "D4", "orbits": ["a"], "highest": "2_0^1000000000",
      "terms": []},
     "highest weight: lowering degree 10000000000 overflows the 32-bit "
     "degree field"),
    (a2_node_1(highest="2_3^-1"),
     "highest weight '2_3^-1' is not a product of Y-variables of A2"),
    (a2_node_1(w_key="1-0"), "malformed exponent key '1-0'"),
    (a2_node_1(extra=[{"monomial": "1_0 2_3^-1", "w": {"1_0": 2},
                       "v": {"1_1": 1, "2_2": 1}, "coeff": [[0, 1]]}]),
     "term '1_0 2_3^-1': w differs from the highest monomial"),
    ({**a2_node_1(), "orbits": ["zz", 5]},
     "'orbits' ['zz', 5] are not the highest monomial's ['a']"),
    ({key: value for key, value in a2_node_1().items() if key != "orbits"},
     "character document has no 'orbits'"),
    # Y_{1,0} A_{2,1}^-1: a v field that no term of V(Y_{1,0}) uses
    (a2_node_1([*A2_NODE_1, ("1_0 1_1 2_0^-1 2_2^-1", {"2_1": 1})]),
     "term '1_0 1_1 2_0^-1 2_2^-1': v[('a', 2, 1)] = 1 is outside "
     "Window(A2, w=1_0)"),
], ids=["coeff-not-a-list", "exponent-not-an-integer", "top-level-list",
        "no-terms", "duplicate-term", "bad-orbit-in-key",
        "non-ascii-digit-in-key", "repeated-exponent-key", "no-v0-term",
        "highest-overflows-the-degree-field",
        "highest-not-the-v0-term", "malformed-exponent-key", "w-differs",
        "orbits-differ", "no-orbits", "v-off-the-support"])
def test_malformed_document_is_a_usage_error(tmp_path, capsys, doc,
                                             message):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    for command in ("check", "dot"):
        assert main([command, str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["check", "decode", "dot"])
def test_coefficient_past_memory_is_a_validation_failure(tmp_path, capsys,
                                                         command):
    # packing 1 + t^(-10^18) would take 5 (10^18 + 1) bits: refused
    # before the shift, where it used to end in a MemoryError
    src = tmp_path / "chi.json"
    doc = a2_node_1()
    doc["terms"][1]["coeff"] = [[0, 1], [-10 ** 18, 1]]
    src.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, str(src)] + (["--out", str(out)] * (command != "check"))
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"validation error: a coefficient spanning t^{-10 ** 18} to t^0 "
        f"packs into {5 * (10 ** 18 + 1)} bits, more than the ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@contextmanager
def address_space_grown_by_at_most(extra: int):
    """Lower this process's soft address-space limit to its present size
    plus ``extra`` bytes, and restore it on exit.  The pack guard reads
    the limit, so a far-apart exponent is refused against it; anything
    it lets through that outgrows the limit fails fast."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = int(Path("/proc/self/statm").read_text().split()[0])
    limit = size * os.sysconf("SC_PAGE_SIZE") + extra
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                    reason="reads the process size from /proc")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_mutated_documents())
def test_mutated_documents_exit_with_a_documented_code(tmp_path, capsys,
                                                       doc):
    # the documents of the reader's fuzz test, through the CLI: each call
    # exits 0, 2 or 4 and raises nothing; the strategy can draw an
    # exponent of any size, so the calls run under a 1 GiB margin
    src = tmp_path / "chi.json"
    src.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    with address_space_grown_by_at_most(1 << 30):
        codes = [main(["check", str(src)]),
                 main(["decode", str(src), "--out", out]),
                 main(["dot", str(src), "--out", out])]
    capsys.readouterr()
    assert set(codes) <= {0, 2, 4}


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


@pytest.mark.parametrize("text", [
    lambda: "[" * 200000,
    lambda: '{"type": "A2", "terms": [%s]}' % ("7" * 5000),
], ids=["nested-past-the-recursion-limit", "integer-past-the-digit-limit"])
def test_undecodable_json_is_a_usage_error(tmp_path, capsys, text):
    src = tmp_path / "bad.json"
    src.write_text(text())
    assert main(["check", str(src)]) == 2
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
    # both shift parities at every node: v's and y's keys interleave
    (["standard", "--type", "D4", "--factors", "2:0,2:1"],
     "451871f5706f1c51e8fa256e93dc81e4958127d44bb22429c853e598f5cf5735"),
]


@pytest.mark.parametrize("argv,sha", PINNED_OUTPUT,
                         ids=[" ".join(a) for a, _ in PINNED_OUTPUT])
def test_output_bytes_pinned(tmp_path, argv, sha):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_json_goes_through_the_serializer(tmp_path, monkeypatch):
    # every JSON output is written term by term by
    # serialize.write_character, with no document or whole text built
    calls = []
    write_character = serialize.write_character

    def traced(chi, annotations, fh):
        calls.append(annotations is not None)
        return write_character(chi, annotations, fh)

    def unused(*_args):
        raise AssertionError("the CLI builds no document and no whole text")

    monkeypatch.setattr(serialize, "write_character", traced)
    monkeypatch.setattr(serialize, "character_to_doc", unused)
    monkeypatch.setattr(serialize, "dumps", unused)
    src = tmp_path / "chi.json"
    assert main(["fundamental", "--type", "A2", "--node", "1",
                 "--format", "json", "--out", str(src)]) == 0
    assert main(["standard", "--type", "A2", "--factors", "1:0,2:1",
                 "--decode", "--out", str(tmp_path / "std.json")]) == 0
    assert main(["decode", str(src), "--out", str(tmp_path / "out.json")]) == 0
    assert calls == [False, True, True]


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
def test_closed_stdout_pipe_is_a_usage_error(fmt, unbuffered):
    # the reader takes 100 bytes and goes away; the output (114 kB to
    # 1.5 MB) is more than a pipe holds, and with PYTHONUNBUFFERED=1 stdout
    # has no buffer of its own to retry a short write
    env = {k: a for k, a in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtchar.cli", "fundamental", "--type", "E6",
         "--node", "3", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err.startswith("error: cannot write stdout: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


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


@pytest.mark.parametrize("argv", [
    ["standard", "--type", "D4", "--factors", "2:0,2:2"],
    ["fundamental", "--type", "D4", "--node", "2"],
], ids=["standard", "fundamental"])
def test_decode_with_dot_format_is_a_usage_error(monkeypatch, capsys, argv):
    # DOT writes no Jordan annotations, so the pair is refused before any
    # character is computed; without --decode the same call succeeds
    def computed(*_args):
        raise AssertionError("a character was computed")

    with monkeypatch.context() as patched:
        patched.setattr(qtchar.cli, "standard_module_qt", computed)
        patched.setattr(qtchar.cli, "fundamental_qt", computed)
        assert main([*argv, "--format", "dot", "--decode"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --decode cannot be combined with "
                            "--format dot\n")
    assert main([*argv, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph character {")


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


def test_fixtures_command_reports_mismatches(capsys, monkeypatch):
    # a fixture that no longer matches: its count and its first 5 lines
    def verify(doc):
        return [f"line {k}" for k in range(7)] if doc["kind"] == "standard" \
            else []

    monkeypatch.setattr(fixtures, "verify_fixture", verify)
    assert main(["fixtures"]) == 5
    assert capsys.readouterr().out == (
        "PASS d4-fund-2 (28 pinned terms)\n"
        "FAIL a2-std-1x0-1x0: 7 mismatches\n"
        + "".join(f"  line {k}\n" for k in range(5))
        + "FAIL a2-std-1x0-2x1: 7 mismatches\n"
        + "".join(f"  line {k}\n" for k in range(5))
        + "PASS e6-fund-3-partial (38 pinned terms)\n")


def test_one_row_walk_per_term(monkeypatch, tmp_path):
    # `fundamental --decode`: the expansion reads the rows of the terms
    # down to the middle layer and of the lowest weight, which
    # `Window.solve` checks, and of no mirrored term; the audit, handed
    # the records, reads none; the writer walks each term's rows once
    # and makes no `Window.by_rows` pass
    phase = ["expand"]
    walks = Counter()
    records, by_rows = Window.records, Window.by_rows

    def spy_records(window, m):
        if window.datum.rank == 6:  # not a rank-one template's window
            walks[phase[0], "records"] += 1
        return records(window, m)

    def counted(kind, make):
        def spy(window, image):
            inner = make(window, image)

            def count(m):
                walks[phase[0], kind] += 1
                return inner(m)
            return count
        return spy

    def in_phase(name, fn):
        def spy(*args):
            phase[0] = name
            try:
                return fn(*args)
            finally:
                phase[0] = "other"
        return spy

    monkeypatch.setattr(Window, "records", spy_records)
    monkeypatch.setattr(serialize, "_walk", counted("walk", serialize._walk))
    monkeypatch.setattr(Window, "by_rows", counted("by_rows", by_rows))
    monkeypatch.setattr(fm, "audit_expansion",
                        in_phase("audit", fm.audit_expansion))
    monkeypatch.setattr(serialize, "write_character",
                        in_phase("write", serialize.write_character))
    out = tmp_path / "e6n3.json"
    assert main(["fundamental", "--type", "E6", "--node", "3", "--decode",
                 "--out", str(out)]) == 0
    degrees = [sum(term["v"].values())
               for term in json.loads(out.read_text())["terms"]]
    bound = max(degrees)
    upper = sum(d <= bound - bound // 2 for d in degrees)
    assert len(degrees) == 2925
    assert walks["expand", "records"] == upper + 1
    assert {key for key in walks if key[0] != "expand"} == {
        ("write", "walk")}
    assert walks["write", "walk"] == 2925
