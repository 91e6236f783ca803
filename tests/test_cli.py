import io
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import proofbench.cli as cli
from proofbench import qlang
from proofbench.cli import BUILTIN_ALPHABETS, GlobalConfig, emit_report, main
from proofbench.enumerator import rank, unrank
from proofbench.pi_system import Accept, check_derivation, make_axiom_pack, parse_derivation_file
from proofbench.proof_search import SearchMode
from proofbench.qlang import QLANG_ALPHABET
from test_pi_system import a2_chain_file

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = str(ROOT / "fixtures" / "paper_3_1.drv")


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# -- exit codes ------------------------------------------------------------------

def test_usage_error_is_exit_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["enumerate"])  # missing required --count
    assert info.value.code == 64


def test_domain_errors_are_exit_1(run):
    code, _, err = run("rank", "2", "--alphabet", "binary")
    assert code == 1 and "error" in err
    code, _, err = run("qlang", "eval", "/nonexistent/prog.q", "--x", "1")
    assert code == 1
    code, _, err = run("unrank", "-3", "--alphabet", "binary")
    assert code == 1


def test_exhausted_search_is_exit_2(run):
    code, out, _ = run("search", "fbar(9) is 1", "--pack", "5", "--budget", "200")
    assert code == 2
    assert "Exhausted" in out


def test_reject_is_exit_1_with_reason_on_stderr(run, tmp_path):
    bad = tmp_path / "bad.drv"
    bad.write_text(Path(FIXTURE).read_text().replace("rule R1 4,5", "rule R1 5,4"))
    code, out, err = run("check", str(bad))
    assert code == 1
    assert "line 6" in err and "rule-mismatch" in err


def test_check_reports_a_huge_numeral_at_its_position(run, tmp_path):
    text = "vars: w\ntarget: int(w)\n1. int(" + "1" * 5000 + ") [premise]\n"
    huge = tmp_path / "huge.drv"
    huge.write_text(text, encoding="utf-8")
    code, out, err = run("check", str(huge))
    assert (code, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: parse error at position {text.index('11')}: expected numeral of at most {limit} digits\n"


DEEP = 10_000
DEEP_TERM = "(" * DEEP + "w" + "+1)" * DEEP


DEEP_ERROR = (1, "", "error: input nested too deeply\n")


@pytest.mark.parametrize(
    "argv, file_text, expected",
    [
        # Q-lang is total at any depth: a valid program evaluates
        (("qlang", "eval", "{file}", "--x", "1"), "!" * DEEP + "(x=x)\n", (0, "x: 1, output: 1\n", "")),
        (("search", f"{DEEP_TERM} > w", "--budget", "10"), None, DEEP_ERROR),
        (("decide", f"{DEEP_TERM} > w"), None, DEEP_ERROR),
        (("check", "{file}"), f"vars: w\ntarget: {DEEP_TERM} > w\n1. int(w) [premise]\n", DEEP_ERROR),
    ],
    ids=["qlang-eval", "search", "decide", "check"],
)
def test_deep_nesting_is_a_domain_error_not_a_traceback(tmp_path, argv, file_text, expected):
    # run as a real process: an escaping exception would print a traceback
    source = tmp_path / "deep.txt"
    if file_text is not None:
        source.write_text(file_text, encoding="utf-8")
    argv = [arg.replace("{file}", str(source)) for arg in argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "proofbench.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_literal_search_derives_a_400_level_target():
    # the verdict is read off the found key: comparing this deep a target by == would recurse
    term = "(" * 400 + "w" + "+1)" * 400
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "proofbench.cli", "search", f"int({term})", "--mode", "literal",
         "--budget", "1" + "0" * 3000, "--format", "json-lines"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["verdict"] == "DerivedTarget"


# -- enumeration commands -----------------------------------------------------------

def test_enumerate_json_lines(run):
    code, out, _ = run("enumerate", "--alphabet", "binary", "--count", "4", "--format", "json-lines")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"k": 0, "s": ""},
        {"k": 1, "s": "0"},
        {"k": 2, "s": "1"},
        {"k": 3, "s": "00"},
    ]


def test_rank_unrank_round_trip_via_cli(run):
    code, out, _ = run("rank", "010", "--alphabet", "binary", "--format", "json-lines")
    assert code == 0
    k = json.loads(out)["k"]
    code, out, _ = run("unrank", str(k), "--alphabet", "binary", "--format", "json-lines")
    assert json.loads(out)["s"] == "010"


def test_rank_unrank_round_trip_past_the_integer_string_limit(run, capsys):
    # a rank of 4,516 digits, past Python's default 4,300, is printed and
    # read back; the limit is lifted only for the conversion, then restored
    limit = sys.get_int_max_str_digits()
    word = "10" * 7500
    code, out, err = run("rank", word, "--alphabet", "binary", "--format", "csv")
    assert (code, err) == (0, "")
    digits = out.splitlines()[1]
    assert len(digits) > limit and int(digits[-18:]) == rank(BUILTIN_ALPHABETS["binary"], word) % 10**18
    assert run("unrank", digits, "--alphabet", "binary", "--format", "csv") == (0, f"s\n{word}\n", "")
    assert run("rank", word, "--alphabet", "binary")[1] == f"k: {digits}\n"
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(SystemExit) as info:
        main(["unrank", "1.5", "--alphabet", "binary"])
    assert info.value.code == 64
    assert capsys.readouterr().err.endswith("error: argument k: invalid int value: '1.5'\n")


def test_enumerate_from_past_the_integer_string_limit(run):
    # --from 10**4300 - 1 has 4,300 digits and its second row 4,301; a
    # 4,401-digit --from is read too
    binary = BUILTIN_ALPHABETS["binary"]
    code, out, err = run("enumerate", "--from", "9" * 4300, "--count", "2", "--alphabet", "binary", "--format", "csv")
    words = [unrank(binary, 10**4300 - 1), unrank(binary, 10**4300)]
    assert (code, err) == (0, "")
    assert out.splitlines() == ["k,s", f"{'9' * 4300},{words[0]}", f"1{'0' * 4300},{words[1]}"]
    code, out, err = run("enumerate", "--from", "1" + "0" * 4400, "--count", "1", "--alphabet", "binary", "--format", "csv")
    assert (code, err) == (0, "") and out.splitlines()[1] == f"1{'0' * 4400},{unrank(binary, 10**4400)}"


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_an_audit_prints_queries_past_the_integer_string_limit(run, fmt):
    # queries = 2 * x_max has 4,301 digits: rows render with the limit lifted, then restored
    limit = sys.get_int_max_str_digits()
    queries = "1" + "9" * 4299 + "8"  # 2 * (10**4300 - 1)
    expected = {
        "pretty": f"kind: consistency, queries: {queries}, violations: 0, detail: \n",
        "csv": f"kind,queries,violations,detail\nconsistency,{queries},0,\n",
        "json-lines": f'{{"detail": "", "kind": "consistency", "queries": {queries}, "violations": 0}}\n',
    }
    assert run("audit", "consistency", "--pack", "1", "--xmax", "9" * 4300, "--format", fmt) == (0, expected[fmt], "")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("command", [["unrank", "100000000000000000000"], ["enumerate", "--from", "100000000000000000000", "--count", "2"]])
def test_a_one_symbol_rank_past_the_longest_string_is_a_domain_error(command, run, tmp_path):
    # fails before any allocation; ranks between about 10**9 and sys.maxsize would allocate gigabytes
    alphabet_file = tmp_path / "one.txt"
    alphabet_file.write_text("a\n", encoding="utf-8")
    code, out, err = run(*command, "--alphabet", str(alphabet_file))
    assert (code, out) == (1, "")
    assert err == "error: rank 100000000000000000000 over a one-symbol alphabet is longer than a string can be\n"


def test_alphabet_from_file(run, tmp_path):
    alphabet_file = tmp_path / "alpha.txt"
    alphabet_file.write_text("b\na\n", encoding="utf-8")
    code, out, _ = run("enumerate", "--alphabet", str(alphabet_file), "--count", "3", "--format", "json-lines")
    assert code == 0
    assert [json.loads(l)["s"] for l in out.splitlines()] == ["", "b", "a"]


@pytest.mark.parametrize("text", ["0\n1\n", "0\n1"])
def test_alphabet_file_final_newline_is_optional(run, tmp_path, text):
    alphabet_file = tmp_path / "alpha.txt"
    alphabet_file.write_text(text, encoding="utf-8")
    code, out, _ = run("enumerate", "--alphabet", str(alphabet_file), "--count", "4", "--format", "json-lines")
    assert code == 0
    assert [json.loads(l)["s"] for l in out.splitlines()] == ["", "0", "1", "00"]


@pytest.mark.parametrize("text", ["", "\n", "0\n\n1\n", "0\n1\n\n", "01\n"])
def test_alphabet_file_with_a_blank_or_long_line_is_a_domain_error(run, tmp_path, text):
    alphabet_file = tmp_path / "alpha.txt"
    alphabet_file.write_text(text, encoding="utf-8")
    code, _, err = run("enumerate", "--alphabet", str(alphabet_file), "--count", "1")
    assert code == 1 and "one symbol" in err


def test_unknown_alphabet_is_a_domain_error(run):
    code, _, err = run("enumerate", "--alphabet", "martian", "--count", "1")
    assert code == 1 and "martian" in err


# -- qlang commands --------------------------------------------------------------------

def test_qlang_eval_from_file_and_stdin(run, tmp_path, monkeypatch):
    program = tmp_path / "prog.q"
    program.write_text("(x=7)\n", encoding="utf-8")
    code, out, _ = run("qlang", "eval", str(program), "--x", "7", "--format", "json-lines")
    assert code == 0 and json.loads(out) == {"output": 1, "x": 7}
    monkeypatch.setattr("sys.stdin", io.StringIO("((x%2)=0)\n"))
    code, out, _ = run("qlang", "eval", "-", "--x", "4", "--format", "json-lines")
    assert code == 0 and json.loads(out)["output"] == 1


def test_qlang_nth(run):
    code, out, _ = run("qlang", "nth", "1", "--format", "json-lines")
    assert json.loads(out) == {"i": 1, "program": "(x=x)"}


def test_qlang_table_csv_shape(run):
    code, out, _ = run("qlang", "table", "--rows", "2", "--cols", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "x1,x2"


def test_qlang_fbar_matches_diagonal_flip(run):
    code, out, _ = run("qlang", "fbar", "--n", "5", "--format", "json-lines")
    bits = [json.loads(l)["bit"] for l in out.splitlines()]
    assert bits == [0, 1, 1, 1, 1]


# -- checking and searching ---------------------------------------------------------------

def test_check_fixture_accepts(run):
    code, out, _ = run("check", FIXTURE)
    assert code == 0 and out == "Accept\n"


def test_check_accepts_a_499_level_derivation(run, tmp_path):
    chain = tmp_path / "chain.drv"
    chain.write_text(a2_chain_file(499), encoding="utf-8")
    assert run("check", str(chain)) == (0, "Accept\n", "")


def test_search_emits_a_recheckable_derivation(run, tmp_path):
    out_path = tmp_path / "found.drv"
    code, out, _ = run(
        "search", "(w+1)+1 > w", "--budget", "1000000",
        "--emit-derivation", str(out_path), "--format", "json-lines",
    )
    assert code == 0
    row = json.loads(out)
    assert row["verdict"] == "DerivedTarget" and row["lines"] == 6
    derivation, target = parse_derivation_file(out_path.read_text(encoding="utf-8"))
    assert check_derivation(make_axiom_pack(0), derivation, target) == Accept()


def test_search_prints_no_verdict_when_the_derivation_cannot_be_written(run, tmp_path):
    code, out, err = run("search", "fbar(1) is 1", "--pack", "3", "--emit-derivation", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_search_reports_negations(run):
    code, out, _ = run(
        "search", "fbar(1) is 1", "--pack", "5", "--budget", "100", "--format", "json-lines"
    )
    assert code == 0
    row = json.loads(out)
    assert row["verdict"] == "DerivedNegation" and row["statement"] == "fbar(1) is 0"


def test_decide_gap_audit(run):
    code, out, _ = run("decide", "fbar(3) is 1", "--pack", "5", "--format", "json-lines")
    assert code == 0 and json.loads(out)["decision"] == "Derivable"
    assert run("decide", "(w+1)+1 > w") == (0, "statement: (w+1)+1 > w, decision: Derivable\n", "")
    assert run("decide", "w > w") == (0, "statement: w > w, decision: NotDerivable\n", "")
    assert run("decide", "int(w+(v+2))")[1] == "statement: int(w+(v+2)), decision: Derivable\n"
    code, out, _ = run("gap", "--pack", "5", "--xmax", "8", "--format", "json-lines")
    assert [json.loads(l)["x"] for l in out.splitlines()] == [6, 7, 8]
    code, out, _ = run("gap", "--pack", "5", "--xmax", "5", "--format", "json-lines")
    assert code == 0 and out == ""
    code, out, _ = run("audit", "soundness", "--pack", "20")
    assert code == 0 and "violations: 0" in out


def test_audit_soundness_refuses_xmax(run):
    # the soundness audit reads the pack's entries and scans no indices, so
    # an --xmax it would ignore is a usage error, whatever its value
    for x_max in ("3", "-7", "64446"):
        code, out, err = run("audit", "soundness", "--pack", "5", "--xmax", x_max)
        assert (code, out) == (64, "")
        assert len(err.splitlines()) == 1 and "--xmax" in err
    row = '{"detail": "", "kind": "soundness", "queries": 10, "violations": 0}\n'
    assert run("audit", "soundness", "--pack", "5", "--format", "json-lines") == (0, row, "")


def test_demo_incompleteness_tells_the_story(run):
    code, out, _ = run("demo", "incompleteness", "--pack", "5", "--xmax", "8")
    assert code == 0
    assert "completeness gap: [6, 7, 8]" in out
    assert "NotDerivable" in out
    assert "Exhausted" in out


_EDGE_PACKS = (0, 5, -1)
_EDGE_COMMANDS = [
    [*command, "--pack", str(pack), "--xmax", str(x_max)]
    for command in (["audit", "consistency"], ["gap"], ["demo", "incompleteness"])
    for pack in _EDGE_PACKS
    for x_max in (-1, 0, 1, 64446, 10**7, 10**23)
] + [["audit", "soundness", "--pack", str(pack)] for pack in _EDGE_PACKS]


@pytest.mark.parametrize("argv", _EDGE_COMMANDS, ids=" ".join)
def test_pack_commands_end_on_edge_inputs(run, monkeypatch, argv):
    # an audit, gap or demo at an edge --pack or --xmax ends with a verdict
    # or one error line; the alarm turns a hang into a failure
    stdin = io.StringIO()
    stdin.close()
    monkeypatch.setattr("sys.stdin", stdin)

    def hang(signum, frame):
        pytest.fail(f"{' '.join(argv)} still running after 20 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    started = time.perf_counter()
    try:
        code, _, err = run(*argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - started
    assert code in (0, 1, 64)
    assert "Traceback" not in err
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


# -- config ------------------------------------------------------------------------------

def test_config_round_trips():
    for config in (GlobalConfig(), GlobalConfig(format="csv", search_candidates=7, alphabet="qlang")):
        assert GlobalConfig.from_text(config.to_text()) == config


def test_config_is_an_immutable_record():
    config = GlobalConfig(format="csv")
    assert repr(config) == (
        "GlobalConfig(alphabet='binary', format='csv', table_cells=1000000, search_candidates=100000)"
    )
    assert config == GlobalConfig(format="csv") != GlobalConfig()
    assert hash(config) == hash(GlobalConfig(format="csv"))
    with pytest.raises(AttributeError):
        config.format = "pretty"


def test_config_validation():
    with pytest.raises(ValueError):
        GlobalConfig(format="xml")
    with pytest.raises(ValueError):
        GlobalConfig(table_cells=0)
    with pytest.raises(ValueError):
        GlobalConfig.from_text("mystery = 3\n")
    with pytest.raises(ValueError):
        GlobalConfig.from_text("table_cells = many\n")
    with pytest.raises(ValueError):
        GlobalConfig.from_text("bucket_words = 5\n")


def test_config_file_sets_defaults(run, tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text("format = json-lines\nalphabet = qlang\n# comment\n", encoding="utf-8")
    code, out, _ = run("--config", str(config), "enumerate", "--count", "2")
    assert code == 0
    assert [json.loads(l)["s"] for l in out.splitlines()] == ["", "x"]


def test_bad_config_is_exit_64(run, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("mystery = 3\n", encoding="utf-8")
    code, _, err = run("--config", str(config), "gap", "--pack", "1", "--xmax", "2")
    assert code == 64 and "mystery" in err


@pytest.mark.parametrize("command", [
    ("gap", "--pack", "3", "--xmax"),
    ("demo", "incompleteness", "--pack", "3", "--xmax"),
    ("enumerate", "--count"),
])
def test_row_counts_past_table_cells_are_refused(run, tmp_path, command):
    config = tmp_path / "cells.cfg"
    config.write_text("table_cells = 10\n", encoding="utf-8")
    code, out, err = run("--config", str(config), *command, "11")
    assert (code, out) == (1, "")
    assert err == "error: 11 exceeds the table_cells budget of 10\n"
    default = run(*command, "10")
    assert default[0] == 0 and run("--config", str(config), *command, "10") == default


def test_config_budget_is_used_by_search(run, tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text("search_candidates = 50\n", encoding="utf-8")
    code, out, _ = run("--config", str(config), "search", "fbar(9) is 1", "--pack", "5", "--format", "json-lines")
    assert code == 2
    assert json.loads(out)["candidates"] == 50


# -- report rendering ----------------------------------------------------------------------

def test_emit_report_formats():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    assert emit_report(rows, "json-lines") == '{"a": 1, "b": "x"}\n{"a": 2, "b": "y"}\n'
    assert emit_report(rows, "csv") == "a,b\n1,x\n2,y\n"
    assert emit_report(rows, "pretty") == "a: 1, b: x\na: 2, b: y\n"
    for fmt in ("json-lines", "csv", "pretty"):
        assert emit_report([], fmt) == ""


def test_builtin_alphabets_exist():
    assert "".join(BUILTIN_ALPHABETS["binary"].symbols) == "01"
    assert len(BUILTIN_ALPHABETS["qlang"]) == 20
    assert BUILTIN_ALPHABETS["qlang"].symbols == QLANG_ALPHABET.symbols


def test_search_mode_choices_are_the_search_modes(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    assert "--mode {" + ",".join(m.value for m in SearchMode) + "}" in capsys.readouterr().out


def test_rebound_cli_and_qlang_names_see_every_call(run, monkeypatch, tmp_path):
    # perfbench's traced CLI child reads these names and rebinds them to
    # wrappers before it calls main; the commands must call the wrappers
    calls = Counter()

    def rebind(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("make_axiom_pack", "parse_derivation_file", "check_derivation", "parse_statement", "search"):
        rebind(cli, name)
    for name in ("grammar_unrank", "parse", "evaluate"):
        rebind(qlang, name)
    assert run("check", FIXTURE, "--pack", "5")[0] == 0
    assert run("search", "fbar(2) is 1", "--pack", "5")[0] == 0
    assert run("qlang", "nth", "70000")[0] == 0  # past the buckets: unranked, then parsed
    program = tmp_path / "program.txt"
    program.write_text("((x%4)=2)\n", encoding="utf-8")
    assert run("qlang", "eval", str(program), "--x", "6")[:2] == (0, "x: 6, output: 1\n")
    assert calls == {
        "make_axiom_pack": 2, "parse_derivation_file": 1, "check_derivation": 1, "parse_statement": 1,
        "search": 1, "grammar_unrank": 1, "parse": 2, "evaluate": 1,
    }


def test_cli_output_is_deterministic(run):
    battery = [
        ("enumerate", "--alphabet", "qlang", "--count", "30", "--format", "json-lines"),
        ("qlang", "fbar", "--n", "6", "--format", "json-lines"),
        ("gap", "--pack", "3", "--xmax", "7", "--format", "json-lines"),
        ("audit", "consistency", "--pack", "10", "--format", "json-lines"),
    ]
    first = [run(*argv) for argv in battery]
    second = [run(*argv) for argv in battery]
    assert first == second
