import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import proofbench.cli as cli
from proofbench import qlang
from proofbench.cli import BUILTIN_ALPHABETS, GlobalConfig, emit_report, main
from proofbench.pi_system import Accept, check_derivation, make_axiom_pack, parse_derivation_file
from proofbench.proof_search import SearchMode
from proofbench.qlang import QLANG_ALPHABET

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


@pytest.mark.parametrize(
    "argv, file_text",
    [
        (("qlang", "eval", "{file}", "--x", "1"), "!" * DEEP + "(x=x)\n"),
        (("search", f"{DEEP_TERM} > w", "--budget", "10"), None),
        (("decide", f"{DEEP_TERM} > w"), None),
        (("check", "{file}"), f"vars: w\ntarget: {DEEP_TERM} > w\n1. int(w) [premise]\n"),
    ],
    ids=["qlang-eval", "search", "decide", "check"],
)
def test_deep_nesting_is_a_domain_error_not_a_traceback(tmp_path, argv, file_text):
    # run as a real process: an escaping exception would print a traceback
    source = tmp_path / "deep.txt"
    if file_text is not None:
        source.write_text(file_text, encoding="utf-8")
    argv = [arg.replace("{file}", str(source)) for arg in argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "proofbench.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: input nested too deeply\n"


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
    code, out, _ = run("gap", "--pack", "5", "--xmax", "8", "--format", "json-lines")
    assert [json.loads(l)["x"] for l in out.splitlines()] == [6, 7, 8]
    code, out, _ = run("gap", "--pack", "5", "--xmax", "5", "--format", "json-lines")
    assert code == 0 and out == ""
    code, out, _ = run("audit", "soundness", "--pack", "20")
    assert code == 0 and "violations: 0" in out


def test_demo_incompleteness_tells_the_story(run):
    code, out, _ = run("demo", "incompleteness", "--pack", "5", "--xmax", "8")
    assert code == 0
    assert "completeness gap: [6, 7, 8]" in out
    assert "NotDerivable" in out
    assert "Exhausted" in out


# -- config ------------------------------------------------------------------------------

def test_config_round_trips():
    for config in (GlobalConfig(), GlobalConfig(format="csv", search_candidates=7, alphabet="qlang")):
        assert GlobalConfig.from_text(config.to_text()) == config


def test_config_is_an_immutable_record():
    config = GlobalConfig(format="csv")
    assert repr(config) == (
        "GlobalConfig(alphabet='binary', format='csv', count_table_entries=1000000, "
        "table_cells=1000000, bucket_words=500000, search_candidates=100000)"
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


def test_rebound_cli_and_qlang_names_see_every_call(run, monkeypatch):
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
    qlang.fbar_truth.cache_clear()  # so that building the pack evaluates its programs
    assert run("check", FIXTURE, "--pack", "5")[0] == 0
    assert run("search", "fbar(2) is 1", "--pack", "5")[0] == 0
    assert run("qlang", "nth", "70000")[0] == 0  # past the buckets: unranked, then parsed
    assert calls.pop("evaluate") >= 5
    assert calls == {
        "make_axiom_pack": 2, "parse_derivation_file": 1, "check_derivation": 1, "parse_statement": 1,
        "search": 1, "grammar_unrank": 1, "parse": 1,
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
