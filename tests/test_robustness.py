"""The robustness battery: no subcommand or public function prints a
traceback or runs without bound, and every refused budget says so in one form.

The CLI half draws argv per subcommand from edge values and calls cli.main in
process.  The library half runs public functions on very deep inputs.  Each
fault known today is a strict xfail that names its exception, so the change
that mends one must flip its case, and a new fault fails the suite.
"""

import contextlib
import io
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofbench import cli, enumerator, pi_system, proof_search, qlang
from proofbench.cli import FORMATS
from proofbench.enumerator import Alphabet, Grammar, grammar_count, grammar_unrank
from proofbench.errors import ResourceLimitError
from test_cli import _EDGE_PACKS, FIXTURE, ROOT

BUDGET_LINE = re.compile(r"error: (\d+) exceeds the ([a-z_]+) budget of (\d+)")
NESTED = "error: input nested too deeply"


# -- the one budget form, at every raise site ----------------------------------------------

def _count_entries(monkeypatch):
    monkeypatch.setattr(enumerator, "_COUNT_ENTRIES", 10)
    grammar_count(Grammar(Alphabet.from_string("ab"), "S", {"S": [["a", "S", "b"], ["a", "b"]]}), 40)


def _bucket_cells(monkeypatch):
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 4)
    enumerator._bucket(Grammar(Alphabet.from_string("ab"), "S", {"S": [["A"] * 8 + ["B"]], "A": [["a"]],
                                                                  "B": [["a"], ["b"]]}), 9)


def _pack_entries(monkeypatch):
    monkeypatch.setattr(pi_system, "_PACK_ENTRIES", 5)
    pi_system.make_axiom_pack(6)


def _search_terms(monkeypatch):
    monkeypatch.setattr(proof_search, "_SEARCH_TERMS", 10)
    proof_search.search(pi_system.make_axiom_pack(0), pi_system.parse_statement("((w+1)+1)+1 > w"),
                        proof_search.SearchBudget(10**6), "structured")


def _handler(*argv):
    # the handler alone, so that the error reaches the test; main prints it
    args = cli.build_parser().parse_args(argv)
    return lambda monkeypatch: getattr(cli, "_cmd_" + args.command)(args, cli.GlobalConfig(table_cells=10))


@pytest.mark.parametrize("call, expected, argv", [
    (_count_entries, ("count_entries", 10, 11), None),
    (_bucket_cells, ("bucket_cells", 16, 17), None),
    (_pack_entries, ("pack_entries", 5, 6), ["check", FIXTURE, "--pack", "1000001"]),
    (_search_terms, ("search_terms", 10, 11), None),
    (lambda monkeypatch: qlang.table(3, 4, table_cells=11), ("table_cells", 11, 12), None),
    (lambda monkeypatch: qlang.diagonal(12, table_cells=11), ("table_cells", 11, 12), None),
    (_handler("qlang", "table", "--rows", "3", "--cols", "4"), ("table_cells", 10, 12), None),
    (_handler("qlang", "fbar", "--n", "11"), ("table_cells", 10, 11), None),
    (_handler("enumerate", "--count", "11"), ("table_cells", 10, 11), None),
    (_handler("gap", "--pack", "3", "--xmax", "11"), ("table_cells", 10, 11), None),
    (_handler("demo", "incompleteness", "--pack", "3", "--xmax", "11"), ("table_cells", 10, 11), None),
], ids=["count_entries", "bucket_cells", "pack_entries", "search_terms", "table", "diagonal", "qlang table",
        "qlang fbar", "enumerate --count", "gap --xmax", "demo --xmax"])
def test_every_budget_error_names_its_budget_limit_and_attempted_size(monkeypatch, capsys, call, expected, argv):
    with pytest.raises(ResourceLimitError) as info:
        call(monkeypatch)
    budget, limit, attempted = expected
    assert (info.value.budget, info.value.limit, info.value.attempted) == expected
    assert str(info.value) == f"{attempted} exceeds the {budget} budget of {limit}"
    if argv:  # the same error through main, at the default budget
        monkeypatch.undo()
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {argv[-1]} exceeds the {budget} budget of 1000000\n")


def test_a_budget_error_past_the_integer_string_limit_names_its_sizes(capsys):
    # the attempted size has more digits than Python's 4,300-digit integer-string limit lets str() write
    with pytest.raises(ResourceLimitError) as info:
        pi_system.make_axiom_pack(10**5000)
    assert str(info.value) == "1" + "0" * 5000 + " exceeds the pack_entries budget of 1000000"
    nines = "9" * 4000  # rows * cols = 10**8000 - 2 * 10**4000 + 1
    assert cli.main(["qlang", "table", "--rows", nines, "--cols", nines]) == 1
    cells = "9" * 3999 + "8" + "0" * 3999 + "1"
    assert capsys.readouterr() == ("", f"error: {cells} exceeds the table_cells budget of 1000000\n")


# -- the CLI half ------------------------------------------------------------------------

INTS = ("0", "-1", "64446", "64447", str(10**7), str(10**23))
PACKS = tuple(map(str, _EDGE_PACKS))
# relative to the directory each call runs in; "missing" is never written
FILES = ("empty.txt", "latin1.txt", "long.drv", "bangs.q", "adir", "missing")
DEEP = "(" * 600 + "w" + "+1)" * 600
STATEMENTS = ("w+1 > w", "int(w)", "fbar(3) is 1", "fbar(64447) is 0", f"fbar({10**23}) is 1",
              DEEP + " > w", f"int({DEEP})", "", "w >")
# a search budget of 10**7 or more asks for that much work, so the drawn ones stay small
BUDGETS = ("0", "-1", "64446")
ALPHABETS = ("binary", "qlang", *FILES)


def _pick(*choices):
    return st.sampled_from(choices)


def _maybe(option, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [option, v]))


def _argv(*parts):
    return st.tuples(*(st.just([p]) if isinstance(p, str) else p for p in parts)).map(
        lambda lists: [a for part in lists for a in part])


_FORMAT = _maybe("--format", FORMATS)
_INT = st.sampled_from(INTS).map(lambda v: [v])
_PACK = _pick(*PACKS).map(lambda v: ["--pack", v])

ARGV = st.one_of(
    _argv("--config", _pick(*FILES).map(lambda v: [v]), "gap", _PACK, "--xmax", _INT),
    _argv("enumerate", "--count", _INT, _maybe("--from", INTS), _maybe("--alphabet", ALPHABETS), _FORMAT),
    _argv("rank", _pick(*STATEMENTS, *INTS).map(lambda v: [v]), _maybe("--alphabet", ALPHABETS), _FORMAT),
    _argv("unrank", _INT, _maybe("--alphabet", ALPHABETS), _FORMAT),
    _argv("qlang", "eval", _pick(*FILES, "-").map(lambda v: [v]), "--x", _INT, _FORMAT),
    _argv("qlang", "nth", _INT, _FORMAT),
    _argv("qlang", "table", "--rows", _INT, "--cols", _INT, _FORMAT),
    _argv("qlang", _pick("diagonal", "fbar").map(lambda v: [v]), "--n", _INT, _FORMAT),
    _argv("check", _pick(*FILES, FIXTURE).map(lambda v: [v]), _PACK),
    _argv("search", _pick(*STATEMENTS).map(lambda v: [v]), _PACK, _maybe("--budget", BUDGETS),
          _maybe("--mode", ("literal", "structured")),
          _maybe("--emit-derivation", ("adir", "missing/found.drv", "found.drv")), _FORMAT),
    _argv("decide", _pick(*STATEMENTS).map(lambda v: [v]), _PACK, _FORMAT),
    _argv("gap", _PACK, "--xmax", _INT, _FORMAT),
    _argv("audit", _pick("soundness", "consistency").map(lambda v: [v]), _PACK, _maybe("--xmax", INTS), _FORMAT),
    _argv("demo", "incompleteness", _PACK, "--xmax", _INT),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "empty.txt").write_bytes(b"")
    (root / "latin1.txt").write_bytes("vars: w\ntarget: int(w)\n1. int(w) [premise] \xe9\n".encode("latin-1"))
    (root / "long.drv").write_text(
        "vars: w\ntarget: int(w)\n" + "".join(f"{i}. int(w) [premise]\n" for i in range(1, 2999)), encoding="utf-8")
    (root / "bangs.q").write_text("!" * 3000 + "(x=x)\n", encoding="utf-8")
    (root / "adir").mkdir()
    return root


def _deepest(text: str) -> int:
    depth = deepest = 0
    for c in text:
        if c == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif c == ")":
            depth -= 1
    return deepest


class _Hang(Exception):
    pass


def _run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), with stdin closed and a
    20 s alarm as the hang detector."""
    out, err, stdin = io.StringIO(), io.StringIO(), io.StringIO()
    stdin.close()

    def hang(signum, frame):
        raise _Hang(f"{argv} still running after 20 s")

    previous, saved_stdin = signal.signal(signal.SIGALRM, hang), sys.stdin
    sys.stdin = stdin
    signal.alarm(20)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(argv=ARGV)
# each edge file and depth at least once, whatever the draw
@example(argv=["qlang", "eval", "bangs.q", "--x", "64447"])
@example(argv=["check", "long.drv", "--pack", "5"])
@example(argv=["search", DEEP + " > w", "--mode", "literal"])
@example(argv=["decide", f"int({DEEP})"])
def test_every_command_ends_with_a_documented_exit(inputs, argv):
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        code, _, err = _run(argv)
        texts = [Path(a).read_bytes().decode("latin-1") if os.path.isfile(a) else a for a in argv]
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 64), (code, err)
    assert "Traceback" not in err
    for line in err.splitlines():
        if line == NESTED:
            assert max(map(_deepest, texts)) > pi_system.MAX_NESTING, argv
        elif line.startswith("error:") and "budget" in line:
            assert BUDGET_LINE.fullmatch(line), line


# -- the library half --------------------------------------------------------------------

_DEEP_Q = qlang.parse("!" * 10_000 + "(x=x)")
_STATEMENT_499 = "(" * 499 + "w" + "+1)" * 499 + " > w"
_CHAIN = {**{f"N{i}": [[f"N{i + 1}"]] for i in range(1999)}, "N1999": [["a"]]}


def _chain():
    return Grammar(Alphabet.from_string("ab"), "N0", _CHAIN)


def _deep_sum(levels):
    """((w+1)+1)...+1 with levels sums, built through the API: no parser bounds it."""
    term = pi_system.Var("w")
    for _ in range(levels):
        term = pi_system.Sum(term, pi_system.Num(1))
    return term


def _fresh_qlang():
    # the shared QLANG_GRAMMAR would keep the chart states a deep word interns
    return Grammar(qlang.QLANG_ALPHABET, qlang.QLANG_GRAMMAR.start, qlang.QLANG_GRAMMAR.productions)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: qlang.evaluate(_DEEP_Q, 1), id="qlang evaluate"),
    pytest.param(lambda: qlang.pretty(_DEEP_Q.ast), id="qlang pretty"),
    pytest.param(lambda: pi_system.pretty_statement(pi_system.parse_statement(_STATEMENT_499)), id="pretty_statement"),
    pytest.param(lambda: hash(pi_system.parse_statement(_STATEMENT_499)), id="statement hash"),
    pytest.param(lambda: _fresh_qlang().recognizes("!" * 900 + "(x=x)"), id="recognizes 900 deep"),
    pytest.param(lambda: hash(_DEEP_Q.ast), id="qlang hash"),
    pytest.param(lambda: repr(_DEEP_Q), id="qlang repr"),
    pytest.param(lambda: _DEEP_Q == qlang.parse(_DEEP_Q.source), id="qlang =="),
    pytest.param(lambda: pi_system.parse_statement(_STATEMENT_499) == pi_system.parse_statement(_STATEMENT_499),
                 id="statement =="),
    pytest.param(lambda: repr(pi_system.parse_statement(_STATEMENT_499)), id="statement repr"),
    pytest.param(lambda: grammar_count(_chain(), 1), id="unit chain count"),
    pytest.param(lambda: grammar_unrank(_chain(), 0), id="unit chain unrank"),
    pytest.param(lambda: _chain().recognizes("a"), id="unit chain recognizes"),
    pytest.param(lambda: _fresh_qlang().recognizes("!" * 1000 + "(x=x)"), id="recognizes 1000 deep"),
    pytest.param(lambda: pi_system.pretty_statement(pi_system.Greater(_deep_sum(100_000), pi_system.Var("w"))),
                 id="pretty_statement 100000 deep"),
])
def test_public_functions_return_on_deep_inputs(call):
    try:
        call()
    except RecursionError:  # raised afresh: the report would format every one of its frames
        raise RecursionError("maximum recursion depth exceeded") from None


def test_a_20000_level_literal_search_ends_within_a_second():
    # the search rebuilds 20,002 lines and the checker re-checks them; CPU time, so a loaded host cannot fail it
    target = pi_system.IntTyping(_deep_sum(20_000))
    start = time.process_time()
    budget = proof_search.SearchBudget(10**200_000)  # above the proof's rank
    verdict = proof_search.search(pi_system.make_axiom_pack(0), target, budget, "literal")
    assert time.process_time() - start < 1
    assert isinstance(verdict, proof_search.DerivedTarget) and len(verdict.derivation.lines) == 20_002


@pytest.mark.parametrize("call", ["decide", "structured", "literal"])
@pytest.mark.parametrize("target", [
    pi_system.IntTyping(("w",)),
    pi_system.IntTyping(pi_system.Num(True)),
    pi_system.IntTyping(pi_system.Num(-3)),
    pi_system.IntTyping(pi_system.Num(1.5)),
    pi_system.IntTyping(pi_system.Var("ww")),
    # == to the stateable leaf beside it, so the two share one entry of the term table
    pi_system.IntTyping(pi_system.Sum(pi_system.Num(1), pi_system.Num(True))),
    pi_system.IntTyping(pi_system.Sum(pi_system.Num(1), pi_system.Num(1.0))),
], ids=["tuple leaf", "bool numeral", "negative numeral", "float numeral", "two-letter variable",
        "bool beside its int", "float beside its int"])
def test_decide_and_search_refuse_a_target_the_concrete_syntax_cannot_state(target, call):
    # built through the API: the parser refuses each of these terms
    pack = pi_system.make_axiom_pack(5)
    with pytest.raises(ValueError, match="^not a statement of the system: "):
        if call == "decide":
            proof_search.decide(pack, target)
        else:
            proof_search.search(pack, target, proof_search.SearchBudget(10_000), call)


_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}

# int(w), int(1), then n A2 lines, each adding one +1.  The lines are made as the
# checker reads them, so a million levels need about 450 MB.  The child caps its
# address space and CPU time itself.
_A2_CHAINS = """
import itertools, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
sys.setrecursionlimit(200)
from proofbench.pi_system import *
one = Num(1)
for n in (200_000, 1_000_000):
    terms = list(itertools.accumulate(range(n), lambda t, _: Sum(t, one), initial=Var("w")))
    if n == 200_000:  # a Sum hashes by its walk: equal terms built apart hash alike
        assert hash(IntTyping(terms[-1])) == hash(IntTyping(Sum(terms[-2], one)))
    head = (Line(1, IntTyping(terms[0]), Premise()), Line(2, IntTyping(one), AxiomInstance("A3", (("c", one),))))
    body = (Line(k + 2, IntTyping(terms[k]), AxiomInstance("A2", (("t1", terms[k - 1]), ("t2", one))))
            for k in range(1, n + 1))
    print(check_derivation(make_axiom_pack(0), Derivation(("w",), itertools.chain(head, body)), IntTyping(terms[-1])))
"""


def test_a2_chains_of_200000_and_a_million_levels_check_in_a_fresh_process():
    # a fresh process: hashing a 200,000-level statement once killed the interpreter, and the child hashes one
    proc = subprocess.run([sys.executable, "-c", _A2_CHAINS], capture_output=True, text=True, env=_CHILD_ENV,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Accept()\nAccept()\n", "")


# a structured search past its budget of popped ints: about 80 MB when it refuses, where a
# 10**14 budget would otherwise take gigabytes.  The child caps itself as above.
_SEARCH_TERMS = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
from proofbench import cli
sys.exit(cli.main(["search", "((w+1)+1)+1 > w", "--pack", "20", "--budget", str(10**14)]))
"""


def test_a_structured_search_past_its_term_budget_is_one_error_line_in_a_fresh_process():
    # with no pack the target is found at candidate 6.55 * 10**9, before the budget; the pack's block delays it
    proc = subprocess.run([sys.executable, "-c", _SEARCH_TERMS], capture_output=True, text=True, env=_CHILD_ENV,
                          timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: 1000001 exceeds the search_terms budget of 1000000\n")


# enumerate builds its whole output before it writes (ROADMAP item 17), so a large --count at a
# long rank fills memory; under a 64 MB address space that takes about 5 s.  The child caps itself.
_OUT_OF_MEMORY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (64 * 2**20, 64 * 2**20))
resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
from proofbench import cli
argv = ["enumerate", "--alphabet", "binary", "--from", str(10**300), "--count", "1000000", "--format", "csv"]
sys.exit(cli.main(argv))
"""


def test_running_out_of_memory_is_one_error_line_in_a_fresh_process():
    proc = subprocess.run([sys.executable, "-c", _OUT_OF_MEMORY], capture_output=True, text=True, env=_CHILD_ENV,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired, reason="ROADMAP item 11")
def test_a_4000_digit_nth_ends_in_bounded_time():
    # a fresh process, so that the shared grammar keeps no partial counts
    proc = subprocess.run([sys.executable, "-m", "proofbench.cli", "qlang", "nth", str(7 * 10**3999)],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=2)
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr
