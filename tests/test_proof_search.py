import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofbench import pi_system, proof_search
from proofbench.pi_system import (
    Accept,
    AxiomPack,
    FbarAtom,
    Greater,
    IntTyping,
    Num,
    Sum,
    Var,
    check_derivation,
    derivation_file_text,
    make_axiom_pack,
    negate_fbar,
    parse_derivation_file,
    parse_statement,
    statement_vars,
)
from proofbench.proof_search import (
    DERIVABLE,
    NOT_DERIVABLE,
    AuditReport,
    DerivedNegation,
    DerivedTarget,
    Exhausted,
    SearchBudget,
    SearchMode,
    audit_consistency,
    audit_soundness,
    completeness_gap,
    decide,
    decide_fbar,
    search,
)
from proofbench.proof_search import (
    _key,
    _search_literal,
    _search_structured,
)
from proofbench.qlang import fbar_truth

import oracles
from oracles import literal_search, structured_search

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "paper_3_1.drv"

EMPTY = make_axiom_pack(0)
PACK5 = make_axiom_pack(5)


def candidates_budget(n):
    return SearchBudget(max_candidates=n)


# -- budgets ---------------------------------------------------------------------

def test_budget_needs_a_finite_limit():
    with pytest.raises(ValueError):
        SearchBudget()
    with pytest.raises(ValueError):
        SearchBudget(max_candidates=0)
    with pytest.raises(ValueError):  # no comparison ever reaches a NaN limit
        SearchBudget(max_candidates=float("nan"))
    with pytest.raises(ValueError):  # a count of candidates tried is a whole number
        SearchBudget(max_candidates=2.5)
    with pytest.raises(ValueError):
        SearchBudget(max_candidates=float("inf"))
    SearchBudget(max_candidates=1)


def test_search_requires_a_formable_target():
    with pytest.raises(ValueError):
        search(EMPTY, "not a statement", candidates_budget(10), SearchMode.STRUCTURED)


# -- structured mode ----------------------------------------------------------------

def test_structured_search_reconstructs_the_fixture_derivation():
    target = parse_statement("(w+1)+1 > w")
    verdict = search(EMPTY, target, candidates_budget(10**6), SearchMode.STRUCTURED)
    assert isinstance(verdict, DerivedTarget)
    assert check_derivation(EMPTY, verdict.derivation, target) == Accept()
    assert derivation_file_text(verdict.derivation, target) == FIXTURE.read_text(encoding="utf-8")


def test_structured_search_finds_fbar_entries_at_the_seeds():
    atom = FbarAtom(3, fbar_truth(3))
    verdict = search(PACK5, atom, candidates_budget(100), SearchMode.STRUCTURED)
    assert isinstance(verdict, DerivedTarget)
    assert len(verdict.derivation.lines) == 1
    assert verdict.candidates <= PACK5.n


def test_structured_search_derives_the_negation_of_a_false_bit():
    atom = FbarAtom(3, 1 - fbar_truth(3))
    verdict = search(PACK5, atom, candidates_budget(100), SearchMode.STRUCTURED)
    assert isinstance(verdict, DerivedNegation)
    assert check_derivation(PACK5, verdict.derivation, negate_fbar(atom)) == Accept()


def test_structured_search_exhausts_on_uncovered_indices():
    verdict = search(PACK5, FbarAtom(9, 1), candidates_budget(1500), SearchMode.STRUCTURED)
    assert verdict == Exhausted(1500)


# a hand-built pack larger than most budgets, alternating bits
PACK1000 = AxiomPack(1000, frozenset((i, i % 2) for i in range(1, 1001)))


@pytest.mark.parametrize(
    "text, max_candidates, expected",
    [
        ("fbar(700) is 0", 5_000, ("DerivedTarget", 700)),
        ("fbar(700) is 0", 700, ("DerivedTarget", 700)),
        ("fbar(700) is 0", 699, ("Exhausted", 699)),  # a budget that ends one short of the goal's offset
        ("fbar(700) is 1", 5_000, ("DerivedNegation", 700)),
        ("fbar(1) is 1", 5_000, ("DerivedTarget", 1)),
        ("w+1 > w", 1_000, ("Exhausted", 1_000)),  # the budget ends inside the block
        ("w+1 > w", 1_001, ("Exhausted", 1_001)),  # at its last atom
        ("w+1 > w", 5_000, ("DerivedTarget", 1_003)),
        ("int(w+3)", 5_000, ("DerivedTarget", 2_041)),
        ("int(w+3)", 2_040, ("Exhausted", 2_040)),
    ],
)
def test_structured_search_counts_a_large_pack_as_one_block(text, max_candidates, expected):
    verdict = search(PACK1000, parse_statement(text), candidates_budget(max_candidates), SearchMode.STRUCTURED)
    assert (type(verdict).__name__, verdict.candidates) == expected


@pytest.mark.parametrize(
    "entries, text, max_candidates, expected",
    [
        ({(1, 0), (0, 1), (2, 1)}, "fbar(1) is 0", 50, "fbar indices are positive integers"),
        ({(1, 0), (0, 1), (2, 1)}, "w+1 > w", 50, "fbar indices are positive integers"),
        ({(1, 0), (5, 7)}, "fbar(1) is 0", 50, ("DerivedTarget", 1)),  # found before the bad entry
        ({(1, 0), (5, 7)}, "w+1 > w", 50, "fbar bits are 0 or 1"),
        ({(1, 0), (5, 7)}, "w+1 > w", 1, ("Exhausted", 1)),  # the budget ends before the pack
        ({(1, 0), (5, 7)}, "w+1 > w", 2, "fbar bits are 0 or 1"),  # the entry one past the budget is read
        ({(1, 0), (5, 7)}, "int(w)", 50, ("DerivedTarget", 1)),  # found in the header
    ],
)
def test_structured_search_fails_on_the_bad_entries_of_a_hand_built_pack_it_reaches(
    entries, text, max_candidates, expected
):
    pack = AxiomPack(len(entries), frozenset(entries))
    budget = candidates_budget(max_candidates)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            search(pack, parse_statement(text), budget, SearchMode.STRUCTURED)
    else:
        verdict = search(pack, parse_statement(text), budget, SearchMode.STRUCTURED)
        assert (type(verdict).__name__, verdict.candidates) == expected


def nested_sum(depth, leaf="w"):
    """leaf+1 wrapped in depth levels: ((leaf+1)+1)..., built without parsing."""
    term = Var(leaf)
    for _ in range(depth):
        term = Sum(term, Num(1))
    return term


@pytest.mark.parametrize("shape", ["int", "ordering"])
def test_structured_search_on_a_deeply_nested_target_exhausts(shape):
    deep = nested_sum(10_000)
    target = IntTyping(deep) if shape == "int" else Greater(deep, Var("w"))
    verdict = search(EMPTY, target, candidates_budget(1_000), SearchMode.STRUCTURED)
    assert verdict == Exhausted(1_000)


def test_statement_vars_of_deep_terms_in_first_appearance_order():
    deep = Sum(Var("c"), Sum(nested_sum(10_000, "a"), Var("b")))
    assert statement_vars(Greater(deep, Var("d"))) == ("c", "a", "b", "d")
    assert statement_vars(IntTyping(Sum(Var("b"), deep))) == ("b", "c", "a")


def test_underivable_candidate_budgeted_search_returns_at_once():
    started = time.perf_counter()
    verdict = search(EMPTY, parse_statement("w > w"), SearchBudget(max_candidates=10**9), SearchMode.STRUCTURED)
    elapsed = time.perf_counter() - started
    assert verdict == Exhausted(10**9)
    assert elapsed < 1.0, f"took {elapsed:.1f}s, budget 1s"


@pytest.mark.parametrize(
    "mode, runs",
    [
        # a found target, then one exhausted while enumerating
        (SearchMode.STRUCTURED, [(PACK5, "w+1 > w", 10**4), (EMPTY, "((w+1)+1)+1 > w", 1_000)]),
        (SearchMode.LITERAL, [(EMPTY, "((w+1)+1)+1 > w", 10**29), (EMPTY, "(w+1)+1 > w", 2_000_000)]),
    ],
    ids=["structured", "literal"],
)
def test_search_reads_no_clock(monkeypatch, mode, runs):
    expected = [search(pack, parse_statement(text), SearchBudget(n), mode) for pack, text, n in runs]
    assert [type(verdict) for verdict in expected] == [DerivedTarget, Exhausted]

    def no_clock():
        raise AssertionError("search read a clock")

    for name in ("monotonic", "perf_counter", "time", "process_time"):
        monkeypatch.setattr(time, name, no_clock)
    assert [search(pack, parse_statement(text), SearchBudget(n), mode) for pack, text, n in runs] == expected


def test_structured_search_memory_does_not_grow_with_the_budget():
    # in a child process, so its peak RSS is the search's alone; storing every candidate took about 2.3 GB,
    # and interning every popped int about 76 MB at 10**10 candidates with a 20-entry pack.
    # Linux carries ru_maxrss over exec, so a child spawned by a large test process would report that
    # process's peak; VmHWM is the peak of the child's own memory, and ru_maxrss the fallback without /proc.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for pack, max_candidates, bound_mb in [(0, 10**7, 100), (20, 10**10, 55)]:
        code = (
            "import re, resource\n"
            "from proofbench.pi_system import make_axiom_pack, parse_statement\n"
            "from proofbench.proof_search import SearchBudget, SearchMode, search\n"
            "target = parse_statement('((w+1)+1)+1 > w')\n"
            f"print(search(make_axiom_pack({pack}), target, SearchBudget({max_candidates}), SearchMode.STRUCTURED))\n"
            "try:\n"
            "    print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1))\n"
            "except OSError:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        verdict, max_rss_kb = proc.stdout.splitlines()
        assert verdict == f"Exhausted(candidates={max_candidates})"
        assert int(max_rss_kb) < bound_mb * 1024, f"peak RSS {int(max_rss_kb) // 1024} MB, bound {bound_mb} MB"


@pytest.mark.parametrize("text, max_candidates, expected", [
    ("((0+1)+1)+1 > 0+1", 10**9, ("DerivedTarget", 94_361_905)),  # the first of the R1 block of (0+1)+1's A1
    ("((0+1)+1)+1 > 0", 10**9, ("DerivedTarget", 94_361_906)),  # the second, the block's last
    ("((0+1)+1)+1 > 0", 94_361_905, ("Exhausted", 94_361_905)),
])
def test_structured_search_finds_a_goal_inside_an_r1_block(text, max_candidates, expected):
    # past the oracle's budgets: A1's R1 conclusions are one block, and the goal is found at its offset in it
    verdict = search(EMPTY, parse_statement(text), SearchBudget(max_candidates), SearchMode.STRUCTURED)
    assert (type(verdict).__name__, verdict.candidates) == expected
    if expected[0] == "DerivedTarget":  # an R1 conclusion
        assert verdict.derivation.lines[-1].justification.rule == "R1"


def test_structured_search_finds_a_three_layer_ordering_by_chaining_its_a1_steps():
    # the shallowest structured find whose R1 step takes an R1 conclusion, (w+1)+1 > w, as a premise
    target = parse_statement("((w+1)+1)+1 > w")
    verdict = search(EMPTY, target, SearchBudget(10**10), SearchMode.STRUCTURED)
    assert type(verdict) is DerivedTarget and verdict.candidates == 6_554_521_904
    assert len(verdict.derivation.lines) == 9
    literal = search(EMPTY, target, SearchBudget(10**30), SearchMode.LITERAL)
    assert verdict.derivation == literal.derivation


# -- literal mode ---------------------------------------------------------------------

def test_literal_search_finds_one_line_fbar_derivations():
    atom = FbarAtom(3, fbar_truth(3))
    verdict = search(PACK5, atom, candidates_budget(10**5), SearchMode.LITERAL)
    assert isinstance(verdict, DerivedTarget)
    assert len(verdict.derivation.lines) == 1
    assert check_derivation(PACK5, verdict.derivation, atom) == Accept()


def test_literal_search_derives_negations_too():
    atom = FbarAtom(2, 1 - fbar_truth(2))
    verdict = search(PACK5, atom, candidates_budget(10**5), SearchMode.LITERAL)
    assert isinstance(verdict, DerivedNegation)


def test_literal_search_exhausts_exactly_at_the_budget():
    verdict = search(PACK5, FbarAtom(9, 0), candidates_budget(3000), SearchMode.LITERAL)
    assert verdict == Exhausted(3000)


@pytest.mark.parametrize("pack, text", [(EMPTY, "int(w)"), (PACK5, "fbar(3) is 0"), (EMPTY, "w+1 > w")])
def test_literal_search_counts_the_proof_string_within_its_budget(pack, text):
    target = parse_statement(text)
    found = search(pack, target, candidates_budget(10**6), SearchMode.LITERAL)
    assert search(pack, target, candidates_budget(found.candidates), SearchMode.LITERAL) == found
    assert search(pack, target, candidates_budget(found.candidates - 1), SearchMode.LITERAL) == Exhausted(
        found.candidates - 1
    )


def test_literal_search_without_a_proof_term_returns_at_once():
    # no string proves an underivable target, so none is tried, even with a large budget
    for pack, text, limit in [(PACK5, "fbar(9) is 0", 10**9), (EMPTY, "w > w", 10**30)]:
        started = time.perf_counter()
        verdict = search(pack, parse_statement(text), SearchBudget(max_candidates=limit), SearchMode.LITERAL)
        assert verdict == Exhausted(limit), text
        assert time.perf_counter() - started < 1.0, text


def test_literal_search_reaches_far_ranks():
    target = parse_statement("((w+1)+1)+1 > w")
    verdict = search(EMPTY, target, candidates_budget(10**29), SearchMode.LITERAL)
    assert isinstance(verdict, DerivedTarget)
    assert verdict.candidates == 73_389_433_684_872_703_995_529_139_647
    assert len(verdict.derivation.lines) == 9
    assert check_derivation(EMPTY, verdict.derivation, target) == Accept()
    started = time.perf_counter()
    assert search(EMPTY, parse_statement("(w+1)+1 > w"), candidates_budget(2_000_000), SearchMode.LITERAL) == Exhausted(
        2_000_000
    )
    assert time.perf_counter() - started < 1.0


def test_literal_search_reaches_ranks_past_any_walk():
    target = parse_statement("(((w+1)+1)+1)+1 > w")
    verdict = search(EMPTY, target, candidates_budget(10**60), SearchMode.LITERAL)
    assert verdict.candidates == 8_912_368_381_280_375_357_593_167_034_818_586_340_595_230_578_111
    assert isinstance(verdict, DerivedTarget) and len(verdict.derivation.lines) == 12
    assert check_derivation(EMPTY, verdict.derivation, target) == Accept()


def test_literal_search_builds_a_fifty_layer_ordering():
    target = Greater(nested_sum(50), Var("w"))
    started = time.perf_counter()
    verdict = search(EMPTY, target, SearchBudget(2**400_000), SearchMode.LITERAL)
    elapsed = time.perf_counter() - started
    assert isinstance(verdict, DerivedTarget) and len(verdict.derivation.lines) == 150
    # the count has about 6,400 digits, past str()'s limit, so no assertion may format it
    assert verdict.candidates.bit_length() == 21_263
    assert elapsed < 0.1, f"took {elapsed:.3f}s, budget 0.1s"
    assert check_derivation(EMPTY, verdict.derivation, target) == Accept()


def test_literal_search_builds_a_two_hundred_layer_ordering():
    # ranking its 80,399-symbol proof term is near-linear, not quadratic, in its length
    target = Greater(nested_sum(200), Var("w"))
    started = time.perf_counter()
    verdict = search(EMPTY, target, SearchBudget(2**400_000), SearchMode.LITERAL)
    elapsed = time.perf_counter() - started
    assert isinstance(verdict, DerivedTarget) and len(verdict.derivation.lines) == 600
    assert verdict.candidates.bit_length() == 335_258  # never formatted: about 100,000 digits
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_search_reads_the_verdict_of_a_deep_target_off_its_key():
    # the rebuilt goal and a separately built target this deep would recurse when compared by ==
    target = IntTyping(nested_sum(499))
    verdict = search(EMPTY, target, SearchBudget(2**400_000), SearchMode.LITERAL)
    assert isinstance(verdict, DerivedTarget) and len(verdict.derivation.lines) == 501


def test_literal_search_handles_compound_targets():
    target = parse_statement("0+1 > 0")
    verdict = search(EMPTY, target, candidates_budget(10**6), SearchMode.LITERAL)
    assert isinstance(verdict, DerivedTarget)
    assert check_derivation(EMPTY, verdict.derivation, target) == Accept()


# -- invariants across modes -------------------------------------------------------------

@pytest.mark.parametrize("x", [1, 2, 3])
@pytest.mark.parametrize("bit", [0, 1])
def test_mode_agreement_on_fbar_targets(x, bit):
    atom = FbarAtom(x, bit)
    structured = search(PACK5, atom, candidates_budget(10**5), SearchMode.STRUCTURED)
    literal = search(PACK5, atom, candidates_budget(10**5), SearchMode.LITERAL)
    assert type(structured) is type(literal)
    structured_bytes = derivation_file_text(
        structured.derivation,
        atom if isinstance(structured, DerivedTarget) else negate_fbar(atom),
    )
    literal_bytes = derivation_file_text(
        literal.derivation,
        atom if isinstance(literal, DerivedTarget) else negate_fbar(atom),
    )
    assert len(structured_bytes) <= len(literal_bytes)


def test_mode_agreement_on_a_compound_target():
    target = parse_statement("0+1 > 0")
    structured = search(EMPTY, target, candidates_budget(10**6), SearchMode.STRUCTURED)
    literal = search(EMPTY, target, candidates_budget(10**6), SearchMode.LITERAL)
    assert isinstance(structured, DerivedTarget) and isinstance(literal, DerivedTarget)
    assert derivation_file_text(structured.derivation, target) == derivation_file_text(
        literal.derivation, target
    )


def test_search_agrees_with_the_static_decider():
    pack = make_axiom_pack(25)
    for x in range(1, 51):
        for bit in (0, 1):
            atom = FbarAtom(x, bit)
            verdict = search(pack, atom, candidates_budget(2000), SearchMode.STRUCTURED)
            if decide_fbar(pack, atom) == DERIVABLE:
                assert isinstance(verdict, DerivedTarget), (x, bit)
            elif decide_fbar(pack, negate_fbar(atom)) == DERIVABLE:
                assert isinstance(verdict, DerivedNegation), (x, bit)
            else:
                assert isinstance(verdict, Exhausted), (x, bit)


_LEAVES = st.sampled_from([Var("w"), Var("v"), Num(0), Num(1), Num(2)])


@st.composite
def _wrapped(draw, base=_LEAVES, layers=3):
    """A drawn base term wrapped in 0 to layers (...)+1 layers."""
    term = draw(base)
    for _ in range(draw(st.integers(0, layers))):
        term = Sum(term, Num(1))
    return term


@st.composite
def _orderings(draw, leaves=_LEAVES, layers=3):
    rhs = draw(_wrapped(leaves, layers))
    lhs = draw(st.one_of(_wrapped(leaves, layers), _wrapped(st.just(rhs), layers)))  # the second may be derivable
    return Greater(lhs, rhs)


_TARGETS = st.one_of(
    _wrapped().map(IntTyping),
    st.tuples(_wrapped(), _wrapped()).map(lambda parts: IntTyping(Sum(*parts))),
    _orderings(),
    st.tuples(st.integers(1, 8), st.integers(0, 1)).map(lambda xb: FbarAtom(*xb)),
)
_PACKS = st.sampled_from([EMPTY, PACK5, AxiomPack(5, PACK5.entries | {(2, 0), (2, 1)})])


@settings(max_examples=300, deadline=None)
@given(_TARGETS, _PACKS, st.integers(300, 3000), st.sampled_from(list(SearchMode)))
def test_decide_agrees_with_both_search_loops(target, pack, max_candidates, mode):
    budget = SearchBudget(max_candidates=max_candidates)
    header = statement_vars(target)
    ids: dict = {}
    goal = _key(target, ids)
    negation = negate_fbar(target) if isinstance(target, FbarAtom) else None
    if negation is not None:  # search hands a mode the entry F picks at x, bit 0 if both are in, if any
        goal = next((FbarAtom(target.x, bit) for bit in (0, 1) if (target.x, bit) in pack.entries), None)
    run = _search_structured if mode is SearchMode.STRUCTURED else _search_literal
    found, candidates = run(pack, header, ids, goal, budget) if goal is not None else (None, max_candidates)
    verdict = search(pack, target, budget, mode)
    assert verdict.candidates == candidates
    if found is not None:  # a found goal is derivable
        assert decide(pack, target if found == _key(target, ids) else negation) == DERIVABLE
    if decide(pack, target) == NOT_DERIVABLE and (negation is None or decide(pack, negation) == NOT_DERIVABLE):
        assert found is None and candidates == max_candidates
        assert verdict == Exhausted(max_candidates)


_ORACLE_LEAVES = st.sampled_from([Var("w"), Var("v"), Var("a"), Var("p"), Num(0), Num(1), Num(2)])
_ORACLE_TARGETS = st.one_of(
    _wrapped(_ORACLE_LEAVES, 2).map(IntTyping),
    _orderings(_ORACLE_LEAVES, 2),
    st.tuples(st.integers(1, 8), st.integers(0, 1)).map(lambda xb: FbarAtom(*xb)),
)


@settings(max_examples=200, deadline=None)
@given(_ORACLE_TARGETS, _PACKS, st.integers(1, 3000))
def test_literal_search_agrees_with_the_brute_force_oracle(target, pack, max_candidates):
    verdict = search(pack, target, SearchBudget(max_candidates=max_candidates), SearchMode.LITERAL)
    assert (type(verdict).__name__, verdict.candidates) == literal_search(pack, target, max_candidates)


@settings(max_examples=200, deadline=None)
@example(parse_statement("(0+1)+1 > 0"), EMPTY, 9_035)  # found at its budget, by R1
@given(
    _TARGETS,
    st.sampled_from([
        EMPTY,
        PACK5,
        make_axiom_pack(20),
        AxiomPack(5, PACK5.entries | {(2, 0), (2, 1)}),
        AxiomPack(300, frozenset({(i, i % 2) for i in range(1, 301)} | {(7, 0)})),  # larger than most budgets
    ]),
    st.one_of(st.integers(1, 20_000), st.integers(10_000, 20_000)),  # the first leans to small budgets
)
def test_structured_search_agrees_with_the_stored_candidate_oracle(target, pack, max_candidates):
    verdict = search(pack, target, SearchBudget(max_candidates=max_candidates), SearchMode.STRUCTURED)
    text = None
    if not isinstance(verdict, Exhausted):
        goal = target if isinstance(verdict, DerivedTarget) else negate_fbar(target)
        text = derivation_file_text(verdict.derivation, goal)
    assert (type(verdict).__name__, verdict.candidates, text) == structured_search(pack, target, max_candidates)
    if text is not None and verdict.candidates > 1:  # one candidate fewer runs out just before the proof
        shorter = SearchBudget(max_candidates=verdict.candidates - 1)
        assert search(pack, target, shorter, SearchMode.STRUCTURED) == Exhausted(verdict.candidates - 1)


def test_search_halts_with_the_correct_bit_on_covered_indices():
    pack = make_axiom_pack(25)
    for x in range(1, 26):
        verdict = search(pack, FbarAtom(x, 1), candidates_budget(1000), SearchMode.STRUCTURED)
        implied = 1 if isinstance(verdict, DerivedTarget) else 0
        assert implied == fbar_truth(x)


def test_search_is_deterministic():
    target = parse_statement("(w+1)+1 > w")
    first = search(EMPTY, target, candidates_budget(10**6), SearchMode.STRUCTURED)
    second = search(EMPTY, target, candidates_budget(10**6), SearchMode.STRUCTURED)
    assert first == second
    exhausted_one = search(PACK5, FbarAtom(9, 1), candidates_budget(700), SearchMode.LITERAL)
    exhausted_two = search(PACK5, FbarAtom(9, 1), candidates_budget(700), SearchMode.LITERAL)
    assert exhausted_one == exhausted_two


def test_search_accepts_mode_names():
    verdict = search(PACK5, FbarAtom(3, fbar_truth(3)), candidates_budget(100), "structured")
    assert isinstance(verdict, DerivedTarget)


# -- the static decider --------------------------------------------------------------------

def test_decide_fbar_examples():
    true_bit = fbar_truth(3)
    assert decide_fbar(PACK5, FbarAtom(3, true_bit)) == DERIVABLE
    assert decide_fbar(PACK5, FbarAtom(3, 1 - true_bit)) == NOT_DERIVABLE
    assert decide_fbar(PACK5, FbarAtom(9, 0)) == NOT_DERIVABLE
    assert decide_fbar(PACK5, FbarAtom(9, 1)) == NOT_DERIVABLE


@pytest.mark.parametrize(
    "text, decision",
    [
        ("int(w)", DERIVABLE),
        ("int(w+(v+2))", DERIVABLE),
        ("w+1 > w", DERIVABLE),
        ("(w+1)+1 > w", DERIVABLE),
        ("((1+1)+1)+1 > 1+1", DERIVABLE),
        ("w > w", NOT_DERIVABLE),
        ("w > w+1", NOT_DERIVABLE),
        ("(w+1)+1 > v", NOT_DERIVABLE),
        ("(w+2)+1 > w", NOT_DERIVABLE),
        ("w+(0+1) > w", NOT_DERIVABLE),
        ("1 > 0", NOT_DERIVABLE),
        ("fbar(3) is 1", decide_fbar(PACK5, FbarAtom(3, 1))),
        ("fbar(9) is 0", NOT_DERIVABLE),
    ],
)
def test_decide_examples(text, decision):
    assert decide(PACK5, parse_statement(text)) == decision


def test_decide_reads_deep_orderings_without_recursion():
    deep = "(" * 498 + "w" + "+1)" * 498 + "+1"
    assert decide(EMPTY, parse_statement(f"{deep} > w")) == DERIVABLE
    assert decide(EMPTY, parse_statement(f"{deep} > (w+1)+1")) == DERIVABLE
    assert decide(EMPTY, parse_statement(f"{deep} > v")) == NOT_DERIVABLE
    assert decide(EMPTY, Greater(nested_sum(10_000), nested_sum(9_999))) == DERIVABLE
    assert decide(EMPTY, Greater(nested_sum(10_000), nested_sum(10_000))) == NOT_DERIVABLE
    with pytest.raises(ValueError):
        decide(EMPTY, "not a statement")


def test_decide_fbar_rejects_non_fbar_statements():
    with pytest.raises(ValueError):
        decide_fbar(PACK5, parse_statement("int(w)"))


def test_completeness_gap_examples():
    assert completeness_gap(PACK5, 8) == [6, 7, 8]
    assert completeness_gap(EMPTY, 3) == [1, 2, 3]
    assert completeness_gap(PACK5, 5) == []
    with pytest.raises(ValueError):
        completeness_gap(PACK5, 0)


# -- audits -----------------------------------------------------------------------------

def test_soundness_audit_passes_for_truth_built_packs():
    report = audit_soundness(make_axiom_pack(100))
    assert report.kind == "soundness"
    assert report.queries == 200
    assert report.violations == ()
    assert report.ok


def test_soundness_audit_catches_a_flipped_bit():
    entries = {(x, fbar_truth(x)) for x in range(1, 6)}
    entries.discard((3, fbar_truth(3)))
    entries.add((3, 1 - fbar_truth(3)))
    report = audit_soundness(AxiomPack(5, frozenset(entries)))
    assert report.violations == ((3, 1 - fbar_truth(3)),)
    assert not report.ok


def test_soundness_audit_sweeps_entries_past_the_packs_n():
    # decide, and so search, derive every entry, whatever n says
    false_bit = 1 - fbar_truth(3)
    pack = AxiomPack(1, frozenset({(1, fbar_truth(1)), (3, false_bit)}))
    assert decide(pack, FbarAtom(3, false_bit)) == DERIVABLE
    report = audit_soundness(pack)
    assert report.violations == ((3, false_bit),)
    assert report.queries == 4


def test_soundness_audit_on_the_empty_pack():
    report = audit_soundness(EMPTY)
    assert report.queries == 0
    assert report.ok


def test_consistency_audit_passes_for_truth_built_packs():
    report = audit_consistency(make_axiom_pack(50), 60)
    assert report.queries == 120
    assert report.violations == ()


def test_consistency_audit_catches_double_bits():
    pack = AxiomPack(2, frozenset([(2, 0), (2, 1)]))
    report = audit_consistency(pack, 5)
    assert report.violations == (2,)


def test_consistency_audit_on_the_empty_pack():
    assert audit_consistency(EMPTY, 10).violations == ()
    with pytest.raises(ValueError):
        audit_consistency(EMPTY, 0)


# hand-built keys: ints in and around 1..40, values equal to an int (True,
# False, 2.0), and values equal to none (2.5, "3", NaN, inf, 10**30)
_HAND_KEYS = st.integers(-2, 30) | st.sampled_from([True, False, 2.0, 2.5, "3", float("nan"), float("inf"), 10**30])
_HAND_BITS = st.integers(-1, 2) | st.sampled_from([0.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.frozensets(st.tuples(_HAND_KEYS, _HAND_BITS), max_size=40), st.integers(1, 40))
@example(frozenset({(True, 0), (1, 1.0), (2.0, 0.0), (2, 1), (2.5, 0), (2.5, 1), ("3", 0), ("3", 1)}), 40)
@example(frozenset({(float("nan"), 0), (float("nan"), 1), (float("inf"), 0), (float("inf"), 1), (10**30, 0), (10**30, 1)}), 40)
def test_the_gap_and_consistency_audit_agree_with_the_sweeps(entries, x_max):
    pack = AxiomPack(0, entries)
    report = audit_consistency(pack, x_max)
    assert report == oracles.audit_consistency(pack, x_max)
    assert audit_soundness(pack) == oracles.audit_soundness(pack)
    assert all(type(x) is int for x in report.violations)
    assert completeness_gap(pack, x_max) == oracles.completeness_gap(pack, x_max)


@pytest.mark.parametrize("x_max", [10**7, 10**23])
def test_consistency_audit_reads_the_pack_at_any_x_max(x_max):
    pack = make_axiom_pack(25)
    started = time.perf_counter()
    report = audit_consistency(pack, x_max)
    elapsed = time.perf_counter() - started
    assert (report.queries, report.violations) == (2 * x_max, ())
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


# -- bits read off built packs -----------------------------------------------------------

@pytest.fixture
def bit_reads(monkeypatch):
    """The indices of the fbar_truth calls made through the names pi_system
    and proof_search call, in order."""
    reads = []

    def counted(x):
        reads.append(x)
        return fbar_truth(x)

    monkeypatch.setattr(pi_system, "fbar_truth", counted)
    monkeypatch.setattr(proof_search, "fbar_truth", counted)
    return reads


def test_a_command_that_reads_no_entry_of_a_large_built_pack_computes_no_bit(bit_reads):
    pack = make_axiom_pack(10**6)
    for text in ("int(w)", "w+1 > w"):
        assert decide(pack, parse_statement(text)) == DERIVABLE
    verdict = search(pack, parse_statement("int(w)"), candidates_budget(100_000), SearchMode.STRUCTURED)
    assert (type(verdict), verdict.candidates) == (DerivedTarget, 1)
    verdict = search(pack, parse_statement("w+1 > w"), candidates_budget(100_000), SearchMode.STRUCTURED)
    assert verdict == Exhausted(100_000)  # the pack block alone passes the budget
    derivation, target = parse_derivation_file(FIXTURE.read_text(encoding="utf-8"))
    assert check_derivation(pack, derivation, target) == Accept()
    assert bit_reads == []


@pytest.mark.parametrize("n, x_max", [(25, 10), (25, 40), (10**6, 30)])
def test_the_gap_and_the_consistency_audit_read_at_most_one_bit_per_index(bit_reads, n, x_max):
    pack = make_axiom_pack(n)
    expected = oracles.completeness_gap(pack, x_max)  # it decides both bits of every x
    del bit_reads[:]
    assert completeness_gap(pack, x_max) == expected
    assert len(bit_reads) <= min(x_max, n)
    del bit_reads[:]
    assert audit_consistency(pack, x_max) == AuditReport("consistency", 2 * x_max, ())
    assert bit_reads == []


def test_the_soundness_audit_computes_each_bit_of_a_built_pack_once(bit_reads):
    assert audit_soundness(make_axiom_pack(30)) == AuditReport("soundness", 60, ())
    assert bit_reads == list(range(1, 31))


def test_a_check_reads_at_most_one_bit_per_fbar_line(bit_reads):
    bits = [fbar_truth(x) for x in (1, 2, 3)]
    text = "vars:\ntarget: fbar(3) is {2}\n1. fbar(1) is {0} [axiom FBAR(1)]\n2. fbar(2) is {1} [axiom FBAR(2)]\n"
    text += "3. fbar(3) is {2} [axiom FBAR(3)]\n"
    derivation, target = parse_derivation_file(text.format(*bits))
    assert check_derivation(make_axiom_pack(5), derivation, target) == Accept()
    assert len(bit_reads) <= 3


@pytest.mark.parametrize("mode", list(SearchMode))
@pytest.mark.parametrize("x, truth", [(13, 0), (700_000, 1)])
@pytest.mark.parametrize("claim", [0, 1])
def test_an_fbar_search_reads_the_bit_of_its_index_at_most_three_times(bit_reads, mode, x, truth, claim):
    # search reads the pack's entry at x once for both modes: (x, 0), then
    # (x, 1) when the bit is 1; the checker reads the found line's bit again
    assert fbar_truth(x) == truth  # through the module's own name, so not counted
    verdict = search(make_axiom_pack(10**6), FbarAtom(x, claim), candidates_budget(10**12), mode)
    assert type(verdict) is (DerivedTarget if claim == truth else DerivedNegation)
    assert verdict.derivation.lines[-1].statement == FbarAtom(x, truth)
    assert len(bit_reads) <= 3 and set(bit_reads) == {x}


@pytest.mark.parametrize("mode", list(SearchMode))
@pytest.mark.parametrize("entries, found", [
    ({(3, 1), (5, 1)}, FbarAtom(5, 1)),
    ({(3, 1), (5, 0), (5, 1)}, FbarAtom(5, 0)),  # both bits are entries: F picks bit 0
    ({(3, 1)}, None),
])
def test_an_fbar_search_of_a_hand_built_pack_finds_the_entry_that_f_picks(bit_reads, mode, entries, found):
    for claim in (0, 1):
        verdict = search(AxiomPack(5, frozenset(entries)), FbarAtom(5, claim), candidates_budget(10**12), mode)
        if found is None:
            assert verdict == Exhausted(10**12)
        else:
            assert type(verdict) is (DerivedTarget if claim == found.bit else DerivedNegation)
            assert verdict.derivation.lines[-1].statement == found
    assert bit_reads == []
