import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench.errors import NestingError, ParseError, ResourceLimitError
from proofbench.pi_system import (
    MAX_NESTING,
    Accept,
    AxiomInstance,
    AxiomPack,
    Derivation,
    FbarAtom,
    Greater,
    IntTyping,
    Line,
    Num,
    Premise,
    Reject,
    RuleApplication,
    Sum,
    Var,
    can_form,
    check_derivation,
    derivation_file_text,
    make_axiom_pack,
    negate_fbar,
    parse_derivation_file,
    parse_statement,
    pretty_statement,
    pretty_term,
)
from proofbench.qlang import fbar_truth

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "paper_3_1.drv"


# -- statements ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    ["fbar(12) is 1", "fbar(1) is 0", "int(w)", "int(w+1)", "int((w+1)+1)",
     "w > 0", "(w+1)+1 > w", "w+1 > w", "int(3)", "0+1 > 0"],
)
def test_statement_round_trip(text):
    assert pretty_statement(parse_statement(text)) == text


def test_statement_parsing_is_lenient_about_parens_and_spaces():
    assert pretty_statement(parse_statement("int(((w)+(1)))")) == "int(w+1)"
    assert pretty_statement(parse_statement("  fbar( 3 )  is  1 ")) == "fbar(3) is 1"
    assert pretty_statement(parse_statement("(w+1) > (w)")) == "w+1 > w"


@pytest.mark.parametrize(
    "text",
    ["", "fbar(0) is 1", "fbar(3) is 2", "fbar(03) is 1", "int(07)",
     "int(w+1+1)", "int(w+)", "w <", "w", "int(ww)", "fbar(3) was 1",
     "int(w) > w extra"],
)
def test_statement_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_statement(text)


def _non_ascii_digit(text):
    return next(i for i, c in enumerate(text) if c.isdigit() and c not in "0123456789")


@pytest.mark.parametrize("text", ["int(²)", "int(٣)", "int(1٣)", "fbar(٣) is 1", "fbar(3) is ²", "w+٣ > w"])
def test_non_ascii_digits_in_a_statement_are_parse_errors_at_the_digit(text):
    with pytest.raises(ParseError) as info:
        parse_statement(text)
    assert info.value.position == _non_ascii_digit(text)


HUGE = "1" * 5000  # more digits than Python's default integer-string limit


def _numeral_limit_expected():
    return (f"numeral of at most {sys.get_int_max_str_digits()} digits",)


@pytest.mark.parametrize("text", [f"int({HUGE})", f"int((w+{HUGE})+1)", f"fbar({HUGE}) is 1", f"{HUGE} > w"])
def test_huge_numerals_in_a_statement_are_parse_errors_at_the_first_digit(text):
    with pytest.raises(ParseError) as info:
        parse_statement(text)
    assert (info.value.position, info.value.expected) == (text.index(HUGE), _numeral_limit_expected())


def _terms(depth):
    """Terms of depth at most depth; a leaf has depth 0."""
    leaf = st.one_of(st.sampled_from("abcuvwxyz").map(Var), st.integers(0, 10**6).map(Num))
    if depth == 0:
        return leaf
    sub = _terms(depth - 1)
    return st.one_of(leaf, st.builds(Sum, sub, sub))


TERMS = _terms(6)
STATEMENTS = st.one_of(
    st.builds(FbarAtom, st.integers(1, 10**6), st.integers(0, 1)),
    st.builds(IntTyping, TERMS),
    st.builds(Greater, TERMS, TERMS),
)


@settings(max_examples=300, deadline=None)
@given(STATEMENTS)
def test_parse_statement_inverts_pretty_statement(statement):
    assert parse_statement(pretty_statement(statement)) == statement


def test_term_printing_parenthesizes_nested_sums_only():
    term = Sum(Sum(Var("w"), Num(1)), Num(1))
    assert pretty_term(term) == "(w+1)+1"
    assert pretty_statement(Greater(term, Var("w"))) == "(w+1)+1 > w"


def test_fbar_atom_validation():
    with pytest.raises(ValueError):
        FbarAtom(0, 1)
    with pytest.raises(ValueError):
        FbarAtom(3, 2)


def test_can_form_and_negation():
    statement = parse_statement("fbar(3) is 1")
    assert can_form(statement)
    assert can_form(parse_statement("int(w)"))
    assert negate_fbar(statement) == FbarAtom(3, 0)
    assert negate_fbar(negate_fbar(statement)) == statement
    with pytest.raises(ValueError):
        negate_fbar(parse_statement("int(w)"))
    assert not can_form("fbar(3) is 1")


# -- axiom packs ----------------------------------------------------------------------

def test_make_axiom_pack_holds_true_bits():
    pack = make_axiom_pack(5)
    assert pack.n == 5
    assert pack.entries == frozenset((x, fbar_truth(x)) for x in range(1, 6))


def test_make_axiom_pack_edges():
    assert make_axiom_pack(0).entries == frozenset()
    with pytest.raises(ValueError):
        make_axiom_pack(-1)
    with pytest.raises(ResourceLimitError) as info:
        make_axiom_pack(100, max_cells=10)
    assert (info.value.budget, info.value.limit, info.value.attempted) == ("max_cells", 10, 100)
    assert str(info.value) == "pack of 100 entries exceeds the budget of 10"


# -- derivation files ------------------------------------------------------------------

def fixture_text():
    return FIXTURE.read_text(encoding="utf-8")


def test_fixture_parses_and_round_trips_byte_for_byte():
    text = fixture_text()
    derivation, target = parse_derivation_file(text)
    assert derivation.header == ("w",)
    assert len(derivation.lines) == 6
    assert pretty_statement(target) == "(w+1)+1 > w"
    assert derivation_file_text(derivation, target) == text


def test_fixture_accepts_under_any_pack():
    derivation, target = parse_derivation_file(fixture_text())
    for n in (0, 5):
        assert check_derivation(make_axiom_pack(n), derivation, target) == Accept()


JUSTIFICATIONS = st.one_of(
    st.just(Premise()),
    TERMS.map(lambda t: AxiomInstance("A1", (("t", t),))),
    st.tuples(TERMS, TERMS).map(lambda ts: AxiomInstance("A2", (("t1", ts[0]), ("t2", ts[1])))),
    st.integers(0, 10**6).map(lambda c: AxiomInstance("A3", (("c", Num(c)),))),
    st.integers(0, 10**6).map(lambda i: AxiomInstance("FBAR", (("i", Num(i)),))),
    st.lists(st.integers(0, 10**4), min_size=1, max_size=3).map(lambda refs: RuleApplication("R1", tuple(refs))),
)


@st.composite
def _derivations(draw):
    """A header of 0-3 variables, up to 8 lines (valid steps or not) and a target."""
    header = tuple(draw(st.lists(st.sampled_from("abcuvwxyz"), max_size=3, unique=True)))
    # lines drawn from a small pool repeat, as the lines of real files do
    pool = draw(st.lists(st.tuples(STATEMENTS, JUSTIFICATIONS), min_size=1, max_size=4))
    picked = draw(st.lists(st.sampled_from(pool), max_size=8))
    lines = tuple(Line(i, statement, just) for i, (statement, just) in enumerate(picked, start=1))
    return Derivation(header, lines), draw(STATEMENTS)


@settings(max_examples=200, deadline=None)
@given(_derivations())
def test_derivation_files_round_trip(case):
    derivation, target = case
    assert parse_derivation_file(derivation_file_text(derivation, target)) == (derivation, target)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("vars: w\n", ""),                      # missing header
        lambda t: t.replace("target: (w+1)+1 > w\n", ""),          # missing target
        lambda t: t.replace("3. int(w+1)", "4. int(w+1)"),         # index gap
        lambda t: t.replace("1. int(w) [premise]", "1. int(w)"),   # no justification
        lambda t: t.replace("[premise]", "[guesswork]"),           # unknown keyword
        lambda t: t.replace("vars: w", "vars: w, w"),              # duplicate variable
        lambda t: t.replace("vars: w", "vars: omega"),             # multi-letter variable
        lambda t: t.replace("{t := w}", "{t := }"),                # empty substitution term
        lambda t: t.replace("rule R1 4,5", "rule R1"),             # missing references
    ],
)
def test_malformed_files_are_parse_errors(mangle):
    with pytest.raises(ParseError):
        parse_derivation_file(mangle(fixture_text()))


@pytest.mark.parametrize(
    "line",
    [
        "². int(w) [premise]",
        "1. int(٣) [premise]",
        "1. int(w) [axiom FBAR(٣)]",
        "1. int(1) [axiom A3 {c := ²}]",
        "1. w+1 > w [rule R1 ²,1]",
    ],
)
def test_non_ascii_digits_in_a_file_are_parse_errors_at_the_digit(line):
    text = "vars: w\ntarget: int(w)\n" + line + "\n"
    with pytest.raises(ParseError) as info:
        parse_derivation_file(text)
    assert info.value.position == len("vars: w\ntarget: int(w)\n") + _non_ascii_digit(line)


@pytest.mark.parametrize(
    "line",
    [
        f"{HUGE}. int(w) [premise]",
        f"1. int({HUGE}) [premise]",
        f"1. int((w+{HUGE})+1) [premise]",
        f"1. int(w) [axiom FBAR({HUGE})]",
        f"1. int(1) [axiom A3 {{c := {HUGE}}}]",
        f"1. w+1 > w [rule R1 {HUGE},1]",
    ],
)
def test_huge_numerals_in_a_file_are_parse_errors_at_the_first_digit(line):
    header = "vars: w\ntarget: int(w)\n"
    with pytest.raises(ParseError) as info:
        parse_derivation_file(header + line + "\n")
    assert (info.value.position, info.value.expected) == (len(header) + line.index(HUGE), _numeral_limit_expected())


def test_empty_derivation_rejects_with_wrong_target():
    derivation, target = parse_derivation_file("vars:\ntarget: fbar(1) is 1\n")
    verdict = check_derivation(make_axiom_pack(5), derivation, target)
    assert verdict == Reject(0, "wrong-target")


# -- the checker, one reason code at a time ---------------------------------------------

def check_mutant(text, pack_n=0):
    derivation, target = parse_derivation_file(text)
    return check_derivation(make_axiom_pack(pack_n), derivation, target)


def test_reason_bad_substitution():
    verdict = check_mutant(fixture_text().replace("{t := w+1}", "{t := w}"))
    assert verdict == Reject(4, "bad-substitution")


def test_reason_premise_not_declared():
    verdict = check_mutant(fixture_text().replace("vars: w", "vars: v"))
    assert verdict == Reject(1, "premise-not-declared")


def test_reason_rule_mismatch():
    verdict = check_mutant(fixture_text().replace("rule R1 4,5", "rule R1 5,4"))
    assert verdict == Reject(6, "rule-mismatch")


def test_reason_forward_reference():
    verdict = check_mutant(fixture_text().replace("rule R1 4,5", "rule R1 4,6"))
    assert verdict == Reject(6, "forward-reference")


def test_reason_wrong_target():
    verdict = check_mutant(fixture_text().replace("target: (w+1)+1 > w", "target: w+1 > w"))
    assert verdict == Reject(6, "wrong-target")


def test_fbar_axiom_requires_pack_membership():
    text = "vars:\ntarget: fbar(3) is 1\n1. fbar(3) is 1 [axiom FBAR(3)]\n"
    assert check_mutant(text, pack_n=5) == Accept()
    assert check_mutant(text, pack_n=0) == Reject(1, "bad-substitution")
    flipped = text.replace("is 1", "is 0")
    assert check_mutant(flipped, pack_n=5) == Reject(1, "bad-substitution")


def test_fbar_axiom_index_must_match_statement():
    derivation = Derivation(
        (), (Line(1, FbarAtom(3, 1), AxiomInstance("FBAR", (("i", Num(2)),))),)
    )
    verdict = check_derivation(make_axiom_pack(5), derivation, FbarAtom(3, 1))
    assert verdict == Reject(1, "bad-substitution")


W = Var("w")
W1 = Sum(W, Num(1))
PREMISE_W = Line(1, IntTyping(W), Premise())
A1_W = Line(2, Greater(W1, W), AxiomInstance("A1", (("t", W),)))
TRUE_3 = FbarAtom(3, fbar_truth(3))


@pytest.mark.parametrize(
    "lines, expected",
    [
        pytest.param(
            (PREMISE_W, A1_W, Line(3, Greater(W1, W), RuleApplication("R1", (1, 2)))),
            Reject(3, "rule-mismatch"),
            id="r1-cites-an-int-line",
        ),
        pytest.param(
            (Line(1, TRUE_3, AxiomInstance("FBAR", (("i", Num(3)),))),
             Line(2, TRUE_3, RuleApplication("R1", (1, 1)))),
            Reject(2, "rule-mismatch"),
            id="r1-cites-an-fbar-line",
        ),
        pytest.param(
            (Line(1, TRUE_3, AxiomInstance("FBAR", (("i", W),))),),
            Reject(1, "bad-substitution"),
            id="fbar-non-numeral-index",
        ),
        pytest.param(
            (Line(1, TRUE_3, AxiomInstance("FBAR", (("i", Num(3)), ("j", Num(3))))),),
            Reject(1, "bad-substitution"),
            id="fbar-extra-metavariable",
        ),
        pytest.param(
            (PREMISE_W, Line(2, TRUE_3, AxiomInstance("A1", (("t", W),)))),
            Reject(2, "bad-substitution"),
            id="a1-stated-as-fbar-atom",
        ),
    ],
)
def test_hand_built_rejections(lines, expected):
    verdict = check_derivation(make_axiom_pack(5), Derivation(("w",), lines), lines[-1].statement)
    assert verdict == expected


@pytest.mark.parametrize("refs", [(3, 4), (2, 4)])
def test_rule_reference_to_a_missing_line_is_a_forward_reference(refs):
    # hand-built lines need not be numbered 1..n; a cited index that no
    # earlier line carries is not a strictly earlier line
    lines = (PREMISE_W, A1_W, Line(5, Greater(W1, W), RuleApplication("R1", refs)))
    verdict = check_derivation(make_axiom_pack(0), Derivation(("w",), lines), lines[-1].statement)
    assert verdict == Reject(5, "forward-reference")


def test_checker_is_deterministic():
    derivation, target = parse_derivation_file(fixture_text())
    pack = make_axiom_pack(3)
    assert check_derivation(pack, derivation, target) == check_derivation(pack, derivation, target)


def test_axiom_premises_must_be_earlier_lines_not_later():
    # move int(w+1) after the A1 line that needs it: structurally fine,
    # but the premise is not yet derived when A1 fires
    text = (
        "vars: w\n"
        "target: (w+1)+1 > w+1\n"
        "1. int(w) [premise]\n"
        "2. int(1) [axiom A3 {c := 1}]\n"
        "3. (w+1)+1 > w+1 [axiom A1 {t := w+1}]\n"
        "4. int(w+1) [axiom A2 {t1 := w, t2 := 1}]\n"
    )
    assert check_mutant(text) == Reject(3, "rule-mismatch")


def test_hand_built_corrupt_pack_is_representable():
    # packs are plain data: an adversarial pack with both bits is expressible
    pack = AxiomPack(2, frozenset([(2, 0), (2, 1)]))
    text0 = "vars:\ntarget: fbar(2) is 0\n1. fbar(2) is 0 [axiom FBAR(2)]\n"
    text1 = "vars:\ntarget: fbar(2) is 1\n1. fbar(2) is 1 [axiom FBAR(2)]\n"
    derivation0, target0 = parse_derivation_file(text0)
    derivation1, target1 = parse_derivation_file(text1)
    assert check_derivation(pack, derivation0, target0) == Accept()
    assert check_derivation(pack, derivation1, target1) == Accept()


# -- long files ---------------------------------------------------------------------------

def long_derivation_text(n_lines, bad_line=None):
    """An n_lines-line file of A3 instances ending in an A2 step, with blank
    lines and trailing spaces so that line offsets are not uniform."""
    out = ["vars: w", "target: int(1+1)"]
    for k in range(1, n_lines - 1):
        stmt = "int(2)" if k == bad_line else "int(1)"
        out.append(f"{k}. {stmt} [axiom A3 {{c := 1}}]" + " " * (k % 3))
        if k % 7 == 0:
            out.append("")
    out.append(f"{n_lines - 1}. int(1+1) [axiom A2 {{t1 := 1, t2 := 1}}]")
    return "\n".join(out) + "\n"


def test_long_file_parses_and_checks():
    derivation, target = parse_derivation_file(long_derivation_text(2000))
    assert len(derivation.lines) == 1999
    assert check_derivation(make_axiom_pack(0), derivation, target) == Accept()


def test_a_file_builds_each_repeated_text_and_term_once():
    derivation, target = parse_derivation_file(long_derivation_text(50))
    first, second, last = derivation.lines[0], derivation.lines[1], derivation.lines[-1]
    assert first.statement is second.statement and first.justification is second.justification
    one = first.statement.term
    assert target.term.left is one and target.term.right is one
    assert last.statement.term is target.term and last.justification.subst[0][1] is one


def test_long_file_rejects_at_the_mutated_line():
    assert check_mutant(long_derivation_text(2000, bad_line=1234)) == Reject(1234, "bad-substitution")


def test_long_file_parse_error_offset_is_the_line_start():
    text = long_derivation_text(2000)
    lines = text.split("\n")
    broken = next(i for i, line in enumerate(lines) if line.startswith("1800. "))
    lines[broken] = "1801" + lines[broken][4:]
    with pytest.raises(ParseError) as info:
        parse_derivation_file("\n".join(lines))
    assert info.value.position == sum(len(line) + 1 for line in lines[:broken])
    assert info.value.expected == ("line index 1800",)


# -- deep nesting -------------------------------------------------------------------------

def nested_text(levels):
    """w+1 wrapped in `levels` parenthesized levels: ((w+1)+1)...+1."""
    return "(" * levels + "w" + "+1)" * levels + "+1"


def test_a_400_level_term_parses_to_the_nested_sums():
    statement = parse_statement(nested_text(400) + " > w")
    term = statement.lhs
    for _ in range(401):  # compared level by level: == on the whole tree recurses
        assert isinstance(term, Sum) and term.right == Num(1)
        term = term.left
    assert term == Var("w") and statement.rhs == Var("w")


def test_the_nesting_limit_itself_parses():
    statement = parse_statement(f"int({nested_text(MAX_NESTING)})")
    assert isinstance(statement, IntTyping) and isinstance(statement.term, Sum)


@pytest.mark.parametrize("template", ["{} > w", "w > {}", "int({})"])
def test_deep_statements_are_parse_errors_at_the_first_paren_past_the_limit(template):
    deep = nested_text(10_000)
    text = template.format(deep)
    with pytest.raises(NestingError) as info:
        parse_statement(text)
    assert isinstance(info.value, ParseError)
    assert info.value.position == text.index(deep) + MAX_NESTING


@pytest.mark.parametrize(
    "line",
    ["target: {} > w", "1. int({}) [premise]", "1. int(w) [axiom A3 {{c := {}}}]"],
    ids=["target", "statement", "substitution"],
)
def test_deep_derivation_files_are_parse_errors(line):
    deep = nested_text(10_000)
    text = "vars: w\n" + ("" if line.startswith("target") else "target: int(w)\n") + line.format(deep) + "\n"
    with pytest.raises(NestingError) as info:
        parse_derivation_file(text)
    assert info.value.position == text.index(deep) + MAX_NESTING
