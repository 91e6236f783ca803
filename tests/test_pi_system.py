import re
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
from proofbench import pi_system
from proofbench.pi_system import _axiom_premises, _key
from proofbench.proof_search import SearchBudget, SearchMode, search
from proofbench.qlang import fbar_truth

from oracles import axiom_premises, check_by_equality

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
        make_axiom_pack(1_000_001)
    assert (info.value.budget, info.value.limit, info.value.attempted) == ("pack_entries", 1_000_000, 1_000_001)
    assert str(info.value) == "1000001 exceeds the pack_entries budget of 1000000"


def _bit_table(xs):
    """The frozenset a built pack's entries stood for before they were its rule, at the indices xs."""
    return frozenset((x, fbar_truth(x)) for x in xs)


def _probes(xs):
    """Hashable items to test for membership: pairs whose key is one of xs, an int-equal
    non-int (True, 2.0) or not an int at all, with bits -1..2, True and 1.0; and non-pairs."""
    keys = st.sampled_from(xs) | st.sampled_from([True, False, 1.0, 2.0, 2.5, "1", float("nan"), float("inf"), None])
    pairs = st.tuples(keys, st.sampled_from([-1, 0, 1, 2, True, 1.0, "0"]))
    others = st.sampled_from([None, 1, "ab", (), (1,), (1, 0, 0), FbarAtom(1, fbar_truth(1)), FbarAtom(2, 0)])
    return pairs | others


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.data())
def test_a_built_packs_entries_are_the_frozenset_of_its_bits(n, data):
    entries, table = make_axiom_pack(n).entries, _bit_table(range(1, n + 1))
    xs = [-1, 0, 1, max(n - 1, 1), n, n + 1]
    for item in data.draw(st.lists(_probes(xs), max_size=30)):
        assert (item in entries) == (item in table), item
    assert len(entries) == len(table) and list(entries) == sorted(table)
    assert entries == table and table == entries and hash(entries) == hash(table)
    extra = {(2, 0), (2, 1)}
    assert type(entries | extra) is frozenset and entries | extra == table | extra
    assert repr(make_axiom_pack(n)) == f"AxiomPack(n={n}, entries=FbarRule({n}))"


@pytest.mark.parametrize("n", [64_447, 200_000, 1_000_000])
def test_a_large_built_packs_entries_are_its_bits_at_sampled_items(n):
    # the table holds the bits of the probed indices only: 1 and 2 (True and
    # 2.0 name them), the last listed program, the first past the bucket, and
    # the pack's middle and end
    entries = make_axiom_pack(n).entries
    xs = [1, 2, 64_446, 64_447, n // 2, n - 1, n, n + 1]
    table = _bit_table(x for x in xs if x <= n)
    probe = st.lists(_probes(xs), min_size=50, max_size=50)

    @settings(max_examples=4, deadline=None)
    @given(probe)
    def agrees(items):
        for item in items:
            assert (item in entries) == (item in table), item

    agrees()
    assert len(entries) == n
    if n == 64_447:  # every bit, so the whole set is compared
        whole = _bit_table(range(1, n + 1))
        assert entries == whole and whole == entries and hash(entries) == hash(whole)
        assert list(entries) == sorted(whole)


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


HEAD = "vars: w\ntarget: int(w)\n"
LINE_1 = Line(1, IntTyping(Var("w")), Premise())


@pytest.mark.parametrize(
    "text",
    [
        HEAD + " 1. int(w) [premise]\n",
        HEAD + "01. int(w) [premise]\n",
        HEAD + "1 . int(w) [premise]\n",
        HEAD + "\t1.int(w)[premise]\n",
        HEAD + "\xa01. int(w) [premise]\n",
        HEAD + "1. int(w) [premise] \t \n",
        HEAD + "1. int(w) [ premise ]\n",
        "\n \n" + HEAD + "\n\t\n1. int(w) [premise]\n\n",
        (HEAD + "1. int(w) [premise]\n").replace("\n", "\r\n"),
    ],
    ids=["leading-blank", "leading-zero", "blank-before-dot", "tab-no-blanks", "nbsp", "trailing-blanks",
         "blanks-in-brackets", "blank-lines", "crlf"],
)
def test_line_forms_that_parse_as_line_1(text):
    assert parse_derivation_file(text) == (Derivation(("w",), (LINE_1,)), LINE_1.statement)


@pytest.mark.parametrize(
    "line, position, expected",
    [
        ("+1. int(w) [premise]", 0, ("line index",)),
        ("2. int(w) [premise]", 0, ("line index 1",)),
        ("1 int(w) [premise]", 0, ("line index",)),
        ("1", 0, ("line index",)),
        ("1. int(w) [premise", len("1. int(w) [premise"), ("'[justification]'",)),
        ("1. int(w) premise]", len("1. int(w) premise]"), ("'[justification]'",)),
        ("1. int(w) [premise]  x", len("1. int(w) [premise]  x"), ("'[justification]'",)),
    ],
)
def test_line_forms_that_are_parse_errors(line, position, expected):
    with pytest.raises(ParseError) as info:
        parse_derivation_file(HEAD + line + "\n2. int(w) [premise]\n")
    assert (info.value.position, info.value.expected) == (len(HEAD) + position, expected)


# -- the canonical route and the scanner --------------------------------------------------
#
# Each canonical numbered line is read by one pattern; every other line, and every error,
# comes from the scanner.  With the pattern replaced by one whose every row is the catch-all,
# each line goes to the scanner alone, so the two runs must agree.

SCANNED = re.compile("^" + "()" * (pi_system._LINE.groups - 1) + r"([^\n]*)(?:\n|\Z)", re.M)


def _outcome(text):
    """repr of the parse of text, or the class, position and expected set of its error."""
    try:
        return repr(parse_derivation_file(text))
    except ParseError as exc:
        return type(exc), exc.position, exc.expected


def _scanner_outcome(text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pi_system, "_LINE", SCANNED)
        return _outcome(text)


# what an edit writes: blanks, line ends and characters the pattern refuses, and pieces of the canonical form
EDIT_PIECES = st.sampled_from(["\t", " ", "  ", "é", "²", "0", "9" * 18, "{", "}", ",", "(", ")", "+",
                               "[", "FBAR", "", "\r", "\n", " \n", "\x0c", "\u2028"])


@st.composite
def _edited_files(draw):
    """A rendered _derivations() case after 0-3 edits, each replacing 0-2 characters with a piece."""
    derivation, target = draw(_derivations())
    text = derivation_file_text(derivation, target)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(EDIT_PIECES) + text[i + draw(st.integers(0, 2)):]
    return text


@settings(max_examples=500, deadline=None)
@given(_edited_files())
def test_the_canonical_route_parses_as_the_scanner_does(text):
    assert _outcome(text) == _scanner_outcome(text)


W, ONE = Var("w"), Num(1)


@pytest.mark.parametrize(
    "line, expected",
    [
        ("1. int(w) [axiom FBAR {i := 3}]", ParseError),
        ("1. int(w) [axiom FBARX {i := 3}]", Line(1, IntTyping(W), AxiomInstance("FBARX", (("i", Num(3)),)))),
        (f"1. fbar({10**17}) is 1 [axiom FBAR({10**17})]",
         Line(1, FbarAtom(10**17, 1), AxiomInstance("FBAR", (("i", Num(10**17)),)))),
        (f"1. fbar({10**18}) is 1 [axiom FBAR({10**18})]",
         Line(1, FbarAtom(10**18, 1), AxiomInstance("FBAR", (("i", Num(10**18)),)))),
        (f"1. int({10**18}) [rule R1 {10**17},{10**18}]",
         Line(1, IntTyping(Num(10**18)), RuleApplication("R1", (10**17, 10**18)))),
        ("1. int(01) [premise]", ParseError),
        ("1. int(1+2+3) [premise]", ParseError),
        ("1. int((1+2)) [premise]", Line(1, IntTyping(Sum(ONE, Num(2))), Premise())),
        ("1. ((w+1)+1)+1 > w [premise]", Line(1, Greater(Sum(Sum(Sum(W, ONE), ONE), ONE), W), Premise())),
        ("1. int(é) [axiom A1 {t := é}]", Line(1, IntTyping(Var("é")), AxiomInstance("A1", (("t", Var("é")),)))),
        ("1. int(w) [rule R1 1,2,3]", Line(1, IntTyping(W), RuleApplication("R1", (1, 2, 3)))),
    ],
    ids=["axiom-FBAR-with-braces", "axiom-FBARX", "18-digit-numerals", "19-digit-numerals", "18-and-19-digit-refs",
         "leading-zero", "three-operand-sum", "doubled-parens", "three-level-sum", "non-ascii-variable", "three-refs"],
)
def test_canonical_edge_lines(line, expected):
    text = HEAD + line + "\n"
    assert _outcome(text) == _scanner_outcome(text)
    if expected is ParseError:
        with pytest.raises(ParseError):
            parse_derivation_file(text)
    else:
        assert parse_derivation_file(text)[0].lines == (expected,)


# The route is chosen per line: a line the pattern does not read whole, a line end included, is
# scanned alone, and the next line takes the route again.  The last line may end the file
# without a newline.

W1 = Sum(W, ONE)
FIXTURE_LINES = (
    Line(1, IntTyping(W), Premise()),
    Line(2, IntTyping(ONE), AxiomInstance("A3", (("c", ONE),))),
    Line(3, IntTyping(W1), AxiomInstance("A2", (("t1", W), ("t2", ONE)))),
    Line(4, Greater(Sum(W1, ONE), W1), AxiomInstance("A1", (("t", W1),))),
    Line(5, Greater(W1, W), AxiomInstance("A1", (("t", W),))),
    Line(6, Greater(Sum(W1, ONE), W), RuleApplication("R1", (4, 5))),
)
FIX = fixture_text()
LAST_SCANNED = FIX.replace("w [rule", "w  [rule")  # only the last line is non-canonical
BAD_SPAN = "7. int(1+2+3) [premise]\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        (FIX.replace("\n", "\r\n"), FIXTURE_LINES),
        (FIX.replace("[premise]\n", "[premise]\t\n"), FIXTURE_LINES),
        (FIX[:-1], FIXTURE_LINES),
        (FIX.replace("\n3. ", "\n\n3. "), FIXTURE_LINES),
        (FIX.replace("int(w)", "int( w )"), FIXTURE_LINES),
        (FIX + BAD_SPAN, (ParseError, len(FIX + "7. int(1+2"), ("')'",))),
        (FIX.replace("1. int(w)", "01. int(w)"), FIXTURE_LINES),
        ("vars: w\ntarget: (w+1)+1 > w\n", ()),
        (FIX.replace("1. int(w) ", "1.  int(w) "), FIXTURE_LINES),
        (LAST_SCANNED, FIXTURE_LINES),
        (FIX.replace("w [axiom A1 {t := w}]", "w  [axiom A1 {t := w}]") + BAD_SPAN,
         (ParseError, len(FIX) + 1 + len("7. int(1+2"), ("')'",))),
        (FIX.replace("\n", "\n\n") + BAD_SPAN, (ParseError, len(FIX) + FIX.count("\n") + len("7. int(1+2"),
         ("')'",))),
        (FIX.replace("\n3. ", "\n\n \n4. "), (ParseError, FIX.index("\n3. ") + len("\n\n \n"), ("line index 3",))),
    ],
    ids=["crlf", "trailing-tab", "no-final-newline", "blank-line-between", "blanks-in-a-term", "bad-span-last",
         "leading-zero-index", "no-lines", "scanned-then-route", "last-line-scanned", "bad-span-after-scanned",
         "bad-span-after-blanks", "index-after-blanks"],
)
def test_whole_file_cases(text, expected):
    assert _outcome(text) == _scanner_outcome(text)
    if expected[:1] == (ParseError,):
        assert _outcome(text) == expected
    else:
        assert parse_derivation_file(text)[0].lines == expected


def _found_proof_text(target, pack):
    verdict = search(make_axiom_pack(pack), parse_statement(target), SearchBudget(10**6), SearchMode.STRUCTURED)
    return derivation_file_text(verdict.derivation, verdict.derivation.lines[-1].statement)


@pytest.mark.parametrize(
    "text",
    [FIX, FIX.replace("\n", "\r\n"), FIX[:-1], _found_proof_text("int(w+3)", 0), _found_proof_text("fbar(3) is 1", 5)],
    ids=["fixture", "crlf", "no-final-newline", "found-int", "found-fbar"],
)
def test_a_canonical_file_takes_the_route(text, monkeypatch):
    # the scanner reads the target alone: a change that sends canonical files to it fails here
    calls = {"_scan_statement": 0, "_scan_justification": 0}
    for name in calls:
        def counted(*args, _scan=getattr(pi_system, name), _name=name):
            calls[_name] += 1
            return _scan(*args)
        monkeypatch.setattr(pi_system, name, counted)
    assert parse_derivation_file(text)[0].lines
    assert calls == {"_scan_statement": 1, "_scan_justification": 0}


@pytest.mark.parametrize(
    "text, statements, justifications",
    [(LAST_SCANNED, 2, 1), (LAST_SCANNED.replace("\n", "\r\n"), 2, 1), (FIX.replace("1. int(w) ", "1.  int(w) "), 2, 1),
     (FIX.replace("\n", "\n\n"), 1, 0), (FIX.replace("\n3. ", "\n \t\n3. "), 1, 0)],
    ids=["last-line", "last-line-crlf", "first-line", "newlines-doubled", "blank-line-between"],
)
def test_a_non_canonical_line_is_scanned_alone(text, statements, justifications, monkeypatch):
    # the target and each non-canonical line are scanned, and no other: a file-wide rescan fails here
    calls = {"_scan_statement": 0, "_scan_justification": 0}
    for name in calls:
        def counted(*args, _scan=getattr(pi_system, name), _name=name):
            calls[_name] += 1
            return _scan(*args)
        monkeypatch.setattr(pi_system, name, counted)
    assert parse_derivation_file(text)[0].lines == FIXTURE_LINES
    assert calls == {"_scan_statement": statements, "_scan_justification": justifications}


# A span that misses a file's term memo is built from its operands' entries when it is a sum of
# leaves or (X)+leaf; any other span is scanned.  Either way it must read as the scanner reads it.

SPAN_LEAVES = st.sampled_from(["w", "1", "9", "42", "0", "01", "ab"])


def _span_sums(depth):
    """Sum texts of depth at most depth, each sum inside a sum in parentheses."""
    if depth == 0:
        return SPAN_LEAVES
    sub = _span_sums(depth - 1)
    return st.one_of(SPAN_LEAVES, st.tuples(sub, sub).map(lambda ts: "+".join(f"({t})" if "+" in t else t for t in ts)))


def _scanned(span):
    """repr of _scan_term's term when it reads all of span alone, else ParseError."""
    try:
        term, j = pi_system._scan_term(span + "\n", 0, 0, {})
    except ParseError:
        return ParseError
    return repr(term) if j == len(span) else ParseError


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_span_sums(3), st.text("0129ab()+", min_size=1, max_size=12)), st.data())
def test_a_span_reads_as_the_scanner_reads_it_alone(span, data):
    terms = pi_system._Terms()
    for _ in range(data.draw(st.integers(0, 4))):  # read substrings first, so operands may be in the memo
        i = data.draw(st.integers(0, len(span) - 1))
        try:
            terms[span[i:data.draw(st.integers(i + 1, len(span)))]]
        except ParseError:
            pass
    try:
        got = repr(terms[span])
    except ParseError:
        got = ParseError
    assert got == _scanned(span)


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


# Num(True) == Num(1) under ==, and a plain tuple equals no record
_AXIOM_LEAVES = st.sampled_from([Var("w"), Var("v"), Num(0), Num(1), Num(True), Num(2), ("w",)])
_AXIOM_TERMS = st.recursive(_AXIOM_LEAVES, lambda sub: st.builds(Sum, sub, sub), max_leaves=4)


@st.composite
def _axiom_lines(draw):
    """An A1 or A2 line: a stated line of the schema's shape or not, with
    swapped terms, and a substitution with the right metavariables or not."""
    t1, t2 = draw(_AXIOM_TERMS), draw(_AXIOM_TERMS)
    one = draw(st.sampled_from([Num(1), Num(True), Num(2), Var("w"), (1,)]))
    statement = draw(st.sampled_from([
        Greater(Sum(t1, one), t1),
        Greater(Sum(t1, one), t2),
        Greater(Sum(one, t1), t1),
        Greater(t1, Sum(t1, one)),
        Greater(t1, t2),
        Greater((t1, one), t1),
        IntTyping(Sum(t1, t2)),
        IntTyping(Sum(t2, t1)),
        IntTyping((t1, t2)),
        IntTyping(t1),
        FbarAtom(1, 0),
    ]))
    schema = draw(st.sampled_from(["A1", "A2"]))
    names = draw(st.sampled_from([("t",), ("t1", "t2"), ("t2", "t1"), ("t", "t1"), ("t1",), (), ("t", "t")]))
    terms = st.one_of(st.sampled_from([t1, t2]), _AXIOM_TERMS)
    return AxiomInstance(schema, tuple((name, draw(terms)) for name in names)), statement


@settings(max_examples=500, deadline=None)
@given(_axiom_lines())
def test_axiom_premises_agree_with_comparing_the_instantiated_conclusion(line):
    instance, statement = line
    pack = AxiomPack(0, frozenset())
    ids, seen = {}, {}
    got = _axiom_premises(pack, instance, statement, _key(statement, ids, seen), ids, seen)
    expected = axiom_premises(pack, instance, statement)  # its premises keyed in the same table
    assert got == (None if expected is None else tuple(_key(premise, ids, seen) for premise in expected))


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
        pytest.param(
            (PREMISE_W, Line(2, IntTyping(ONE), AxiomInstance("A3", (("c", ONE),))),
             Line(3, IntTyping(W1), AxiomInstance("A2", (("t1", W), ("t2", ONE)))),
             Line(4, Greater(Sum(W1, ONE), W1), AxiomInstance("A1", (("t", W1),))),
             Line(5, Greater(Sum(ONE, ONE), ONE), AxiomInstance("A1", (("t", ONE),))),
             Line(6, Greater(Sum(W1, ONE), ONE), RuleApplication("R1", (4, 5)))),
            Reject(6, "rule-mismatch"),
            id="r1-premises-do-not-chain",
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


def _fresh_a2_lines(last, bad_line=None):
    """int(1) by A3, then for k = 2..last int(k) by A3 and int(k+1) by A2 from int(k) and int(1).
    Every term is built afresh, and each line is dropped once the checker has read it, so the
    ids of its objects are free for the next lines'.  bad_line states int(k+2) instead."""
    yield Line(1, IntTyping(Num(1)), AxiomInstance("A3", (("c", Num(1)),)))
    for k in range(2, last + 1):
        yield Line(2 * k - 2, IntTyping(Num(k)), AxiomInstance("A3", (("c", Num(k)),)))
        index = 2 * k - 1
        stated = Sum(Num(k), Num(2 if index == bad_line else 1))
        yield Line(index, IntTyping(stated), AxiomInstance("A2", (("t1", Num(k)), ("t2", Num(1)))))


@pytest.mark.parametrize("bad_line, expected", [(None, Accept()), (4001, Reject(4001, "bad-substitution"))])
def test_a_generator_of_fresh_lines_checks(bad_line, expected):
    # the checker keys the terms it meets by id(): it must hold them, or a later term could take a dead one's id
    target = IntTyping(Sum(Num(2500), Num(1)))
    verdict = check_derivation(make_axiom_pack(0), Derivation((), _fresh_a2_lines(2500, bad_line)), target)
    assert verdict == expected


@st.composite
def _checked_derivations(draw):
    """A derivation that checks, with its last line as the target: a premise per header
    variable, then 1-8 steps of FBAR, A3, A2, A1 or R1, each on earlier lines."""
    header = tuple(draw(st.lists(st.sampled_from("uvw"), max_size=2, unique=True)))
    lines, ints, orders = [], [], []  # orders: (ordering, its line index)

    def add(statement, just):
        lines.append(Line(len(lines) + 1, statement, just))
        return len(lines)

    for name in header:
        ints.append(Var(name))
        add(IntTyping(Var(name)), Premise())
    for step in draw(st.lists(st.sampled_from(["FBAR", "A3", "A2", "A1", "R1"]), min_size=1, max_size=8)):
        if step == "FBAR":
            x = draw(st.integers(1, 20))
            add(FbarAtom(x, fbar_truth(x)), AxiomInstance("FBAR", (("i", Num(x)),)))
        elif step == "A3" or not ints:
            ints.append(Num(draw(st.integers(0, 9))))
            add(IntTyping(ints[-1]), AxiomInstance("A3", (("c", ints[-1]),)))
        elif step == "A2":
            t1, t2 = draw(st.sampled_from(ints)), draw(st.sampled_from(ints))
            ints.append(Sum(t1, t2))
            add(IntTyping(ints[-1]), AxiomInstance("A2", (("t1", t1), ("t2", t2))))
        elif step == "A1" or not orders:
            t = draw(st.sampled_from(ints))
            ordering = Greater(Sum(t, ONE), t)
            orders.append((ordering, add(ordering, AxiomInstance("A1", (("t", t),)))))
        else:  # from an ordering b > c (b is some t+1) and b+1 > b by A1, R1 concludes b+1 > c
            (b, c), ref = draw(st.sampled_from(orders))
            for t in (ONE, b):
                if t not in ints:
                    ints.append(t)
                    add(IntTyping(t), AxiomInstance("A3", (("c", t),)) if t is ONE
                        else AxiomInstance("A2", (("t1", t.left), ("t2", t.right))))
            a1 = add(Greater(Sum(b, ONE), b), AxiomInstance("A1", (("t", b),)))
            ordering = Greater(Sum(b, ONE), c)
            orders.append((ordering, add(ordering, RuleApplication("R1", (a1, ref)))))
    return Derivation(header, tuple(lines)), lines[-1].statement


def _terms_of(statement):
    """The terms a statement names, an fbar atom's index as a numeral."""
    return [Num(statement.x)] if isinstance(statement, FbarAtom) else list(statement)


@st.composite
def _checker_cases(draw):
    """A _derivations() or _checked_derivations() case after 0-2 edits: swapped R1 refs, an R1 ref
    to a later or another earlier line, a substitution term taken from another line, a dropped
    line, or another target."""
    derivation, target = draw(st.one_of(_derivations(), _checked_derivations()))
    lines = list(derivation.lines)
    for edit in draw(st.lists(st.sampled_from(["swap", "later", "earlier", "term", "drop", "target"]), max_size=2)):
        rules = [k for k, line in enumerate(lines) if isinstance(line.justification, RuleApplication)]
        axioms = [k for k, line in enumerate(lines) if isinstance(line.justification, AxiomInstance)]
        if edit in ("swap", "later", "earlier") and rules:
            k = draw(st.sampled_from(rules))
            index, statement, (rule, refs) = lines[k]
            ref = index + draw(st.integers(1, 2)) if edit == "later" else draw(st.integers(1, max(1, index - 1)))
            refs = refs[::-1] if edit == "swap" else refs[:-1] + (ref,)
            lines[k] = Line(index, statement, RuleApplication(rule, refs))
        elif edit == "term" and axioms and len(lines) > 1:
            k = draw(st.sampled_from(axioms))
            other = draw(st.sampled_from(lines[:k] + lines[k + 1:]))
            index, statement, (schema, subst) = lines[k]
            pos = draw(st.integers(0, len(subst) - 1))
            pair = (subst[pos][0], draw(st.sampled_from(_terms_of(other.statement))))
            lines[k] = Line(index, statement, AxiomInstance(schema, subst[:pos] + (pair,) + subst[pos + 1:]))
        elif edit == "drop" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif edit == "target":
            target = draw(st.one_of(STATEMENTS, st.sampled_from([line.statement for line in lines] or [target])))
    return Derivation(derivation.header, tuple(lines)), target


@settings(max_examples=500, deadline=None)
@given(_checker_cases())
def test_the_checker_agrees_with_comparing_statements_by_equality(case):
    derivation, target = case
    pack = make_axiom_pack(20)
    assert check_derivation(pack, derivation, target) == check_by_equality(pack, derivation, target)


@settings(max_examples=100, deadline=None)
@given(_checked_derivations())
def test_checked_derivations_accept(case):
    assert check_derivation(make_axiom_pack(20), *case) == Accept()


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


def a2_chain_file(levels):
    """int(w) as a premise, int(1) by A3, then `levels` A2 lines that each
    add one `+1`, the last concluding the target int(((w+1)+1)...+1)."""
    lines, term = ["1. int(w) [premise]", "2. int(1) [axiom A3 {c := 1}]"], "w"
    for index in range(3, levels + 3):
        lines.append(f"{index}. int({term}+1) [axiom A2 {{t1 := {term}, t2 := 1}}]")
        term = f"({term}+1)"
    return f"vars: w\ntarget: int({term[1:-1]})\n" + "\n".join(lines) + "\n"


def test_a_499_level_derivation_checks():
    # the checker keys each line's statement in one term table; its terms nest 498 '(' deep
    derivation, target = parse_derivation_file(a2_chain_file(499))
    assert len(derivation.lines) == 501
    assert check_derivation(make_axiom_pack(0), derivation, target) == Accept()


def canonical_a2_chain(levels):
    """int(w) as a premise, int(1) by A3, then `levels` A2 lines in canonical text that each add
    one level, w+1, (w+1)+1, ...: each line's term is the sum of the last line's, already in the
    file's term memo, and 1.  The target int(w) is no line's, so a file that parses rejects."""
    lines, term = ["1. int(w) [premise]", "2. int(1) [axiom A3 {c := 1}]"], "w"
    for index in range(3, levels + 3):
        last, term = term, (f"({term})" if "+" in term else term) + "+1"
        lines.append(f"{index}. int({term}) [axiom A2 {{t1 := {last}, t2 := 1}}]")
    return "vars: w\ntarget: int(w)\n" + "\n".join(lines) + "\n"


def test_a_chain_of_spans_from_the_memo_reaches_the_nesting_limit():
    # the last line's term opens MAX_NESTING '(' at once
    derivation, target = parse_derivation_file(canonical_a2_chain(MAX_NESTING + 1))
    assert len(derivation.lines) == MAX_NESTING + 3
    assert check_derivation(make_axiom_pack(0), derivation, target) == Reject(MAX_NESTING + 3, "wrong-target")


def test_a_chain_of_spans_from_the_memo_stops_at_the_nesting_limit():
    # one level more: the span (X)+1 has X in the memo, but opens MAX_NESTING + 1 '(' at once
    text = canonical_a2_chain(MAX_NESTING + 2)
    with pytest.raises(NestingError) as info:
        parse_derivation_file(text)
    head = f"{MAX_NESTING + 4}. int("
    assert info.value.position == text.index(head) + len(head) + MAX_NESTING
    assert info.value.expected == (f"at most {MAX_NESTING} nested '('",)


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
