"""Deterministic cost: interpreter line events at n, 2n and 4n, bounded per doubling.

A wall-clock bound is noisy.  The number of line events that sys.settrace reports for
one call is the same on every run of one Python version, and its ratio between two
sizes carries across versions.  A linear entry point reads about x2 per doubling of
its input; the bound leaves room for fixed costs, and a quadratic step reads about x4.
Each case is called once to warm the shared caches before it is counted.
"""

import itertools
import sys

import pytest

from proofbench import qlang
from proofbench.enumerator import Alphabet, Grammar, grammar_count, rank, stream, unrank
from proofbench.errors import ParseError
from proofbench.pi_system import (AxiomInstance, AxiomPack, Derivation, IntTyping, Line, Num, Premise, Sum, Var,
                                  check_derivation, make_axiom_pack, parse_derivation_file, parse_statement,
                                  pretty_statement)
from proofbench.proof_search import (SearchBudget, SearchMode, audit_consistency, audit_soundness, completeness_gap,
                                     decide, search)

LINEAR = 2.3  # the bound on a linear case's line events per doubling of its input
QUADRATIC = 4.6  # the bound on a named quadratic case's line events per doubling
SIZES = (200, 400, 800)
LEVELS = (100, 200, 400)  # nesting levels, under MAX_NESTING and the recursion limit


def _line_events(call):
    """The line events of call(), in every frame it runs, after one uncounted call."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    call()
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def _assert_linear(counts, bound=LINEAR):
    """Each count, at twice the size of the one before, is at most bound times it."""
    ratios = [later / earlier for earlier, later in zip(counts, counts[1:])]
    assert max(ratios) <= bound, (counts, ratios)


def _derivation_file(n, scanned):
    """A file of n distinct A2 lines; a line k with scanned(n, k) has a doubled blank, so it is not canonical."""
    lines = (f"{k}.{'  ' if scanned(n, k) else ' '}int(w+{k}) [axiom A2 {{t1 := w, t2 := {k}}}]" for k in range(1, n + 1))
    return "vars: w\ntarget: int(w+1)\n" + "\n".join(lines) + "\n"


FILE_SHAPES = {
    "canonical": lambda n, k: False,
    "last-line-scanned": lambda n, k: k == n,
    "every-line-scanned": lambda n, k: True,
}


@pytest.mark.parametrize("shape", FILE_SHAPES)
def test_parse_derivation_file_is_linear(shape):
    texts = [_derivation_file(n, FILE_SHAPES[shape]) for n in SIZES]
    _assert_linear([_line_events(lambda text=text: parse_derivation_file(text)) for text in texts])


def _chain(n):
    """The left-nested (...(w+1)+1...)+1 of n levels, as text."""
    return "(" * (n - 1) + "w+1" + ")+1" * (n - 1)


def _a2_chain(n):
    """A derivation of int(t) for the n-level chain t, built through the API: one A2 line per level."""
    one = Num(1)
    terms = list(itertools.accumulate(range(n), lambda t, _: Sum(t, one), initial=Var("w")))
    lines = [Line(1, IntTyping(terms[0]), Premise()), Line(2, IntTyping(one), AxiomInstance("A3", (("c", one),)))]
    lines += [Line(k + 2, IntTyping(terms[k]), AxiomInstance("A2", (("t1", terms[k - 1]), ("t2", one))))
              for k in range(1, n + 1)]
    return Derivation(("w",), tuple(lines)), IntTyping(terms[-1])


def _padded(n):
    """int(w) with n blank-and-tab pairs in each of its six gaps."""
    pad = " \t" * n
    return pad.join(("", "int", "(", "w", ")", ""))


def _nots(n):
    """A Q-lang program of n '!' before one comparison."""
    return "!" * n + "(x=x)"


def _sums(n):
    """A Q-lang comparison whose left side is x nested in n (...+1) sums."""
    return "(" * (n + 1) + "x" + "+1)" * n + ">x)"


PACK = make_axiom_pack(0)
NESTED_CASES = {  # name: (entry point, n -> its arguments at n levels)
    "parse_statement-chain": (parse_statement, lambda n: (_chain(n) + " > w",)),
    "parse_statement-padded": (parse_statement, lambda n: (_padded(n),)),
    "pretty_statement": (pretty_statement, lambda n: (parse_statement(_chain(n) + " > w"),)),
    "decide": (decide, lambda n: (PACK, parse_statement(_chain(n) + " > w"))),
    "check_derivation-a2": (check_derivation, lambda n: (PACK, *_a2_chain(n))),
    "qlang.parse-not": (qlang.parse, lambda n: (_nots(n),)),
    "qlang.parse-sum": (qlang.parse, lambda n: (_sums(n),)),
    "qlang.evaluate-not": (qlang.evaluate, lambda n: (qlang.parse(_nots(n)), 7)),
    "qlang.evaluate-sum": (qlang.evaluate, lambda n: (qlang.parse(_sums(n)), 7)),
}


@pytest.mark.parametrize("case", NESTED_CASES)
def test_nested_inputs_are_linear(case):
    entry, arguments = NESTED_CASES[case]
    _assert_linear([_line_events(lambda args=arguments(n): entry(*args)) for n in LEVELS])


BINARY = Alphabet.from_string("01")


def _word(n):
    """A binary word of n symbols that is no run of one symbol."""
    return ("0110" * n)[:n]


def _checked_file(n):
    """A canonical file of about n distinct lines that checks: after int(w) and int(1), for each k, int(k)
    by A3, int(w+k) and int((w+k)+1) by A2, the A1 orderings of w+k and (w+k)+1, and R1 on the two."""
    lines = ["int(w) [premise]", "int(1) [axiom A3 {c := 1}]"]
    for k in range(2, (n - 2) // 6 + 2):
        c, e = len(lines) + 3, len(lines) + 5  # the two A1 lines
        lines += [f"int({k}) [axiom A3 {{c := {k}}}]", f"int(w+{k}) [axiom A2 {{t1 := w, t2 := {k}}}]",
                  f"(w+{k})+1 > w+{k} [axiom A1 {{t := w+{k}}}]", f"int((w+{k})+1) [axiom A2 {{t1 := w+{k}, t2 := 1}}]",
                  f"((w+{k})+1)+1 > (w+{k})+1 [axiom A1 {{t := (w+{k})+1}}]", f"((w+{k})+1)+1 > w+{k} [rule R1 {e},{c}]"]
    return f"vars: w\ntarget: {lines[-1].partition(' [')[0]}\n" + "".join(f"{i}. {line}\n" for i, line in enumerate(lines, 1))


def _repeated_premise(n):
    """A file of n lines that all state the premise int(w)."""
    return "vars: w\ntarget: int(w)\n" + "".join(f"{k}. int(w) [premise]\n" for k in range(1, n + 1))


def _failing_last_line(n):
    """A canonical file of n lines whose last, int(1+2+3), is canonical but has a span that is no whole term."""
    return _derivation_file(n - 1, FILE_SHAPES["canonical"]) + f"{n}. int(1+2+3) [premise]\n"


def _parse_error(text):
    """The ParseError that parsing text raises: its position is the one walk to the failing line's offset."""
    try:
        parse_derivation_file(text)
    except ParseError as error:
        return error
    raise AssertionError("the text parsed")


def _hand_pack(n):
    """A hand-built pack of n entries: the bit x % 2 of each x up to n - n // 8, and the other bit of each x up to
    n // 8, so its audits find violations."""
    entries = {(x, x % 2) for x in range(1, n - n // 8 + 1)} | {(x, 1 - x % 2) for x in range(1, n // 8 + 1)}
    return AxiomPack(n, frozenset(entries))


def _right_chain(n):
    """The right-nested w+(w+(...)) of n leaves, as text."""
    return "w+(" * (n - 1) + "w" + ")" * (n - 1)


def _cold_count(length):
    """grammar_count of one Q-lang length on a fresh copy of the grammar, whose memos start empty."""
    q = qlang.QLANG_GRAMMAR
    return grammar_count(Grammar(q.alphabet, q.start, q.productions), length)


SIZED_CASES = {  # name: (entry point, n -> its arguments at size n, the three sizes, the bound per doubling)
    "stream": (stream, lambda n: (BINARY, 10**n, 10), LEVELS, LINEAR),  # ranks of 100, 200 and 400 digits
    "rank": (rank, lambda n: (BINARY, _word(n)), SIZES, LINEAR),
    "unrank": (unrank, lambda n: (BINARY, rank(BINARY, _word(n))), SIZES, LINEAR),
    # the first proof of a k-layer ordering has Θ(k²) symbols, each read once by rank
    "search-literal-ordering": (search, lambda n: (PACK, parse_statement(_chain(n) + " > w"),
                                                   SearchBudget(2**1_000_000), SearchMode.LITERAL),
                                (50, 100, 200), QUADRATIC),
    # a parsed file's lines are a tuple, so the checker keeps its memo of accepted premise and axiom lines
    "check_derivation-file": (check_derivation, lambda n: (PACK, *parse_derivation_file(_checked_file(n))), SIZES, LINEAR),
    "check_derivation-repeated-premise": (check_derivation, lambda n: (PACK, *parse_derivation_file(_repeated_premise(n))),
                                          SIZES, LINEAR),
    # a length's count sums over every split of it into two: Θ(L²) splits
    "grammar_count-qlang": (_cold_count, lambda n: (n,), (25, 50, 100), QUADRATIC),
    # only an error reads a line's offset, by one walk of the newlines before the failing line
    "parse_derivation_file-last-line-fails": (_parse_error, lambda n: (_failing_last_line(n),), SIZES, LINEAR),
    "completeness_gap": (completeness_gap, lambda n: (_hand_pack(n), 2 * n), SIZES, LINEAR),
    "audit_consistency": (audit_consistency, lambda n: (_hand_pack(n), n), SIZES, LINEAR),
    "audit_soundness": (audit_soundness, lambda n: (_hand_pack(n),), SIZES, LINEAR),
    # int(k) is found when the numeral k is queued, after about k pops
    "search-structured-numeral": (search, lambda n: (PACK, parse_statement(f"int({n})"), SearchBudget(10**30),
                                                     SearchMode.STRUCTURED), SIZES, LINEAR),
    # int(w+k) is found when k is popped; ahead of it the FIFO walks the block of each int queued before it, one
    # pair per pop, and the m-th int's block holds 2m + 1 pairs: Θ(k²) pops
    "search-structured-sum": (search, lambda n: (PACK, parse_statement(f"int(w+{n})"), SearchBudget(10**30),
                                                 SearchMode.STRUCTURED), (25, 50, 100), QUADRATIC),
    # the first proof of int(t) has a few symbols per leaf and sum of t, each read once by rank
    "search-literal-int": (search, lambda n: (PACK, parse_statement(f"int({_right_chain(n)})"),
                                              SearchBudget(2**1_000_000), SearchMode.LITERAL), LEVELS, LINEAR),
}


@pytest.mark.parametrize("case", SIZED_CASES)
def test_sized_inputs_stay_within_their_bound(case):
    entry, arguments, sizes, bound = SIZED_CASES[case]
    _assert_linear([_line_events(lambda args=arguments(n): entry(*args)) for n in sizes], bound)
