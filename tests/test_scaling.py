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
from proofbench.enumerator import Alphabet, rank, stream, unrank
from proofbench.pi_system import (AxiomInstance, Derivation, IntTyping, Line, Num, Premise, Sum, Var, check_derivation,
                                  make_axiom_pack, parse_derivation_file, parse_statement, pretty_statement)
from proofbench.proof_search import SearchBudget, SearchMode, decide, search

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


SIZED_CASES = {  # name: (entry point, n -> its arguments at size n, the three sizes, the bound per doubling)
    "stream": (stream, lambda n: (BINARY, 10**n, 10), LEVELS, LINEAR),  # ranks of 100, 200 and 400 digits
    "rank": (rank, lambda n: (BINARY, _word(n)), SIZES, LINEAR),
    "unrank": (unrank, lambda n: (BINARY, rank(BINARY, _word(n))), SIZES, LINEAR),
    # the first proof of a k-layer ordering has Θ(k²) symbols, each read once by rank
    "search-literal-ordering": (search, lambda n: (PACK, parse_statement(_chain(n) + " > w"),
                                                   SearchBudget(2**1_000_000), SearchMode.LITERAL),
                                (50, 100, 200), QUADRATIC),
}


@pytest.mark.parametrize("case", SIZED_CASES)
def test_sized_inputs_stay_within_their_bound(case):
    entry, arguments, sizes, bound = SIZED_CASES[case]
    _assert_linear([_line_events(lambda args=arguments(n): entry(*args)) for n in sizes], bound)
