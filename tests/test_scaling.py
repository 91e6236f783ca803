"""Deterministic cost: interpreter line events at n, 2n and 4n, bounded per doubling.

A wall-clock bound is noisy.  The number of line events that sys.settrace reports for
one call is the same on every run of one Python version, and its ratio between two
sizes carries across versions.  A linear entry point reads about x2 per doubling of
its input; the bound leaves room for fixed costs, and a quadratic step reads about x4.
Each case is called once to warm the shared caches before it is counted.
"""

import sys

import pytest

from proofbench.pi_system import parse_derivation_file

LINEAR = 2.3  # the bound on a linear case's line events per doubling of its input
SIZES = (200, 400, 800)


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
    counts = [_line_events(lambda text=text: parse_derivation_file(text)) for text in texts]
    ratios = [later / earlier for earlier, later in zip(counts, counts[1:])]
    assert max(ratios) <= LINEAR, (counts, ratios)
