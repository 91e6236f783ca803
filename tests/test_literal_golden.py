"""Literal search pinned to recorded outputs.

literal_golden.json holds one row per case: the target, the pack (a size for
make_axiom_pack, or a hand-built list of [index, bit] entries), the candidate
budget, the verdict type, the candidate count, and the derivation_file_text of
the found proof (null when Exhausted).  The rows were recorded with the
recursive literal decoder that built a statement object per candidate; the
stack decoder must agree byte for byte.

The targets, each with its pack / candidate budget:

    int of numerals, variables and sums:
        int(w) 0/3k, int(0) 5/3k and 5/10k, int(7) 20/10k, int(10) 0/100k,
        int(w+1) 0/3k, int(w+w) 5/10k, int(1+2) 20/3k
    t+1 > t:
        w+1 > w 0/3k and 0/100k, 0+1 > 0 5/100k, 9+1 > 9 20/100k,
        (w+1)+1 > w+1 0/10k
    a chain and false orderings, all exhausted:
        (w+1)+1 > w 0/200k, (0+1)+1 > 0 5/3k, w > w 0/10k, 0 > 1 20/3k,
        v > w 5/3k
    fbar atoms, both bits, inside and outside the pack:
        fbar(1) is 0 5/3k and 5/10k, fbar(1) is 1 5/10k, fbar(3) is 0 5/10k,
        fbar(3) is 1 20/10k, fbar(5) is 1 5/10k, fbar(17) is 0 20/100k,
        fbar(20) is 1 20/100k, fbar(10) is 0 20/100k, fbar(6) is 1 5/100k,
        fbar(21) is 0 20/10k, fbar(2) is 1 0/10k
    variables named like letters of the encoding, read as variables after p:
        int(a), int(b), int(c), int(p), int(r), int(F) at 3k;
        a+1 > a, p+1 > p, r+1 > r at 100k; int(a+b), int(p+w) at 10k
    a hand-built pack holding both bits of index 1 (F1. reads bit 0):
        fbar(1) is 0, fbar(1) is 1, fbar(2) is 0, fbar(3) is 0 at 10k
"""

import json
from pathlib import Path

import pytest

from proofbench.pi_system import AxiomPack, derivation_file_text, make_axiom_pack, negate_fbar, parse_statement
from proofbench.proof_search import DerivedTarget, Exhausted, SearchBudget, SearchMode, search

CASES = json.loads((Path(__file__).resolve().parent / "literal_golden.json").read_text(encoding="utf-8"))


def _pack(spec):
    if isinstance(spec, int):
        return make_axiom_pack(spec)
    return AxiomPack(n=max(i for i, _ in spec), entries=frozenset(map(tuple, spec)))


def test_golden_cases_cover_every_verdict_and_pack():
    assert len(CASES) >= 40
    assert {str(pack) for _, pack, *_ in CASES} >= {"0", "5", "20", "[[1, 0], [1, 1], [2, 1]]"}
    assert {verdict for *_, verdict, _, _ in CASES} == {"DerivedTarget", "DerivedNegation", "Exhausted"}
    assert {text.count("\n") - 2 for *_, text in CASES if text} == {1, 2}  # one- and two-line proofs


@pytest.mark.parametrize(
    "statement, pack, budget, verdict, candidates, text", CASES, ids=[f"{c[0]}|{c[1]}|{c[2]}" for c in CASES]
)
def test_literal_search_matches_the_recorded_output(statement, pack, budget, verdict, candidates, text):
    target = parse_statement(statement)
    result = search(_pack(pack), target, SearchBudget(max_candidates=budget), SearchMode.LITERAL)
    assert (type(result).__name__, result.candidates) == (verdict, candidates)
    if isinstance(result, Exhausted):
        assert text is None
    else:
        derived = target if isinstance(result, DerivedTarget) else negate_fbar(target)
        assert derivation_file_text(result.derivation, derived) == text
