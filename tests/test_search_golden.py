"""Structured search pinned to recorded outputs.

search_golden.json holds one row per case: the target, the pack size, the
candidate budget, the verdict type, the candidate count, and the
derivation_file_text of the found proof (null when Exhausted).  The rows were
recorded with the structured search that keyed statements by their dataclass
trees, before it interned terms to integer ids; the two must agree byte for
byte.

The targets, each with its pack size / candidate budget:

    int of sums of 1-3 leaves:
        int(w) 0/5k, int(7) 5/5k, int(w+1) 0/5k, int(2+3) 20/5k,
        int(v+w) 0/5k, int(w+w) 5/5k, int((w+1)+3) 0/5k, int(w+(v+2)) 5/5k,
        int((1+2)+3) 20/100k, int(5+(w+w)) 0/5k, int((v+w)+v) 20/5k,
        int((a+b)+(c+d)) 0/5k
    t+1 > t:
        w+1 > w 0/5k, 0+1 > 0 5/5k, 9+1 > 9 20/5k, (w+1)+1 > w+1 0/5k,
        (v+w)+1 > v+w 5/100k, (2+w)+1 > 2+w 0/5k, (4+4)+1 > 4+4 20/5k
    (t+1)+1 > t:
        (w+1)+1 > w at 0/5k, 0/100k (77,859 candidates), 5/100k and
        5/1M (224,709 candidates); (0+1)+1 > 0 0/100k, (3+1)+1 > 3 20/5k,
        (v+1)+1 > v 5/5k
    false orderings:
        w > w+1 0/5k, w > w 0/100k, 3 > 3 5/5k, 0 > 1 20/5k,
        w+1 > (w+1)+1 0/5k, v > w 5/5k, 1+1 > 2 0/5k, w+2 > w 20/5k
    fbar atoms inside the pack:
        fbar(1) is 0 5/5k, fbar(1) is 1 5/5k, fbar(3) is 0 5/5k,
        fbar(3) is 1 20/5k, fbar(5) is 1 5/5k, fbar(17) is 0 20/5k,
        fbar(20) is 1 20/5k
    fbar atoms outside the pack:
        fbar(6) is 1 5/5k, fbar(6) is 0 5/100k, fbar(21) is 0 20/5k,
        fbar(2) is 1 0/5k, fbar(999) is 0 20/5k
"""

import json
from pathlib import Path

import pytest

from proofbench.pi_system import derivation_file_text, make_axiom_pack, negate_fbar, parse_statement
from proofbench.proof_search import DerivedTarget, Exhausted, SearchBudget, SearchMode, search

CASES = json.loads((Path(__file__).resolve().parent / "search_golden.json").read_text(encoding="utf-8"))


def test_golden_cases_cover_every_shape():
    assert len(CASES) >= 40
    assert {pack for _, pack, *_ in CASES} == {0, 5, 20}
    assert {budget for _, _, budget, *_ in CASES} == {5_000, 100_000, 1_000_000}
    assert {candidates for *_, candidates, _ in CASES} >= {77_859, 224_709}


@pytest.mark.parametrize(
    "statement, pack, budget, verdict, candidates, text", CASES, ids=[f"{c[0]}|{c[1]}|{c[2]}" for c in CASES]
)
def test_structured_search_matches_the_recorded_output(statement, pack, budget, verdict, candidates, text):
    target = parse_statement(statement)
    result = search(make_axiom_pack(pack), target, SearchBudget(max_candidates=budget), SearchMode.STRUCTURED)
    assert (type(result).__name__, result.candidates) == (verdict, candidates)
    if isinstance(result, Exhausted):
        assert text is None
    else:
        derived = target if isinstance(result, DerivedTarget) else negate_fbar(target)
        assert derivation_file_text(result.derivation, derived) == text
