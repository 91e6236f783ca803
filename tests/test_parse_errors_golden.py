"""Parse errors and parses pinned to recorded outputs.

parse_errors_golden.json holds:

    bases       [kind, text] inputs: "file" for derivation files (the paper's
                fixture, six search-emitted proofs, two benchmark-style
                generated files, a file with a 500-level term and one with
                blank lines and extra spaces), "statement" for single
                statements (all three shapes, redundant parentheses, and
                500-level terms)
    renderings  canonical re-renderings (derivation_file_text or
                pretty_statement) of the inputs that parse
    cases       [base, position, op, character, outcome]: op "=" is the base
                itself, "d" deletes the character at position, "i" inserts
                character there and "r" replaces the character there.
                Characters are drawn from "()+>,.:=[]{} \\t0-9a-z" and the
                non-ASCII digit "٣".  outcome is an index into renderings,
                or [error class, position, expected] for a ParseError or
                NestingError.

The 3,000 cases were recorded with the character-cursor parser, before the
concrete syntax became one scanner with a per-file memo; the two must agree
on every position and expected tuple.
"""

import json
from pathlib import Path

import pytest

from proofbench.errors import NestingError, ParseError
from proofbench.pi_system import derivation_file_text, parse_derivation_file, parse_statement, pretty_statement

GOLDEN = json.loads((Path(__file__).resolve().parent / "parse_errors_golden.json").read_text(encoding="utf-8"))
BASES, RENDERINGS, CASES = GOLDEN["bases"], GOLDEN["renderings"], GOLDEN["cases"]


def mutated(text, position, op, ch):
    if op == "=":
        return text
    if op == "i":
        return text[:position] + ch + text[position:]
    return text[:position] + ch + text[position + 1:]  # "d" carries ch == ""


def outcome(kind, text):
    try:
        if kind == "file":
            return RENDERINGS.index(derivation_file_text(*parse_derivation_file(text)))
        return RENDERINGS.index(pretty_statement(parse_statement(text)))
    except ParseError as exc:  # NestingError included
        return [type(exc).__name__, exc.position, list(exc.expected)]


def test_golden_cases_cover_both_kinds_every_edit_and_both_errors():
    assert len(CASES) >= 3_000
    assert {kind for kind, _ in BASES} == {"file", "statement"}
    assert {op for _, _, op, _, _ in CASES} == {"=", "d", "i", "r"}
    kinds = {out[0] if isinstance(out, list) else "ok" for *_, out in CASES}
    assert kinds == {"ok", "ParseError", "NestingError"}
    assert issubclass(NestingError, ParseError)


@pytest.mark.parametrize("start", range(0, len(CASES), 500))
def test_parser_matches_the_recorded_outcomes(start):
    for base, position, op, ch, expected in CASES[start:start + 500]:
        kind, text = BASES[base]
        assert outcome(kind, mutated(text, position, op, ch)) == expected, (base, position, op, ch)
