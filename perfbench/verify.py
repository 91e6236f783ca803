"""Output checks for every workload, run outside each op's timed span.

Each verifier returns the number of failed ops.  The references are the
digests recorded at the benchmark's introduction (fixed by the grammar's
order), answers known by construction (workloads.py), and a small Q-lang
evaluator and shortlex unranker written here independently of the program.
"""

from __future__ import annotations

import json

from workloads import LENGTH_RANGES, SEARCH_BUDGET

# -- an independent Q-lang evaluator -------------------------------------------------


class _NoParse(Exception):
    pass


def _aexp(s: str, i: int, x: int):
    if i >= len(s):
        raise _NoParse
    c = s[i]
    if c == "x":
        return x, i + 1
    if c.isdigit():
        j = i + 1
        while j < len(s) and s[j].isdigit():
            j += 1
        if c == "0" and j - i > 1:
            raise _NoParse
        return int(s[i:j]), j
    if c == "(":
        a, j = _aexp(s, i + 1, x)
        if j >= len(s) or s[j] not in "+%":
            raise _NoParse
        b, k = _aexp(s, j + 1, x)
        if k >= len(s) or s[k] != ")":
            raise _NoParse
        if s[j] == "+":
            return a + b, k + 1
        return (a % b if b else 0), k + 1
    raise _NoParse


def _bexp(s: str, i: int, x: int):
    if i >= len(s):
        raise _NoParse
    if s[i] == "!":
        v, j = _bexp(s, i + 1, x)
        return not v, j
    if s[i] != "(":
        raise _NoParse
    try:
        a, j = _bexp(s, i + 1, x)
        if j < len(s) and s[j] in "&|":
            b, k = _bexp(s, j + 1, x)
            if k < len(s) and s[k] == ")":
                return (a and b) if s[j] == "&" else (a or b), k + 1
    except _NoParse:
        pass
    a, j = _aexp(s, i + 1, x)
    if j >= len(s) or s[j] not in "=>":
        raise _NoParse
    b, k = _aexp(s, j + 1, x)
    if k >= len(s) or s[k] != ")":
        raise _NoParse
    return (a == b) if s[j] == "=" else (a > b), k + 1


def qlang_eval(text: str, x: int) -> int:
    """Output bit of a Q-lang program on input x; ValueError if it is not a program."""
    try:
        value, end = _bexp(text, 0, x)
    except _NoParse:
        raise ValueError(f"not a Q-lang program: {text!r}") from None
    if end != len(text):
        raise ValueError(f"not a Q-lang program: {text!r}")
    return int(value)


def fbar_bit(text: str, x: int) -> int:
    return 1 - qlang_eval(text, x)


def shortlex_unrank(symbols: str, k: int) -> str:
    length, block = 0, 1
    while k >= block:
        k -= block
        length += 1
        block *= len(symbols)
    out = []
    for _ in range(length):
        k, d = divmod(k, len(symbols))
        out.append(symbols[d])
    return "".join(reversed(out))


def shortlex_rank(symbols: str, word: str) -> int:
    offset = sum(len(symbols) ** n for n in range(len(word)))
    pos = 0
    for c in word:
        pos = pos * len(symbols) + symbols.index(c)
    return offset + pos


QLANG_SYMBOLS = "x0123456789()+%=>!&|"


# -- diagonal and lookup ---------------------------------------------------------------


def verify_sweep(result: dict, digests: dict) -> int:
    """One cold sweep: per-length digests, then the seeded sample re-derived here."""
    failed = 0
    bad_lengths = set()
    for length, want in digests["diagonal"].items():
        got = result["lengths"].get(length)
        if got != {"count": want["count"], "texts": want["texts"], "bits": want["bits"]}:
            failed += want["count"]
            bad_lengths.add(int(length))
    for x, text, bit in result["sample"]:
        length = next(n for n, (lo, hi) in LENGTH_RANGES.items() if lo <= x <= hi)
        if length in bad_lengths:
            continue  # already counted
        try:
            ok = fbar_bit(text, x) == bit and len(text) == length
        except ValueError:
            ok = False
        failed += not ok
    return failed


def verify_lookup(ops: list, digests: dict) -> int:
    """Each op's text and bit against the recording, and the bit re-derived here."""
    failed = 0
    for x, text, bit in ops:
        want = digests["lookup"].get(str(x))
        try:
            ok = want == [text, bit] and fbar_bit(text, x) == bit
        except ValueError:
            ok = False
        failed += not ok
    return failed


# -- prove ------------------------------------------------------------------------------


class ProveVerifier:
    """Checks prove results with the program's own parser and checker.

    Found derivations arrive rendered by derivation_file_text; each is parsed
    again and must check to Accept for the statement the verdict claims.
    """

    def __init__(self, pb, pack_size: int):
        self.pb = pb
        self.pack = pb.make_axiom_pack(pack_size)

    def op(self, spec: dict, result: list) -> tuple[bool, bool | None]:
        """(ok, solved): solved is None for ops that are not derivable searches."""
        pb = self.pb
        if spec["kind"] == "check":
            return result == spec["expect"], None
        if len(result) != 3:
            return False, False  # the op raised
        verdict, candidates, text = result
        expect = spec["expect"]
        if expect == "Exhausted":
            return verdict == "Exhausted" and candidates == SEARCH_BUDGET, None
        if verdict == "Exhausted":
            return candidates == SEARCH_BUDGET, False
        if verdict != expect or not text:
            return False, False
        stated = pb.parse_statement(spec["statement"])
        derived = stated if verdict == "DerivedTarget" else pb.negate_fbar(stated)
        try:
            derivation, target = pb.parse_derivation_file(text)
        except pb.ParseError:
            return False, False
        ok = target == derived and pb.check_derivation(self.pack, derivation, target) == pb.Accept()
        return ok, ok


# -- cli ----------------------------------------------------------------------------------


def _json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def _battery_facts(argv: list[str], code: int, out: str, err: str, digests: dict) -> bool:
    bits = digests["fbar_bits"]
    programs = digests["programs"]
    head = tuple(argv[:2])
    if head == ("enumerate", "--alphabet"):
        symbols = "01" if argv[2] == "binary" else QLANG_SYMBOLS
        rows = _json_lines(out)
        count = int(argv[4])
        return code == 0 and rows == [{"k": k, "s": shortlex_unrank(symbols, k)} for k in range(count)]
    if head == ("rank", "(x=x)"):
        return code == 0 and _json_lines(out) == [{"k": shortlex_rank(QLANG_SYMBOLS, "(x=x)")}]
    if head == ("qlang", "eval"):
        return code == 0 and _json_lines(out) == [{"output": qlang_eval("((x%2)=0)", 6), "x": 6}]
    if head == ("qlang", "nth"):
        return code == 0 and _json_lines(out) == [{"i": 500, "program": programs[499]}]
    if head == ("qlang", "table"):
        want = [{f"x{x}": qlang_eval(programs[i - 1], x) for x in range(1, 5)} for i in range(1, 5)]
        return code == 0 and _json_lines(out) == want
    if head == ("qlang", "fbar"):
        return code == 0 and _json_lines(out) == [{"bit": int(bits[x - 1]), "x": x} for x in range(1, 9)]
    if argv[0] == "check":
        return code == 0 and out.strip() == "Accept"
    if argv[0] == "search":
        rows = _json_lines(out)
        if len(rows) != 1:
            return False
        row = rows[0]
        if argv[1] == "(w+1)+1 > w":
            return code == 0 and row.get("verdict") == "DerivedTarget" and row.get("statement") == argv[1]
        if argv[1] == "fbar(2) is 1":
            verdict = "DerivedTarget" if bits[1] == "1" else "DerivedNegation"
            return code == 0 and row.get("verdict") == verdict and row.get("statement") == f"fbar(2) is {bits[1]}"
        return code == 2 and row == {"candidates": 500, "verdict": "Exhausted"}
    if argv[0] == "decide":
        decision = "Derivable" if bits[4] == "1" else "NotDerivable"
        return code == 0 and _json_lines(out) == [{"decision": decision, "statement": "fbar(5) is 1"}]
    if argv[0] == "gap":
        return code == 0 and _json_lines(out) == [{"x": x} for x in (6, 7, 8, 9)]
    if argv[:2] == ["audit", "soundness"]:
        return code == 0 and _json_lines(out) == [{"detail": "", "kind": "soundness", "queries": 50, "violations": 0}]
    if argv[:2] == ["audit", "consistency"]:
        return code == 0 and _json_lines(out) == [{"detail": "", "kind": "consistency", "queries": 24, "violations": 0}]
    if argv[0] == "demo":
        pack, xmax = int(argv[3]), int(argv[5])
        gap = list(range(pack + 1, xmax + 1))
        return code == 0 and f"completeness gap: {gap}" in out and "Exhausted" in out
    return False


def verify_cli(spec: dict, code: int, out: str, err: str, digests: dict) -> bool:
    """Exit code and the facts the output must state; wording may change freely."""
    try:
        return _cli_facts(spec, code, out, err, digests)
    except ValueError:  # a json-lines row that does not parse
        return False


def _cli_facts(spec: dict, code: int, out: str, err: str, digests: dict) -> bool:
    kind = spec["kind"]
    if kind in ("battery", "demo"):
        return _battery_facts(spec["argv"], code, out, err, digests)
    if kind == "nth":
        text, _ = digests["lookup"][str(spec["x"])]
        return code == 0 and _json_lines(out) == [{"i": spec["x"], "program": text}]
    # check-file
    if spec["expect"] == ["Accept"]:
        return code == 0 and out.strip() == "Accept"
    _, line, reason = spec["expect"]
    return code == 1 and f"line {line}: {reason}" in err
