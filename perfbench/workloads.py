"""Seeded input generators for the four workloads.

Everything here is a pure function of (seed, seconds): the same arguments
give the same inputs, byte for byte.  Nothing here imports proofbench, so
the generators can be tested and run without the program under test, and
each op carries the answer that is known for it by construction.

Sizes scale with ``seconds`` (the run length the benchmark is asked for);
the per-second rates below were sized on a 2-core x86-64 VM so that one run
of ``diagonal`` and ``lookup`` takes roughly that long.  ``prove`` needs 1,000
ops for a stable p99 and ``cli`` 100 commands for a stable p90; at 15 s they
get that many and run about 20 s and 38 s.

Every mix is stratified: category counts are fixed, and sizes are drawn one
per quantile stratum, so two seeds differ in which inputs they pick but not
in how the work is distributed.  That keeps percentiles off the boundary
between latency modes and keeps the run-to-run spread small.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# lengths 5..10 of the Q-lang enumeration: first and last 1-based index
LENGTH_RANGES = {
    5: (1, 242),
    6: (243, 4444),
    7: (4445, 64446),
    8: (64447, 844448),
    9: (844449, 10455098),
    10: (10455099, 124727108),
}
DIAGONAL_N = 64446  # every program of length <= 7
# diagonal percentiles time blocks of consecutive fbar_truth calls: single
# calls take ~10 us in two clusters (by program shape), and a percentile of
# single calls jumps between them with machine noise
DIAGONAL_BLOCK = 64
PACK_SIZE = 20  # fixed axiom pack of the prove and cli workloads
SEARCH_BUDGET = 5_000  # fixed candidate budget of every prove search

SWEEPS_PER_SECOND = 0.6
LOOKUPS_PER_SECOND = 30
PROVE_OPS_PER_SECOND = 70
CLI_COMMANDS_PER_SECOND = 10

POOL_PER_LENGTH = 800  # recorded lookup indices per program length
DIAGONAL_SAMPLE = 200  # programs per sweep re-derived by the benchmark's own evaluator
CHECK_LINES = (10, 2000)  # log-uniform range of generated derivation files


def load_digests() -> dict:
    """Outputs of this program recorded by record_digests.py."""
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def _scaled(per_second: float, seconds: int, floor: int = 1) -> int:
    return max(floor, round(per_second * seconds))


def _stratified_log(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k values, one per equal-width stratum of [log lo, log hi)."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / k) for i in range(k)]


# -- diagonal ------------------------------------------------------------------

def diagonal_plan(seed: int, seconds: int) -> dict:
    """Cold sweeps of fbar_truth(1..64446); the seed picks the verification sample."""
    rng = random.Random(f"diagonal/{seed}")
    sweeps = _scaled(SWEEPS_PER_SECOND, seconds)
    samples = [sorted(rng.sample(range(1, DIAGONAL_N + 1), DIAGONAL_SAMPLE)) for _ in range(sweeps)]
    return {"n": DIAGONAL_N, "sweeps": sweeps, "samples": samples}


# -- lookup --------------------------------------------------------------------

def lookup_pool() -> dict[int, list[int]]:
    """Indices with recorded outputs: log-uniform strata inside lengths 8, 9, 10.

    record_digests.py records the program text and fbar bit of each; a run
    draws one index per stratum from here, so every op has a known answer.
    """
    rng = random.Random("lookup-pool")
    pool = {}
    for length in (8, 9, 10):
        lo, hi = LENGTH_RANGES[length]
        values = sorted({int(v) for v in _stratified_log(rng, lo, hi + 1, POOL_PER_LENGTH)})
        pool[length] = [min(max(v, lo), hi) for v in values]
    return pool


def _strata_pick(rng: random.Random, values: list[int], k: int) -> list[int]:
    """One value from each of k contiguous groups of the sorted list."""
    if k > len(values):
        raise ValueError(f"asked for {k} values from a pool of {len(values)}")
    bounds = [len(values) * i // k for i in range(k + 1)]
    return [values[rng.randrange(bounds[i], bounds[i + 1])] for i in range(k)]


def lookup_plan(seed: int, seconds: int, pool: dict | None = None) -> list[int]:
    """Distinct indices past the bucket limit, a third of them at each length 8-10."""
    pool = pool or lookup_pool()
    rng = random.Random(f"lookup/{seed}")
    per_length = _scaled(LOOKUPS_PER_SECOND, seconds, floor=3) // 3
    xs = [x for length in (8, 9, 10) for x in _strata_pick(rng, pool[length], per_length)]
    rng.shuffle(xs)
    return xs


# -- terms, statements and derivation files -------------------------------------
# A term is a leaf string (variable or numeral) or a pair (left, right) for a sum.
# Rendering follows the program's canonical form: one bare `+` per level.

def render(term, nested: bool = False) -> str:
    if isinstance(term, str):
        return term
    body = f"{render(term[0], True)}+{render(term[1], True)}"
    return f"({body})" if nested else body


def _succ(term):
    return (term, "1")


def _random_term(rng: random.Random, leaves: int, variables: str, max_numeral: int):
    if leaves == 1:
        if rng.random() < 0.5:
            return rng.choice(variables)
        return str(rng.randint(0, max_numeral))
    split = rng.randint(1, leaves - 1)
    return (
        _random_term(rng, split, variables, max_numeral),
        _random_term(rng, leaves - split, variables, max_numeral),
    )


def derivation_file(rng: random.Random, n_lines: int, fbar_bits: str, pack: int):
    """A valid derivation file of exactly n_lines numbered lines (n_lines >= 7).

    Returns (text, lines, blocks, variables): lines[i] is the (statement,
    justification) of line i+1, blocks lists (kind, first line, term) per
    block, and variables are the declared ones.
    Every term has depth <= 2, so lines stay short and parsing cost grows
    with the number of lines only.
    """
    if n_lines < 7:
        raise ValueError("derivation files need at least 7 lines")
    variables = "".join(rng.sample("abcdefghuvwxyz", 3))
    lines = [("int(1)", "axiom A3 {c := 1}")]
    blocks = []
    body = n_lines - 1 - 5  # the file ends with one ordering block
    while body > 0:
        if body >= 5 and rng.random() < 0.8:
            kind = rng.choice("nv")
        else:
            kind = "f"
        if kind == "f":
            i = rng.randint(1, pack)
            blocks.append(("f", len(lines) + 1, i))
            lines.append((f"fbar({i}) is {fbar_bits[i - 1]}", f"axiom FBAR({i})"))
            body -= 1
            continue
        _ordering_block(rng, kind, variables, lines, blocks)
        body -= 5
    _ordering_block(rng, rng.choice("nv"), variables, lines, blocks)
    header = "vars: " + ", ".join(variables)
    target = lines[-1][0]
    text = f"{header}\ntarget: {target}\n" + "".join(
        f"{i}. {stmt} [{just}]\n" for i, (stmt, just) in enumerate(lines, start=1)
    )
    return text, lines, blocks, variables


def _ordering_block(rng, kind, variables, lines, blocks):
    """Five lines deriving (t+1)+1 > t for a leaf t, as in the paper's fixture."""
    first = len(lines) + 1
    if kind == "n":
        t = str(rng.randint(2, 9999))
        lines.append((f"int({t})", f"axiom A3 {{c := {t}}}"))
    else:
        t = rng.choice(variables)
        lines.append((f"int({t})", "premise"))
    s = render(_succ(t))
    lines.append((f"int({s})", f"axiom A2 {{t1 := {t}, t2 := 1}}"))
    lines.append((f"({s})+1 > {s}", f"axiom A1 {{t := {s}}}"))
    lines.append((f"{s} > {t}", f"axiom A1 {{t := {t}}}"))
    lines.append((f"({s})+1 > {t}", f"rule R1 {first + 2},{first + 3}"))
    blocks.append((kind, first, t))


MUTATIONS = ("a1-subst", "r1-swap", "r1-forward", "a3-non-numeral", "premise-undeclared", "fbar-bit", "target")


def mutate(rng: random.Random, text: str, lines, blocks, variables):
    """One local edit with a known checker verdict: (text, line, reason).

    Lines before the edited one are untouched and valid, so the checker's
    first failing line is the edited one.
    """
    kinds = [k for k in MUTATIONS if k != "fbar-bit" or any(b[0] == "f" for b in blocks)]
    if not any(b[0] == "v" for b in blocks):
        kinds.remove("premise-undeclared")
    kind = rng.choice(kinds)
    edited = list(lines)
    ordering = [b for b in blocks if b[0] in "nv"]
    if kind == "target":
        head, _, rest = text.partition("\n")
        _, _, body = rest.partition("\n")
        return f"{head}\ntarget: int({rng.randint(10000, 99999)})\n{body}", len(lines), "wrong-target"
    if kind == "fbar-bit":
        _, line, _ = rng.choice([b for b in blocks if b[0] == "f"])
        stmt, just = lines[line - 1]
        flipped = stmt[:-1] + ("0" if stmt.endswith("1") else "1")
        edited[line - 1] = (flipped, just)
        reason = "bad-substitution"
    elif kind == "premise-undeclared":
        _, line, _ = rng.choice([b for b in blocks if b[0] == "v"])
        undeclared = next(c for c in "ijklmnopqrst" if c not in variables)
        edited[line - 1] = (f"int({undeclared})", "premise")
        reason = "premise-not-declared"
    else:
        _, first, t = rng.choice(ordering)
        s = render(_succ(t))
        if kind == "a1-subst":
            line = first + 3
            edited[line - 1] = (f"{s} > {t}", f"axiom A1 {{t := {s}}}")
            reason = "bad-substitution"
        elif kind == "r1-swap":
            line = first + 4
            edited[line - 1] = (f"({s})+1 > {t}", f"rule R1 {first + 3},{first + 2}")
            reason = "rule-mismatch"
        elif kind == "r1-forward":
            line = first + 4
            edited[line - 1] = (f"({s})+1 > {t}", f"rule R1 {first + 2},{line}")
            reason = "forward-reference"
        else:  # a3-non-numeral
            line = first
            edited[line - 1] = (f"int({t})", f"axiom A3 {{c := {variables[0]}}}")
            reason = "bad-substitution"
    head = text.split("\n", 2)
    body = "".join(f"{i}. {stmt} [{just}]\n" for i, (stmt, just) in enumerate(edited, start=1))
    return f"{head[0]}\n{head[1]}\n{body}", line, reason


def check_files(rng: random.Random, count: int, fbar_bits: str) -> list[dict]:
    """count derivation files, log-uniform in length, a third of them mutants."""
    lo, hi = CHECK_LINES
    sizes = [max(7, round(v)) for v in _stratified_log(rng, lo, hi, count)]
    mutant_slots = {3 * g + rng.randrange(3) for g in range(count // 3 + 1)}
    out = []
    for i, n in enumerate(sizes):
        text, lines, blocks, variables = derivation_file(rng, n, fbar_bits, PACK_SIZE)
        if i in mutant_slots:
            text, line, reason = mutate(rng, text, lines, blocks, variables)
            expect = ["Reject", line, reason]
        else:
            expect = ["Accept"]
        out.append({"kind": "check", "text": text, "lines": n, "expect": expect})
    return out


# -- prove -----------------------------------------------------------------------

# Category counts of the prove mix per 1000 ops, with the verdict each query has
# by construction.  Searches are ~3/4 of the ops and checks ~1/4.  The shares
# put each percentile inside a dense part of the op-time distribution: p50
# among the sub-millisecond structured queries (60% of the ops), p90 among the
# searches that run to the budget (12%), p99 among the longest files.
PROVE_MIX = {
    "fbar-in": 210,  # fbar(x) is b, x in the pack: the pack decides the bit
    "order1": 220,  # t+1 > t for a leaf t: derivable by A1
    "int2": 150,  # int(a+b), each leaf a numeral or a declared variable: derivable
    "int3": 10,  # int of a three-leaf sum: derivable, thousands of candidates
    "order1-sum": 10,  # t+1 > t for a two-leaf t: derivable, some past the budget
    "literal": 30,  # one-line targets in literal mode
    "order2": 30,  # (t+1)+1 > t: derivable, but past the candidate budget
    "false-order": 60,  # a > c where a is not c wrapped in +1 layers: underivable
    "fbar-out": 30,  # fbar(x) with x outside the pack: underivable
    "check": 250,  # parse + check of a generated derivation file
}


def _leaf(rng: random.Random) -> str:
    return rng.choice("wv") if rng.random() < 0.4 else str(rng.randint(0, 9))


def prove_plan(seed: int, seconds: int, fbar_bits: str) -> list[dict]:
    rng = random.Random(f"prove/{seed}")
    total = _scaled(PROVE_OPS_PER_SECOND, seconds)
    counts = {k: max(1, round(v * total / 1000)) for k, v in PROVE_MIX.items()}
    ops = []

    def query(cat, text, expect, mode="structured"):
        ops.append({"kind": "search", "cat": cat, "statement": text, "mode": mode, "expect": expect})

    def fbar(cat, x, mode):
        bit = rng.randint(0, 1)
        expect = "DerivedTarget" if int(fbar_bits[x - 1]) == bit else "DerivedNegation"
        query(cat, f"fbar({x}) is {bit}", expect, mode)

    for _ in range(counts["fbar-in"]):
        fbar("fbar-in", rng.randint(1, PACK_SIZE), "structured")
    for _ in range(counts["order1"]):
        t = _leaf(rng)
        query("order1", f"{render(_succ(t))} > {t}", "DerivedTarget")
    for _ in range(counts["int2"]):
        query("int2", f"int({_leaf(rng)}+{_leaf(rng)})", "DerivedTarget")
    for _ in range(counts["int3"]):
        t = _random_term(rng, 3, "wab", 3)
        query("int3", f"int({render(t)})", "DerivedTarget")
    for _ in range(counts["order1-sum"]):
        t = (_leaf(rng), _leaf(rng))
        query("order1-sum", f"{render(_succ(t))} > {render(t)}", "DerivedTarget")
    for _ in range(counts["literal"]):
        shape = rng.randrange(3)
        if shape == 0:
            query("literal", f"int({rng.randint(0, 9)})", "DerivedTarget", "literal")
        elif shape == 1:
            query("literal", f"int({rng.choice('wv')})", "DerivedTarget", "literal")
        else:
            fbar("literal", rng.randint(1, 9), "literal")
    for _ in range(counts["order2"]):
        t = _leaf(rng)
        query("order2", f"{render(_succ(_succ(t)))} > {t}", "DerivedTarget")
    for _ in range(counts["false-order"]):
        t = _leaf(rng)
        shape = rng.randrange(3)
        if shape == 0:
            query("false-order", f"{t} > {render(_succ(t))}", "Exhausted")
        elif shape == 1:
            query("false-order", f"{t} > {t}", "Exhausted")
        else:
            query("false-order", f"{render(_succ(t))} > {render(_succ(_succ(t)))}", "Exhausted")
    for _ in range(counts["fbar-out"]):
        query("fbar-out", f"fbar({rng.randint(PACK_SIZE + 1, 999)}) is {rng.randint(0, 1)}", "Exhausted")
    ops.extend(dict(spec, cat="check") for spec in check_files(rng, counts["check"], fbar_bits))
    rng.shuffle(ops)
    return ops


# -- cli ---------------------------------------------------------------------------

PAPER_FIXTURE = (
    "vars: w\n"
    "target: (w+1)+1 > w\n"
    "1. int(w) [premise]\n"
    "2. int(1) [axiom A3 {c := 1}]\n"
    "3. int(w+1) [axiom A2 {t1 := w, t2 := 1}]\n"
    "4. (w+1)+1 > w+1 [axiom A1 {t := w+1}]\n"
    "5. w+1 > w [axiom A1 {t := w}]\n"
    "6. (w+1)+1 > w [rule R1 4,5]\n"
)

# the criterion-10 battery; {prog} and {fixture} are files the run writes
BATTERY = (
    ("enumerate", "--alphabet", "binary", "--count", "64", "--format", "json-lines"),
    ("enumerate", "--alphabet", "qlang", "--count", "32", "--format", "json-lines"),
    ("rank", "(x=x)", "--alphabet", "qlang", "--format", "json-lines"),
    ("qlang", "eval", "{prog}", "--x", "6", "--format", "json-lines"),
    ("qlang", "nth", "500", "--format", "json-lines"),
    ("qlang", "table", "--rows", "4", "--cols", "4", "--format", "json-lines"),
    ("qlang", "fbar", "--n", "8", "--format", "json-lines"),
    ("check", "{fixture}"),
    ("search", "(w+1)+1 > w", "--budget", "1000000", "--format", "json-lines"),
    ("search", "fbar(2) is 1", "--pack", "5", "--format", "json-lines"),
    ("search", "fbar(7) is 1", "--pack", "5", "--budget", "500", "--format", "json-lines"),
    ("decide", "fbar(5) is 1", "--pack", "5", "--format", "json-lines"),
    ("gap", "--pack", "5", "--xmax", "9", "--format", "json-lines"),
    ("audit", "soundness", "--pack", "25", "--format", "json-lines"),
    ("audit", "consistency", "--pack", "10", "--xmax", "12", "--format", "json-lines"),
    ("demo", "incompleteness", "--pack", "3", "--xmax", "5"),
)
DEMO = ("demo", "incompleteness", "--pack", "5", "--xmax", "8")

# per 100 commands; the demo and the battery's 77,859-candidate search and demo
# make ~18% of the commands, so p90 falls inside that slow group, p50 inside
# the sub-second commands
CLI_MIX = {"battery": 3, "demo": 12, "nth": 20, "check": 20}


def cli_plan(seed: int, seconds: int, fbar_bits: str, pool: dict | None = None) -> list[dict]:
    """Commands in seeded order; files are named by index and written by the run."""
    pool = pool or lookup_pool()
    rng = random.Random(f"cli/{seed}")
    scale = _scaled(CLI_COMMANDS_PER_SECOND, seconds) / 100
    counts = {k: max(1, round(v * scale)) for k, v in CLI_MIX.items()}
    commands = []
    for _ in range(counts["battery"]):
        commands.extend({"kind": "battery", "argv": list(argv)} for argv in BATTERY)
    commands.extend({"kind": "demo", "argv": list(DEMO)} for _ in range(counts["demo"]))
    per_length = -(-counts["nth"] // 3)
    nth = [x for length in (8, 9, 10) for x in _strata_pick(rng, pool[length], per_length)]
    for x in rng.sample(nth, counts["nth"]):
        commands.append({"kind": "nth", "argv": ["qlang", "nth", str(x), "--format", "json-lines"], "x": x})
    for i, spec in enumerate(check_files(rng, counts["check"], fbar_bits)):
        spec = dict(spec, kind="check-file", file=f"check-{i}.drv")
        spec["argv"] = ["check", "{dir}/" + spec["file"], "--pack", str(PACK_SIZE)]
        commands.append(spec)
    rng.shuffle(commands)
    return commands


# -- probe -------------------------------------------------------------------------

def probe_plan(fbar_bits: str) -> list[dict]:
    """A fixed, small op set touching every layer function the traced run reports.

    A traced run takes a layer's numbers from the workload's own calls; a layer
    the workload never calls is timed on these ops instead, so every per-layer
    time is a real measurement.
    """
    rng = random.Random("probe")
    pool = lookup_pool()
    ops = [{"kind": "fbar", "x": x} for x in range(1, DIAGONAL_N, DIAGONAL_N // 24)]
    ops += [{"kind": "fbar", "x": pool[length][len(pool[length]) // 2]} for length in (8, 9, 10)]
    ops += [
        {"kind": "search", "statement": "int((w+1)+3)", "mode": "structured", "expect": "DerivedTarget"},
        {"kind": "search", "statement": "w > w", "mode": "structured", "expect": "Exhausted"},
        {"kind": "search", "statement": "fbar(3) is 1", "mode": "literal",
         "expect": "DerivedTarget" if fbar_bits[2] == "1" else "DerivedNegation"},
    ]
    for n in (40, 1200):
        text, _, _, _ = derivation_file(rng, n, fbar_bits, PACK_SIZE)
        ops.append({"kind": "check", "text": text, "lines": n, "expect": ["Accept"]})
    return ops
