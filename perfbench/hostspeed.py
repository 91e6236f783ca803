"""How fast the host runs right now, measured with fixed reference work.

The benchmark runs on shared hosts whose speed drifts by tens of percent
from minute to minute, for every process alike.  Two fixed references,
written in the benchmark and never changed by a change to the program,
measure that drift next to the ops they pair with:

- Kernel: fixed pure-Python work of the kinds the program does, sampled in
  the same process between ops, once per 30 ms of op time.  It has two
  parts, timed apart: Q-lang parsing and evaluation with the benchmark's
  own evaluator, shortlex ranking over big integers and a tuple/set search;
  and memoized counting of the words of a small expression grammar that
  start with given prefixes, the way prefix-count descent does.  A sample's
  slowness is the geometric mean of the parts' times over their nominal
  times.  (Parts that read a large dict or copy a large string tracked the
  program's ops worse, so the kernel has none.)
- a bare start: `worker.py bare` up to its "ready" line, spawned on either
  side of each fresh process the benchmark times (run.py).

The host's speed changes within a second, so each op is paired with the
references measured next to it: run.py divides each op's time by the
median slowness of the two kernel samples before and the two after it (by
the mean slowness of the bare starts on either side, for a fresh process).  Every time it
reports is then the time on a host that runs the references in their
nominal time.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time

from verify import QLANG_SYMBOLS, fbar_bit, shortlex_rank, shortlex_unrank

# Nominal reference times: round figures of the times the baseline machine took
# (perfbench/baseline.md gives the host slowness against them in every run).
# Constants, so a reported time is comparable across runs and commits.
KERNEL_NOMINAL_NS = (2_000_000, 2_200_000)  # interpretation, prefix counting
BARE_START_NOMINAL_S = 0.090

SAMPLE_EVERY_NS = 30_000_000  # op time between two kernel samples
_WARMUP_SAMPLES = 3
_PROGRAMS = 48  # recorded (text, x, bit) triples the kernel evaluates
_RANKS = 48  # big shortlex ranks the kernel unranks and ranks back

# A small expression grammar, and the prefixes and length the kernel counts words for.
_PRODUCTIONS = {
    "E": (("x",), ("D",), ("(", "E", "O", "E", ")")),
    "D": tuple((c,) for c in "0123456789"),
    "O": (("+",), ("%",)),
}
_COUNT_PREFIXES = ("(",)
_COUNT_LENGTH = 13


def _search(start: tuple, depth: int) -> int:
    """Breadth-first closure of small tuples under three moves."""
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for a, b in frontier:
            for move in ((a + 1, b), (b, a), (a, a + b)):
                if move not in seen and move[0] < 50 and move[1] < 50:
                    seen.add(move)
                    nxt.append(move)
        frontier = nxt
    return len(seen)


def _count_prefix(prefix: str, length: int) -> int:
    """Derivations of words of the given length that start with prefix."""
    memo: dict = {}

    def csym(sym, pos, span):
        if sym not in _PRODUCTIONS:
            return 1 if span == 1 and (pos >= len(prefix) or prefix[pos] == sym) else 0
        key = (sym, pos, span)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = sum(cseq(rhs, 0, pos, span) for rhs in _PRODUCTIONS[sym])
        return hit

    def cseq(rhs, i, pos, span):
        if i == len(rhs):
            return 1 if span == 0 else 0
        key = (rhs, i, pos, span)
        hit = memo.get(key)
        if hit is None:
            hit = 0
            for first in range(1, span - (len(rhs) - i - 1) + 1):
                c = csym(rhs[i], pos, first)
                if c:
                    hit += c * cseq(rhs, i + 1, pos + first, span - first)
            memo[key] = hit
        return hit

    return csym("E", 0, length)


class Kernel:
    """The fixed reference work; every call must give the same checksums."""

    def __init__(self, lookup: dict):
        rng = random.Random("hostspeed")
        keys = sorted(lookup, key=int)
        self.programs = [(lookup[k][0], int(k), lookup[k][1]) for k in rng.sample(keys, _PROGRAMS)]
        self.ranks = [rng.randrange(10**12, 10**15) for _ in range(_RANKS)]
        self.checksums = self._run()[1]

    def _interpret(self) -> int:
        total = 0
        for text, x, bit in self.programs:
            if fbar_bit(text, x) != bit:
                raise AssertionError(f"reference kernel evaluated {text!r} wrongly")
            total += bit
        for k in self.ranks:
            word = shortlex_unrank(QLANG_SYMBOLS, k)
            if shortlex_rank(QLANG_SYMBOLS, word) != k:
                raise AssertionError("reference kernel ranked a word wrongly")
            total += len(word)
        return total + _search((1, 2), 12)

    @staticmethod
    def _count() -> int:
        return sum(_count_prefix(prefix, _COUNT_LENGTH) for prefix in _COUNT_PREFIXES)

    def _run(self) -> tuple[list[int], list[int]]:
        times, sums = [], []
        for part in (self._interpret, self._count):
            t0 = time.perf_counter_ns()
            sums.append(part())
            times.append(time.perf_counter_ns() - t0)
        return times, sums

    def sample(self) -> list[int]:
        """Times of one call of each part of the kernel, in ns.

        The garbage collector is off meanwhile: the kernel frees all it
        allocates, so it leaves the collector's counts as it found them and
        does not move the program's collections into or out of its ops.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            times, sums = self._run()
        finally:
            if enabled:
                gc.enable()
        if sums != self.checksums:
            raise AssertionError("reference kernel gave another result")
        return times


def sample_slowness(sample: list[int]) -> float:
    """Geometric mean over the kernel's parts of time / nominal time."""
    return math.prod(t / n for t, n in zip(sample, KERNEL_NOMINAL_NS)) ** (1 / len(KERNEL_NOMINAL_NS))


def op_slowness(paced: dict) -> list[float]:
    """For each op, the median slowness of the two kernel samples before it and the two after."""
    slow = [sample_slowness(s) for s in paced["ref_ns"]]
    return [statistics.median(slow[max(0, i - 1):i + 3]) for i in paced["ref_at"]]


class Pacer:
    """Samples the kernel between ops, once per SAMPLE_EVERY_NS of op time.

    ref_at[i] is the index of the last sample taken before op i; finish()
    takes one more, so every op has a sample on each side.
    """

    def __init__(self, lookup: dict):
        self.kernel = Kernel(lookup)
        for _ in range(_WARMUP_SAMPLES):
            self.kernel.sample()
        self.owed = 0
        self.samples: list[list[int]] = [self.kernel.sample()]
        self.at: list[int] = []

    def after(self, op_ns: int) -> None:
        self.at.append(len(self.samples) - 1)
        self.owed += op_ns
        if self.owed >= SAMPLE_EVERY_NS:
            self.owed = 0
            self.samples.append(self.kernel.sample())

    def finish(self) -> dict:
        self.samples.append(self.kernel.sample())
        return {"ref_ns": self.samples, "ref_at": self.at}
