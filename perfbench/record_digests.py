"""Record the program outputs the benchmark verifies against.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json from the proofbench in ./src.  The outputs are
fixed by the grammar's shortlex order, so they change only when the program
gives wrong answers; re-record only after an intended change of that order.
It takes one to two minutes, most of it unranking the lookup pool.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DIAGONAL_N, LENGTH_RANGES, lookup_pool  # noqa: E402

from proofbench.qlang import fbar_truth, nth_program  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def diagonal_digests(texts: list[str], bits: list[int]) -> dict:
    """Per program length: count and sha256 of the texts and of the bits."""
    out = {}
    for length in sorted(LENGTH_RANGES):
        lo, hi = LENGTH_RANGES[length]
        if hi > len(texts):
            continue
        out[str(length)] = {
            "count": hi - lo + 1,
            "texts": sha256("\n".join(texts[lo - 1:hi])),
            "bits": sha256("".join(map(str, bits[lo - 1:hi]))),
        }
    return out


def main() -> None:
    bits = [fbar_truth(x) for x in range(1, DIAGONAL_N + 1)]
    texts = [nth_program(x).source for x in range(1, DIAGONAL_N + 1)]
    lookup = {}
    for length, xs in lookup_pool().items():
        for x in xs:
            lookup[str(x)] = [nth_program(x).source, fbar_truth(x)]
    digests = {
        "diagonal": diagonal_digests(texts, bits),
        "fbar_bits": "".join(map(str, bits[:1000])),
        "programs": texts[:500],
        "lookup": lookup,
    }
    (HERE / "digests.json").write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(lookup)} lookup entries and {len(bits)} diagonal bits")


if __name__ == "__main__":
    main()
