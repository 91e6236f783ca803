"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Generators must be deterministic per seed and differ across seeds; every
verifier must flag a corrupted output; the answers known by construction
must be the ones the program gives.
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import workloads  # noqa: E402
from verify import (  # noqa: E402
    ProveVerifier,
    fbar_bit,
    qlang_eval,
    verify_cli,
    verify_lookup,
    verify_sweep,
)

DIGESTS = workloads.load_digests()
BITS = DIGESTS["fbar_bits"]

PLANS = {
    "diagonal": lambda seed: workloads.diagonal_plan(seed, 10),
    "lookup": lambda seed: workloads.lookup_plan(seed, 10),
    "prove": lambda seed: workloads.prove_plan(seed, 10, BITS),
    "cli": lambda seed: workloads.cli_plan(seed, 10, BITS),
}


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    plan = PLANS[workload]
    assert plan(3) == plan(3)
    assert plan(3) != plan(4)


def test_stratified_mixes_have_fixed_shape_across_seeds():
    for seed in (1, 2):
        ops = workloads.prove_plan(seed, 10, BITS)
        total = round(workloads.PROVE_OPS_PER_SECOND * 10)
        assert sum(op["kind"] == "check" for op in ops) == round(workloads.PROVE_MIX["check"] * total / 1000)
        xs = workloads.lookup_plan(seed, 10)
        assert len(set(xs)) == len(xs)
        by_length = [sum(lo <= x <= hi for x in xs) for lo, hi in
                     (workloads.LENGTH_RANGES[n] for n in (8, 9, 10))]
        assert by_length == [len(xs) // 3] * 3


def test_lookup_pool_is_fully_recorded():
    pool = workloads.lookup_pool()
    assert {str(x) for xs in pool.values() for x in xs} == set(DIGESTS["lookup"])


# -- the benchmark's own Q-lang evaluator -------------------------------------------------

def test_independent_evaluator_agrees_with_the_program():
    from proofbench.qlang import evaluate, parse

    rng = random.Random(0)
    for text in DIGESTS["programs"]:
        x = rng.randint(1, 50)
        assert qlang_eval(text, x) == evaluate(parse(text), x)
    for x, (text, bit) in list(DIGESTS["lookup"].items())[::40]:
        assert fbar_bit(text, int(x)) == bit
    with pytest.raises(ValueError):
        qlang_eval("(x=", 1)


# -- verifiers flag corrupted outputs -------------------------------------------------------

def _sweep_result():
    """A correct sweep result with a one-program sample, built from the recording."""
    digests = copy.deepcopy(DIGESTS)
    programs = digests["programs"]
    x = 300
    return digests, {
        "lengths": {k: {kk: v[kk] for kk in ("count", "texts", "bits")} for k, v in digests["diagonal"].items()},
        "sample": [[x, programs[x - 1], int(BITS[x - 1])]],
    }


def test_sweep_verifier_flags_a_flipped_bit():
    digests, result = _sweep_result()
    assert verify_sweep(result, digests) == 0
    result["sample"][0][2] ^= 1
    assert verify_sweep(result, digests) == 1
    result["sample"][0][2] ^= 1
    result["lengths"]["7"]["bits"] = "0" * 64
    assert verify_sweep(result, digests) == digests["diagonal"]["7"]["count"]


def test_lookup_verifier_flags_a_flipped_bit_and_a_wrong_text():
    x, (text, bit) = next(iter(DIGESTS["lookup"].items()))
    x = int(x)
    assert verify_lookup([[x, text, bit]], DIGESTS) == 0
    assert verify_lookup([[x, text, 1 - bit]], DIGESTS) == 1
    other = DIGESTS["programs"][-1]
    assert verify_lookup([[x, other, fbar_bit(other, x)]], DIGESTS) == 1


@pytest.fixture(scope="module")
def prove_verifier():
    import proofbench

    return ProveVerifier(proofbench, workloads.PACK_SIZE)


def test_generated_files_check_to_their_known_verdicts(prove_verifier):
    pb = prove_verifier.pb
    rng = random.Random(5)
    files = workloads.check_files(rng, 45, BITS)
    kinds = set()
    for spec in files:
        derivation, target = pb.parse_derivation_file(spec["text"])
        assert len(derivation.lines) == spec["lines"]
        verdict = pb.check_derivation(prove_verifier.pack, derivation, target)
        got = ["Accept"] if verdict == pb.Accept() else ["Reject", verdict.line, verdict.reason]
        assert got == spec["expect"]
        kinds.add(got[-1])
    assert {"Accept", "bad-substitution", "rule-mismatch", "forward-reference", "wrong-target"} <= kinds


def test_prove_verifier_flags_a_wrong_reject_line_and_a_wrong_verdict(prove_verifier):
    spec = {"kind": "check", "expect": ["Reject", 12, "rule-mismatch"]}
    assert prove_verifier.op(spec, ["Reject", 12, "rule-mismatch"]) == (True, None)
    assert prove_verifier.op(spec, ["Reject", 11, "rule-mismatch"])[0] is False
    pb = prove_verifier.pb
    search = {"kind": "search", "statement": "w+1 > w", "mode": "structured", "expect": "DerivedTarget"}
    verdict = pb.search(prove_verifier.pack, pb.parse_statement("w+1 > w"),
                        pb.SearchBudget(max_candidates=workloads.SEARCH_BUDGET), pb.SearchMode.STRUCTURED)
    text = pb.derivation_file_text(verdict.derivation, pb.parse_statement("w+1 > w"))
    assert prove_verifier.op(search, ["DerivedTarget", verdict.candidates, text]) == (True, True)
    assert prove_verifier.op(search, ["DerivedNegation", verdict.candidates, text])[0] is False
    broken = text.replace("[axiom A1 {t := w}]", "[axiom A1 {t := 1}]")
    assert prove_verifier.op(search, ["DerivedTarget", verdict.candidates, broken])[0] is False
    assert prove_verifier.op(search, ["Exhausted", workloads.SEARCH_BUDGET, None]) == (True, False)
    underivable = dict(search, statement="w > w", expect="Exhausted")
    assert prove_verifier.op(underivable, ["Exhausted", workloads.SEARCH_BUDGET, None]) == (True, None)
    assert prove_verifier.op(underivable, ["DerivedTarget", 5, text])[0] is False


def test_cli_verifier_flags_a_wrong_exit_code():
    demo = {"kind": "demo", "argv": list(workloads.DEMO)}
    out = "completeness gap: [6, 7, 8]\n... -> Exhausted after 100000 candidates\n"
    assert verify_cli(demo, 0, out, "", DIGESTS)
    assert not verify_cli(demo, 1, out, "", DIGESTS)
    assert not verify_cli(demo, 0, out.replace("[6, 7, 8]", "[6, 7]"), "", DIGESTS)
    exhausted = {"kind": "battery", "argv": ["search", "fbar(7) is 1", "--pack", "5", "--budget", "500",
                                             "--format", "json-lines"]}
    line = '{"candidates": 500, "verdict": "Exhausted"}\n'
    assert verify_cli(exhausted, 2, line, "", DIGESTS)
    assert not verify_cli(exhausted, 0, line, "", DIGESTS)
    mutant = {"kind": "check-file", "expect": ["Reject", 9, "forward-reference"]}
    assert verify_cli(mutant, 1, "", "Reject: line 9: forward-reference\n", DIGESTS)
    assert not verify_cli(mutant, 1, "", "Reject: line 8: forward-reference\n", DIGESTS)
    assert not verify_cli(mutant, 0, "Accept\n", "", DIGESTS)


def test_cli_battery_facts_hold_for_the_program(tmp_path, capsys):
    from proofbench.cli import main

    names = {"prog": str(tmp_path / "prog.q"), "fixture": str(tmp_path / "f.drv"), "dir": str(tmp_path)}
    (tmp_path / "prog.q").write_text("((x%2)=0)\n")
    (tmp_path / "f.drv").write_text(workloads.PAPER_FIXTURE)
    for argv in workloads.BATTERY:
        if argv[0] in ("search", "demo") and argv[1] in ("(w+1)+1 > w", "incompleteness"):
            continue  # the two 1-second commands; the benchmark runs them
        argv = [a.format(**names) for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert verify_cli({"kind": "battery", "argv": argv}, code, captured.out, captured.err, DIGESTS), argv


# -- host-speed scaling ----------------------------------------------------------------------

def test_reference_kernel_repeats_its_result():
    from hostspeed import Kernel

    kernel = Kernel(DIGESTS["lookup"])
    assert all(t > 0 for t in kernel.sample())
    assert Kernel(DIGESTS["lookup"]).checksums == kernel.checksums


def test_reference_kernel_flags_a_wrong_evaluation():
    from hostspeed import Kernel

    kernel = Kernel(DIGESTS["lookup"])
    text, x, bit = kernel.programs[0]
    kernel.programs[0] = (text, x, 1 - bit)
    with pytest.raises(AssertionError):
        kernel.sample()


def test_times_are_divided_by_the_host_slowness():
    import run
    from hostspeed import KERNEL_NOMINAL_NS, op_slowness, sample_slowness

    interpret, count = KERNEL_NOMINAL_NS
    assert sample_slowness([2 * interpret, 2 * count]) == pytest.approx(2.0)
    assert sample_slowness([interpret, 4 * count]) == pytest.approx(2.0)
    # ops 0-1 ran between samples 0 and 1, ops 2-3 between 3 and 4: each op takes the
    # median of the two samples before it and the two after
    samples = [[k * n for n in KERNEL_NOMINAL_NS] for k in (1, 1, 1, 2, 2)]
    assert op_slowness({"ref_ns": samples, "ref_at": [0, 0, 3, 3]}) == pytest.approx([1, 1, 2, 2])

    scaled = run.make_round(2, [300, 600], [1.5, 2.0])
    assert scaled["times"] == [200, 300] and scaled["raw_ns"] == [300, 600]
