"""One fresh interpreter's share of a workload.

    python3 perfbench/worker.py MODE [ARGS...]

run.py starts this script once per cold sweep (diagonal), once per run
(lookup, prove, probe), and once per command of a traced cli run.  The
worker imports proofbench from ./src, builds the fixed inputs, prints
``ready`` (run.py times set-up up to that line), runs its ops, and prints one
JSON result line.  Between ops it times the fixed reference kernel of
hostspeed.py (outside every op's timer) and returns those samples with the
op times.  With tracing on, every call into a proofbench module is made
through Tracer.call, which keeps one span per call in memory and writes them
all to a gzip JSON-lines file when the worker ends.
"""

from __future__ import annotations

import gzip
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from hostspeed import Pacer  # noqa: E402

now_ns = time.perf_counter_ns


class Tracer:
    """Spans [name, start_ns, end_ns, parent index, op id, attrs] in call order."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def begin(self, name: str, op) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, op, {}])
        self._stack.append(index)
        self.spans[index][1] = now_ns()
        return index

    def end(self, index: int) -> list:
        span = self.spans[index]
        span[2] = now_ns()
        self._stack.pop()
        return span

    def call(self, name: str, op, fn, *args, attrs=None):
        index = self.begin(name, op)
        try:
            result = fn(*args)
        finally:
            span = self.end(index)
        if attrs is not None:
            span[5] = attrs(result, *args)
        return result

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args):
            return self.call(name, 0, fn, *args, attrs=attrs)

        return traced

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def ready() -> None:
    print("ready", flush=True)


def finish(result: dict, tracer: Tracer | None, span_file: str | None) -> None:
    if tracer is not None:
        tracer.write(span_file)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)


# -- span attributes ----------------------------------------------------------------

def _length_attr(text, *_):
    return {"length": len(text)}


def _lines_attr(parsed, *_):
    return {"lines": len(parsed[0].lines)}


def _check_attr(verdict, pack, derivation, target):
    return {"lines": len(derivation.lines)}


def _search_attr(verdict, pack, target, budget, mode):
    return {"mode": mode.value, "candidates": verdict.candidates, "verdict": type(verdict).__name__}


# -- fbar_truth ops (diagonal, lookup, probe) ---------------------------------------------

def fbar_untraced(xs, pacer: Pacer, block: int = 1):
    """fbar_truth(x) for each x, with one timer around each run of `block` calls."""
    from proofbench.qlang import fbar_truth, nth_program

    times, bits = [], []
    for start in range(0, len(xs), block):
        t0 = now_ns()
        for x in xs[start:start + block]:
            try:
                bits.append(fbar_truth(x))
            except Exception:  # a failed op; verification counts it
                bits.append(None)
        times.append(now_ns() - t0)
        pacer.after(times[-1])
    texts = [nth_program(x).source if bit is not None else "" for x, bit in zip(xs, bits)]  # cache hits
    return times, texts, bits


def fbar_traced(xs, tracer: Tracer, pacer: Pacer | None = None):
    """fbar_truth(x) as the public calls it makes: grammar_unrank, parse, evaluate."""
    from proofbench.enumerator import grammar_unrank
    from proofbench.qlang import QLANG_GRAMMAR, evaluate, parse

    call = tracer.call
    times, texts, bits = [], [], []
    for x in xs:
        op = f"fbar:{x}"
        index = tracer.begin("op.fbar_truth", op)
        text = call("enumerator.grammar_unrank", op, grammar_unrank, QLANG_GRAMMAR, x - 1, attrs=_length_attr)
        program = call("qlang.parse", op, parse, text)
        bit = 1 - call("qlang.evaluate", op, evaluate, program, x)
        _, t0, t1, *_ = tracer.end(index)
        times.append(t1 - t0)
        if pacer is not None:
            pacer.after(times[-1])
        texts.append(text)
        bits.append(bit)
    return times, texts, bits


def run_sweep(seed: int, seconds: int, k: int, tracer: Tracer | None) -> dict:
    import hashlib

    import proofbench  # noqa: F401  set-up: the package import

    ready()
    plan = workloads.diagonal_plan(seed, seconds)
    xs = range(1, plan["n"] + 1)
    pacer = Pacer(workloads.load_digests()["lookup"])
    if tracer is None:
        times, texts, bits = fbar_untraced(xs, pacer, workloads.DIAGONAL_BLOCK)
    else:
        op_times, texts, bits = fbar_traced(xs, tracer, pacer)
        block = workloads.DIAGONAL_BLOCK
        times = [sum(op_times[i:i + block]) for i in range(0, len(op_times), block)]
        pacer.at = pacer.at[::block]  # each block is paired with the samples around its first op
    lengths = {}
    for length, (lo, hi) in workloads.LENGTH_RANGES.items():
        if hi <= plan["n"]:
            lengths[str(length)] = {
                "count": hi - lo + 1,
                "texts": hashlib.sha256("\n".join(texts[lo - 1:hi]).encode()).hexdigest(),
                "bits": hashlib.sha256("".join(map(str, bits[lo - 1:hi])).encode()).hexdigest(),
            }
    sample = [[x, texts[x - 1], bits[x - 1]] for x in plan["samples"][k]]
    return {
        "times_ns": times,
        **pacer.finish(),
        "lengths": lengths,
        "sample": sample,
        "counts": {"ops": len(bits), "fbar_truth": len(bits)},
    }


def run_lookup(seed: int, seconds: int, tracer: Tracer | None) -> dict:
    import proofbench  # noqa: F401

    ready()
    xs = workloads.lookup_plan(seed, seconds)
    pacer = Pacer(workloads.load_digests()["lookup"])
    if tracer is None:
        times, texts, bits = fbar_untraced(xs, pacer)
    else:
        times, texts, bits = fbar_traced(xs, tracer, pacer)
    return {
        "times_ns": times,
        **pacer.finish(),
        "results": [[x, t, b] for x, t, b in zip(xs, texts, bits)],
        "counts": {"ops": len(times), "fbar_truth": len(times)},
    }


# -- prove ops ----------------------------------------------------------------------------

def _check_op(pb, spec, op, pack, tracer):
    if tracer is None:
        t0 = now_ns()
        derivation, target = pb.parse_derivation_file(spec["text"])
        verdict = pb.check_derivation(pack, derivation, target)
        return t0, now_ns(), derivation, verdict
    index = tracer.begin("op.check", op)
    derivation, target = tracer.call(
        "pi_system.parse_derivation_file", op, pb.parse_derivation_file, spec["text"], attrs=_lines_attr)
    verdict = tracer.call(
        "pi_system.check_derivation", op, pb.check_derivation, pack, derivation, target, attrs=_check_attr)
    _, t0, t1, *_ = tracer.end(index)
    return t0, t1, derivation, verdict


def _search_op(pb, spec, op, pack, budget, mode, tracer):
    if tracer is None:
        t0 = now_ns()
        statement = pb.parse_statement(spec["statement"])
        verdict = pb.search(pack, statement, budget, mode)
        return t0, now_ns(), statement, verdict
    index = tracer.begin("op.search", op)
    statement = tracer.call("pi_system.parse_statement", op, pb.parse_statement, spec["statement"])
    verdict = tracer.call("proof_search.search", op, pb.search, pack, statement, budget, mode, attrs=_search_attr)
    _, t0, t1, *_ = tracer.end(index)
    return t0, t1, statement, verdict


def run_prove_ops(ops: list, pack, tracer: Tracer | None, pacer: Pacer | None = None) -> dict:
    """Search and check requests; results are rendered after each op's timer stops."""
    import proofbench as pb

    budget = pb.SearchBudget(max_candidates=workloads.SEARCH_BUDGET)
    counts = {"ops": 0, "searches": 0, "checks": 0, "found": 0, "exhausted": 0,
              "candidates_structured": 0, "candidates_literal": 0, "check_lines": 0}
    times, results = [], []
    for n, spec in enumerate(ops):
        op = f"{spec['kind']}:{n}"
        t0 = now_ns()
        try:
            if spec["kind"] == "check":
                t0, t1, derivation, verdict = _check_op(pb, spec, op, pack, tracer)
                counts["checks"] += 1
                counts["check_lines"] += len(derivation.lines)
                result = ["Accept"] if verdict == pb.Accept() else ["Reject", verdict.line, verdict.reason]
            else:
                mode = pb.SearchMode(spec["mode"])
                t0, t1, statement, verdict = _search_op(pb, spec, op, pack, budget, mode, tracer)
                counts["searches"] += 1
                counts[f"candidates_{mode.value}"] += verdict.candidates
                text = None
                if isinstance(verdict, pb.Exhausted):
                    counts["exhausted"] += 1
                else:
                    counts["found"] += 1
                    derived = statement if isinstance(verdict, pb.DerivedTarget) else pb.negate_fbar(statement)
                    text = pb.derivation_file_text(verdict.derivation, derived)
                result = [type(verdict).__name__, verdict.candidates, text]
        except Exception as exc:  # a failed op; verification counts it
            t1 = now_ns()
            result = ["error", repr(exc)]
        counts["ops"] += 1
        times.append(t1 - t0)
        results.append(result)
        if pacer is not None:
            pacer.after(times[-1])
    result = {"times_ns": times, "results": results, "counts": counts}
    if pacer is not None:
        result.update(pacer.finish())
    return result


def make_pack(tracer: Tracer | None):
    from proofbench import make_axiom_pack

    if tracer is None:
        return make_axiom_pack(workloads.PACK_SIZE)
    return tracer.call("pi_system.make_axiom_pack", "setup", make_axiom_pack, workloads.PACK_SIZE)


def run_prove(seed: int, seconds: int, tracer: Tracer | None) -> dict:
    pack = make_pack(tracer)
    ready()
    digests = workloads.load_digests()
    ops = workloads.prove_plan(seed, seconds, digests["fbar_bits"])
    return run_prove_ops(ops, pack, tracer, Pacer(digests["lookup"]))


def run_probe(tracer: Tracer) -> dict:
    """The fixed probe ops, always traced; see workloads.probe_plan."""
    pack = make_pack(tracer)
    ready()
    ops = workloads.probe_plan(workloads.load_digests()["fbar_bits"])
    fbar_traced([op["x"] for op in ops if op["kind"] == "fbar"], tracer)
    result = run_prove_ops([op for op in ops if op["kind"] != "fbar"], pack, tracer)
    return {"counts": result["counts"]}


def run_gcount() -> dict:
    """Cold grammar counting for lengths 0..10 in this fresh interpreter."""
    from proofbench.enumerator import grammar_count
    from proofbench.qlang import QLANG_GRAMMAR

    ready()
    t0 = now_ns()
    total = sum(grammar_count(QLANG_GRAMMAR, length) for length in range(11))
    return {"cold_ns": now_ns() - t0, "words": total}


def run_cli_child(span_file: str, argv: list[str]) -> int:
    """One CLI command with spans around the calls the cli module makes.

    The cli module's imported names and the qlang functions it reaches are
    rebound to traced wrappers from here, outside src/; the command itself
    runs unchanged through cli.main.
    """
    tracer = Tracer()
    t0 = now_ns()
    import proofbench.cli as cli
    import proofbench.qlang as qlang

    import_ns = now_ns() - t0
    wrap = tracer.wrap
    qlang.grammar_unrank = wrap("enumerator.grammar_unrank", qlang.grammar_unrank, _length_attr)
    qlang.parse = wrap("qlang.parse", qlang.parse)
    qlang.evaluate = wrap("qlang.evaluate", qlang.evaluate)
    cli.make_axiom_pack = wrap("pi_system.make_axiom_pack", cli.make_axiom_pack)
    cli.parse_derivation_file = wrap("pi_system.parse_derivation_file", cli.parse_derivation_file, _lines_attr)
    cli.check_derivation = wrap("pi_system.check_derivation", cli.check_derivation, _check_attr)
    cli.parse_statement = wrap("pi_system.parse_statement", cli.parse_statement)
    cli.search = wrap("proof_search.search", cli.search, _search_attr)
    index = tracer.begin("cli.main", 0)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    tracer.end(index)[5] = {"import_ns": import_ns}
    sys.stdout.flush()
    tracer.write(span_file)
    return code


def main(args: list[str]) -> int:
    mode = args[0]
    if mode == "cli-child":
        return run_cli_child(args[1], args[2:])
    if mode == "bare":  # the reference start: this script alone, without proofbench
        ready()
        return 0
    if mode == "setup":
        import proofbench  # noqa: F401

        if args[1] == "cli":
            import proofbench.cli  # noqa: F401
        elif args[1] == "prove":
            make_pack(None)
        ready()
        return 0
    if mode == "gcount":
        finish(run_gcount(), None, None)
        return 0
    span_file = args[-1] if args[-1] != "-" else None
    tracer = Tracer() if span_file else None
    if mode == "probe":
        finish(run_probe(tracer), tracer, span_file)
    elif mode == "sweep":
        finish(run_sweep(int(args[1]), int(args[2]), int(args[3]), tracer), tracer, span_file)
    elif mode == "lookup":
        finish(run_lookup(int(args[1]), int(args[2]), tracer), tracer, span_file)
    elif mode == "prove":
        finish(run_prove(int(args[1]), int(args[2]), tracer), tracer, span_file)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
