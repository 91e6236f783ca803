"""The proofbench benchmark: four seeded workloads, every output verified.

    python3 perfbench/run.py --workload diagonal|lookup|prove|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ./src/proofbench.
Each workload runs in fresh interpreters (the program's caches are
process-global, so no run repeats work in a warm process), one process at a
time, as a closed loop with one client.

Every time is scaled to a host of nominal speed (hostspeed.py): each op run
in a worker is divided by the slowness of the reference kernel sampled
around it in that process, and each fresh-process time (set-up, cli
command) by the slowness of the bare starts spawned on either side of it.
The raw times are printed too.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
untraced and once traced, plus a small fixed probe, and prints the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics.  Spans, work counts and the full result of the latest run are kept
under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = str(HERE / "worker.py")
WORKLOADS = ("diagonal", "lookup", "prove", "cli")

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from hostspeed import BARE_START_NOMINAL_S, op_slowness  # noqa: E402
from verify import ProveVerifier, verify_cli, verify_lookup, verify_sweep  # noqa: E402

SETUP_SPAWNS = 11  # fresh starts per run for setup_s; single imports vary by tens of ms
START_SPAWNS = 5  # fresh starts for each of the cli.* per-layer timings
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed with their sample counts, but not part of the result line: on
# diagonal the slowest blocks speed up less than the reference kernel when
# the host runs fast, so their scaled tail moves by 10-15% from run to run,
# and p99 has fewer than ten samples beyond it on lookup and cli.
TAIL_UNITS = {"op_p90_ms": "ms", "op_p99_ms": "ms"}

PER_LAYER_UNITS = {
    "enumerator.grammar_unrank.calls": "count",
    "enumerator.grammar_unrank.busy_s": "s",
    "enumerator.grammar_unrank.short_p50_us": "us",
    "enumerator.grammar_unrank.long_p50_ms": "ms",
    "enumerator.grammar_count.cold_s": "s",
    "qlang.parse.calls": "count",
    "qlang.parse.busy_s": "s",
    "qlang.parse.p50_us": "us",
    "qlang.evaluate.calls": "count",
    "qlang.evaluate.busy_s": "s",
    "pi_system.parse_derivation_file.lines": "count",
    "pi_system.parse_derivation_file.busy_s": "s",
    "pi_system.parse_derivation_file.us_per_line_short": "us",
    "pi_system.parse_derivation_file.us_per_line_long": "us",
    "pi_system.check_derivation.lines": "count",
    "pi_system.check_derivation.busy_s": "s",
    "pi_system.check_derivation.us_per_line": "us",
    "pi_system.make_axiom_pack.busy_s": "s",
    "proof_search.structured.candidates": "count",
    "proof_search.structured.busy_s": "s",
    "proof_search.structured.candidates_per_s": "1/s",
    "proof_search.literal.candidates": "count",
    "proof_search.literal.busy_s": "s",
    "proof_search.literal.candidates_per_s": "1/s",
    "proof_search.exhausted": "count",
    "proof_search.candidates_per_proof_p50": "count",
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    pass


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(*args: str) -> dict:
    """Run one worker to completion and return its result line."""
    with subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"worker {args[0]} timed out") from None
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise WorkerError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def time_to_ready(*args: str) -> float:
    """Seconds from spawning a worker until it reports its set-up done."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"set-up of {args} failed")
    return elapsed


def bare_slowness(before: float, after: float) -> float:
    """How much slower than nominal the host ran the bare starts on either side of a timed one."""
    return (before + after) / 2 / BARE_START_NOMINAL_S


def make_round(ops: int, times_ns: list, slowness: list) -> dict:
    """One process's op times, raw and each divided by the host's slowness next to it."""
    return {"ops": ops, "raw_ns": times_ns, "slowness": slowness,
            "times": [t / f for t, f in zip(times_ns, slowness)]}


def worker_round(result: dict) -> dict:
    return make_round(len(result["times_ns"]), result["times_ns"], op_slowness(result))


def op_seconds(res: dict, key: str = "times") -> float:
    return sum(sum(r[key]) for r in res["rounds"]) / 1e9


def percentile_ms(times_ns: list[int], q: int) -> float:
    if len(times_ns) < 2:
        return times_ns[0] / 1e6
    return statistics.quantiles(times_ns, n=100, method="inclusive")[q - 1] / 1e6


# -- workloads ------------------------------------------------------------------------
# Each returns a dict: rounds (for each fresh process that ran ops, the number
# of ops and the timed spans they ran in), attempted, failed, counts, and
# extra facts for the summary.  span_dir is None for an untraced pass.


def run_diagonal(seed, seconds, digests, span_dir):
    plan = workloads.diagonal_plan(seed, seconds)
    rounds, failed, counts = [], 0, []
    for k in range(plan["sweeps"]):
        span_file = str(span_dir / f"sweep-{k}.jsonl.gz") if span_dir else "-"
        try:
            result = spawn_worker("sweep", str(seed), str(seconds), str(k), span_file)
        except WorkerError as exc:
            print(f"diagonal sweep {k}: {exc}", file=sys.stderr)
            failed += plan["n"]
            continue
        rounds.append(dict(worker_round(result), ops=result["counts"]["ops"]))
        failed += verify_sweep(result, digests)
        counts.append(result["counts"])
    if any(c != counts[0] for c in counts):
        print("diagonal: sweeps did different work", file=sys.stderr)
        failed += 1
    total = {k: sum(c[k] for c in counts) for k in counts[0]} if counts else {}
    return {"rounds": rounds, "attempted": plan["n"] * plan["sweeps"], "failed": failed,
            "counts": dict(total, sweeps=plan["sweeps"]), "extra": {}}


def run_lookup(seed, seconds, digests, span_dir):
    planned = len(workloads.lookup_plan(seed, seconds))
    span_file = str(span_dir / "lookup.jsonl.gz") if span_dir else "-"
    try:
        result = spawn_worker("lookup", str(seed), str(seconds), span_file)
    except WorkerError as exc:
        print(f"lookup: {exc}", file=sys.stderr)
        return {"rounds": [], "attempted": planned, "failed": planned, "counts": {}, "extra": {}}
    failed = verify_lookup(result["results"], digests) + (planned - len(result["results"]))
    rounds = [worker_round(result)]
    return {"rounds": rounds, "attempted": planned, "failed": failed, "counts": result["counts"], "extra": {}}


def run_prove(seed, seconds, digests, span_dir):
    ops = workloads.prove_plan(seed, seconds, digests["fbar_bits"])
    span_file = str(span_dir / "prove.jsonl.gz") if span_dir else "-"
    try:
        result = spawn_worker("prove", str(seed), str(seconds), span_file)
    except WorkerError as exc:
        print(f"prove: {exc}", file=sys.stderr)
        return {"rounds": [], "attempted": len(ops), "failed": len(ops), "counts": {}, "extra": {}}
    sys.path.insert(0, str(SRC))
    import proofbench  # verification only, in this process, after the timed ops

    verifier = ProveVerifier(proofbench, workloads.PACK_SIZE)
    failed = len(ops) - len(result["results"])
    derivable = solved = 0
    for spec, got in zip(ops, result["results"]):
        ok, was_solved = verifier.op(spec, got)
        failed += not ok
        if spec["kind"] == "search" and spec["expect"] != "Exhausted":
            derivable += 1
            solved += bool(was_solved)
    extra = {"solved_frac": solved / derivable if derivable else 1.0, "derivable": derivable}
    rounds = [worker_round(result)]
    return {"rounds": rounds, "attempted": len(ops), "failed": failed, "counts": result["counts"], "extra": extra}


def write_cli_files(commands, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "prog.q").write_text("((x%2)=0)\n", encoding="utf-8")
    (directory / "paper_3_1.drv").write_text(workloads.PAPER_FIXTURE, encoding="utf-8")
    for spec in commands:
        if "file" in spec:
            (directory / spec["file"]).write_text(spec["text"], encoding="utf-8")
    return {"prog": str(directory / "prog.q"), "fixture": str(directory / "paper_3_1.drv"), "dir": str(directory)}


def run_cli(seed, seconds, digests, span_dir):
    commands = workloads.cli_plan(seed, seconds, digests["fbar_bits"])
    work = OUT / f"cli-{os.getpid()}"
    names = write_cli_files(commands, work)
    env = src_env()
    times, ran, failed, codes = [], [], 0, {}
    bares = [time_to_ready("bare")]  # bares[k] and bares[k + 1] enclose commands 2k and 2k + 1
    try:
        for n, spec in enumerate(commands):
            if n and n % 2 == 0:
                bares.append(time_to_ready("bare"))
            argv = [a.format(**names) for a in spec["argv"]]
            if span_dir:
                cmd = [sys.executable, WORKER, "cli-child", str(span_dir / f"cmd-{n}.jsonl.gz"), *argv]
            else:
                cmd = [sys.executable, "-m", "proofbench.cli", *argv]
            t0 = time.perf_counter_ns()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                      timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                failed += 1
                continue
            times.append(time.perf_counter_ns() - t0)
            ran.append(n)
            codes[proc.returncode] = codes.get(proc.returncode, 0) + 1
            failed += not verify_cli(spec, proc.returncode, proc.stdout, proc.stderr, digests)
        bares.append(time_to_ready("bare"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    slowness = [bare_slowness(bares[n // 2], bares[n // 2 + 1]) for n in ran]
    counts = {"ops": len(times), **{f"exit_{code}": n for code, n in sorted(codes.items())}}
    return {"rounds": [make_round(len(times), times, slowness)], "attempted": len(commands), "failed": failed,
            "counts": counts, "extra": {}}


RUNNERS = {"diagonal": run_diagonal, "lookup": run_lookup, "prove": run_prove, "cli": run_cli}


# -- per-layer metrics from spans --------------------------------------------------------


class SpanStats:
    """Streaming per-function aggregates over span files."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy_ns: dict[str, int] = {}
        self.unrank_short: list[int] = []
        self.unrank_long: list[int] = []
        self.parse_ns: list[int] = []
        self.files: list[tuple[int, int]] = []  # (lines, parse ns) per derivation file
        self.check_lines = 0
        self.candidates = {"structured": 0, "literal": 0}
        self.search_ns = {"structured": 0, "literal": 0}
        self.searches = {"structured": 0, "literal": 0}
        self.exhausted = 0
        self.found_candidates: list[int] = []
        self.main_ns: list[int] = []
        self.import_ns: list[int] = []

    def add_file(self, path: Path) -> None:
        with gzip.open(path, "rt", encoding="utf-8") as spans:
            for line in spans:
                self.add(json.loads(line))

    def add(self, span) -> None:
        name, start, end, _parent, _op, attrs = span
        took = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.busy_ns[name] = self.busy_ns.get(name, 0) + took
        if name == "enumerator.grammar_unrank":
            (self.unrank_short if attrs["length"] <= 7 else self.unrank_long).append(took)
        elif name == "qlang.parse":
            self.parse_ns.append(took)
        elif name == "pi_system.parse_derivation_file":
            self.files.append((attrs["lines"], took))
        elif name == "pi_system.check_derivation":
            self.check_lines += attrs["lines"]
        elif name == "proof_search.search":
            mode = attrs["mode"]
            self.searches[mode] += 1
            self.candidates[mode] += attrs["candidates"]
            self.search_ns[mode] += took
            if attrs["verdict"] == "Exhausted":
                self.exhausted += 1
            else:
                self.found_candidates.append(attrs["candidates"])
        elif name == "cli.main":
            self.main_ns.append(took)
            self.import_ns.append(attrs["import_ns"])


def _us_per_line(files) -> float:
    lines = sum(n for n, _ in files)
    return sum(t for _, t in files) / lines / 1e3


def layer_metrics(work: SpanStats, probe: SpanStats, fixed: dict) -> tuple[dict, dict]:
    """Per-layer values, and for each whether the workload's spans or the probe's gave it."""
    values, source = {}, {}

    def pick(has, *names) -> SpanStats:
        chosen = work if has(work) else probe
        source.update((name, "workload" if chosen is work else "probe") for name in names)
        return chosen

    unrank = "enumerator.grammar_unrank"
    s = pick(lambda x: x.calls.get(unrank), f"{unrank}.calls", f"{unrank}.busy_s")
    values[f"{unrank}.calls"] = s.calls[unrank]
    values[f"{unrank}.busy_s"] = s.busy_ns[unrank] / 1e9
    s = pick(lambda x: x.unrank_short, f"{unrank}.short_p50_us")
    values[f"{unrank}.short_p50_us"] = statistics.median(s.unrank_short) / 1e3
    s = pick(lambda x: x.unrank_long, f"{unrank}.long_p50_ms")
    values[f"{unrank}.long_p50_ms"] = statistics.median(s.unrank_long) / 1e6
    values["enumerator.grammar_count.cold_s"] = fixed["grammar_count_cold_s"]
    s = pick(lambda x: x.parse_ns, "qlang.parse.calls", "qlang.parse.busy_s", "qlang.parse.p50_us")
    values["qlang.parse.calls"] = s.calls["qlang.parse"]
    values["qlang.parse.busy_s"] = s.busy_ns["qlang.parse"] / 1e9
    values["qlang.parse.p50_us"] = statistics.median(s.parse_ns) / 1e3
    s = pick(lambda x: x.calls.get("qlang.evaluate"), "qlang.evaluate.calls", "qlang.evaluate.busy_s")
    values["qlang.evaluate.calls"] = s.calls["qlang.evaluate"]
    values["qlang.evaluate.busy_s"] = s.busy_ns["qlang.evaluate"] / 1e9
    parse = "pi_system.parse_derivation_file"
    s = pick(lambda x: x.files, f"{parse}.lines", f"{parse}.busy_s")
    values[f"{parse}.lines"] = sum(n for n, _ in s.files)
    values[f"{parse}.busy_s"] = s.busy_ns[parse] / 1e9
    for key, keep in (("short", lambda n: n < 100), ("long", lambda n: n >= 1000)):
        s = pick(lambda x: [f for f in x.files if keep(f[0])], f"{parse}.us_per_line_{key}")
        values[f"{parse}.us_per_line_{key}"] = _us_per_line([f for f in s.files if keep(f[0])])
    check = "pi_system.check_derivation"
    s = pick(lambda x: x.check_lines, f"{check}.lines", f"{check}.busy_s", f"{check}.us_per_line")
    values[f"{check}.lines"] = s.check_lines
    values[f"{check}.busy_s"] = s.busy_ns[check] / 1e9
    values[f"{check}.us_per_line"] = s.busy_ns[check] / s.check_lines / 1e3
    s = pick(lambda x: x.calls.get("pi_system.make_axiom_pack"), "pi_system.make_axiom_pack.busy_s")
    values["pi_system.make_axiom_pack.busy_s"] = s.busy_ns["pi_system.make_axiom_pack"] / 1e9
    for mode in ("structured", "literal"):
        names = [f"proof_search.{mode}.{m}" for m in ("candidates", "busy_s", "candidates_per_s")]
        s = pick(lambda x: x.searches[mode], *names)
        values[names[0]] = s.candidates[mode]
        values[names[1]] = s.search_ns[mode] / 1e9
        values[names[2]] = s.candidates[mode] / (s.search_ns[mode] / 1e9)
    s = pick(lambda x: x.found_candidates, "proof_search.exhausted", "proof_search.candidates_per_proof_p50")
    values["proof_search.exhausted"] = s.exhausted
    values["proof_search.candidates_per_proof_p50"] = statistics.median(s.found_candidates)
    values["cli.python_start_ms"] = fixed["python_start_ms"]
    s = pick(lambda x: x.main_ns, "cli.import_ms", "cli.main_ms")
    values["cli.import_ms"] = statistics.median(s.import_ns) / 1e6
    values["cli.main_ms"] = statistics.median(s.main_ns) / 1e6
    values["trace.overhead_s"] = fixed["overhead_s"]
    source["trace.overhead_s"] = "traced minus untraced op time"
    return values, source


def fixed_layer_timings(span_dir: Path, probe: SpanStats) -> dict:
    """Fresh-process timings every traced run takes, whatever the workload."""
    starts = []
    for _ in range(START_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
        starts.append(time.perf_counter() - t0)
    cold = [spawn_worker("gcount")["cold_ns"] / 1e9 for _ in range(3)]
    env = src_env()
    for k in range(START_SPAWNS):
        path = span_dir / f"probe-cli-{k}.jsonl.gz"
        subprocess.run([sys.executable, WORKER, "cli-child", str(path), "qlang", "nth", "500"],
                       cwd=ROOT, env=env, check=True, capture_output=True)
        probe.add_file(path)
    return {"python_start_ms": statistics.median(starts) * 1e3, "grammar_count_cold_s": statistics.median(cold)}


# -- the run ---------------------------------------------------------------------------------


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "proofbench").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def counts_repeat(workload: str, seed: int, seconds: int, counts: dict) -> bool:
    """Work counts must be identical across runs of the same code with the same inputs."""
    path = OUT / f"counts-{workload}-{seed}-{seconds}-{src_digest()}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8")) == counts
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return True


def summary_line(name: str, value, unit: str, note: str = "") -> str:
    return f"{name:52s} {value:>14.6g} {unit:6s} {note}".rstrip()


def setup_times(workload: str) -> tuple[list[float], list[float]]:
    """Fresh set-ups of the workload, each between two bare starts: raw seconds and slowness."""
    raw, slowness = [], []
    bare = time_to_ready("bare")
    for _ in range(SETUP_SPAWNS):
        raw.append(time_to_ready("setup", workload))
        before, bare = bare, time_to_ready("bare")
        slowness.append(bare_slowness(before, bare))
    return raw, slowness


def round_metrics(ops: int, times: list) -> dict:
    return {
        "ops_per_s": ops / (sum(times) / 1e9),
        "op_p50_ms": percentile_ms(times, 50),
        "op_p90_ms": percentile_ms(times, 90),
        "op_p99_ms": percentile_ms(times, 99),
    }


def untraced(args, digests) -> tuple[dict, list[str]]:
    setups, setup_slowness = setup_times(args.workload)
    res = RUNNERS[args.workload](args.seed, args.seconds, digests, None)
    rounds = [r for r in res["rounds"] if r["times"]]
    if not rounds:
        raise WorkerError("no op completed")
    scaled = [round_metrics(r["ops"], r["times"]) for r in rounds]
    raw = [round_metrics(r["ops"], r["raw_ns"]) for r in rounds]
    values = {"setup_s": statistics.median(t / f for t, f in zip(setups, setup_slowness))}
    values.update({k: statistics.median(r[k] for r in scaled) for k in scaled[0]})
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {k: values[k] for k in END_TO_END_UNITS}
    tails = {k: values[k] for k in TAIL_UNITS}
    raw_values = {"setup_s": statistics.median(setups)}
    raw_values.update({k: statistics.median(r[k] for r in raw) for k in raw[0]})
    n = sum(r["ops"] for r in rounds)
    spans = sum(len(r["times"]) for r in rounds)
    per = "" if len(rounds) == 1 else f", median of {len(rounds)} processes"
    timed = f"n={spans}" + (f" blocks of {workloads.DIAGONAL_BLOCK} ops" if spans != n else "") + per
    notes = {"setup_s": f"median of {SETUP_SPAWNS} fresh starts", "ops_per_s": f"ops={n}{per}",
             "op_p50_ms": timed, "op_p90_ms": timed, "op_p99_ms": timed,
             "peak_rss_mb": "largest child process"}
    units = dict(END_TO_END_UNITS, **TAIL_UNITS)
    lines = [summary_line(k, v, units[k], notes[k]) for k, v in metrics.items()]
    lines += [summary_line(k, v, units[k], notes[k] + "; printed only") for k, v in tails.items()]
    host = [f for r in rounds for f in r["slowness"]]
    lines.append(summary_line("host_slowness", statistics.median(host), "x",
                              f"ops; set-up {statistics.median(setup_slowness):.3f}x; times above are divided by it"))
    for key, value in raw_values.items():
        lines.append(summary_line(f"raw.{key}", value, units[key], "as measured, not scaled"))
    lines.append(summary_line("error_rate", res["failed"] / res["attempted"], "frac",
                              f"failed={res['failed']} attempted={res['attempted']}"))
    for key, value in res["extra"].items():
        lines.append(summary_line(key, value, "frac" if key.endswith("frac") else "count"))
    return {"metrics": metrics, "tails": tails, "res": res}, lines


def traced(args, digests) -> tuple[dict, list[str]]:
    span_root = OUT / "spans" / args.workload
    shutil.rmtree(span_root, ignore_errors=True)
    (span_root / "workload").mkdir(parents=True)
    runner = RUNNERS[args.workload]
    plain = runner(args.seed, args.seconds, digests, None)
    res = runner(args.seed, args.seconds, digests, span_root / "workload")
    work, probe = SpanStats(), SpanStats()
    for path in sorted((span_root / "workload").glob("*.jsonl.gz")):
        work.add_file(path)
    probe_file = span_root / "probe.jsonl.gz"
    spawn_worker("probe", str(probe_file))
    probe.add_file(probe_file)
    fixed = fixed_layer_timings(span_root, probe)
    fixed["overhead_s"] = op_seconds(res) - op_seconds(plain)
    metrics, source = layer_metrics(work, probe, fixed)
    lines = []
    for name, value in metrics.items():
        lines.append(summary_line(name, value, PER_LAYER_UNITS[name], f"[{source.get(name, 'fresh processes')}]"))
    same = plain["counts"] == res["counts"]
    lines.append(f"work counts traced == untraced: {same} {json.dumps(res['counts'], sort_keys=True)}")
    lines.append(f"untraced op time {op_seconds(plain):.4f} s, traced {op_seconds(res):.4f} s "
                 f"(scaled; raw {op_seconds(plain, 'raw_ns'):.4f} s and {op_seconds(res, 'raw_ns'):.4f} s)")
    both = dict(plain, attempted=plain["attempted"] + res["attempted"],
                failed=plain["failed"] + res["failed"] + (0 if same else 1))
    return {"metrics": metrics, "res": both}, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "proofbench" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no {SRC / 'proofbench'} in this checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    digests = workloads.load_digests()
    try:
        outcome, lines = (traced if args.trace else untraced)(args, digests)
    except (WorkerError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    res = outcome["res"]
    repeat = counts_repeat(args.workload, args.seed, args.seconds, res["counts"])
    correct = res["failed"] == 0 and repeat
    info = {"python": platform.python_version(), "nproc": os.cpu_count(), "platform": platform.platform()}
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={info['python']} nproc={info['nproc']} platform={info['platform']}")
    for line in lines:
        print(line)
    print(f"work counts {json.dumps(res['counts'], sort_keys=True)} (repeat across runs of this code: {repeat})")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome["metrics"].items()},
    }
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, args=vars(args), counts=res["counts"], extra=res["extra"], machine=info,
                        tails=outcome.get("tails", {})),
                   indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
