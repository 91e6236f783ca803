"""The CLI behaviour corpus: argv lists whose exit code, stdout and stderr are pinned.

cli_golden.json holds one entry per argv list: [argv, exit code, sha256 of
stdout, exact stderr].  test_cli_golden.py replays every entry in order
through cli.main in process, with stdin closed and the cwd in a directory that
write_inputs has filled, and compares all three.

The corpus covers every subcommand, all three --format values, config files,
the edge values of the robustness battery (test_robustness.py) and the CI
smoke values that need no fresh process.  It holds no --help text and no usage
error that argparse words itself, since argparse's wording changes between
Python versions; test_cli.py pins their exit code, 64.

Generate it once, from the commit whose behaviour it pins, at the repository
root:

    PYTHONPATH=src python tests/cli_golden.py

After that, a change that alters an entry names the entry and its reason in
CHANGES.md, as for the other golden files.  Regenerating the whole file to
absorb a change defeats its purpose.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from proofbench import cli
from test_pi_system import a2_chain_file

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden.json"
FIXTURE = HERE.parent / "fixtures" / "paper_3_1.drv"

FORMATS = ("pretty", "csv", "json-lines")
INTS = ("0", "-1", "1", "64446", "64447", str(10**7), str(10**23))
DEEP = "(" * 600 + "w" + "+1)" * 600  # past pi_system.MAX_NESTING
DEEP_450 = "(" * 450 + "w" + "+1)" * 450


# the files the corpus reads, relative to the directory it runs in; "missing"
# is never written, and adir is a directory
INPUTS = {
    "paper_3_1.drv": FIXTURE.read_text(encoding="utf-8"),
    "swapped.drv": FIXTURE.read_text(encoding="utf-8").replace("rule R1 4,5", "rule R1 5,4"),
    "chain.drv": a2_chain_file(3),
    "chain_450.drv": a2_chain_file(450),
    "empty.txt": "",
    "long.drv": "vars: w\ntarget: int(w)\n" + "".join(f"{i}. int(w) [premise]\n" for i in range(1, 2999)),
    "prog.q": "((x%3)=1)\n",
    "bangs.q": "!" * 3000 + "(x=x)\n",
    "bad.q": "(x=01)\n",
    "abc.txt": "a\nb\nc\n",
    "one.txt": "a\n",
    "wide.txt": "ab\ncd\n",
    "cells.cfg": "table_cells = 10\n",
    "csv.cfg": "format = csv\nalphabet = qlang\n# comment\n",
    "json.cfg": "format = json-lines\nsearch_candidates = 50\n",
    "unknown.cfg": "mystery = 3\n",
    "noint.cfg": "table_cells = many\n",
    "zero.cfg": "search_candidates = 0\n",
    "noequals.cfg": "format\n",
    "badformat.cfg": "format = xml\n",
}
LATIN1 = ("latin1.txt", "vars: w\ntarget: int(w)\n1. int(w) [premise] \xe9\n".encode("latin-1"))


def write_inputs(root: Path) -> None:
    for name, text in INPUTS.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / LATIN1[0]).write_bytes(LATIN1[1])
    (root / "adir").mkdir()


def _formats(*argv):
    return [[*argv, "--format", fmt] for fmt in FORMATS]


def _argvs() -> list:
    files = ("empty.txt", "latin1.txt", "adir", "missing")
    out = []
    # enumerate / rank / unrank
    out += _formats("enumerate", "--count", "5")
    out += _formats("enumerate", "--count", "4", "--from", "7", "--alphabet", "qlang")
    out += [["enumerate", "--count", n] for n in INTS[:3]]
    out += [["enumerate", "--count", "3", "--from", k] for k in INTS]
    out += [["enumerate", "--count", "3", "--alphabet", a] for a in ("abc.txt", "one.txt", "wide.txt", *files)]
    out.append(["enumerate", "--from", "1" + "0" * 4399, "--count", "1", "--alphabet", "binary", "--format", "csv"])
    out += _formats("rank", "0110")
    out += [["rank", s, "--alphabet", "qlang"] for s in ("(x=x)", "!(x>3)", "", "w+1 > w", "fbar(3) is 1")]
    out += [["rank", s] for s in ("", "2", "0000", *INTS[:3])]
    out += [["rank", "cab", "--alphabet", a] for a in ("abc.txt", "one.txt", *files)]
    out.append(["rank", "10" * 7500, "--alphabet", "binary", "--format", "csv"])
    out += _formats("unrank", "12345")
    out += [["unrank", k] for k in INTS]
    out += [["unrank", k, "--alphabet", "qlang"] for k in INTS]
    out += [["unrank", "100000000000000000000", "--alphabet", a] for a in ("one.txt", "abc.txt", *files)]
    out.append(["unrank", str(7 * 10**3999 + 123456789), "--alphabet", "binary", "--format", "csv"])
    # qlang
    out += _formats("qlang", "eval", "prog.q", "--x", "4")
    out += [["qlang", "eval", f, "--x", x] for f in ("prog.q", "bangs.q") for x in INTS]
    out += [["qlang", "eval", f, "--x", "1"] for f in ("bad.q", "-", *files)]
    out += [["qlang", "nth", i, "--format", fmt] for i in INTS for fmt in FORMATS]
    out += [["qlang", "nth", i, "--format", "json-lines"] for i in (
        "124727108", "1000000000000", "844448", "5000000", "50000000", "123456789", str(10**45), "243", "5000")]
    out += _formats("qlang", "table", "--rows", "4", "--cols", "6")
    out += [["qlang", "table", "--rows", r, "--cols", c] for r, c in (
        ("1", "1"), ("0", "3"), ("3", "-1"), ("2000", "1000"), ("1000001", "1"))]
    for command in ("diagonal", "fbar"):
        out += _formats("qlang", command, "--n", "12")
        out += [["qlang", command, "--n", n] for n in INTS if n not in ("64446", "64447")]
    out += [["qlang", "diagonal", "--n", "64447"], ["qlang", "fbar", "--n", "64446", "--format", "json-lines"]]
    # check
    out += [["check", f] for f in ("paper_3_1.drv", "swapped.drv", "chain.drv", "chain_450.drv", "long.drv", *files)]
    out += [["check", "paper_3_1.drv", "--pack", p] for p in ("0", "5", "-1", "1000001")]
    # search
    statements = ("w+1 > w", "int(w)", "fbar(3) is 1", "fbar(3) is 0", "fbar(64447) is 0",
                  f"fbar({10**23}) is 1", "w > w", "(w+1)+1 > w", "int(w+(v+2))", "7+1 > 7",
                  DEEP + " > w", f"int({DEEP})", DEEP_450 + " > w", "", "w >", "int(01)")
    out += _formats("search", "w+1 > w")
    out += _formats("search", "(w+1)+1 > w", "--budget", "500")
    out += [["search", s, "--pack", "5", "--budget", "2000"] for s in statements]
    out += [["search", s, "--pack", "5", "--mode", "literal", "--budget", "64446"]
            for s in statements if s != DEEP_450 + " > w"]  # literal search of it takes 0.7 s
    out += [["search", "w+1 > w", "--budget", b] for b in ("0", "-1", "1", "64446")]
    out += [["search", "w+1 > w", "--pack", p] for p in ("0", "-1", "1000001")]
    out += [["search", "fbar(20) is 1", "--pack", "25", "--format", "json-lines"],
            ["search", "w+1 > w", "--pack", "200", "--budget", "150", "--format", "json-lines"],
            ["search", "7+1 > 7", "--pack", "25", "--format", "json-lines"],
            ["search", "((w+1)+1)+1 > w", "--mode", "literal", "--budget", str(10**29), "--format", "json-lines"],
            ["search", "(((w+1)+1)+1)+1 > w", "--mode", "literal", "--budget", str(10**60), "--format", "json-lines"],
            ["search", "int(w+(v+2))", "--mode", "literal", "--budget", "100000000"],
            ["search", "w > w", "--budget", "100000000"]]
    out += [["search", "w+1 > w", "--emit-derivation", p] for p in ("found.drv", "adir", "missing/found.drv")]
    out.append(["check", "found.drv"])
    # decide
    out += [["decide", s, "--format", fmt] for s in statements for fmt in FORMATS]
    out += [["decide", "int(w)", "--pack", p] for p in ("0", "5", "-1", "1000001")]
    # gap / audit / demo, at the battery's edges
    for pack in ("0", "5", "-1"):
        for x_max in ("-1", "0", "1", "64446", str(10**7), str(10**23)):
            out.append(["audit", "consistency", "--pack", pack, "--xmax", x_max])
            out.append(["gap", "--pack", pack, "--xmax", x_max])
        out.append(["audit", "soundness", "--pack", pack])
        out.append(["demo", "incompleteness", "--pack", pack, "--xmax", "8"])
    out += _formats("gap", "--pack", "5", "--xmax", "12")
    out += _formats("audit", "soundness", "--pack", "25")
    out += _formats("audit", "consistency", "--pack", "25", "--xmax", "40")
    out += [["audit", "consistency", "--pack", "25", "--xmax", str(10**23), "--format", "json-lines"],
            ["audit", "consistency", "--pack", "5"],
            ["audit", "soundness", "--pack", "5", "--xmax", "3"],
            ["demo", "incompleteness", "--pack", "5", "--xmax", "8"],
            ["demo", "incompleteness", "--pack", "20", "--xmax", "20"]]
    # config files
    for config in ("cells.cfg", "csv.cfg", "json.cfg"):
        out += [["--config", config, *argv] for argv in (
            ["enumerate", "--count", "11"], ["enumerate", "--count", "10"], ["rank", "(x=x)"],
            ["qlang", "table", "--rows", "3", "--cols", "4"], ["qlang", "fbar", "--n", "11"],
            ["gap", "--pack", "3", "--xmax", "11"], ["gap", "--pack", "3", "--xmax", "10"],
            ["search", "fbar(9) is 1", "--pack", "5"], ["demo", "incompleteness", "--pack", "5", "--xmax", "8"])]
    out += [["--config", c, "rank", "01"] for c in (
        "unknown.cfg", "noint.cfg", "zero.cfg", "noequals.cfg", "badformat.cfg", "empty.txt", "latin1.txt", *files[2:])]
    # the largest pack, under commands that read none of its entries
    out += [["check", "paper_3_1.drv", "--pack", "1000000"],
            ["decide", "int(w)", "--pack", "1000000", "--format", "json-lines"],
            ["search", "w+1 > w", "--pack", "1000000", "--format", "json-lines"]]
    return out


ARGVS = _argvs()


def run(argv) -> list:
    """[exit code, sha256 of stdout, stderr] of cli.main(argv), with stdin
    closed, in the current directory."""
    out, err, stdin = io.StringIO(), io.StringIO(), io.StringIO()
    stdin.close()
    saved_stdin, sys.stdin = sys.stdin, stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()]


def main() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        write_inputs(Path(root))
        os.chdir(root)
        try:
            entries = [[argv, *run(argv)] for argv in ARGVS]
        finally:
            os.chdir(cwd)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e, ensure_ascii=True) for e in entries) + "\n]\n",
                      encoding="utf-8")
    print(f"{len(entries)} entries written to {GOLDEN}")


if __name__ == "__main__":
    main()
