"""Command-line front end for the workbench.

Subcommands follow the pipeline the library implements:

    enumerate / rank / unrank     shortlex string enumeration over an alphabet
    qlang eval|nth|table|diagonal|fbar
                                  the toy total language and its diagonal
    check FILE.drv                mechanical derivation checking
    search / decide / gap / audit budgeted proof search and the static decider
    demo incompleteness           the whole story on one screen

Exit codes are a stable contract: 0 success or verdict reached, 1 domain
error (including checker Reject), 2 search Exhausted, 64 usage error.

Output is deterministic given the arguments and config: no timestamps, no
machine identifiers, no environment lookups.  Reporting subcommands take
``--format pretty|csv|json-lines``; json-lines prints one JSON object per
line with keys sorted, csv uses a header row, pretty prints ``key: value``
pairs.  A ``--config PATH`` file (``key = value`` lines, ``#`` comments)
supplies defaults; keys and their defaults:

    alphabet = binary             default alphabet name for enumerate/rank/unrank
    format = pretty               default output format
    table_cells = 1000000         cell budget for program/input tables, and the
                                  most rows enumerate --count, gap --xmax and
                                  demo incompleteness --xmax may ask for
    search_candidates = 100000    default search budget (candidates)

Alphabets are named (``binary``, ``qlang``) or loaded from a file with one
single-codepoint symbol per line, order significant.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import namedtuple
from pathlib import Path

from .enumerator import Alphabet, rank, stream, unrank
from .errors import NestingError, ResourceLimitError, _all_digits

# Each command imports the modules it uses in its handler, so that small
# commands skip the proof modules.  These five names stay attributes of this
# module, read from the package's lazy exports on first access; handlers call
# them through _self, so a caller that rebinds them here (as perfbench's
# traced CLI child does) sees every call.
_REBINDABLE = ("make_axiom_pack", "parse_derivation_file", "check_derivation", "parse_statement", "search")
_self = sys.modules[__name__]


def __getattr__(name):
    if name not in _REBINDABLE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


FORMATS = ("pretty", "csv", "json-lines")

BUILTIN_ALPHABETS = {
    "binary": Alphabet.from_string("01"),
    "qlang": Alphabet.from_string("x0123456789()+%=>!&|"),  # qlang.QLANG_ALPHABET, without importing qlang
}


class GlobalConfig(namedtuple(
    "GlobalConfig",
    "alphabet format table_cells search_candidates",
    defaults=("binary", "pretty", 1_000_000, 100_000),
)):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        for name in ("table_cells", "search_candidates"):
            if getattr(self, name) < 1:
                raise ValueError(f"budget {name} must be positive")
        return self

    @classmethod
    def from_text(cls, text: str) -> "GlobalConfig":
        values: dict = {}
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ValueError(f"config line {lineno}: expected 'key = value'")
            if key not in cls._fields:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            if key in ("alphabet", "format"):
                values[key] = value
            else:
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ValueError(f"config line {lineno}: {key} needs an integer") from None
        return cls(**values)

    def to_text(self) -> str:
        return "".join(f"{name} = {value}\n" for name, value in zip(self._fields, self))


def _resolve_alphabet(name: str) -> Alphabet:
    if name in BUILTIN_ALPHABETS:
        return BUILTIN_ALPHABETS[name]
    path = Path(name)
    if path.exists():
        symbols = []
        lines = path.read_text(encoding="utf-8").split("\n")
        if len(lines) > 1 and lines[-1] == "":
            lines.pop()  # the final newline ends the last line; it adds none
        for line in lines:
            if len(line) != 1:
                raise ValueError(f"alphabet file {name}: each line must hold one symbol")
            symbols.append(line)
        return Alphabet(tuple(symbols))
    raise ValueError(f"unknown alphabet {name!r} (not a builtin name or readable file)")


def emit_report(rows: list, fmt: str) -> str:
    """Render records in a stable order; empty input renders empty output."""
    if fmt == "json-lines":
        import json

        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    if fmt == "csv":
        if not rows:
            return ""
        import csv
        import io

        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()
    return "".join(", ".join(f"{k}: {v}" for k, v in row.items()) + "\n" for row in rows)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _rank_int(text: str) -> int:
    return _all_digits(int, text)


_rank_int.__name__ = "int"  # argparse names the type in its usage error


def _add_format(sub):
    sub.add_argument("--format", choices=FORMATS, default=None, help="output format")


def build_parser() -> _Parser:
    top = _Parser(prog="proofbench", description="shortlex enumeration, a toy total language, and a checkable derivation system")
    top.add_argument("--config", metavar="PATH", default=None, help="key = value config file")
    commands = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = commands.add_parser("enumerate", help="list strings in shortlex order")
    p.add_argument("--alphabet", default=None, help="builtin name or symbol file")
    p.add_argument("--from", dest="start", type=_rank_int, default=0, help="first rank (default 0)")
    p.add_argument("--count", type=int, required=True, help="how many strings")
    _add_format(p)

    p = commands.add_parser("rank", help="position of a string in shortlex order")
    p.add_argument("string", help="the string to rank")
    p.add_argument("--alphabet", default=None)
    _add_format(p)

    p = commands.add_parser("unrank", help="string at a shortlex position")
    p.add_argument("k", type=_rank_int, help="the rank")
    p.add_argument("--alphabet", default=None)
    _add_format(p)

    p = commands.add_parser("qlang", help="the toy total language")
    qcommands = p.add_subparsers(dest="qcommand", required=True, metavar="ACTION")
    q = qcommands.add_parser("eval", help="run a program on an input")
    q.add_argument("source", help="program file, or - for standard input")
    q.add_argument("--x", type=int, required=True, help="input value (positive)")
    _add_format(q)
    q = qcommands.add_parser("nth", help="the i-th program in enumeration order")
    q.add_argument("i", type=int)
    _add_format(q)
    q = qcommands.add_parser("table", help="program/input bit table")
    q.add_argument("--rows", type=int, required=True)
    q.add_argument("--cols", type=int, required=True)
    _add_format(q)
    q = qcommands.add_parser("diagonal", help="diagonal bits of the table")
    q.add_argument("--n", type=int, required=True)
    _add_format(q)
    q = qcommands.add_parser("fbar", help="flipped-diagonal bits")
    q.add_argument("--n", type=int, required=True)
    _add_format(q)

    p = commands.add_parser("check", help="check a derivation file")
    p.add_argument("file", help="derivation file path")
    p.add_argument("--pack", type=int, default=0, help="fbar axiom pack size (default 0)")

    p = commands.add_parser("search", help="budgeted derivation search")
    p.add_argument("statement", help="target statement")
    p.add_argument("--pack", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="candidate budget (default from config)")
    p.add_argument("--mode", choices=("literal", "structured"), default="structured")
    p.add_argument("--emit-derivation", metavar="PATH", default=None, help="write the found derivation file")
    _add_format(p)

    p = commands.add_parser("decide", help="static derivability of a statement")
    p.add_argument("statement")
    p.add_argument("--pack", type=int, default=0)
    _add_format(p)

    p = commands.add_parser("gap", help="indices where neither fbar bit is derivable")
    p.add_argument("--pack", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)
    _add_format(p)

    p = commands.add_parser("audit", help="sweep the decider for violations")
    p.add_argument("which", choices=("soundness", "consistency"))
    p.add_argument("--pack", type=int, required=True)
    p.add_argument("--xmax", type=int, default=None)
    _add_format(p)

    p = commands.add_parser("demo", help="guided walkthroughs")
    dcommands = p.add_subparsers(dest="dcommand", required=True, metavar="TOPIC")
    d = dcommands.add_parser("incompleteness", help="the completeness gap, end to end")
    d.add_argument("--pack", type=int, required=True)
    d.add_argument("--xmax", type=int, required=True)

    return top


# -- subcommand handlers -------------------------------------------------------
# Each handler returns (output, exit code): its report rows, which main renders
# in cfg.format, or finished text; main alone writes stdout.

def _cmd_enumerate(args, cfg):
    alphabet = _resolve_alphabet(args.alphabet or cfg.alphabet)
    if args.count < 0 or args.start < 0:
        raise ValueError("--from and --count must be nonnegative")
    if args.count > cfg.table_cells:  # output rows past the budget are refused before any work
        raise ResourceLimitError("table_cells", cfg.table_cells, args.count)
    words = _all_digits(stream, alphabet, args.start, args.count)  # an error may name the rank
    return [{"k": args.start + i, "s": s} for i, s in enumerate(words)], 0


def _cmd_rank(args, cfg):
    alphabet = _resolve_alphabet(args.alphabet or cfg.alphabet)
    return [{"k": rank(alphabet, args.string)}], 0


def _cmd_unrank(args, cfg):
    alphabet = _resolve_alphabet(args.alphabet or cfg.alphabet)
    if args.k < 0:
        raise ValueError("rank must be nonnegative")
    return [{"s": _all_digits(unrank, alphabet, args.k)}], 0


def _cmd_qlang(args, cfg):
    from . import qlang

    if args.qcommand == "eval":
        if args.source == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.source).read_text(encoding="utf-8")
        program = qlang.parse(text.rstrip("\n"))
        return [{"x": args.x, "output": qlang.evaluate(program, args.x)}], 0
    if args.qcommand == "nth":
        return [{"i": args.i, "program": qlang.nth_program(args.i).source}], 0
    if args.qcommand == "table":
        cells = qlang.table(args.rows, args.cols, table_cells=cfg.table_cells).cells
        if cfg.format == "pretty":
            return "".join(" ".join(map(str, row)) + "\n" for row in cells), 0
        return [{f"x{x}": v for x, v in enumerate(row, start=1)} for row in cells], 0
    if args.qcommand == "diagonal":
        bits = qlang.diagonal(args.n, table_cells=cfg.table_cells)
        return [{"i": i, "bit": b} for i, b in enumerate(bits, start=1)], 0
    bits = qlang.diagonal_flip(qlang.diagonal(args.n, table_cells=cfg.table_cells))
    return [{"x": x, "bit": b} for x, b in enumerate(bits, start=1)], 0


def _cmd_check(args, cfg):
    from .pi_system import Accept

    derivation, target = _self.parse_derivation_file(Path(args.file).read_text(encoding="utf-8"))
    verdict = _self.check_derivation(_self.make_axiom_pack(args.pack), derivation, target)
    if isinstance(verdict, Accept):
        return "Accept\n", 0
    print(f"Reject: line {verdict.line}: {verdict.reason}", file=sys.stderr)
    return "", 1


def _cmd_search(args, cfg):
    from .pi_system import derivation_file_text, negate_fbar, pretty_statement
    from .proof_search import DerivedTarget, Exhausted, SearchBudget, SearchMode

    target = _self.parse_statement(args.statement)
    pack = _self.make_axiom_pack(args.pack)
    budget = SearchBudget(max_candidates=args.budget if args.budget is not None else cfg.search_candidates)
    verdict = _self.search(pack, target, budget, SearchMode(args.mode))
    if isinstance(verdict, Exhausted):
        return [{"verdict": "Exhausted", "candidates": verdict.candidates}], 2
    derived = target if isinstance(verdict, DerivedTarget) else negate_fbar(target)
    row = {
        "verdict": type(verdict).__name__,
        "candidates": verdict.candidates,
        "statement": pretty_statement(derived),
        "lines": len(verdict.derivation.lines),
    }
    if args.emit_derivation:  # written before the row, so a failed write prints no verdict
        Path(args.emit_derivation).write_text(
            derivation_file_text(verdict.derivation, derived), encoding="utf-8"
        )
    return [row], 0


def _cmd_decide(args, cfg):
    from .pi_system import pretty_statement
    from .proof_search import decide

    statement = _self.parse_statement(args.statement)
    decision = decide(_self.make_axiom_pack(args.pack), statement)
    return [{"statement": pretty_statement(statement), "decision": decision}], 0


def _cmd_gap(args, cfg):
    from .proof_search import completeness_gap

    if args.xmax > cfg.table_cells:
        raise ResourceLimitError("table_cells", cfg.table_cells, args.xmax)
    gap = completeness_gap(_self.make_axiom_pack(args.pack), args.xmax)
    return [{"x": x} for x in gap], 0


def _cmd_audit(args, cfg):
    from .proof_search import audit_consistency, audit_soundness

    if args.which == "soundness" and args.xmax is not None:
        print("proofbench: error: --xmax applies only to audit consistency", file=sys.stderr)
        return "", 64
    pack = _self.make_axiom_pack(args.pack)
    if args.which == "soundness":
        report = audit_soundness(pack)
        detail = " ".join(f"{x}:{bit}" for x, bit in report.violations)
    else:
        x_max = args.xmax if args.xmax is not None else max(pack.n, 1)
        report = audit_consistency(pack, x_max)
        detail = " ".join(str(x) for x in report.violations)
    return [{
        "kind": report.kind,
        "queries": report.queries,
        "violations": len(report.violations),
        "detail": detail,
    }], 0


def _cmd_demo(args, cfg):
    from .pi_system import FbarAtom, negate_fbar, pretty_statement
    from .proof_search import NOT_DERIVABLE, SearchBudget, SearchMode, completeness_gap, decide_fbar
    from .qlang import fbar_truth

    if args.xmax > cfg.table_cells:
        raise ResourceLimitError("table_cells", cfg.table_cells, args.xmax)
    pack = _self.make_axiom_pack(args.pack)
    gap = completeness_gap(pack, args.xmax)
    out = []
    out.append(f"axiom pack: fbar bits for x = 1..{pack.n}, scanning x <= {args.xmax}")
    out.append(f"completeness gap: {gap}")
    if not gap:
        out.append("every scanned index has a derivable bit; no gap to exhibit")
        return "\n".join(out) + "\n", 0
    for x in gap:
        true_bit = fbar_truth(x)
        atom = FbarAtom(x, true_bit)
        assert decide_fbar(pack, atom) == NOT_DERIVABLE
        out.append(
            f"x = {x}: {pretty_statement(atom)} is true by direct computation and "
            f"formable, yet {NOT_DERIVABLE}; so is its negation {pretty_statement(negate_fbar(atom))}"
        )
    first = gap[0]
    atom = FbarAtom(first, fbar_truth(first))
    budget = SearchBudget(max_candidates=cfg.search_candidates)
    verdict = _self.search(pack, atom, budget, SearchMode.STRUCTURED)
    out.append(
        f"search transcript: target {pretty_statement(atom)}, structured mode, "
        f"budget {cfg.search_candidates} candidates -> {type(verdict).__name__} "
        f"after {verdict.candidates} candidates"
    )
    out.append("underivability rests on the static decider; the failed search is illustration")
    return "\n".join(out) + "\n", 0


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "rank": _cmd_rank,
    "unrank": _cmd_unrank,
    "qlang": _cmd_qlang,
    "check": _cmd_check,
    "search": _cmd_search,
    "decide": _cmd_decide,
    "gap": _cmd_gap,
    "audit": _cmd_audit,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = GlobalConfig.from_text(Path(args.config).read_text(encoding="utf-8")) if args.config else GlobalConfig()
    except (OSError, ValueError) as exc:
        print(f"proofbench: config error: {exc}", file=sys.stderr)
        return 64
    cfg = cfg._replace(format=getattr(args, "format", None) or cfg.format)  # --format overrides the config
    try:
        output, code = _HANDLERS[args.command](args, cfg)
        if isinstance(output, list):
            output = _all_digits(emit_report, output, cfg.format)
        sys.stdout.write(output)
        return code
    except NestingError:
        print("error: input nested too deeply", file=sys.stderr)
        return 1
    except (ValueError, ResourceLimitError, OSError) as exc:  # ParseError and GrammarError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def entry() -> int:
    """main() as the whole process: ``python -m proofbench.cli`` and the installed
    ``proofbench`` script.  A caller that goes on running calls main."""
    try:
        return main()
    finally:
        # The interpreter's final collections would walk and free every object the command
        # left, which the OS frees with the process anyway: 8-15 ms of a typical command's
        # exit, 48-58 ms after qlang fbar --n 64446 (2-vCPU VM, Python 3.11).  Frozen, they
        # are skipped: 3-5 and 8-10 ms.  atexit handlers, the final flush of stdout and
        # stderr and the exit code are as they were.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
