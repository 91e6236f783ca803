"""A deliberately tiny, total expression language ("Q-lang").

Every well-formed program is a boolean expression over one variable x and
unbounded natural arithmetic; it maps each positive integer to a bit and
always terminates, so the language enumerates a family of total {0,1}-valued
functions.  Programs are ordered length-then-lex over the fixed 19-symbol
alphabet, which makes "the i-th program" exact and reproducible, and makes
the diagonal bit sequence (flip the i-th program's output on input i) a
computable object that provably differs from every row of the program table.

Grammar (fully parenthesized; no whitespace):

    prog := bexp
    bexp := '!' bexp | '(' bexp '&' bexp ')' | '(' bexp '|' bexp ')'
          | '(' aexp cmp aexp ')'
    cmp  := '=' | '>'
    aexp := 'x' | numeral | '(' aexp '+' aexp ')' | '(' aexp '%' aexp ')'

Numerals carry no leading zeros ("0" itself is allowed); `%` is remainder
with the totalizing convention a % 0 = 0.  parse admits numerals of at most
Python's integer-string limit (sys.get_int_max_str_digits(), 4,300 digits
by default) and rejects a longer one at its first digit.

parse reads a program in one left-to-right pass with an explicit stack and
no backtracking, so its cost is linear at any nesting depth; a rejection
raises ParseError at the first position where no reading of the prefix can
continue, listing everything some reading would accept there.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .enumerator import Alphabet, Grammar, grammar_derivation, grammar_unrank
from .errors import ParseError, ResourceLimitError, numeral_value

QLANG_ALPHABET = Alphabet.from_string("x0123456789()+%=>!&|")

QLANG_GRAMMAR = Grammar(
    QLANG_ALPHABET,
    "bexp",
    {
        "bexp": (
            ("!", "bexp"),
            ("(", "bexp", "&", "bexp", ")"),
            ("(", "bexp", "|", "bexp", ")"),
            ("(", "aexp", "cmp", "aexp", ")"),
        ),
        "cmp": (("=",), (">",)),
        "aexp": (
            ("x",),
            ("numeral",),
            ("(", "aexp", "+", "aexp", ")"),
            ("(", "aexp", "%", "aexp", ")"),
        ),
        "numeral": (("0",), ("positive",)),
        "positive": (("nonzero",), ("nonzero", "digits")),
        "digits": (("digit",), ("digit", "digits")),
        "nonzero": tuple((d,) for d in "123456789"),
        "digit": tuple((d,) for d in "0123456789"),
    },
    actions={  # build each bucketed program's syntax tree; c holds the children's values
        ("bexp", ("!", "bexp")): lambda word, c: Not(c[1]),
        ("bexp", ("(", "bexp", "&", "bexp", ")")): lambda word, c: And(c[1], c[3]),
        ("bexp", ("(", "bexp", "|", "bexp", ")")): lambda word, c: Or(c[1], c[3]),
        ("bexp", ("(", "aexp", "cmp", "aexp", ")")): lambda word, c: c[2](c[1], c[3]),
        ("cmp", ("=",)): lambda word, c: Eq,
        ("cmp", (">",)): lambda word, c: Gt,
        ("aexp", ("x",)): lambda word, c: X(),
        ("aexp", ("numeral",)): lambda word, c: Num(int(word)),
        ("aexp", ("(", "aexp", "+", "aexp", ")")): lambda word, c: Add(c[1], c[3]),
        ("aexp", ("(", "aexp", "%", "aexp", ")")): lambda word, c: Mod(c[1], c[3]),
    },
)


# -- abstract syntax -------------------------------------------------------

@dataclass(frozen=True)
class X:
    pass

@dataclass(frozen=True)
class Num:
    value: int

@dataclass(frozen=True)
class Add:
    left: object
    right: object

@dataclass(frozen=True)
class Mod:
    left: object
    right: object

@dataclass(frozen=True)
class Not:
    arg: object

@dataclass(frozen=True)
class And:
    left: object
    right: object

@dataclass(frozen=True)
class Or:
    left: object
    right: object

@dataclass(frozen=True)
class Eq:
    left: object
    right: object

@dataclass(frozen=True)
class Gt:
    left: object
    right: object


# A tuple record: nth_program makes one per call, and a named tuple costs
# about half a frozen dataclass, whose __init__ sets each field through
# object.__setattr__.
QProgram = namedtuple("QProgram", "source ast")


# -- parsing ---------------------------------------------------------------

# The binary operators' nodes: parse builds nodes from this table, pretty
# reads its inverse.
_NODES = {"&": And, "|": Or, "=": Eq, ">": Gt, "+": Add, "%": Mod}
_SYMBOLS = {node: op for op, node in _NODES.items()}

_DIGITS = "0123456789"

# An operand is read in one of three contexts: "b" where a boolean expression
# must stand, "a" where an arithmetic one must, and "e" where either may (the
# left operand of a group opened in "b" or "e").  _STARTS holds what each
# context admits first; _OPERATORS[context][left is boolean] the operators
# that may follow the left operand of a group opened in that context.
_STARTS = {"b": ("'!'", "'('"), "a": ("'('", "'x'", "digit"), "e": ("'!'", "'('", "'x'", "digit")}
_OPERATORS = {"b": ("=>", "&|"), "a": ("+%", ""), "e": ("=>+%", "&|")}


def parse(text: str) -> QProgram:
    """Parse a program; accepts exactly the words of the Q-lang grammar."""
    chars = text + "\0"  # the sentinel is outside every expected set
    pending = []  # a [context, left, operator] list per open group, None per pending '!'
    context, pos = "b", 0
    while True:
        c = chars[pos]
        if c == "(":
            pending.append([context, None, None])
            context = "a" if context == "a" else "e"
            pos += 1
            continue
        if c == "!" and context != "a":
            pending.append(None)
            context = "b"
            pos += 1
            continue
        if context == "b" or (c != "x" and c not in _DIGITS):
            raise ParseError(pos, _STARTS[context])
        start, pos = pos, pos + 1
        if c == "x":
            node = X()
        else:
            while chars[pos] in _DIGITS:
                pos += 1
            if c == "0" and pos - start > 1:
                expected = ("numeral without a leading zero",)
                raise ParseError(start, expected if context == "a" else _STARTS["b"] + expected)
            node = Num(numeral_value(text[start:pos], start))
        boolean = False
        # the operand is complete: apply pending '!' and close every group it ends
        while True:
            while pending and pending[-1] is None:
                pending.pop()
                node = Not(node)
            if not pending:
                if pos != len(text):
                    raise ParseError(pos, ("end of input",))
                return QProgram(text, node)
            group = pending[-1]
            c = chars[pos]
            if group[2] is None:
                allowed = _OPERATORS[group[0]][boolean]
                if c not in allowed:
                    raise ParseError(pos, tuple(sorted(map(repr, allowed))))
                group[1], group[2] = node, c
                context = "b" if c in "&|" else "a"
                pos += 1
                break
            if c != ")":
                raise ParseError(pos, ("')'",))
            pending.pop()
            node = _NODES[group[2]](group[1], node)
            boolean = group[2] not in "+%"
            pos += 1


def pretty(ast) -> str:
    """Canonical (fully parenthesized) source for an expression tree.

    Writes left to right from an explicit stack, so any depth is fine."""
    out, stack = [], [(True, ast)]  # (True, a node to write) or (False, text)
    while stack:
        is_node, node = stack.pop()
        if not is_node:
            out.append(node)
        elif isinstance(node, X):
            out.append("x")
        elif isinstance(node, Num):
            out.append(str(node.value))
        elif isinstance(node, Not):
            out.append("!")
            stack.append((True, node.arg))
        else:
            op = _SYMBOLS.get(type(node))
            if op is None:
                raise TypeError(f"not a Q-lang node: {node!r}")
            out.append("(")
            stack += ((False, ")"), (True, node.right), (False, op), (True, node.left))
    return "".join(out)


# -- evaluation ------------------------------------------------------------

def _aeval(node, x: int) -> int:
    if isinstance(node, X):
        return x
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Add):
        return _aeval(node.left, x) + _aeval(node.right, x)
    # Mod; a % 0 = 0 keeps evaluation total
    divisor = _aeval(node.right, x)
    return _aeval(node.left, x) % divisor if divisor else 0


def _beval(node, x: int) -> bool:
    if isinstance(node, Not):
        return not _beval(node.arg, x)
    if isinstance(node, And):
        return _beval(node.left, x) and _beval(node.right, x)
    if isinstance(node, Or):
        return _beval(node.left, x) or _beval(node.right, x)
    if isinstance(node, Eq):
        return _aeval(node.left, x) == _aeval(node.right, x)
    return _aeval(node.left, x) > _aeval(node.right, x)


def evaluate(program: QProgram, x: int) -> int:
    """Run a program on a positive integer; always returns 0 or 1."""
    if x < 1:
        raise ValueError("inputs are positive integers")
    return 1 if _beval(program.ast, x) else 0


# -- the enumerated program list ------------------------------------------

def nth_program(i: int) -> QProgram:
    """The i-th valid program (1-based) in length-then-lex order.

    A program of length <= 7 (i <= 64,446) comes with the syntax tree that
    QLANG_GRAMMAR's actions built alongside its bucket, so it is not parsed;
    a longer one is found by prefix descent and then parsed.
    """
    if i < 1:
        raise ValueError("program indices start at 1")
    derivation = grammar_derivation(QLANG_GRAMMAR, i - 1)
    return QProgram(*derivation) if derivation else parse(grammar_unrank(QLANG_GRAMMAR, i - 1))


@dataclass(frozen=True)
class BitTable:
    rows: int
    cols: int
    cells: tuple  # cells[i-1][x-1] = output of program i on input x

    def cell(self, i: int, x: int) -> int:
        if not 1 <= i <= self.rows:
            raise ValueError(f"program index {i} outside 1..{self.rows}")
        if not 1 <= x <= self.cols:
            raise ValueError(f"input {x} outside 1..{self.cols}")
        return self.cells[i - 1][x - 1]


def table(n: int, m: int, max_cells: int = 1_000_000) -> BitTable:
    """The n-by-m table of program outputs: row i is program i on inputs 1..m."""
    if n < 1 or m < 1:
        raise ValueError("table dimensions must be >= 1")
    if n * m > max_cells:
        raise ResourceLimitError(
            f"table of {n * m} cells exceeds the budget of {max_cells}",
            budget="max_cells", limit=max_cells, attempted=n * m,
        )
    return BitTable(
        rows=n,
        cols=m,
        cells=tuple(
            tuple(evaluate(nth_program(i), x) for x in range(1, m + 1))
            for i in range(1, n + 1)
        ),
    )


def diagonal(n: int, max_cells: int = 1_000_000) -> list[int]:
    """[program 1 on input 1, ..., program n on input n]."""
    if n < 1:
        raise ValueError("diagonal length must be >= 1")
    if n > max_cells:
        raise ResourceLimitError(
            f"diagonal of {n} cells exceeds the budget of {max_cells}", budget="max_cells", limit=max_cells, attempted=n
        )
    return [evaluate(nth_program(i), i) for i in range(1, n + 1)]


def diagonal_flip(bits) -> list[int]:
    """Element-wise 1 - b; the sequence that disagrees with every table row."""
    out = []
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"not a bit: {b!r}")
        out.append(1 - b)
    return out


def fbar_truth(x: int) -> int:
    """The x-th flipped-diagonal bit: 1 - (program x on input x)."""
    if x < 1:
        raise ValueError("inputs are positive integers")
    return 1 - evaluate(nth_program(x), x)
