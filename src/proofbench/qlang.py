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

fbar_truth, and diagonal through it, read a listed program's bucketed tree
(length <= 7) in one Python call when its root is a comparison, or walk it
with _beval; past those lengths they read a flat word, one comparison of two
leaves under zero or more '!', off the word and parse any other (all words of
length 8 are flat, 99.89% of 9 and 99.76% of 10).  A warm lookup of length
8-10 spends about 3.5 us in the descent, 0.8 us reading.
"""

from __future__ import annotations

from .enumerator import Alphabet, Grammar, grammar_derivation, grammar_unrank
from .errors import ParseError, ResourceLimitError, numeral_value
from .records import CLOSE, LEAF, record, walk

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
    # build each bucketed program's syntax tree; c holds the children's values.
    # A node validates nothing, so tuple.__new__ builds it without the record
    # class's Python-level __new__ (see records).
    actions={
        ("bexp", ("!", "bexp")): lambda word, c: tuple.__new__(Not, (c[1],)),
        ("bexp", ("(", "bexp", "&", "bexp", ")")): lambda word, c: tuple.__new__(And, (c[1], c[3])),
        ("bexp", ("(", "bexp", "|", "bexp", ")")): lambda word, c: tuple.__new__(Or, (c[1], c[3])),
        ("bexp", ("(", "aexp", "cmp", "aexp", ")")): lambda word, c: tuple.__new__(c[2], (c[1], c[3])),
        ("cmp", ("=",)): lambda word, c: Eq,
        ("cmp", (">",)): lambda word, c: Gt,
        ("aexp", ("x",)): lambda word, c: _X,
        ("aexp", ("numeral",)): lambda word, c: tuple.__new__(Num, (int(word),)),
        ("aexp", ("(", "aexp", "+", "aexp", ")")): lambda word, c: tuple.__new__(Add, (c[1], c[3])),
        ("aexp", ("(", "aexp", "%", "aexp", ")")): lambda word, c: tuple.__new__(Mod, (c[1], c[3])),
    },
)


# -- abstract syntax -------------------------------------------------------

# parse reads any depth, so the nodes are deep records, hashed by their walk (see records)
X = record("X", "", deep=True)
Num = record("Num", "value", deep=True)
Add = record("Add", "left right", deep=True)
Mod = record("Mod", "left right", deep=True)
Not = record("Not", "arg", deep=True)
And = record("And", "left right", deep=True)
Or = record("Or", "left right", deep=True)
Eq = record("Eq", "left right", deep=True)
Gt = record("Gt", "left right", deep=True)

# The one x leaf that parse and the bucket actions share: records are
# immutable, and a field-less record's __new__ is a Python call.
_X = X()

# nth_program makes one per call; fbar_truth, diagonal and table make none.
QProgram = record("QProgram", "source ast")


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
    # a node validates nothing, so it is built with tuple.__new__, as
    # QLANG_GRAMMAR's actions build it, skipping the record's Python-level __new__
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
            node = _X
        else:
            while chars[pos] in _DIGITS:
                pos += 1
            if c == "0" and pos - start > 1:
                expected = ("numeral without a leading zero",)
                raise ParseError(start, expected if context == "a" else _STARTS["b"] + expected)
            node = tuple.__new__(Num, (numeral_value(text[start:pos], start),))
        boolean = False
        # the operand is complete: apply pending '!' and close every group it ends
        while True:
            while pending and pending[-1] is None:
                pending.pop()
                node = tuple.__new__(Not, (node,))
            if not pending:
                if pos != len(text):
                    raise ParseError(pos, ("end of input",))
                return tuple.__new__(QProgram, (text, node))
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
            node = tuple.__new__(_NODES[group[2]], (group[1], node))
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

# Dispatch on the exact node type and unpack the fields: a named tuple's
# field properties are slow to read, and this walk is the diagonal's
# inner loop.

def _aeval(node, x: int) -> int:
    kind = type(node)
    if kind is X:
        return x
    if kind is Num:
        return node[0]
    left, right = node
    if kind is Add:
        return _aeval(left, x) + _aeval(right, x)
    # Mod; a % 0 = 0 keeps evaluation total
    divisor = _aeval(right, x)
    return _aeval(left, x) % divisor if divisor else 0


def _beval(node, x: int) -> bool:
    kind = type(node)
    if kind is Eq or kind is Gt:  # first: every listed tree is one under zero or more '!'
        # a comparison reads a leaf in place, a numeral (96.5% of listed leaves)
        # or the shared x leaf, and calls _aeval for a sum, a remainder or another X()
        left, right = node
        left = left[0] if type(left) is Num else x if left is _X else _aeval(left, x)
        right = right[0] if type(right) is Num else x if right is _X else _aeval(right, x)
        return left == right if kind is Eq else left > right
    if kind is Not:
        return not _beval(node[0], x)
    left, right = node
    if kind is And:
        return _beval(left, x) and _beval(right, x)
    return _beval(left, x) or _beval(right, x)


# Q-lang is total and pure, so evaluating both operands of & and | gives the
# bit that short-circuiting gives.
_APPLY = {
    Add: lambda a, b: a + b,
    Mod: lambda a, b: a % b if b else 0,
    And: lambda a, b: a and b,
    Or: lambda a, b: a or b,
    Eq: lambda a, b: a == b,
    Gt: lambda a, b: a > b,
}


def _stack_eval(node, x: int):
    """_beval/_aeval as one loop over the tree's walk, for a tree too deep to recurse on."""
    values = []  # the values of the operands read so far, the rightmost last
    for event, item in walk(node):
        if event is LEAF:  # a numeral's value
            values.append(item)
        elif event is CLOSE:
            kind = type(item)
            if kind is X:
                values.append(x)
            elif kind is Not:
                values[-1] = not values[-1]
            elif kind is not Num:
                right = values.pop()
                values[-1] = _APPLY[kind](values[-1], right)
    return values[0]


def evaluate(program: QProgram, x: int) -> int:
    """Run a program on a positive integer; always returns 0 or 1, at any
    nesting depth.  Internally any (source, tree) pair serves as the program."""
    if x < 1:
        raise ValueError("inputs are positive integers")
    try:
        return 1 if _beval(program[1], x) else 0
    except RecursionError:
        return 1 if _stack_eval(program[1], x) else 0


# -- the enumerated program list ------------------------------------------

def _program(i: int):
    """Program i (every caller refuses i < 1) as a (source, tree) pair: one
    index into QLANG_GRAMMAR.ranked once i is listed, its bucket entry for a
    length <= 7 (i <= 64,446), else the parse of the word that prefix descent
    finds.  The grammar is read at each call, not bound once."""
    ranked = QLANG_GRAMMAR.ranked
    if i <= len(ranked):
        return ranked[i - 1]
    return grammar_derivation(QLANG_GRAMMAR, i - 1) or parse(grammar_unrank(QLANG_GRAMMAR, i - 1))


def _flat_output(word: str, x: int):
    """A program word's output on input x if it is !..!(a=b) or !..!(a>b), a and b each x
    or a numeral of at most 640 digits (int() reads that many under any limit), else None."""
    body = word.lstrip("!")
    inner = body[1:-1]  # holds a '(' if an operand is not a leaf
    op = "=" if "=" in inner else ">"
    left, _, right = inner.partition(op)
    if "(" in inner or len(left) > 640 or len(right) > 640:
        return None
    a = x if left == "x" else int(left)
    b = x if right == "x" else int(right)
    return (a == b if op == "=" else a > b) ^ (len(word) - len(body)) % 2


def nth_program(i: int) -> QProgram:
    """The i-th valid program (1-based) in length-then-lex order.

    A program of length <= 7 comes with the syntax tree that QLANG_GRAMMAR's
    actions built alongside its bucket, so it is not parsed.
    """
    if i < 1:
        raise ValueError("program indices start at 1")
    program = _program(i)
    return program if type(program) is QProgram else QProgram(*program)


class BitTable(record("BitTable", "rows cols cells")):
    """cells[i-1][x-1] = output of program i on input x."""

    __slots__ = ()

    def cell(self, i: int, x: int) -> int:
        if not 1 <= i <= self.rows:
            raise ValueError(f"program index {i} outside 1..{self.rows}")
        if not 1 <= x <= self.cols:
            raise ValueError(f"input {x} outside 1..{self.cols}")
        return self.cells[i - 1][x - 1]


def table(n: int, m: int, table_cells: int = 1_000_000) -> BitTable:
    """The n-by-m table of program outputs, at most table_cells cells: row i is program i on inputs 1..m."""
    if n < 1 or m < 1:
        raise ValueError("table dimensions must be >= 1")
    if n * m > table_cells:
        raise ResourceLimitError("table_cells", table_cells, n * m)
    return BitTable(
        rows=n,
        cols=m,
        cells=tuple(
            tuple(evaluate(program, x) for x in range(1, m + 1))
            for program in map(_program, range(1, n + 1))
        ),
    )


def diagonal(n: int, table_cells: int = 1_000_000) -> list[int]:
    """[1 - fbar_truth(i) for i = 1..n], program i's output on input i, at most table_cells of them."""
    if n < 1:
        raise ValueError("diagonal length must be >= 1")
    if n > table_cells:
        raise ResourceLimitError("table_cells", table_cells, n)
    return [1 - fbar_truth(i) for i in range(1, n + 1)]


def diagonal_flip(bits) -> list[int]:
    """Element-wise 1 - b; the sequence that disagrees with every table row."""
    out = []
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"not a bit: {b!r}")
        out.append(1 - b)
    return out


def fbar_truth(x: int) -> int:
    """The x-th flipped-diagonal bit, 1 - (program x on input x); builds no QProgram, and
    reads a listed tree in this frame when its root is a comparison (60,002 of 64,446 are)."""
    if x < 1:
        raise ValueError("inputs are positive integers")
    ranked = QLANG_GRAMMAR.ranked  # grammar_derivation extends this list in place
    if x <= len(ranked) or grammar_derivation(QLANG_GRAMMAR, x - 1):
        node = ranked[x - 1][1]
        kind = type(node)
        if kind is Eq or kind is Gt:  # _beval's comparison, read in place
            left, right = node
            left = left[0] if type(left) is Num else x if left is _X else _aeval(left, x)
            right = right[0] if type(right) is Num else x if right is _X else _aeval(right, x)
            return 0 if (left == right if kind is Eq else left > right) else 1
        # a listed word has at most 7 symbols, so _beval never nears the recursion limit
        return 0 if _beval(node, x) else 1
    word = grammar_unrank(QLANG_GRAMMAR, x - 1)
    bit = _flat_output(word, x)
    return 1 - (evaluate(parse(word), x) if bit is None else bit)
