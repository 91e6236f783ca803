"""A small formal proof system with a mechanical derivation checker.

Statements come in exactly three shapes:

    fbar(3) is 1        -- a claimed bit of the flipped-diagonal sequence
    int(w+1)            -- "this term denotes an integer"
    (w+1)+1 > w         -- a strict ordering between two terms

Terms are variables (single lowercase letters), numerals, or sums; sums are
written with at most one bare `+` per level and parentheses around nested
sums, so `(w+1)+1` is the sum of `w+1` and `1`.

The inference inventory is fixed and tiny:

    A1    from int(t) conclude t+1 > t
    A2    from int(t1) and int(t2) conclude int(t1+t2)
    A3    conclude int(c) for any numeral c (no premises)
    R1    from a > b and b > c conclude a > c
    FBAR  conclude fbar(i) is b for each entry (i, b) of the axiom pack

This table is the checker's only description of the inventory: there is no
schema engine behind it, and check_derivation tests each of the five rules
directly (the axioms in _axiom_premises, R1 inline).

An axiom pack is a finite set of fbar entries; make_axiom_pack builds one
whose bits are exactly the flipped-diagonal truth values, so by construction
packs inject only true fbar facts.  FBAR is the only producer of fbar
statements and nothing consumes them, which is what later makes their
derivability decidable by a lookup.

Derivations are line-numbered files (see parse_derivation_file).  Checking is
a single pass: every line must be a declared premise, a valid axiom instance
under its explicitly written substitution, or a rule application to strictly
earlier lines, and the last line must equal the target.  Rejections carry the
first failing line and one of five reason codes:

    bad-substitution      the written substitution does not fit the schema
                          (missing/unknown metavariables, a non-numeral for
                          A3, an fbar instance outside the pack, or a stated
                          conclusion that differs from the instantiated one)
    premise-not-declared  a premise line is not `int(v)` for a header variable
    rule-mismatch         unknown schema/rule id, an axiom premise that is not
                          an earlier line, the wrong number of rule
                          references, or R1 premises that do not chain
                          (a > b, b > c) into the stated a > c
    forward-reference     a rule reference that is not a strictly earlier line
    wrong-target          the final line is not the target statement
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, ResourceLimitError
from .qlang import fbar_truth

REASON_BAD_SUBSTITUTION = "bad-substitution"
REASON_PREMISE_NOT_DECLARED = "premise-not-declared"
REASON_RULE_MISMATCH = "rule-mismatch"
REASON_WRONG_TARGET = "wrong-target"
REASON_FORWARD_REFERENCE = "forward-reference"


# -- terms and statements ---------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str

@dataclass(frozen=True)
class Num:
    value: int

@dataclass(frozen=True)
class Sum:
    left: object
    right: object

@dataclass(frozen=True)
class FbarAtom:
    x: int
    bit: int

    def __post_init__(self):
        if self.x < 1:
            raise ValueError("fbar indices are positive integers")
        if self.bit not in (0, 1):
            raise ValueError("fbar bits are 0 or 1")

@dataclass(frozen=True)
class Greater:
    lhs: object
    rhs: object

@dataclass(frozen=True)
class IntTyping:
    term: object


def can_form(statement) -> bool:
    """Whether the statement can be written in the system at all.

    Formation is unrestricted: every fbar atom, ordering, and typing claim is
    a well-formed statement.  Derivability is a separate, much smaller set.
    """
    return isinstance(statement, (FbarAtom, Greater, IntTyping))


def negate_fbar(statement: FbarAtom) -> FbarAtom:
    """The opposite-bit fbar claim; an involution on fbar atoms."""
    if not isinstance(statement, FbarAtom):
        raise ValueError("only fbar statements have a negation in this system")
    return FbarAtom(statement.x, 1 - statement.bit)


def statement_vars(statement) -> tuple[str, ...]:
    """Variable names occurring in the statement, in first-appearance order."""
    seen: list[str] = []

    def walk(t):
        if isinstance(t, Var):
            if t.name not in seen:
                seen.append(t.name)
        elif isinstance(t, Sum):
            walk(t.left)
            walk(t.right)

    if isinstance(statement, Greater):
        walk(statement.lhs)
        walk(statement.rhs)
    elif isinstance(statement, IntTyping):
        walk(statement.term)
    return tuple(seen)


# -- justifications and derivations ------------------------------------------

@dataclass(frozen=True)
class Premise:
    pass

@dataclass(frozen=True)
class AxiomInstance:
    schema: str
    subst: tuple  # ((metavar name, Term), ...) in written order

@dataclass(frozen=True)
class RuleApplication:
    rule: str
    refs: tuple  # referenced line indices

@dataclass(frozen=True)
class Line:
    index: int
    statement: object
    justification: object

@dataclass(frozen=True)
class Derivation:
    header: tuple  # declared integer variable names
    lines: tuple


@dataclass(frozen=True)
class AxiomPack:
    """A finite stock of fbar axioms: entries is a frozenset of (x, bit)."""
    n: int
    entries: frozenset


def make_axiom_pack(n: int, max_cells: int = 1_000_000) -> AxiomPack:
    """The sound pack covering 1..n: each entry carries the true diagonal bit."""
    if n < 0:
        raise ValueError("pack size must be >= 0")
    if n > max_cells:
        raise ResourceLimitError(f"pack of {n} entries exceeds the budget of {max_cells}")
    return AxiomPack(n=n, entries=frozenset((i, fbar_truth(i)) for i in range(1, n + 1)))


# -- checking ----------------------------------------------------------------

# The metavariables each axiom schema's substitution must bind, exactly.
_AXIOM_METAVARS = {"A1": {"t"}, "A2": {"t1", "t2"}, "A3": {"c"}, "FBAR": {"i"}}


def _axiom_premises(pack: AxiomPack, instance: AxiomInstance, statement):
    """The premises an axiom line needs, or None when the written
    substitution does not produce the stated line.  The schema must be a
    key of _AXIOM_METAVARS."""
    binding = dict(instance.subst)
    if binding.keys() != _AXIOM_METAVARS[instance.schema]:
        return None
    if instance.schema == "A1":
        t = binding["t"]
        return (IntTyping(t),) if Greater(Sum(t, Num(1)), t) == statement else None
    if instance.schema == "A2":
        t1, t2 = binding["t1"], binding["t2"]
        return (IntTyping(t1), IntTyping(t2)) if IntTyping(Sum(t1, t2)) == statement else None
    if instance.schema == "A3":
        c = binding["c"]
        return () if isinstance(c, Num) and IntTyping(c) == statement else None
    i = binding["i"]  # FBAR
    if (
        isinstance(i, Num)
        and isinstance(statement, FbarAtom)
        and statement.x == i.value
        and (statement.x, statement.bit) in pack.entries
    ):
        return ()
    return None


@dataclass(frozen=True)
class Accept:
    pass

@dataclass(frozen=True)
class Reject:
    line: int
    reason: str


def check_derivation(pack: AxiomPack, derivation: Derivation, target) -> Accept | Reject:
    """Single mechanical pass over the lines; no search of any kind."""
    derived: set = set()
    by_index: dict = {}
    last = None
    for line in derivation.lines:
        just = line.justification
        if isinstance(just, Premise):
            stmt = line.statement
            if not (
                isinstance(stmt, IntTyping)
                and isinstance(stmt.term, Var)
                and stmt.term.name in derivation.header
            ):
                return Reject(line.index, REASON_PREMISE_NOT_DECLARED)
        elif isinstance(just, AxiomInstance):
            if just.schema not in _AXIOM_METAVARS:
                return Reject(line.index, REASON_RULE_MISMATCH)
            premises = _axiom_premises(pack, just, line.statement)
            if premises is None:
                return Reject(line.index, REASON_BAD_SUBSTITUTION)
            if any(premise not in derived for premise in premises):
                return Reject(line.index, REASON_RULE_MISMATCH)
        elif isinstance(just, RuleApplication):
            if just.rule != "R1" or len(just.refs) != 2:
                return Reject(line.index, REASON_RULE_MISMATCH)
            if any(not 1 <= ref < line.index or ref not in by_index for ref in just.refs):
                return Reject(line.index, REASON_FORWARD_REFERENCE)
            first, second = by_index[just.refs[0]], by_index[just.refs[1]]
            if not (
                isinstance(first, Greater)
                and isinstance(second, Greater)
                and first.rhs == second.lhs
                and Greater(first.lhs, second.rhs) == line.statement
            ):
                return Reject(line.index, REASON_RULE_MISMATCH)
        else:
            return Reject(line.index, REASON_RULE_MISMATCH)
        derived.add(line.statement)
        by_index[line.index] = line.statement
        last = line
    if last is None or last.statement != target:
        return Reject(last.index if last else 0, REASON_WRONG_TARGET)
    return Accept()


# -- concrete syntax ----------------------------------------------------------

class _Cursor:
    def __init__(self, text: str, offset: int = 0):
        self.text = text
        self.pos = 0
        self.offset = offset  # for error positions relative to a larger file

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def error(self, *expected: str):
        raise ParseError(self.offset + self.pos, expected)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.error(repr(ch))
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def numeral(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("numeral")
        digits = self.text[start:self.pos]
        if digits[0] == "0" and len(digits) > 1:
            self.pos = start
            self.error("numeral without a leading zero")
        return int(digits)


def _parse_operand(cur: _Cursor):
    cur.skip_ws()
    ch = cur.peek()
    if ch == "(":
        cur.eat("(")
        inner = _parse_term(cur)
        cur.eat(")")
        return inner
    if ch.isdigit():
        return Num(cur.numeral())
    if ch.isalpha():
        name = cur.word()
        if len(name) != 1:
            cur.error("single-letter variable")
        return Var(name)
    cur.error("variable", "numeral", "'('")


def _parse_term(cur: _Cursor):
    left = _parse_operand(cur)
    cur.skip_ws()
    if cur.peek() == "+":
        cur.eat("+")
        right = _parse_operand(cur)
        return Sum(left, right)
    return left


def _parse_statement_at(cur: _Cursor):
    cur.skip_ws()
    save = cur.pos
    if cur.peek().isalpha():
        word = cur.word()
        if word == "fbar":
            cur.eat("(")
            cur.skip_ws()
            if cur.peek() == "0":
                cur.error("positive fbar index")
            x = cur.numeral()
            cur.eat(")")
            if cur.word() != "is":
                cur.error("'is'")
            cur.skip_ws()
            bit_pos = cur.pos
            bit = cur.numeral()
            if bit not in (0, 1):
                cur.pos = bit_pos
                cur.error("bit 0 or 1")
            return FbarAtom(x, bit)
        if word == "int":
            cur.eat("(")
            term = _parse_term(cur)
            cur.eat(")")
            return IntTyping(term)
        cur.pos = save
    lhs = _parse_term(cur)
    cur.eat(">")
    rhs = _parse_term(cur)
    return Greater(lhs, rhs)


def parse_statement(text: str) -> object:
    """Parse one statement; round-trips with pretty_statement on canonical text."""
    cur = _Cursor(text)
    statement = _parse_statement_at(cur)
    cur.skip_ws()
    if cur.pos != len(text):
        cur.error("end of statement")
    return statement


def pretty_term(term, nested: bool = False) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Num):
        return str(term.value)
    if isinstance(term, Sum):
        body = f"{pretty_term(term.left, True)}+{pretty_term(term.right, True)}"
        return f"({body})" if nested else body
    raise TypeError(f"not a term: {term!r}")


def pretty_statement(statement) -> str:
    if isinstance(statement, FbarAtom):
        return f"fbar({statement.x}) is {statement.bit}"
    if isinstance(statement, IntTyping):
        return f"int({pretty_term(statement.term)})"
    if isinstance(statement, Greater):
        return f"{pretty_term(statement.lhs)} > {pretty_term(statement.rhs)}"
    raise TypeError(f"not a statement: {statement!r}")


def pretty_justification(just) -> str:
    if isinstance(just, Premise):
        return "premise"
    if isinstance(just, AxiomInstance):
        if just.schema == "FBAR":
            (_, index), = just.subst
            return f"axiom FBAR({index.value})"
        pairs = ", ".join(f"{name} := {pretty_term(value)}" for name, value in just.subst)
        return f"axiom {just.schema} {{{pairs}}}"
    if isinstance(just, RuleApplication):
        return f"rule {just.rule} {','.join(str(r) for r in just.refs)}"
    raise TypeError(f"not a justification: {just!r}")


def _parse_justification(text: str, offset: int):
    cur = _Cursor(text, offset)
    word = cur.word()
    if word == "premise":
        cur.skip_ws()
        if cur.pos != len(text):
            cur.error("end of justification")
        return Premise()
    if word == "axiom":
        cur.skip_ws()
        name_start = cur.pos
        while cur.pos < len(text) and (text[cur.pos].isalnum()):
            cur.pos += 1
        name = text[name_start:cur.pos]
        if name == "FBAR":
            cur.eat("(")
            index = cur.numeral()
            cur.eat(")")
            cur.skip_ws()
            if cur.pos != len(text):
                cur.error("end of justification")
            return AxiomInstance("FBAR", (("i", Num(index)),))
        if not name:
            cur.error("axiom name")
        cur.eat("{")
        pairs = []
        while True:
            cur.skip_ws()
            mv_start = cur.pos
            while cur.pos < len(text) and text[cur.pos].isalnum():
                cur.pos += 1
            mv = text[mv_start:cur.pos]
            if not mv:
                cur.error("metavariable name")
            cur.skip_ws()
            cur.eat(":")
            cur.eat("=")
            value = _parse_term(cur)
            pairs.append((mv, value))
            cur.skip_ws()
            if cur.peek() == ",":
                cur.eat(",")
                continue
            break
        cur.eat("}")
        cur.skip_ws()
        if cur.pos != len(text):
            cur.error("end of justification")
        return AxiomInstance(name, tuple(pairs))
    if word == "rule":
        cur.skip_ws()
        name_start = cur.pos
        while cur.pos < len(text) and text[cur.pos].isalnum():
            cur.pos += 1
        name = text[name_start:cur.pos]
        if not name:
            cur.error("rule name")
        refs = [cur.numeral()]
        cur.skip_ws()
        while cur.peek() == ",":
            cur.eat(",")
            refs.append(cur.numeral())
            cur.skip_ws()
        if cur.pos != len(text):
            cur.error("end of justification")
        return RuleApplication(name, tuple(refs))
    raise ParseError(offset, ("'premise'", "'axiom'", "'rule'"))


def parse_derivation_file(text: str) -> tuple[Derivation, object]:
    """Parse the line-oriented derivation format.

        vars: w
        target: (w+1)+1 > w
        1. int(w) [premise]
        ...

    Returns (derivation, target statement).  Line indices must be 1..n in
    order; structural violations are parse errors, not checker rejections.
    """
    pending = []
    offset = 0
    for raw in text.split("\n"):
        if raw.strip():
            pending.append((raw.rstrip(), offset))
        offset += len(raw) + 1
    if not pending or not pending[0][0].startswith("vars:"):
        raise ParseError(0, ("'vars:'",))
    header_text, header_off = pending[0]
    names = []
    body = header_text[len("vars:"):]
    for piece in body.split(","):
        name = piece.strip()
        if not name:
            if body.strip():
                raise ParseError(header_off + len("vars:"), ("variable name",))
            continue
        if not (len(name) == 1 and name.isalpha()):
            raise ParseError(header_off + header_text.index(name), ("single-letter variable",))
        if name in names:
            raise ParseError(header_off + header_text.rindex(name), ("distinct variable names",))
        names.append(name)
    if len(pending) < 2 or not pending[1][0].startswith("target:"):
        raise ParseError(pending[1][1] if len(pending) > 1 else len(text), ("'target:'",))
    target_text, target_off = pending[1]
    target_cur = _Cursor(target_text[len("target:"):], target_off + len("target:"))
    target = _parse_statement_at(target_cur)
    target_cur.skip_ws()
    if target_cur.pos != len(target_cur.text):
        target_cur.error("end of statement")

    parsed_lines = []
    for expected_index, (raw, off) in enumerate(pending[2:], start=1):
        head, dot, rest = raw.partition(".")
        if not dot or not head.strip().isdigit():
            raise ParseError(off, ("line index",))
        index = int(head.strip())
        if index != expected_index:
            raise ParseError(off, (f"line index {expected_index}",))
        open_bracket = rest.rfind("[")
        if open_bracket < 0 or not rest.rstrip().endswith("]"):
            raise ParseError(off + len(raw), ("'[justification]'",))
        stmt_text = rest[:open_bracket]
        stmt_cur = _Cursor(stmt_text, off + len(head) + 1)
        statement = _parse_statement_at(stmt_cur)
        stmt_cur.skip_ws()
        if stmt_cur.pos != len(stmt_text):
            stmt_cur.error("end of statement")
        just_text = rest.rstrip()[open_bracket + 1:-1]
        justification = _parse_justification(just_text, off + len(head) + 1 + open_bracket + 1)
        parsed_lines.append(Line(index, statement, justification))
    return Derivation(tuple(names), tuple(parsed_lines)), target


def derivation_file_text(derivation: Derivation, target) -> str:
    """Render a derivation back to the file format (inverse of parsing)."""
    out = ["vars: " + ", ".join(derivation.header) if derivation.header else "vars:"]
    out.append(f"target: {pretty_statement(target)}")
    for line in derivation.lines:
        out.append(f"{line.index}. {pretty_statement(line.statement)} [{pretty_justification(line.justification)}]")
    return "\n".join(out) + "\n"
