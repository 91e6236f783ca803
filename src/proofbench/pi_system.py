"""A small formal proof system with a mechanical derivation checker.

Statements come in exactly three shapes:

    fbar(3) is 1        -- a claimed bit of the flipped-diagonal sequence
    int(w+1)            -- "this term denotes an integer"
    (w+1)+1 > w         -- a strict ordering between two terms

Terms are variables (single lowercase letters), numerals, or sums; sums are
written with at most one bare `+` per level and parentheses around nested
sums, so `(w+1)+1` is the sum of `w+1` and `1`.  A numeral (and a line
index) may have at most Python's integer-string limit of digits
(sys.get_int_max_str_digits(), 4,300 by default); a longer one is a
ParseError at its first digit.

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

from .errors import NestingError, ParseError, ResourceLimitError, numeral_value
from .qlang import fbar_truth

REASON_BAD_SUBSTITUTION = "bad-substitution"
REASON_PREMISE_NOT_DECLARED = "premise-not-declared"
REASON_RULE_MISMATCH = "rule-mismatch"
REASON_WRONG_TARGET = "wrong-target"
REASON_FORWARD_REFERENCE = "forward-reference"

MAX_NESTING = 500  # parentheses a statement's term may open at once


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
    seen: dict = {}  # names in insertion order; the values are unused
    stack = [statement.rhs, statement.lhs] if isinstance(statement, Greater) else [getattr(statement, "term", None)]
    while stack:  # an explicit stack: term depth is not bounded by recursion
        t = stack.pop()
        if isinstance(t, Sum):
            stack += (t.right, t.left)
        elif isinstance(t, Var):
            seen.setdefault(t.name)
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
        raise ResourceLimitError(
            f"pack of {n} entries exceeds the budget of {max_cells}", budget="max_cells", limit=max_cells, attempted=n
        )
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
#
# One scanner reads statements, terms and justifications.  A scan works on a
# string s and an index i into it; the text it reads ends at some n, and s[n]
# must exist and be a character that no rule consumes: "[" or "]" inside a
# file line, or an appended "\n".  Reaching s[n] then reads as the end of the
# text, so the scans need no bounds checks.  Every error is raised at
# base + i, where base is the offset of s in the caller's text.

_DIGITS = "0123456789"


def _scan_numeral(s: str, i: int, base: int):
    """A numeral after optional blanks: (value, index after it)."""
    while s[i] in " \t":
        i += 1
    j = i
    while s[j] in _DIGITS:
        j += 1
    if j == i:
        raise ParseError(base + i, ("numeral",))
    if s[i] == "0" and j > i + 1:
        raise ParseError(base + i, ("numeral without a leading zero",))
    return numeral_value(s[i:j], base + i), j


def _scan_term(s: str, i: int, base: int, terms: dict):
    """term := operand ['+' operand]; operand := '(' term ')' | numeral | variable.
    One loop over an explicit stack of open terms; more than MAX_NESTING open
    '(' is a NestingError (the checker and printers recurse once per level).
    Returns (term, index after it).

    terms builds each term once per parse: it maps a leaf's text to the leaf
    and the ids of a sum's two operands to the sum.  Every term it holds stays
    alive as long as terms does, so an id in a key cannot be reused."""
    lefts = [None]  # per open term: its left operand once '+' is read, else None
    while True:
        while s[i] in " \t":
            i += 1
        c = s[i]
        if c == "(":
            if len(lefts) > MAX_NESTING:
                raise NestingError(base + i, (f"at most {MAX_NESTING} nested '('",))
            i += 1
            lefts.append(None)
            continue
        if c in _DIGITS:
            j = i + 1
            while s[j] in _DIGITS:
                j += 1
            if c == "0" and j > i + 1:
                raise ParseError(base + i, ("numeral without a leading zero",))
            c = s[i:j]
            value = terms.get(c)
            if value is None:
                value = terms[c] = Num(numeral_value(c, base + i))
            i = j
        elif c.isalpha():
            i += 1
            if s[i].isalpha():
                while s[i].isalpha():
                    i += 1
                raise ParseError(base + i, ("single-letter variable",))
            value = terms.get(c)
            if value is None:
                value = terms[c] = Var(c)
        else:
            raise ParseError(base + i, ("variable", "numeral", "'('"))
        while True:  # close every term this operand completes
            left = lefts.pop()
            while s[i] in " \t":
                i += 1
            if left is None and s[i] == "+":
                i += 1
                lefts.append(value)
                break
            if left is not None:
                key = (id(left), id(value))
                total = terms.get(key)
                if total is None:
                    total = terms[key] = Sum(left, value)
                value = total
            if not lefts:
                return value, i
            if s[i] != ")":
                raise ParseError(base + i, ("')'",))
            i += 1


def _expect(s: str, i: int, base: int, ch: str) -> int:
    """The index after ch, which must follow optional blanks."""
    while s[i] in " \t":
        i += 1
    if s[i] != ch:
        raise ParseError(base + i, (repr(ch),))
    return i + 1


def _scan_run(s: str, i: int, test=str.isalpha):
    """The characters passing test after optional blanks: (run, index after it)."""
    while s[i] in " \t":
        i += 1
    j = i
    while test(s[j]):
        j += 1
    return s[i:j], j


def _scan_statement(s: str, i: int, n: int, base: int, terms: dict):
    """The statement that is all of s[i:n], up to blanks."""
    while s[i] in " \t":
        i += 1
    if s.startswith("fbar", i) and not s[i + 4].isalpha():
        j = _expect(s, i + 4, base, "(")
        while s[j] in " \t":
            j += 1
        if s[j] == "0":
            raise ParseError(base + j, ("positive fbar index",))
        x, j = _scan_numeral(s, j, base)
        j = _expect(s, j, base, ")")
        word, j = _scan_run(s, j)
        if word != "is":
            raise ParseError(base + j, ("'is'",))
        while s[j] in " \t":
            j += 1
        bit, k = _scan_numeral(s, j, base)
        if bit not in (0, 1):
            raise ParseError(base + j, ("bit 0 or 1",))
        statement = FbarAtom(x, bit)
        j = k
    elif s.startswith("int", i) and not s[i + 3].isalpha():
        term, j = _scan_term(s, _expect(s, i + 3, base, "("), base, terms)
        statement = IntTyping(term)
        j = _expect(s, j, base, ")")
    else:
        lhs, j = _scan_term(s, i, base, terms)
        rhs, j = _scan_term(s, _expect(s, j, base, ">"), base, terms)
        statement = Greater(lhs, rhs)
    while s[j] in " \t":
        j += 1
    if j != n:
        raise ParseError(base + j, ("end of statement",))
    return statement


def _scan_justification(s: str, i: int, n: int, base: int, terms: dict):
    """The justification that is all of s[i:n], up to blanks."""
    word, j = _scan_run(s, i)
    if word == "premise":
        just = Premise()
    elif word == "axiom":
        name, j = _scan_run(s, j, str.isalnum)
        if name == "FBAR":
            index, j = _scan_numeral(s, _expect(s, j, base, "("), base)
            just = AxiomInstance("FBAR", (("i", Num(index)),))
            j = _expect(s, j, base, ")")
        else:
            if not name:
                raise ParseError(base + j, ("axiom name",))
            j = _expect(s, j, base, "{")
            pairs = []
            while True:
                mv, j = _scan_run(s, j, str.isalnum)
                if not mv:
                    raise ParseError(base + j, ("metavariable name",))
                value, j = _scan_term(s, _expect(s, _expect(s, j, base, ":"), base, "="), base, terms)
                pairs.append((mv, value))
                while s[j] in " \t":
                    j += 1
                if s[j] != ",":
                    break
                j += 1
            just = AxiomInstance(name, tuple(pairs))
            j = _expect(s, j, base, "}")
    elif word == "rule":
        name, j = _scan_run(s, j, str.isalnum)
        if not name:
            raise ParseError(base + j, ("rule name",))
        refs = []
        while True:
            ref, j = _scan_numeral(s, j, base)
            refs.append(ref)
            while s[j] in " \t":
                j += 1
            if s[j] != ",":
                break
            j += 1
        just = RuleApplication(name, tuple(refs))
    else:
        raise ParseError(base + i, ("'premise'", "'axiom'", "'rule'"))
    while s[j] in " \t":
        j += 1
    if j != n:
        raise ParseError(base + j, ("end of justification",))
    return just


def parse_statement(text: str) -> object:
    """Parse one statement; round-trips with pretty_statement on canonical text."""
    return _scan_statement(text + "\n", 0, len(text), 0, {})


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


def parse_derivation_file(text: str) -> tuple[Derivation, object]:
    """Parse the line-oriented derivation format.

        vars: w
        target: (w+1)+1 > w
        1. int(w) [premise]
        ...

    Returns (derivation, target statement).  Line indices must be 1..n in
    order; structural violations are parse errors, not checker rejections.

    The cost is linear in the length of the text.  Each call keeps a memo
    from statement text and from justification text to the parsed object,
    and builds each distinct term once (see _scan_term), so a text repeated
    on many lines is scanned once.  The memo holds successful parses only,
    and a parse does not depend on where its text stands, so a line that
    reuses an entry gets what scanning it would have given.
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
    terms: dict = {}  # the per-call memo: terms (see _scan_term), and text -> parsed object
    statements: dict = {}
    justifications: dict = {}
    target = _scan_statement(target_text + "\n", len("target:"), len(target_text), target_off, terms)
    parsed_lines = []
    for expected_index, (raw, off) in enumerate(pending[2:], start=1):
        head, dot, rest = raw.partition(".")
        index_text = head.strip()
        if not dot or not (index_text.isascii() and index_text.isdigit()):
            raise ParseError(off, ("line index",))
        index = numeral_value(index_text, off + len(head) - len(head.lstrip()))
        if index != expected_index:
            raise ParseError(off, (f"line index {expected_index}",))
        open_bracket = rest.rfind("[")
        if open_bracket < 0 or not rest.endswith("]"):
            raise ParseError(off + len(raw), ("'[justification]'",))
        start = len(head) + 1
        bracket = start + open_bracket  # raw[bracket] == "[" and raw[-1] == "]" end the two scans
        stmt_text = rest[:open_bracket]
        statement = statements.get(stmt_text)
        if statement is None:
            statement = statements[stmt_text] = _scan_statement(raw, start, bracket, off, terms)
        just_text = raw[bracket + 1:-1]
        justification = justifications.get(just_text)
        if justification is None:
            justification = _scan_justification(raw, bracket + 1, len(raw) - 1, off, terms)
            justifications[just_text] = justification
        parsed_lines.append(Line(index, statement, justification))
    return Derivation(tuple(names), tuple(parsed_lines)), target


def derivation_file_text(derivation: Derivation, target) -> str:
    """Render a derivation back to the file format (inverse of parsing)."""
    out = ["vars: " + ", ".join(derivation.header) if derivation.header else "vars:"]
    out.append(f"target: {pretty_statement(target)}")
    for line in derivation.lines:
        out.append(f"{line.index}. {pretty_statement(line.statement)} [{pretty_justification(line.justification)}]")
    return "\n".join(out) + "\n"
