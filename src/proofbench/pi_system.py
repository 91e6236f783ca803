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
whose bits are exactly the flipped-diagonal truth values, each computed when
its entry is read (FbarRule), so by construction packs inject only true fbar
facts.  FBAR is the only producer of fbar statements and nothing consumes
them, which is what later makes their derivability decidable by a lookup.

Derivations are line-numbered files (see parse_derivation_file).  Checking is
a single pass: every line must be a declared premise, a valid axiom instance
under its explicitly written substitution, or a rule application to strictly
earlier lines, and the last line must equal the target.  A premise or axiom
line that repeats an accepted one's objects is accepted again from a memo, as
what accepted it only grows; only a tuple of lines, which holds them, keeps
it.  Rejections carry the first failing line and one of five reason codes:

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

import re
from collections.abc import Set

from .enumerator import _kept
from .errors import NestingError, ParseError, ResourceLimitError, numeral_value
from .qlang import fbar_truth
from .records import record

REASON_BAD_SUBSTITUTION = "bad-substitution"
REASON_PREMISE_NOT_DECLARED = "premise-not-declared"
REASON_RULE_MISMATCH = "rule-mismatch"
REASON_WRONG_TARGET = "wrong-target"
REASON_FORWARD_REFERENCE = "forward-reference"

MAX_NESTING = 500  # parentheses a statement's term may open at once
_PACK_ENTRIES = 1_000_000  # entries make_axiom_pack may build


# -- terms and statements ---------------------------------------------------

Var = record("Var", "name")
Num = record("Num", "value")
Sum = record("Sum", "left right", deep=True)


class FbarAtom(record("FbarAtom", "x bit")):
    __slots__ = ()

    def __new__(cls, x: int, bit: int):
        if x < 1:
            raise ValueError("fbar indices are positive integers")
        if bit not in (0, 1):
            raise ValueError("fbar bits are 0 or 1")
        return tuple.__new__(cls, (x, bit))


Greater = record("Greater", "lhs rhs")
IntTyping = record("IntTyping", "term")


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
    """Variable names occurring in the statement, in first-appearance order: its ("v", name) ids (_key)."""
    ids: dict = {}
    _key(statement, ids)
    return tuple(name for kind, name in ids if kind == "v")


def _key(statement, ids: dict, seen: dict | None = None):
    """int(t) -> t's id in ids, a > b -> (a's id, b's id), else (an fbar atom) itself.  ids
    interns ("v", name), ("n", value), (left id, right id) for a sum and (None, leaf) for other
    leaves, parts first: two terms get one id iff they are ==.  seen maps id(t) -> t's id and
    -1 - id(t) -> t for each term t met: it holds what it keys, so no id in it is reused."""
    seen = {} if seen is None else seen
    if type(statement) is IntTyping:
        return _term_id(statement.term, ids, seen)
    if type(statement) is Greater:
        return _term_id(statement.lhs, ids, seen), _term_id(statement.rhs, ids, seen)
    return statement


def _term_id(term, ids: dict, seen: dict) -> int:
    """term's id in ids, read from seen for a term met before (see _key)."""
    tid = seen.get(id(term))
    if tid is not None:
        return tid
    kind = type(term)
    if kind is not Sum:
        entry = ("v", term.name) if kind is Var else ("n", term.value) if kind is Num else (None, term)
    elif ((type(term.left) is not Sum or id(term.left) in seen)
          and (type(term.right) is not Sum or id(term.right) in seen)):
        entry = _term_id(term.left, ids, seen), _term_id(term.right, ids, seen)
    else:  # a walk from an explicit stack enters the new sums in seen, parts first: any depth is fine
        stack = [term]
        while stack:
            t = stack.pop()
            if t is stack:  # the stack marks that the sum below it has its parts in seen: one step interns it
                _term_id(stack.pop(), ids, seen)
            elif type(t) is not Sum:
                _term_id(t, ids, seen)  # a leaf, interned in order
            elif id(t) not in seen:
                stack += (t, stack, t.right, t.left)
        return seen[id(term)]
    tid = seen[id(term)] = ids.setdefault(entry, len(ids))
    seen[-1 - id(term)] = term  # no tuple holds it, so the collector has one object less to walk
    return tid


# -- justifications and derivations ------------------------------------------

Premise = record("Premise", "")
AxiomInstance = record("AxiomInstance", "schema subst")  # subst: ((metavar name, Term), ...) in written order
RuleApplication = record("RuleApplication", "rule refs")  # refs: referenced line indices
Line = record("Line", "index statement justification")
Derivation = record("Derivation", "header lines")  # header: declared integer variable names

# A finite stock of fbar axioms: entries is a set of (x, bit), built by hand or a FbarRule.
AxiomPack = record("AxiomPack", "n entries")


def _entry_index(key) -> int:
    """The int x >= 1 that a pack entry's key equals, else 0: a key equal to an int (True,
    2.0) names that int's entry, as in a frozenset, and any other (2.5, "3", NaN) no atom."""
    try:
        x = int(key)
    except (TypeError, ValueError, OverflowError):
        return 0
    return x if x >= 1 and x == key else 0


class FbarRule(Set):
    """The entries {(x, fbar_truth(x)) : 1 <= x <= n} of a built pack, read by their
    rule: a membership test is one fbar_truth call, iteration runs in x order, and
    they equal, hash and combine (|, &, - give a frozenset) as that frozenset does."""

    __slots__ = ("n",)
    _from_iterable = frozenset
    __hash__ = Set._hash

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return ((x, fbar_truth(x)) for x in range(1, self.n + 1))

    def __contains__(self, item) -> bool:
        x = _entry_index(item[0]) if isinstance(item, tuple) and len(item) == 2 else 0
        return 0 < x <= self.n and item == (x, fbar_truth(x))

    def __repr__(self) -> str:
        return f"FbarRule({self.n})"


def make_axiom_pack(n: int) -> AxiomPack:
    """The sound pack covering 1..n: each entry carries the true diagonal bit,
    computed when it is read.  Past _PACK_ENTRIES entries, raises pack_entries."""
    if n < 0:
        raise ValueError("pack size must be >= 0")
    if n > _PACK_ENTRIES:
        raise ResourceLimitError("pack_entries", _PACK_ENTRIES, n)
    return AxiomPack(n=n, entries=FbarRule(n))


# -- checking ----------------------------------------------------------------

# The metavariables each axiom schema's substitution must bind, exactly.
_AXIOM_METAVARS = {"A1": {"t"}, "A2": {"t1", "t2"}, "A3": {"c"}, "FBAR": {"i"}}


def _axiom_premises(pack: AxiomPack, instance: AxiomInstance, statement, key, ids: dict, seen: dict):
    """The keys of the premises an axiom line needs, or None when the written substitution does not
    produce the line keyed key (ids compared where == would compare the instantiated conclusion)."""
    binding = dict(instance.subst)
    if binding.keys() != _AXIOM_METAVARS[instance.schema]:
        return None
    if instance.schema == "A1":
        if type(statement) is not Greater:
            return None
        t = _term_id(binding["t"], ids, seen)
        return (t,) if key[1] == t and ids.get((t, ids.get(("n", 1)))) == key[0] else None
    if instance.schema == "A2":
        if type(statement) is not IntTyping:
            return None
        t1, t2 = _term_id(binding["t1"], ids, seen), _term_id(binding["t2"], ids, seen)
        return (t1, t2) if ids.get((t1, t2)) == key else None
    if instance.schema == "A3":
        c = binding["c"]
        return () if isinstance(c, Num) and type(statement) is IntTyping and _term_id(c, ids, seen) == key else None
    i = binding["i"]  # FBAR
    if isinstance(i, Num) and isinstance(statement, FbarAtom) and statement.x == i.value:
        return () if (statement.x, statement.bit) in pack.entries else None
    return None


Accept = record("Accept", "")
Reject = record("Reject", "line reason")


def check_derivation(pack: AxiomPack, derivation: Derivation, target) -> Accept | Reject:
    """Single mechanical pass over the lines; no search of any kind.  Statements compare by their
    keys in one term table (_key), which walks each distinct term once: linear at any depth.  A
    premise or axiom line that repeats an accepted one's statement and justification objects is
    accepted by one read of a memo keyed by id(justification): the header and pack are fixed and
    the derived keys only grow.  Only a tuple of lines keeps the memo, since it holds them anyway."""
    ids: dict = {}
    seen: dict = {}  # _key's memo of the terms it has met, which it holds: lines may come from a generator
    derived: set = set()
    by_index: dict = {}
    accepted, keep = {}, type(derivation.lines) is tuple  # id(just) -> (statement, key, just): it holds what it keys
    line = key = None
    for line in derivation.lines:
        just, statement = line.justification, line.statement
        hit = accepted.get(id(just))
        if hit and hit[0] is statement:
            by_index[line.index] = key = hit[1]
            continue
        key = _key(statement, ids, seen)
        if isinstance(just, Premise):
            if not (isinstance(statement, IntTyping) and isinstance(statement.term, Var)
                    and statement.term.name in derivation.header):
                return Reject(line.index, REASON_PREMISE_NOT_DECLARED)
        elif isinstance(just, AxiomInstance):
            if just.schema not in _AXIOM_METAVARS:
                return Reject(line.index, REASON_RULE_MISMATCH)
            premises = _axiom_premises(pack, just, statement, key, ids, seen)
            if premises is None:
                return Reject(line.index, REASON_BAD_SUBSTITUTION)
            if not derived.issuperset(premises):
                return Reject(line.index, REASON_RULE_MISMATCH)
        elif isinstance(just, RuleApplication):
            if just.rule != "R1" or not hasattr(just.refs, "__len__") or len(just.refs) != 2:
                return Reject(line.index, REASON_RULE_MISMATCH)
            a, b = just.refs
            try:  # a ref that does not compare with an int, or has no hash, is no earlier line's index
                earlier = 1 <= a < line.index and a in by_index and 1 <= b < line.index and b in by_index
            except TypeError:
                earlier = False
            if not earlier:
                return Reject(line.index, REASON_FORWARD_REFERENCE)
            first, second = by_index[a], by_index[b]
            # of the lines' keys, only an ordering's is a plain tuple
            if not (type(statement) is Greater and type(first) is tuple and type(second) is tuple
                    and first[1] == second[0] and (first[0], second[1]) == key):
                return Reject(line.index, REASON_RULE_MISMATCH)
        else:
            return Reject(line.index, REASON_RULE_MISMATCH)
        if keep and not isinstance(just, RuleApplication):  # an R1 line reads by_index, which a line may rewrite
            accepted[id(just)] = statement, key, just
        derived.add(key)
        by_index[line.index] = key
    # line is the last line, if any; the keys of two statements of one class compare as the statements do
    if line is None or not (target is line.statement or type(target) is type(line.statement)
                            and key == _key(target, ids, seen)):
        return Reject(line.index if line else 0, REASON_WRONG_TARGET)
    return Accept()


# -- concrete syntax ----------------------------------------------------------
#
# One scanner reads statements, terms and justifications.  A scan works on a
# string s and an index i into it; the text it reads ends at some n, and s[n]
# must exist and be a character that no rule consumes: "[" or "]" inside a
# file line, or an appended "\n".  Reaching s[n] then reads as the end of the
# text, so the scans need no bounds checks.  Every error is raised at i, its
# index in s; a file's line is its own s, and _parse_file adds the line's
# offset to an error.  The scanner has checked every field of what it builds,
# so it builds records with tuple.__new__, skipping their classes' __new__
# (FbarAtom's checks among them).  Each token kind has one reader: _blanks,
# _run (a word or a name), _scan_numeral (digits, with the leading-zero
# check), _expect (one character) and _end (the end of the text).
#
# Only the scanner raises: parse_derivation_file chooses per line.  It reads a
# numbered line by the _LINE pattern below when the line is canonical, its index
# is its own text and each term span is a whole term, read from the memo, built
# from its operands' entries or scanned alone (see _Terms); any other line is
# scanned alone, so every error is the scanner's.  The scanner thus reads a
# parse_statement text (a search target among them), a file's target line, a
# term span the memo misses and a line that is not canonical.

_DIGITS = "0123456789"
_new = tuple.__new__


def _blanks(s: str, i: int) -> int:
    """The index after the blanks that start at s[i]."""
    while s[i] in " \t":
        i += 1
    return i


def _run(s: str, i: int, test):
    """The run of characters that pass test (str.isalpha or str.isalnum) after optional blanks: (text, end)."""
    i = j = _blanks(s, i)
    while test(s[j]):
        j += 1
    return s[i:j], j


def _end(s: str, j: int, n: int, what: str) -> None:
    """Raise a ParseError expecting the end of what unless only blanks lie between s[j] and s[n]."""
    j = _blanks(s, j)
    if j != n:
        raise ParseError(j, (f"end of {what}",))


def _scan_numeral(s: str, i: int):
    """The numeral at s[i]: (value, index after it)."""
    j = i
    while s[j] in _DIGITS:
        j += 1
    if j == i:
        raise ParseError(i, ("numeral",))
    if s[i] == "0" and j > i + 1:
        raise ParseError(i, ("numeral without a leading zero",))
    return numeral_value(s[i:j], i), j


def _scan_term(s: str, i: int, terms: dict):
    """term := operand ['+' operand]; operand := '(' term ')' | numeral | variable.
    One loop over an explicit stack of open terms; more than MAX_NESTING open
    '(' is a NestingError.  The bound is on outside input only: no code that
    reads a term recurses on its depth.  Returns (term, index after it and
    the blanks that follow it).

    terms builds each term once per parse: it maps a leaf's text to the leaf
    and the ids of a sum's two operands to the sum.  Every term it holds stays
    alive as long as terms does, so an id in a key cannot be reused."""
    lefts = [None]  # per open term: its left operand once '+' is read, else None
    while True:
        i = _blanks(s, i)
        c = s[i]
        if c == "(":
            if len(lefts) > MAX_NESTING:
                raise NestingError(i, (f"at most {MAX_NESTING} nested '('",))
            i += 1
            lefts.append(None)
            continue
        if c in _DIGITS:
            number, j = _scan_numeral(s, i)
            c = s[i:j]
            value = terms.get(c)
            if value is None:
                value = terms[c] = _new(Num, (number,))
            i = j
        elif c.isalpha():
            i += 1
            if s[i].isalpha():
                raise ParseError(_run(s, i, str.isalpha)[1], ("single-letter variable",))
            value = terms.get(c)
            if value is None:
                value = terms[c] = _new(Var, (c,))
        else:
            raise ParseError(i, ("variable", "numeral", "'('"))
        while True:  # close every term this operand completes
            left = lefts.pop()
            i = _blanks(s, i)
            if left is None and s[i] == "+":
                i += 1
                lefts.append(value)
                break
            if left is not None:
                key = (id(left), id(value))
                total = terms.get(key)
                if total is None:
                    total = terms[key] = _new(Sum, (left, value))
                value = total
            if not lefts:
                return value, i
            if s[i] != ")":
                raise ParseError(i, ("')'",))
            i += 1


def _expect(s: str, i: int, ch: str) -> int:
    """The index after ch, which must follow optional blanks."""
    i = _blanks(s, i)
    if s[i] != ch:
        raise ParseError(i, (repr(ch),))
    return i + 1


def _scan_statement(s: str, i: int, n: int, terms: dict):
    """The statement that is all of s[i:n], up to blanks."""
    i = _blanks(s, i)
    if s.startswith("fbar", i) and not s[i + 4].isalpha():
        j = _blanks(s, _expect(s, i + 4, "("))
        if s[j] == "0":
            raise ParseError(j, ("positive fbar index",))
        x, j = _scan_numeral(s, j)
        word, k = _run(s, _expect(s, j, ")"), str.isalpha)
        if word != "is":
            raise ParseError(k, ("'is'",))
        k = _blanks(s, k)
        bit, j = _scan_numeral(s, k)
        if bit not in (0, 1):
            raise ParseError(k, ("bit 0 or 1",))
        statement = _new(FbarAtom, (x, bit))
    elif s.startswith("int", i) and not s[i + 3].isalpha():
        term, j = _scan_term(s, _expect(s, i + 3, "("), terms)
        statement = _new(IntTyping, (term,))
        j = _expect(s, j, ")")
    else:
        lhs, j = _scan_term(s, i, terms)
        rhs, j = _scan_term(s, _expect(s, j, ">"), terms)
        statement = _new(Greater, (lhs, rhs))
    _end(s, j, n, "statement")
    return statement


def _scan_justification(s: str, i: int, n: int, terms: dict):
    """The justification that is all of s[i:n], up to blanks."""
    word, j = _run(s, i, str.isalpha)
    if word == "premise":
        just = _new(Premise, ())
    elif word == "axiom" or word == "rule":
        name, j = _run(s, j, str.isalnum)
        if not name:
            raise ParseError(j, (word + " name",))
        if word == "rule":
            refs = []
            while True:
                ref, j = _scan_numeral(s, _blanks(s, j))
                refs.append(ref)
                j = _blanks(s, j)
                if s[j] != ",":
                    break
                j += 1
            just = _new(RuleApplication, (name, tuple(refs)))
        elif name == "FBAR":
            index, j = _scan_numeral(s, _blanks(s, _expect(s, j, "(")))
            just = _new(AxiomInstance, ("FBAR", (("i", _new(Num, (index,))),)))
            j = _expect(s, j, ")")
        else:
            j = _expect(s, j, "{")
            pairs = []
            while True:
                mv, k = _run(s, j, str.isalnum)
                if not mv:
                    raise ParseError(k, ("metavariable name",))
                value, j = _scan_term(s, _expect(s, _expect(s, k, ":"), "="), terms)
                pairs.append((mv, value))
                if s[j] != ",":
                    break
                j += 1
            just = _new(AxiomInstance, (name, tuple(pairs)))
            j = _expect(s, j, "}")
    else:
        raise ParseError(i, ("'premise'", "'axiom'", "'rule'"))
    _end(s, j, n, "justification")
    return just


# single blanks, ASCII names, and numerals of at most 18 digits: int() reads those under any limit
_TERM, _NAME, _NUM = r"([0-9A-Za-z()+]+)", r"([0-9A-Za-z]+)", r"(?:0|[1-9][0-9]{0,17})"
# one line and its end: as derivation_file_text writes it, blanks but "\n" (as rstrip drops) after; groups: index,
# statement, int term, lhs, rhs, fbar index, bit, justification, FBAR index, schema, metavariable, term, the same,
# rule, refs, and any other line whole (every line is one row)
_LINE = re.compile(rf"^(?:([0-9]+)\. (int\({_TERM}\)|{_TERM} > {_TERM}|fbar\(([1-9][0-9]{{0,17}})\) is ([01])) "
                   rf"\[(premise|axiom FBAR\(({_NUM})\)|axiom (?!FBAR ){_NAME} \{{{_NAME} := {_TERM}"
                   rf"(?:, {_NAME} := {_TERM})?\}}|rule {_NAME} ({_NUM}(?:,{_NUM})*))\][^\S\n]*|([^\n]*))(?:\n|\Z)", re.M)
_NUMERAL = re.compile(_NUM)


class _Terms(dict):
    """The terms memo of a file (see _scan_term); terms[span] reads a missing span, a ParseError unless whole.
    A span L+R of leaf texts L and R, or (X)+R for an X with a '+' that is in the memo or has no parentheses,
    is the sum of terms[L or X] and terms[R], for at most MAX_NESTING '('; a numeral of at most 18 digits is
    int(span).  Any other span, or one whose lookups raise, is scanned whole, as _scan_term reads it."""

    def __missing__(self, span: str):  # self.setdefault(span, term) stores term under the missing span
        left, plus, right = span.rpartition("+")
        if left.isalnum():
            inner = left
        elif left[:1] != "(" or left[-1] != ")" or "+" not in (inner := left[1:-1]) or (
                inner not in self and ("(" in inner or ")" in inner)):
            inner = None
        if inner is not None and right.isalnum() and span.count("(") <= MAX_NESTING:
            try:
                pair = self[inner], self[right]
                return self.setdefault(span, self.setdefault((id(pair[0]), id(pair[1])), _new(Sum, pair)))
            except ParseError:
                pass
        elif not plus and _NUMERAL.fullmatch(span):
            return self.setdefault(span, _new(Num, (int(span),)))
        term, j = _scan_term(span + "\n", 0, self)
        _end(span + "\n", j, len(span), "term")
        return self.setdefault(span, term)


def parse_statement(text: str) -> object:
    """Parse one statement; round-trips with pretty_statement on canonical text."""
    return _scan_statement(text + "\n", 0, len(text), {})


def pretty_term(term) -> str:
    """A term's text, each sum inside a sum in parentheses; written from an explicit stack."""
    out, stack = [], [(term, False)]  # (a term, whether a sum there is nested) or (text, None)
    while stack:
        t, nested = stack.pop()
        if nested is None:
            out.append(t)
        elif isinstance(t, (Var, Num)):
            out.append(f"{t[0]}")  # the name or the value
        elif isinstance(t, Sum):
            stack += ((")" * nested, None), (t.right, True), ("+", None), (t.left, True), ("(" * nested, None))
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


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
    Blank lines and the blanks ending a line (a CRLF file's "\r") are skipped.

    The cost is linear in the length of the text.  Each call keeps a memo
    from statement text and from justification text to the parsed object,
    and builds each distinct term once (see _Terms).  One _LINE.findall
    yields a row per line: a canonical line (see the concrete syntax; the last
    may lack its newline) is built from its row, and any other line, or one
    with a span that is no whole term, is scanned alone.  Only an error walks
    to its line's offset.  A parse returns nearly all it makes, so it runs
    under the collector pause of the enumerator's bucket builds (_kept).
    """
    return _kept(_parse_file, text)


def _parse_file(text: str) -> tuple[Derivation, object]:
    heads, off = [], 0
    while len(heads) < 2 and off <= len(text):  # the header and the target: the first two lines that are not blank
        end = text.find("\n", off)
        end = len(text) if end < 0 else end
        if raw := text[off:end].rstrip():
            heads.append((raw, off))
        off = end + 1
    if not heads or not heads[0][0].startswith("vars:"):
        raise ParseError(0, ("'vars:'",))
    header_text, header_off = heads[0]
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
    if len(heads) < 2 or not heads[1][0].startswith("target:"):
        raise ParseError(heads[1][1] if len(heads) > 1 else len(text), ("'target:'",))
    target_text, target_off = heads[1]
    terms, statements, justifications = _Terms(), {}, {}  # the per-call memos: see _Terms, and text -> parsed object
    lines, index, r = [], 0, -1  # findall yields a row per line, blank ones too: row r is r + 1 lines after the target
    try:
        target = _scan_statement(target_text + "\n", len("target:"), len(target_text), terms)
        for r, (head, stmt_text, term, lhs, rhs, x, bit, just_text, fbar, schema, mv1, t1, mv2, t2, rule, refs,
                other) in enumerate(_LINE.findall(text, off)):
            if not (head or other.rstrip()):  # a blank line
                continue
            index += 1
            if head and head == str(index):  # a canonical row whose index is its own text: built from its groups
                try:
                    statement = statements.get(stmt_text)
                    if statement is None:
                        statement = statements[stmt_text] = (
                            _new(IntTyping, (terms[term],)) if term else _new(Greater, (terms[lhs], terms[rhs]))
                            if lhs else _new(FbarAtom, (int(x), int(bit))))
                    justification = justifications.get(just_text)
                    if justification is None:
                        justification = justifications[just_text] = (
                            _new(RuleApplication, (rule, tuple(map(int, refs.split(","))))) if rule
                            else _new(AxiomInstance, ("FBAR", (("i", _new(Num, (int(fbar),))),))) if fbar
                            else _new(AxiomInstance, (schema, ((mv1, terms[t1]),) + (((mv2, terms[t2]),) if mv2 else ())))
                            if schema else _new(Premise, ()))
                    lines.append(_new(Line, (index, statement, justification)))
                    continue
                except ParseError:  # a span that is no whole term: the scanner raises its error
                    pass
            raw = f"{head}. {stmt_text} [{just_text}]" if head else other.rstrip()  # _LINE fixes a canonical row's text
            head, dot, rest = raw.partition(".")
            if not dot or head != str(index):  # a canonical index is its own text; any other takes these checks
                index_text = head.strip()
                if not dot or not (index_text.isascii() and index_text.isdigit()):
                    raise ParseError(0, ("line index",))
                if numeral_value(index_text, len(head) - len(head.lstrip())) != index:
                    raise ParseError(0, (f"line index {index}",))
            open_bracket = rest.rfind("[")
            if open_bracket < 0 or raw[-1] != "]":
                raise ParseError(len(raw), ("'[justification]'",))
            bracket = len(head) + 1 + open_bracket  # raw[bracket] == "[" and raw[-1] == "]" end the two scans
            stmt_text = rest[:open_bracket]
            statement = statements.get(stmt_text)
            if statement is None:
                statement = statements[stmt_text] = _scan_statement(raw, len(head) + 1, bracket, terms)
            just_text = rest[open_bracket + 1:-1]
            justification = justifications.get(just_text)
            if justification is None:
                justification = justifications[just_text] = _scan_justification(raw, bracket + 1, len(raw) - 1, terms)
            lines.append(_new(Line, (index, statement, justification)))
    except ParseError as error:  # its position counts from the start of the target line or of row r: add that offset
        for _ in range(r + 1):
            target_off = text.index("\n", target_off) + 1
        error.position += target_off
        raise
    return _new(Derivation, (tuple(names), tuple(lines))), target


def derivation_file_text(derivation: Derivation, target) -> str:
    """Render a derivation back to the file format (inverse of parsing)."""
    out = ["vars: " + ", ".join(derivation.header) if derivation.header else "vars:"]
    out.append(f"target: {pretty_statement(target)}")
    for line in derivation.lines:
        out.append(f"{line.index}. {pretty_statement(line.statement)} [{pretty_justification(line.justification)}]")
    return "\n".join(out) + "\n"
