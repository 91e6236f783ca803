"""Brute-force reference implementations the tests trust.

Everything here is deliberately naive and independent of the library's
algorithms: shortlex listing by generate-in-order, grammar word listing
by expanding leftmost derivations with a minimum-length bound (and each
word's tree rebuilt from its derivation's productions), literal
proof search by decoding every string in turn, structured search by the
given-clause loop that stores every candidate with an origin tag, the
checker's axiom schemas by == of the instantiated conclusion, the checker
itself by == of statements, and the completeness gap and the audits by
asking the decider about both bits of every index.  Slow, small, and
obviously correct is the point.
"""

import itertools
from collections import deque
from fractions import Fraction

from proofbench.pi_system import (
    _AXIOM_METAVARS,
    Accept,
    AxiomInstance,
    AxiomPack,
    Derivation,
    FbarAtom,
    Greater,
    IntTyping,
    Line,
    Num,
    Premise,
    Reject,
    RuleApplication,
    Sum,
    Var,
    derivation_file_text,
    negate_fbar,
    statement_vars,
)
from proofbench.proof_search import DERIVABLE, NOT_DERIVABLE, AuditReport, SearchBudget, _key, decide_fbar
from proofbench.qlang import fbar_truth


def shortlex_strings(symbols, count):
    """First `count` strings over `symbols` in shortlex order, by generation."""
    out = []
    length = 0
    while len(out) < count:
        for tup in itertools.product(symbols, repeat=length):
            out.append("".join(tup))
            if len(out) == count:
                return out
        length += 1
    return out


def shortlex_rank(symbols, word):
    """Position of word in shortlex order: every shorter word, one length at a
    time, then its digits read left to right."""
    n = len(symbols)
    value = 0
    for ch in word:
        value = value * n + symbols.index(ch)
    return sum(n**length for length in range(len(word))) + value


def shortlex_key(symbols, word):
    index = {s: i for i, s in enumerate(symbols)}
    return (len(word), tuple(index[c] for c in word))


def min_lengths(productions):
    """Minimal derivable word length per nonterminal, by naive fixpoint."""
    bound = {nt: float("inf") for nt in productions}
    changed = True
    while changed:
        changed = False
        for nt, alternatives in productions.items():
            for rhs in alternatives:
                total = sum(bound[s] if s in productions else 1 for s in rhs)
                if total < bound[nt]:
                    bound[nt] = total
                    changed = True
    return bound


def derive_words(productions, start, length):
    """All words of exactly `length`, one entry per leftmost derivation.

    A duplicate in the result means the grammar has two leftmost derivations
    for the same word, i.e. is ambiguous at this length.
    """
    bound = min_lengths(productions)
    out = []

    def rec(form):
        total = sum(bound[s] if s in productions else 1 for s in form)
        if total > length:
            return
        for i, sym in enumerate(form):
            if sym in productions:
                for rhs in productions[sym]:
                    rec(form[:i] + tuple(rhs) + form[i + 1 :])
                return
        if len(form) == length:
            out.append("".join(form))

    rec((start,))
    return out


def derive_trees(productions, start, length):
    """(word, tree) for every word of exactly `length`, one per leftmost derivation.

    A tree is (nonterminal, children), a terminal child being the terminal
    itself.  A leftmost derivation expands the nodes of its tree in preorder,
    so the tree is rebuilt from the productions in the order they were applied.
    """
    bound = min_lengths(productions)
    out = []

    def build(steps):
        nt, rhs = next(steps)
        return (nt, tuple(build(steps) if sym in productions else sym for sym in rhs))

    def rec(form, steps):
        total = sum(bound[s] if s in productions else 1 for s in form)
        if total > length:
            return
        for i, sym in enumerate(form):
            if sym in productions:
                for rhs in productions[sym]:
                    rec(form[:i] + tuple(rhs) + form[i + 1 :], steps + ((sym, tuple(rhs)),))
                return
        if len(form) == length:
            out.append(("".join(form), build(iter(steps))))

    rec((start,), ())
    return out


# -- literal proof search ------------------------------------------------------

_LITERAL_SYMBOLS = "0123456789.Fabcpr"


def _term_vars(term, out):
    if isinstance(term, Sum):
        _term_vars(term.left, out)
        _term_vars(term.right, out)
    elif isinstance(term, Var):
        out.add(term.name)
    return out


def _decode_proof(text, i, pack, names):
    """(conclusion, index after it) of the proof term starting at text[i], or None.

    p<var> proves int(var) for a variable of the target, c<numeral>. int(numeral),
    F<numeral>. the pack's fbar entry for the numeral (bit 0 when it has both),
    a<P> t+1 > t from P of int(t), b<P><Q> int(t1+t2), and r<P><Q> a > c from
    P of a > b and Q of b > c.
    """
    if i >= len(text):
        return None
    head = text[i]
    if head == "p":
        if i + 1 < len(text) and text[i + 1] in names:
            return IntTyping(Var(text[i + 1])), i + 2
        return None
    if head in "cF":
        dot = text.find(".", i + 1)
        digits = text[i + 1 : dot]
        if dot < 0 or not digits or any(ch not in "0123456789" for ch in digits):
            return None
        if digits[0] == "0" and len(digits) > 1:
            return None
        n = int(digits)
        if head == "c":
            return IntTyping(Num(n)), dot + 1
        bit = 0 if (n, 0) in pack.entries else 1
        return (FbarAtom(n, bit), dot + 1) if (n, bit) in pack.entries else None
    if head not in "abr":
        return None
    first = _decode_proof(text, i + 1, pack, names)
    if first is None:
        return None
    s, j = first
    if head == "a":
        return (Greater(Sum(s.term, Num(1)), s.term), j) if isinstance(s, IntTyping) else None
    second = _decode_proof(text, j, pack, names)
    if second is None:
        return None
    t, k = second
    if head == "b" and isinstance(s, IntTyping) and isinstance(t, IntTyping):
        return IntTyping(Sum(s.term, t.term)), k
    if head == "r" and isinstance(s, Greater) and isinstance(t, Greater) and s.rhs == t.lhs:
        return Greater(s.lhs, t.rhs), k
    return None


def literal_search(pack, target, max_candidates):
    """Literal search by brute force: (verdict name, candidates).

    Lists the first max_candidates strings over the literal alphabet (the
    encoding's symbols, then the target's other variables in sorted order)
    in shortlex order, decodes each whole, and stops at the first whose
    conclusion is the target or, for an fbar target, its opposite bit.
    """
    if isinstance(target, Greater):
        names = _term_vars(target.rhs, _term_vars(target.lhs, set()))
    else:
        names = _term_vars(target.term, set()) if isinstance(target, IntTyping) else set()
    symbols = _LITERAL_SYMBOLS + "".join(sorted(names - set(_LITERAL_SYMBOLS)))
    negation = FbarAtom(target.x, 1 - target.bit) if isinstance(target, FbarAtom) else None
    for n, text in enumerate(shortlex_strings(symbols, max_candidates), 1):
        proof = _decode_proof(text, 0, pack, names)
        if proof is not None and proof[1] == len(text):
            if proof[0] == target:
                return "DerivedTarget", n
            if proof[0] == negation:
                return "DerivedNegation", n
    return "Exhausted", max_candidates


# -- the checker's axiom schemas ------------------------------------------------

def axiom_premises(pack: AxiomPack, instance: AxiomInstance, statement):
    """The premises an axiom line needs, or None when the written
    substitution does not produce the stated line: each schema's conclusion
    is instantiated and compared with the stated line by ==."""
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


def check_by_equality(pack: AxiomPack, derivation: Derivation, target):
    """check_derivation's verdict, with statements compared by ==: each line in
    turn is a declared premise, an axiom instance (axiom_premises) whose
    premises are statements of earlier lines, or R1 on two strictly earlier
    orderings a > b and b > c that states a > c; the last line is the target."""
    derived, by_index, last = [], {}, None
    for line in derivation.lines:
        statement, just = line.statement, line.justification
        if isinstance(just, Premise):
            term = statement.term if isinstance(statement, IntTyping) else None
            if not (isinstance(term, Var) and term.name in derivation.header):
                return Reject(line.index, "premise-not-declared")
        elif isinstance(just, AxiomInstance):
            if just.schema not in _AXIOM_METAVARS:
                return Reject(line.index, "rule-mismatch")
            premises = axiom_premises(pack, just, statement)
            if premises is None:
                return Reject(line.index, "bad-substitution")
            if any(premise not in derived for premise in premises):
                return Reject(line.index, "rule-mismatch")
        elif isinstance(just, RuleApplication):
            if just.rule != "R1" or len(just.refs) != 2:
                return Reject(line.index, "rule-mismatch")
            if any(not 1 <= ref < line.index or ref not in by_index for ref in just.refs):
                return Reject(line.index, "forward-reference")
            first, second = (by_index[ref] for ref in just.refs)
            if not (isinstance(first, Greater) and isinstance(second, Greater) and first.rhs == second.lhs
                    and Greater(first.lhs, second.rhs) == statement):
                return Reject(line.index, "rule-mismatch")
        else:
            return Reject(line.index, "rule-mismatch")
        derived.append(statement)
        by_index[line.index] = statement
        last = line
    if last is None or last.statement != target:
        return Reject(last.index if last else 0, "wrong-target")
    return Accept()


# -- structured proof search ---------------------------------------------------

def _reconstruct(header, origins, goal) -> Derivation:
    """Rebuild a derivation file from origin tags, deduplicating sub-proofs.

    A tag is a rule and its premises' keys in origins (or its variable,
    numeral or pack entry); a line states the rule's conclusion from them.
    """
    lines: list = []
    index_of: dict = {}
    stack = [goal]
    while stack:
        key = stack[-1]
        if key in index_of:
            stack.pop()
            continue
        kind, *args = origins[key]
        if kind in ("A1", "A2", "R1"):
            pending = [premise for premise in args if premise not in index_of]
            if pending:  # prove the premises first, in order
                stack.extend(reversed(pending))
                continue
            first, second = (lines[index_of[p] - 1].statement for p in (args[0], args[-1]))  # A1: one premise
        stack.pop()
        if kind == "premise":
            stmt, just = IntTyping(Var(args[0])), Premise()
        elif kind == "A3":
            stmt, just = IntTyping(Num(args[0])), AxiomInstance("A3", (("c", Num(args[0])),))
        elif kind == "FBAR":
            stmt, just = FbarAtom(*args), AxiomInstance("FBAR", (("i", Num(args[0])),))
        elif kind == "A1":
            t = first.term
            stmt, just = Greater(Sum(t, Num(1)), t), AxiomInstance("A1", (("t", t),))
        elif kind == "A2":
            t1, t2 = first.term, second.term
            stmt, just = IntTyping(Sum(t1, t2)), AxiomInstance("A2", (("t1", t1), ("t2", t2)))
        else:  # R1
            stmt = Greater(first.lhs, second.rhs)
            just = RuleApplication("R1", tuple(index_of[premise] for premise in args))
        index_of[key] = len(lines) + 1
        lines.append(Line(len(lines) + 1, stmt, just))
    return Derivation(tuple(header), tuple(lines))


class _Found(Exception):
    def __init__(self, key):
        self.key = key

class _BudgetHit(Exception):
    pass


def _search_structured(pack: AxiomPack, header, ids: dict, goals: set, budget: SearchBudget):
    term_id = ids.setdefault  # term_id(key, len(ids)) interns key
    origins: dict = {}
    queue: deque = deque()
    candidates = 0

    def emit(key, tag):
        nonlocal candidates
        if key in origins:
            return
        if budget.max_candidates is not None and candidates >= budget.max_candidates:
            raise _BudgetHit
        candidates += 1
        origins[key] = tag
        queue.append(key)
        if key in goals:
            raise _Found(key)

    ints_seen: list = []
    greater_by_lhs: dict = {}
    greater_by_rhs: dict = {}
    one = term_id(("n", 1), len(ids))
    next_numeral = 0

    try:
        for name in header:
            emit(term_id(("v", name), len(ids)), ("premise", name))
        for i, bit in sorted(pack.entries):
            emit(FbarAtom(i, bit), ("FBAR", i, bit))
        while True:
            # the numeral stream keeps the worklist fed even from empty seeds
            emit(term_id(("n", next_numeral), len(ids)), ("A3", next_numeral))
            next_numeral += 1
            key = queue.popleft()
            if type(key) is int:
                emit((term_id((key, one), len(ids)), key), ("A1", key))
                for u in ints_seen:
                    emit(term_id((key, u), len(ids)), ("A2", key, u))
                    emit(term_id((u, key), len(ids)), ("A2", u, key))
                emit(term_id((key, key), len(ids)), ("A2", key, key))
                ints_seen.append(key)
            elif type(key) is tuple:
                lhs, rhs = key
                for other in greater_by_lhs.get(rhs, ()):
                    emit((lhs, other[1]), ("R1", key, other))
                for other in greater_by_rhs.get(lhs, ()):
                    emit((other[0], rhs), ("R1", other, key))
                greater_by_lhs.setdefault(lhs, []).append(key)
                greater_by_rhs.setdefault(rhs, []).append(key)
            # fbar atoms feed no rule; they were goal-tested on arrival
    except _BudgetHit:
        return None, origins, candidates
    except _Found as found:
        return found.key, origins, candidates


def structured_search(pack, target, max_candidates):
    """Structured search by the stored-candidate loop: (verdict name,
    candidates, derivation file text or None).

    Every candidate is kept with a tag naming its rule and premises, each A2
    pair is interned as it is emitted, and the proof is rebuilt by walking
    the tags from the found goal.  No statement shape is decided first, so
    an underivable target runs to its budget.
    """
    header = statement_vars(target)
    ids: dict = {}
    target_key = _key(target, ids)
    goals = {target_key}
    if isinstance(target, FbarAtom):
        goals.add(negate_fbar(target))
    budget = SearchBudget(max_candidates=max_candidates)
    found, origins, candidates = _search_structured(pack, header, ids, goals, budget)
    if found is None:
        return "Exhausted", candidates, None
    goal = target if found == target_key else negate_fbar(target)
    text = derivation_file_text(_reconstruct(header, origins, found), goal)
    return ("DerivedTarget" if found == target_key else "DerivedNegation"), candidates, text


# -- the completeness gap and the consistency audit ---------------------------

def completeness_gap(pack, x_max):
    """Indices x <= x_max where neither bit of fbar(x) is derivable, by
    deciding both atoms of every x in turn."""
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    return [
        x
        for x in range(1, x_max + 1)
        if decide_fbar(pack, FbarAtom(x, 0)) == NOT_DERIVABLE
        and decide_fbar(pack, FbarAtom(x, 1)) == NOT_DERIVABLE
    ]


def audit_consistency(pack, x_max):
    """The consistency audit by sweeping x = 1..x_max and deciding both bits."""
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    violations = []
    queries = 0
    for x in range(1, x_max + 1):
        queries += 2
        if (
            decide_fbar(pack, FbarAtom(x, 0)) == DERIVABLE
            and decide_fbar(pack, FbarAtom(x, 1)) == DERIVABLE
        ):
            violations.append(x)
    return AuditReport("consistency", queries, tuple(violations))


def audit_soundness(pack):
    """The soundness audit by deciding both bits of every x in 1..pack.n and
    of every int x >= 1 an entry's key equals, ascending.  A key's exact value
    is read with Fraction, so a key equal to no such int (2.5, "3", NaN, inf)
    names no index."""
    xs = set(range(1, pack.n + 1))
    for key, _ in pack.entries:
        try:
            value = Fraction(key)
        except (TypeError, ValueError, OverflowError):
            continue
        if value.denominator == 1 and value >= 1 and key == value.numerator:  # "3" reads as 3 but is not 3
            xs.add(value.numerator)
    violations = []
    queries = 0
    for x in sorted(xs):
        for bit in (0, 1):
            queries += 1
            if decide_fbar(pack, FbarAtom(x, bit)) == DERIVABLE and bit != fbar_truth(x):
                violations.append((x, bit))
    return AuditReport("soundness", queries, tuple(violations))
