"""Budgeted derivation search, a static decider, and pack audits.

The search procedure plays the role of a dovetailing prover: generate
candidate derivations in a fixed order, check each one mechanically, and halt
on the first candidate that derives the target — or, when the target is an
fbar atom, its opposite-bit negation, whichever comes first.  Real provers of
this shape never stop on underivable targets, so every search here carries a
budget and reports Exhausted with the number of candidates tried.

Two candidate orders are provided.

``structured`` saturates forward from the available axioms: declared premises
and pack entries seed a FIFO worklist; popping int(t) fires A1 and pairs t
with every previously processed term through A2 (both orders, plus t+t);
popping an ordering joins it with previously processed orderings through R1
via indexes on the shared middle term; and one fresh numeral axiom int(0),
int(1), ... is injected per pop so that every numeral is eventually
available.  Each *new* statement is one candidate, goal-tested on arrival.
The stream is deterministic, duplicate-free, and eventually contains every
derivable statement, so a sufficient budget finds every derivable target.
Only R1 can repeat a candidate (it adds two or more +1 layers, A1 one), so
only its premises are kept; other rules are read off the keys (_key).  The
int k popped after u0, ..., u(m-1) queues its 2m + 1 A2 pairs (k, u0),
(u0, k), ..., (k, k) as one block, and a pop interns only the pair it takes.
The pack's entries, which feed no rule, seed the worklist as one block of
atoms in sorted order: a goal atom ends the search at its offset, 1 + the
entries that sort before it (x for a built pack), so only the found atom is
ever built; a built pack is neither scanned nor read for another goal.

``literal`` counts proof terms as raw strings in shortlex order over a
small alphabet, and every string counts as a candidate tried, though the
vast majority are no proof.  The encoding is positional:

    p<var>          premise int(var), for a variable of the target
    c<numeral>.     axiom int(numeral)
    F<numeral>.     pack axiom fbar(numeral) is b, b read off the pack
    a<P>            from a proof of int(t), conclude t+1 > t
    b<P><P>         from proofs of int(t1), int(t2), conclude int(t1+t2)
    r<P><P>         from proofs of a > b and b > c, conclude a > c

(When a hand-built pack carries both bits for the same index, F picks bit 0.)
Only a string that proves a goal can end the search, and by the subformula
property below such a proof uses only the goal's own subterms.  That fixes
the first one in shortlex order, so literal mode builds it and takes its
rank; the strings before it are counted but never generated:

    int(t)    the one term I(t): p<var> for a variable, c<numeral>. for a
              numeral, b I(l) I(r) for a sum l+r.
    fbar      F<i>. when the pack has a bit of i, and no term otherwise.
    a > c     with a = a0, a1, ..., ak = c, each a(i-1) being ai+1: every
              proof makes the same k A1 steps over the same int proofs and
              joins them by k - 1 R1 steps, so all proofs have one length.
              The letter a sorts before r, so the first opens each split
              with its A1 step: r a I(a1) r a I(a2) ... a I(ak).  When a is
              not c wrapped in (...)+1 layers, there is no term.

Its R1 steps are recorded as it is built, as in structured search.  Every
derivable statement has a proof term, so literal mode is exhaustive in the
limit as well; it finds the 12-line proof of (((w+1)+1)+1)+1 > w at rank
8.9 * 10**48 in about 0.2 ms on a 2-vCPU x86-64 VM with Python 3.11.  Found
proofs in either mode are rebuilt into derivation files with shared
sub-proofs deduplicated, then re-checked before the verdict is returned; a
verdict never carries a derivation the checker would reject.

Derivability does not need search at all, for any statement shape, once the
statement's own variables count as declared (as search declares them):

    int(t)    always derivable: A3 and the premises type every leaf, and A2
              every sum of typed terms.
    a > c     derivable exactly when a is c wrapped in k >= 1 (...)+1 layers:
              A1 yields only t+1 > t, and R1 only chains orderings.
    fbar      derivable exactly when it is a pack entry: the pack rule is the
              only producer of fbar statements and no rule consumes them.

The same reading gives the subformula property: every proof of a statement
states only subterms of it, so its leaves are the statement's own.

decide implements that for every shape in time linear in the statement's
size, and search uses it to return at once when a search could only run
out.  decide_fbar is the fbar case alone.  The derivable fbar atoms are the
entries, so completeness_gap (x <= x_max with neither bit an entry) and the
audits test entries: soundness checks each one's bit against fbar_truth, and
consistency reads the indices with both bits off the entries, for any x_max.
A built pack holds one true bit of each x <= n, so only soundness reads it.
"""

from __future__ import annotations

import enum
from collections import deque

from .enumerator import Alphabet, rank
from .pi_system import (
    Accept,
    AxiomInstance,
    AxiomPack,
    Derivation,
    FbarAtom,
    FbarRule,
    Greater,
    IntTyping,
    Line,
    Num,
    Premise,
    RuleApplication,
    Sum,
    Var,
    _key,
    can_form,
    check_derivation,
)
from .qlang import fbar_truth
from .records import record

DERIVABLE = "Derivable"
NOT_DERIVABLE = "NotDerivable"


class SearchMode(enum.Enum):
    LITERAL = "literal"
    STRUCTURED = "structured"


class SearchBudget(record("SearchBudget", "max_candidates")):
    __slots__ = ()

    def __new__(cls, max_candidates: int | None = None):
        if type(max_candidates) is not int or max_candidates < 1:  # no bool, float, inf or NaN
            raise ValueError("candidate limit must be an int >= 1")
        return tuple.__new__(cls, (max_candidates,))


DerivedTarget = record("DerivedTarget", "derivation candidates")
DerivedNegation = record("DerivedNegation", "derivation candidates")
Exhausted = record("Exhausted", "candidates")


# -- keys and reconstruction, shared by both modes ------------------------------

def _reconstruct(header, ids: dict, r1: dict, goal) -> Derivation:
    """Rebuild a derivation file from the goal's key, deduplicating sub-proofs.
    r1 holds R1's premises; every other rule is read off its conclusion's key.
    The records validate nothing, so tuple.__new__ builds them without their
    classes' __new__, and all lines share one Num(1) and one Premise()."""
    new = tuple.__new__
    one, declared = new(Num, (1,)), new(Premise, ())
    keys = list(ids)  # keys[i] is the key of term id i
    lines: list = []
    index_of: dict = {}
    stack = [goal]
    while stack:
        key = stack[-1]
        if key in index_of:
            stack.pop()
            continue
        premises = ()  # an fbar atom is FBAR, ("v", name) a premise, ("n", value) A3
        if type(key) is tuple:
            premises = r1.get(key, key[1:])  # R1, else A1 from int(rhs)
        elif type(key) is int and type(keys[key][0]) is int:
            premises = keys[key]  # A2 from its parts
        pending = [premise for premise in premises if premise not in index_of]
        if pending:  # prove the premises first, in order
            stack.extend(reversed(pending))
            continue
        stack.pop()
        proved = [lines[index_of[premise] - 1].statement for premise in premises]
        if isinstance(key, FbarAtom):
            stmt, just = key, new(AxiomInstance, ("FBAR", (("i", new(Num, (key.x,))),)))
        elif type(key) is tuple and key in r1:
            stmt = new(Greater, (proved[0].lhs, proved[1].rhs))
            just = new(RuleApplication, ("R1", tuple(index_of[premise] for premise in premises)))
        elif type(key) is tuple:
            t = proved[0].term
            stmt, just = new(Greater, (new(Sum, (t, one)), t)), new(AxiomInstance, ("A1", (("t", t),)))
        elif premises:
            t1, t2 = proved[0].term, proved[1].term
            stmt = new(IntTyping, (new(Sum, (t1, t2)),))
            just = new(AxiomInstance, ("A2", (("t1", t1), ("t2", t2))))
        elif keys[key][0] == "v":
            stmt, just = new(IntTyping, (new(Var, (keys[key][1],)),)), declared
        else:
            c = new(Num, (keys[key][1],))
            stmt, just = new(IntTyping, (c,)), new(AxiomInstance, ("A3", (("c", c),)))
        index_of[key] = len(lines) + 1
        lines.append(new(Line, (len(lines) + 1, stmt, just)))
    return new(Derivation, (tuple(header), tuple(lines)))


def _layers(ids: dict, lhs: int, rhs: int):
    """The term ids [lhs, a1, ..., rhs] when lhs is rhs wrapped in k >= 1
    (...)+1 layers, each the id of the next one's term plus 1; else None.
    Read off the term ids: from rhs's id, step to the id of (cur)+1 while ids
    has one, until lhs's id is reached.  A sum's id is larger than its
    parts', so the walk ends within len(ids) steps."""
    one = ids.get(("n", 1))
    chain = [rhs]
    while chain[-1] is not None:
        chain.append(ids.get((chain[-1], one)))
        if chain[-1] == lhs:
            return chain[::-1]
    return None


def _derivable(pack: AxiomPack, key, ids: dict) -> bool:
    """Whether the statement keyed key in ids is derivable (see the module
    docstring)."""
    if type(key) is int:
        return True
    if type(key) is tuple:
        return _layers(ids, *key) is not None
    return (key.x, key.bit) in pack.entries


def _verdict(pack, derivation, candidates, derived_target: bool):
    """The verdict for a found derivation, after the checker accepts it; whether
    it derives the target is read off the found key."""
    goal = derivation.lines[-1].statement
    if not isinstance(check_derivation(pack, derivation, goal), Accept):
        raise RuntimeError("search produced a derivation the checker rejects")
    return (DerivedTarget if derived_target else DerivedNegation)(derivation, candidates)


# -- structured mode -----------------------------------------------------------

class _Stop(Exception):
    """Ends structured search; its one argument is the found goal, or None."""


def _check_atoms(entries, reach: int) -> None:
    """Raise FbarAtom's ValueError for the first entry, in sorted order, of
    the pack's first reach entries that is no fbar atom, as building their
    atoms would.  Only a hand-built pack can hold such an entry."""
    for x, bit in entries:
        if x < 1 or bit not in (0, 1):
            for entry in sorted(entries)[:reach]:
                FbarAtom(*entry)
            return


def _search_structured(pack: AxiomPack, header, ids: dict, goals: set, budget: SearchBudget):
    term_id = ids.setdefault  # term_id(key, len(ids)) interns key
    limit = budget.max_candidates
    r1: dict = {}  # R1 conclusion -> its two premises
    queue: deque = deque()
    popleft, appendleft = queue.popleft, queue.appendleft
    candidates = 0

    def push(block, n, found):
        """Queue block as n more candidates; stop at the budget, or at found, the last."""
        nonlocal candidates
        end = candidates + n
        candidates = min(end, limit)
        if end > limit or found is not None:
            raise _Stop(found if end <= limit else None)
        queue.append(block)

    def emit(key, premises=None):
        """Queue key as one more candidate, goal-tested; stop at the budget or at a goal."""
        nonlocal candidates
        if premises:  # an R1 conclusion, the one kind of candidate that can repeat
            if key in r1:
                return
            r1[key] = premises
        if candidates >= limit:
            raise _Stop(None)
        candidates += 1
        if key in goals:
            raise _Stop(key)
        queue.append(key)

    goal = next(iter(goals))  # search hands over one goal
    left, right = list(ids)[goal] if type(goal) is int else (None, None)  # a leaf's left, "v" or "n", is no id
    ints_seen: list = []
    greater_by_lhs: dict = {}
    greater_by_rhs: dict = {}
    one = term_id(("n", 1), len(ids))
    next_numeral = 0

    try:
        for name in header:
            emit(term_id(("v", name), len(ids)))
        entries = pack.entries
        if entries:  # the pack's atoms in sorted order, one block: the range of offsets
            n = at = len(entries)  # at: the offset of the earliest goal atom, n if none
            built = type(entries) is FbarRule
            if type(goal) is FbarAtom:  # search found it among the entries
                first = (goal.x, goal.bit)
                at = int(goal.x) - 1 if built else sum(1 for entry in entries if entry < first)
            if not built:  # the search reads the entries up to its goal, or one past its budget
                _check_atoms(entries, min(at + 1, n, limit - candidates + 1))
            push(range(n), min(at + 1, n), goal if at < n else None)
        while True:
            # the numeral stream keeps the worklist fed even from empty seeds
            emit(term_id(("n", next_numeral), len(ids)))
            next_numeral += 1
            key = popleft()
            if type(key) is list:  # a block [k, m, next offset]: take that pair, put back the rest
                k, m, at = key
                if at < 2 * m:
                    appendleft([k, m, at + 1])
                u = ints_seen[at // 2]
                key = term_id((k, u) if at % 2 == 0 else (u, k), len(ids))
            if type(key) is int:
                emit((term_id((key, one), len(ids)), key))
                m = len(ints_seen)
                ints_seen.append(key)  # so the block's last pair, at 2m, is (key, key)
                at = 2 * m + 1  # the offset of goal l+r, if key is the later of l, r
                if key in (left, right) and left in ints_seen and right in ints_seen:
                    at = 2 * ints_seen.index(right) if key == left else 2 * ints_seen.index(left) + 1
                push([key, m, 0], min(at, 2 * m) + 1, goal if at <= 2 * m else None)
            elif type(key) is tuple:
                lhs, rhs = key
                for other in greater_by_lhs.get(rhs, ()):
                    emit((lhs, other[1]), (key, other))
                for other in greater_by_rhs.get(lhs, ()):
                    emit((other[0], rhs), (other, key))
                greater_by_lhs.setdefault(lhs, []).append(key)
                greater_by_rhs.setdefault(rhs, []).append(key)
            else:  # the pack block: its atoms feed no rule and the goal was found by
                for _ in range(len(key) - 1):  # offset, so one pop injects their numerals
                    emit(term_id(("n", next_numeral), len(ids)))
                    next_numeral += 1
    except _Stop as stop:
        return stop.args[0], r1, candidates


# -- literal mode ----------------------------------------------------------------

_LITERAL_BASE = "0123456789.Fabcpr"


def _literal_alphabet(header) -> Alphabet:
    extra = "".join(sorted(name for name in header if name not in _LITERAL_BASE))
    return Alphabet.from_string(_LITERAL_BASE + extra)


def _int_proof(keys: list, term: int) -> str:
    """The one proof term of int(t), t the term of id term (keys[i] is the
    key of id i)."""
    out: list = []
    stack = [term]
    while stack:
        key = keys[stack.pop()]
        if key[0] == "v":
            out.append("p" + key[1])
        elif key[0] == "n":
            out.append(f"c{key[1]}.")
        else:
            out.append("b")
            stack += reversed(key)
    return "".join(out)


def _ordering_proof(ids: dict, goal: tuple, r1: dict):
    """The first proof term of the ordering keyed goal in shortlex order
    (module docstring), recording its R1 steps in r1, or None when the
    ordering has no proof."""
    chain = _layers(ids, *goal)
    if chain is None:
        return None
    keys, rhs, out = list(ids), goal[1], []
    for outer, inner in zip(chain, chain[1:]):
        if inner != rhs:  # R1 joins outer > inner to inner > rhs
            out.append("r")
            r1[outer, rhs] = ((outer, inner), (inner, rhs))
        out.append("a" + _int_proof(keys, inner))
    return "".join(out)


def _search_literal(pack: AxiomPack, header, ids: dict, goals: set, budget: SearchBudget):
    """Build a goal's first proof term and count it by its rank; no other
    string is generated."""
    limit = budget.max_candidates
    goal = next(iter(goals))  # search hands over one goal
    r1: dict = {}
    if isinstance(goal, FbarAtom):  # search found it among the entries
        word = f"F{goal.x}."
    elif type(goal) is int:
        word = _int_proof(list(ids), goal)
    else:
        word = _ordering_proof(ids, goal, r1)
    if word is None:  # no string is a proof, so every one the budget allows is tried
        return None, None, limit
    r = rank(_literal_alphabet(header), word)  # the strings before word count as tried
    if r >= limit:
        return None, None, limit
    return goal, r1, r + 1  # candidate n is the string of rank n - 1


def _stated_key(statement, ids: dict):
    """_key(statement, ids) of a statement the concrete syntax can state: each leaf, read
    where the statement holds it, is a one-letter variable or a nonnegative int numeral.
    (ids cannot tell: a junk leaf == to a stateable one, Num(True) beside Num(1), shares its id.)"""
    if can_form(statement):
        stack = [statement.term] if type(statement) is IntTyping else list(statement) if type(statement) is Greater else []
        walked = set()  # the sums met, by id(): a sum the term shares is walked once
        while stack:
            t = stack.pop()
            kind = type(t)
            if kind is Sum:
                if id(t) not in walked:
                    walked.add(id(t))
                    stack += t
            elif not (kind is Var and type(t.name) is str and len(t.name) == 1 and t.name.isalpha()
                      or kind is Num and type(t.value) is int and t.value >= 0):
                break
        else:
            return _key(statement, ids)
    raise ValueError(f"not a statement of the system: {statement!r}")


def search(pack: AxiomPack, target, budget: SearchBudget, mode: SearchMode):
    """Dual derivability search: first derivation of target (or, for fbar
    targets, of the opposite bit) wins; Exhausted when the budget runs out.

    Deterministic: the budget counts candidates and search reads no clock,
    so identical inputs give identical verdicts and counts.  A target the
    concrete syntax cannot state, built through the API, is a ValueError.

    Both candidate streams are infinite, so a search for a target that
    decide rejects (for an fbar target, both bits) can only end at its
    budget: search returns Exhausted(max_candidates) at once, without
    enumerating.

    In literal mode the candidate count is a shortlex rank: the rank of the
    proof's string plus one, as if every string before it had been tried.
    Literal search builds that one string (module docstring).

    Structured search keeps what it pops, not every candidate: about
    3 * sqrt(candidates) interned terms.  An exhausted search of
    ((w+1)+1)+1 > w at 10,000,000 candidates takes about 10 ms on a 2-vCPU
    x86-64 VM, in a process that peaks at about 16 MB RSS.  The pack is one
    block of candidates, popped once: w+1 > w is found at candidate 23 in
    about 35 us with a 20-entry pack, and runs out at 5,000 in about 15 us
    with a 10**6-entry built one, or 1.1 ms with 10,000 hand-built entries,
    which are scanned so that an invalid one the search reaches raises.
    """
    ids: dict = {}  # term ids: ("v", name), ("n", value) or (left id, right id) -> id
    target_key = _stated_key(target, ids)
    mode = SearchMode(mode)
    header = tuple(name for kind, name in ids if kind == "v")  # the target's variables, in order
    # the one goal: the target, or for an fbar target the entry F reads at x, bit 0 if both are in
    options = [FbarAtom(target.x, 0), FbarAtom(target.x, 1)] if isinstance(target, FbarAtom) else [target_key]
    goal = next((goal for goal in options if _derivable(pack, goal, ids)), None)
    if goal is None:
        return Exhausted(budget.max_candidates)
    run = _search_structured if mode is SearchMode.STRUCTURED else _search_literal
    found, r1, candidates = run(pack, header, ids, {goal}, budget)
    if found is None:
        return Exhausted(candidates)
    return _verdict(pack, _reconstruct(header, ids, r1, found), candidates, found == target_key)


# -- static decidability and audits ---------------------------------------------

def decide(pack: AxiomPack, statement) -> str:
    """Exact derivability of any statement, its own variables declared: no search.

    int(t) is always derivable, a > c exactly when a is c wrapped in k >= 1
    (...)+1 layers, and an fbar atom exactly when it is a pack entry (see the
    module docstring).  Linear in the statement's size, with no recursion.
    A statement the concrete syntax cannot state is a ValueError, as in search.
    """
    ids: dict = {}
    return DERIVABLE if _derivable(pack, _stated_key(statement, ids), ids) else NOT_DERIVABLE


def decide_fbar(pack: AxiomPack, s: FbarAtom) -> str:
    """Exact derivability of an fbar atom: pack membership, no search.

    Sound because the pack rule is the only way an fbar statement ever enters
    a derivation and no inference consumes one, so the derivable fbar atoms
    are precisely the pack entries.
    """
    if not isinstance(s, FbarAtom):
        raise ValueError(f"not an fbar statement: {s!r}")
    return DERIVABLE if (s.x, s.bit) in pack.entries else NOT_DERIVABLE


def completeness_gap(pack: AxiomPack, x_max: int) -> list:
    """Indices x <= x_max with neither bit of fbar(x) derivable: two entry lookups per x."""
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    entries = pack.entries
    if type(entries) is FbarRule:  # it holds one bit of each x <= its size
        return list(range(len(entries) + 1, x_max + 1))
    return [x for x in range(1, x_max + 1) if (x, 0) not in entries and (x, 1) not in entries]


class AuditReport(record("AuditReport", "kind queries violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_soundness(pack: AxiomPack) -> AuditReport:
    """Check that every derivable fbar bit is the true one.

    Sweeps both bits for every x in 1..pack.n and every x a pack entry
    names, in ascending order, so a hand-built pack's entries past n are
    audited too; a violation (x, bit) means fbar(x) is bit is derivable but
    the flipped-diagonal truth differs.
    """
    entries = pack.entries
    built = type(entries) is FbarRule  # its one entry at each x <= its size is (x, fbar_truth(x))
    xs = range(1, len(entries) + 1) if built else (x for x, _ in entries)
    violations = []
    queries = 0
    for x in sorted(set(xs).union(range(1, pack.n + 1))):
        truth = fbar_truth(x)
        for bit in (0, 1):
            queries += 1
            if bit != truth and not built and (x, bit) in entries:
                violations.append((x, bit))
    return AuditReport("soundness", queries, tuple(violations))


def audit_consistency(pack: AxiomPack, x_max: int) -> AuditReport:
    """Check that no index has both fbar bits derivable.  The violations, the
    ints x in 1..x_max with (x, 0) and (x, 1) both entries, are read off the
    entries in O(entries) for any x_max: x = int(key) covers a hand-built key
    equal to an int (True, 2.0), and one int() cannot read (NaN) is skipped."""
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    entries, indices = pack.entries, range(1, x_max + 1)
    violations = set()
    for key, _ in entries if type(entries) is not FbarRule else ():  # a built pack has one bit per x
        try:
            x = int(key)
        except (TypeError, ValueError, OverflowError):
            continue
        if x in indices and (x, 0) in entries and (x, 1) in entries:
            violations.add(x)
    return AuditReport("consistency", 2 * x_max, tuple(sorted(violations)))
