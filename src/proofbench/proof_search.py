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
popping A1's t+1 > t fires R1 once for each u that t sits (...)+1 layers
over, t+1 > u, nearest first; and one fresh numeral axiom int(0), int(1),
... is injected per pop so that every numeral is eventually available.
Each statement is one candidate, goal-tested on arrival.  The stream is
deterministic, duplicate-free, and eventually contains every derivable
statement, so a sufficient budget finds every derivable target.  That is all
of R1, by the FIFO order: t+1 > t is queued when int(t) is popped, so every
ordering with lhs t is queued before that pop and every one with rhs t at or
after it.  So no popped a > b meets an earlier c > a, every t > u is popped
before t+1 > t, and a popped R1 conclusion t+1 > u would only rebuild the
t+1 > v its A1 step gave.  Every rule's premises are read off the keys
(_key): a > c, a being a'+1, is A1 when a' is c, else R1 from a > a', a' > c.
The int k popped after u0, ..., u(m-1) queues k+1 > k and its 2m + 1 A2
pairs (k, u0), (u0, k), ..., (k, k) as one block, and popping k+1 > k its
R1 conclusions as another.  So two facts of each popped int fix the stream,
and they are all the search keeps of it: its (...)+1 depth, the R1 block's
size (a pair's is its left part's + 1 if its right part is the numeral 1,
else 0), and its id if it is a goal subterm (a pair is one when both parts
are and ids holds their sum), which tells the block and offset of the goal.
No other term is built.  The pack's entries seed the worklist as one block
of atoms in sorted order: a goal atom ends the search at its offset, 1 + the
entries that sort before it (x for a built pack), so only the found atom is
ever built; a built pack is neither scanned nor read for another goal.  Its
atoms and R1 conclusions feed no rule, so popping their block injects one
numeral per entry, as a pop per entry would.

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

Its derivation is read off the found key, as in structured search.  Every
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
from .errors import ResourceLimitError
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
    _entry_index,
    _key,
    can_form,
    check_derivation,
)
from .qlang import fbar_truth
from .records import record

_SEARCH_TERMS = 1_000_000  # ints a structured search may pop
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

def _reconstruct(header, ids: dict, goal) -> Derivation:
    """Rebuild a derivation file from the goal's key, deduplicating sub-proofs.
    Every rule's premises are read off its conclusion's key: a > c with a the
    term a'+1 is A1 from int(c) when a' is c, else R1 from a > a' and a' > c.
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
            lhs, rhs = key
            inner = keys[lhs][0]
            premises = (rhs,) if inner == rhs else ((lhs, inner), (inner, rhs))  # A1, else R1
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
        elif type(key) is tuple and len(premises) == 2:
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
    From rhs's id, step to the id of (cur)+1 while ids has one, until lhs's
    id: within len(ids) steps, as a sum's id is larger than its parts'."""
    one = ids.get(("n", 1))
    chain = [rhs]
    while chain[-1] is not None:
        chain.append(ids.get((chain[-1], one)))
        if chain[-1] == lhs:
            return chain[::-1]
    return None


def _derivable(pack: AxiomPack, key, ids: dict) -> bool:
    """Whether the statement keyed key in ids is derivable (see the module docstring)."""
    if type(key) is tuple:
        return _layers(ids, *key) is not None
    return type(key) is int or (key.x, key.bit) in pack.entries


# -- structured mode -----------------------------------------------------------

class _Stop(Exception):
    """Ends structured search; its one argument is the found goal, or None."""


def _check_atoms(entries, reach: int) -> None:
    """Raise FbarAtom's ValueError for the first entry, in sorted order, of
    the pack's first reach entries that is no fbar atom, as building their
    atoms would.  Only a hand-built pack can hold such an entry."""
    if any(x < 1 or bit not in (0, 1) for x, bit in entries):
        for entry in sorted(entries)[:reach]:
            FbarAtom(*entry)


def _search_structured(pack: AxiomPack, header, ids: dict, goal, budget: SearchBudget):
    limit = budget.max_candidates
    queue: deque = deque()
    popleft, appendleft = queue.popleft, queue.appendleft
    candidates = 0

    def push(item, n, found):
        """Queue item as n more candidates; stop past the budget, or at found, the last."""
        nonlocal candidates
        candidates += n
        if candidates > limit or found is not None:
            raise _Stop(found if candidates <= limit else None)
        queue.append(item)

    left, right = leaf = list(ids)[goal] if type(goal) is int else (-1, -1)  # ("v", name), ("n", c) or part ids
    numeral = right if left == "n" else -1
    under, over = list(ids)[goal[0]] if type(goal) is tuple else (-1, -1)  # the goal's lhs: under+over
    depths, gids = [], []  # per popped int, in pop order: its (...)+1 depth, its id if a goal subterm else None
    one, offset, next_numeral = -1, 0, 0  # one: the numeral 1's index in depths; offset: in the front int's block
    leaf_at = -len(header)  # the next leaf to pop: header[leaf_at] while < 0, then the numeral leaf_at

    try:
        for name in header:  # a leaf is queued as None: the premises, then the numerals, pop in order
            push(None, 1, goal if ("v", name) == leaf else None)
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
            push(None, 1, goal if next_numeral == numeral else None)
            next_numeral += 1
            item = popleft()
            if type(item) is int:  # the block of the int popped item-th: t+1 > t at offset 0, then its pairs
                k, at = item, offset
                offset = at + 1 if at <= 2 * k else 0
                if offset:
                    appendleft(k)
                if not at:  # R1 gives t+1 > u for each of the depth(t) layers u under t, nearest first
                    if depths[k]:  # a goal under+1 > c, c the j-th layer under under, is the j-th of them
                        chain = gids[k] == under and _layers(ids, *goal)
                        push(range(depths[k]), len(chain) - 2 if chain else depths[k], goal if chain else None)
                    continue
                u = (at - 1) >> 1  # the pair (k, u) at an odd offset, (u, k) at an even one
                if not at & 1:
                    k, u = u, k
                depth = depths[k] + 1 if u == one else 0
                g = None if gids[k] is None else ids.get((gids[k], gids[u]))
            elif item is None:  # a premise or a numeral
                key = ("n", leaf_at) if leaf_at >= 0 else ("v", header[leaf_at])
                leaf_at += 1
                depth, g = 0, ids.get(key)
                if key == ("n", 1):
                    one = len(depths)
            else:  # the pack's atoms or A1's R1 conclusions feed no rule and the goal was found
                for _ in range(len(item) - 1):  # by offset, so each of their pops just injects its numeral
                    push(None, 1, goal if next_numeral == numeral else None)
                    next_numeral += 1
                continue
            m = len(depths)
            if m >= _SEARCH_TERMS:
                raise ResourceLimitError("search_terms", _SEARCH_TERMS, m + 1)
            depths.append(depth)
            gids.append(g)
            at, found = 2 * m + 1, None  # the goal's offset in this int's block, else its last offset
            if g is not None:
                if g == under == goal[1] and over == ids.get(("n", 1)):  # A1 gives the goal t+1 > t
                    at, found = 0, goal
                elif g in (left, right) and left in gids and right in gids:  # A2 gives the goal l+r
                    at, found = 2 * gids.index(right) + 1 if g == left else 2 * gids.index(left) + 2, goal
            push(m, at + 1, found)
    except _Stop as stop:
        return stop.args[0], min(candidates, limit)


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


def _ordering_proof(ids: dict, goal: tuple):
    """The first proof term of the ordering keyed goal in shortlex order
    (module docstring), or None when the ordering has no proof."""
    chain = _layers(ids, *goal)
    if chain is None:
        return None
    keys, rhs, out = list(ids), goal[1], []
    for inner in chain[1:]:
        if inner != rhs:  # R1 joins the layer over inner, > inner, to inner > rhs
            out.append("r")
        out.append("a" + _int_proof(keys, inner))
    return "".join(out)


def _search_literal(pack: AxiomPack, header, ids: dict, goal, budget: SearchBudget):
    """Build the goal's first proof term and count it by its rank; no other
    string is generated."""
    limit = budget.max_candidates
    if isinstance(goal, FbarAtom):  # search found it among the entries
        word = f"F{goal.x}."
    elif type(goal) is int:
        word = _int_proof(list(ids), goal)
    else:
        word = _ordering_proof(ids, goal)
    # the strings before word count as tried; with no word, every one the budget allows is
    r = limit if word is None else rank(_literal_alphabet(header), word)
    if r >= limit:
        return None, limit
    return goal, r + 1  # candidate n is the string of rank n - 1


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

    Structured search keeps two ints per int it pops, about sqrt(candidates)
    of them, and builds no term beyond the goal's.  An exhausted search of
    ((w+1)+1)+1 > w at 10,000,000 candidates takes about 2 ms on a 2-vCPU
    x86-64 VM, in a process that peaks at about 15 MB RSS; with a 20-entry
    pack, 1.10 * 10**11 take 0.18 s and 35 MB.  Past 10**6 popped ints
    (_SEARCH_TERMS), from 1.000002 * 10**12 there, it raises ResourceLimitError.
    The pack is one block of candidates, popped once: w+1 > w is found at
    candidate 23 in about 35 us with a 20-entry pack, and runs out at 5,000
    in about 15 us with a 10**6-entry built one, or 1.1 ms with 10,000
    hand-built entries, which are scanned so that an invalid one the search
    reaches raises.
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
    found, candidates = run(pack, header, ids, goal, budget)
    if found is None:
        return Exhausted(candidates)
    derivation = _reconstruct(header, ids, found)  # checked, so no verdict carries a rejected one
    if not isinstance(check_derivation(pack, derivation, derivation.lines[-1].statement), Accept):
        raise RuntimeError("search produced a derivation the checker rejects")
    return (DerivedTarget if found == target_key else DerivedNegation)(derivation, candidates)


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

    Sweeps both bits for every x in 1..pack.n and every int x >= 1 a pack
    entry's key equals, in ascending order, so a hand-built pack's entries
    past n are audited too; a key equal to no such int (0, 2.5, "3", NaN)
    names no atom and is skipped.  A violation (x, bit) means fbar(x) is bit
    is derivable but the flipped-diagonal truth differs.
    """
    entries = pack.entries
    built = type(entries) is FbarRule  # its one entry at each x <= its size is (x, fbar_truth(x))
    xs = set(range(1, len(entries) + 1)) if built else {_entry_index(key) for key, _ in entries} - {0}
    violations = []
    queries = 0
    for x in sorted(xs.union(range(1, pack.n + 1))):
        truth = fbar_truth(x)
        for bit in (0, 1):
            queries += 1
            if bit != truth and not built and (x, bit) in entries:
                violations.append((x, bit))
    return AuditReport("soundness", queries, tuple(violations))


def audit_consistency(pack: AxiomPack, x_max: int) -> AuditReport:
    """Check that no index has both fbar bits derivable.  The violations, the
    ints x in 1..x_max with (x, 0) and (x, 1) both entries, are read off the
    entries in O(entries) for any x_max, each key read as a pack reads it."""
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    entries, indices = pack.entries, range(1, x_max + 1)
    violations = set()
    for key, _ in entries if type(entries) is not FbarRule else ():  # a built pack has one bit per x
        x = _entry_index(key)
        if x in indices and (x, 0) in entries and (x, 1) in entries:
            violations.add(x)
    return AuditReport("consistency", 2 * x_max, tuple(sorted(violations)))
