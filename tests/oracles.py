"""Brute-force reference implementations the tests trust.

Everything here is deliberately naive and independent of the library's
algorithms: shortlex listing by generate-in-order, grammar word listing
by expanding leftmost derivations with a minimum-length bound, and literal
proof search by decoding every string in turn.  Slow, small, and obviously
correct is the point.
"""

import itertools

from proofbench.pi_system import FbarAtom, Greater, IntTyping, Num, Sum, Var


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
