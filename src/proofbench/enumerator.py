"""Exhaustive string enumeration in length-then-lexicographic order.

Strings over a finite ordered alphabet are ranked first by length, ties
broken by the alphabet's declared symbol order.  rank/unrank use the closed
mixed-radix form (offset = sum of |A|^l for l < len, plus the base-|A| lex
position) with arbitrary-precision integers, so no enumeration loop is ever
needed to locate a string.  Both split the digits in halves at a power of
|A|, not one symbol at a time over one growing integer.

The same order is applied to the valid words of a context-free grammar.
grammar_count and grammar_unrank rest on one memoized dynamic program over
(symbol, length) and (production suffix, length), run over two semirings as
in semiring parsing (Goodman, Computational Linguistics 1999): integers
count the derivations of each length, and lists of (word, value) pairs hold
the words of one length, the value being what the grammar's semantic
actions make of the derivation.  A production suffix splits at its first
nonterminal, and the terminals before it are fixed text, so the DP itself
never values a suffix that starts after a terminal: Q-lang's
"( aexp cmp aexp )" puts "(" in front of each word of aexp with the rest,
with no list for "aexp cmp aexp )".  Each split computes its head before
its tail, and the tail only for a nonzero head, so the memo fills from
short lengths up; the caller owns the memo and its budget.  Counting is by
derivation, which equals counting by word exactly when the grammar is
unambiguous; every grammar shipped in this package is, and the test suite
checks this against a brute-force oracle.

grammar_unrank finds the word's length from cumulative counts, then the
word itself in one of two ways.  The lengths before the first with more
than 100,000 words are kept in one list in rank order.  A rank first asked
for appends each length the list lacks up to its own, one build each.  A
build starts from the start symbol's pairs of the lengths already listed,
so Q-lang's "!" in front of a listed program wraps that program's own
tree; and it moves what it made into the collector's oldest generation, so
no young collection walks it again.  grammar_derivation hands out rank k's
entry, word and value, in about 0.1 us (2-vCPU x86-64 VM, Python 3.11),
and a cold fbar_truth sweep of Q-lang's 64,446 programs of length <= 7
takes 0.08-0.16 s.  The first length whose build outgrows its cell budget
ends the list; it and every longer length are descended.

A longer length is found by prefix descent over an Earley chart that
carries derivation counts (Earley, CACM 1970; recursive ranking as in
Hickey & Cohen, SIAM J. Comput. 1983).  An item names the chart state it
started in, not a position, as in Tomita's graph-structured stack (1986)
applied to Earley columns (Aycock & Horspool, Computer Journal 2002), so a
column and the counts read from it depend only on its items.  The grammar
interns these chart states by their items alone (hash-consing), each
keeping the scans from it as moves; later descents reuse them, and prefixes
that leave the same pending structure share one state: "(4>", "(11>" and
"(x>" each await the second operand of one open comparison.  At most
2,048 states and moves are kept; past that, new states last one descent.
Terminals that each occur only as a whole right-hand side, of equal
multisets of nonterminals (Q-lang's 1-9 as nonzero and digit, and = and >
as cmp), are class-mates: each is awaited only by unit items that complete
at once with equal counts, so class-mates share one move and one count.
A state lists the terminals its column awaits, in alphabet order, and for
each number of symbols still to come keeps running totals of the words that
continue the prefix with each; one bisection at the offset left picks the
next symbol, and its move the next state.  Totals are added only until one
passes the offset, so no visit counts a terminal past the one it picks.  A
word of length L costs at most L - 1 scans.  The descent builds no
derivation, so grammar_derivation returns None for such a word.  recognizes
walks the same states over all but the last symbol of the word and counts
the words that end with that one.

Grammars must be epsilon-free and contain no unit-production cycles; both
restrictions are enforced at construction time and keep the length dynamic
program well-founded.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import sys
from collections import Counter

from .errors import ResourceLimitError

_UNBOUNDED = None  # sentinel for "no finite maximum word length"

# A length with at most this many words is unranked from its materialized
# bucket; the lists kept while building one may hold at most 4x as many
# entries in all, and a length whose build would exceed that is descended.
_BUCKET_WORDS = 100_000

# A grammar's count memo holds at most this many entries; a count past it raises.
_COUNT_ENTRIES = 1_000_000

# A grammar interns at most this many chart states and moves between them;
# a state built once the table is full stays private to its chart.
_CHART_TABLE = 2048


class UnknownSymbolError(ValueError):
    def __init__(self, position: int, symbol: str):
        self.position = position
        self.symbol = symbol
        super().__init__(f"symbol {symbol!r} at position {position} is not in the alphabet")


class GrammarError(ValueError):
    """The grammar violates a structural requirement."""


class Alphabet:
    """A finite, ordered set of single-character symbols.

    The declared order is the tie-break order for strings of equal length.
    """

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be nonempty")
        for s in symbols:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {s!r}")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"


def unrank(alphabet: Alphabet, k: int) -> str:
    """The k-th string (0-based) over the alphabet in length-then-lex order."""
    if k < 0:
        raise ValueError("rank must be >= 0")
    n = len(alphabet)
    if n == 1:
        if k > sys.maxsize:
            raise ValueError(f"rank {k} over a one-symbol alphabet is longer than a string can be")
        return alphabet.symbols[0] * k
    # the (n**L - 1) // (n - 1) strings shorter than L are at most k exactly
    # when n**L <= m; m's bit length puts L within one of the largest such
    m = k * (n - 1) + 1
    length = int((m.bit_length() - 1) / math.log2(n))
    power = n ** length
    while power * n <= m:
        power *= n
        length += 1
    while power > m:
        power //= n
        length -= 1
    return _spell(k - (power - 1) // (n - 1), alphabet.symbols, length)


def rank(alphabet: Alphabet, s: str) -> int:
    """Position of s in length-then-lex order; inverse of unrank."""
    n = len(alphabet)
    digits = [alphabet._index.get(ch) for ch in s]
    if None in digits:
        i = digits.index(None)
        raise UnknownSymbolError(i, s[i])
    return ((n ** len(s) - 1) // (n - 1) if n > 1 else len(s)) + _value(digits, n)


def _value(digits: list, n: int) -> int:
    """The base-n number digits spell, its halves joined by a power of n: near-linear time."""
    if len(digits) > 64:
        half = len(digits) // 2
        return _value(digits[:half], n) * n ** (len(digits) - half) + _value(digits[half:], n)
    value = 0
    for d in digits:
        value = value * n + d
    return value


def _spell(value: int, symbols: tuple, length: int) -> str:
    """The length symbols that spell value in base len(symbols), its halves
    split at a power of the base: the inverse of _value."""
    n = len(symbols)
    if length > 64:
        half = length // 2
        high, low = divmod(value, n ** (length - half))
        return _spell(high, symbols, half) + _spell(low, symbols, length - half)
    chars = [""] * length
    for i in range(length - 1, -1, -1):
        value, d = divmod(value, n)
        chars[i] = symbols[d]
    return "".join(chars)


def stream(alphabet: Alphabet, from_: int, count: int) -> list[str]:
    """The window [unrank(from_), ..., unrank(from_ + count - 1)]."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return [unrank(alphabet, from_ + i) for i in range(count)]


def _post_order(roots, edges: dict):
    """(the nodes reachable from roots, each after those its edges reach, None),
    or (None, the node that closes a cycle).  Iterative, for long chains."""
    state, order = {}, []  # state: 1 while on the path, 2 once finished
    for root in roots:
        path = [] if root in state else [(root, iter(edges[root]))]
        state.setdefault(root, 1)
        while path:
            node, rest = path[-1]
            nxt = next(rest, None)
            if nxt is None:
                path.pop()
                state[node] = 2
                order.append(node)
            elif state.get(nxt) == 1:
                return None, nxt
            elif nxt not in state:
                state[nxt] = 1
                path.append((nxt, iter(edges[nxt])))
    return order, None


class Grammar:
    """A validated context-free grammar over (a subset of) an Alphabet.

    productions maps each nonterminal name to a tuple of right-hand sides;
    a right-hand side is a nonempty tuple of symbols, each either a
    nonterminal name or a terminal character of the alphabet.  Nonterminal
    names must not collide with alphabet symbols.

    actions maps some (nonterminal, rhs) pairs to semantic actions
    f(word, children), as in yacc: a derivation's value is its production's
    action applied to its word and its children's values (a terminal's value
    is the terminal; a production without an action gives None).

    ranked lists the (word, value) pairs of every length built so far, in
    rank order: for k < len(ranked), ranked[k] is grammar_derivation(self, k),
    so a caller may index it directly.  It only grows; do not write to it.
    """

    def __init__(self, alphabet: Alphabet, start: str, productions: dict, actions: dict | None = None):
        self.alphabet = alphabet
        self.start = start
        self.productions = {nt: tuple(tuple(rhs) for rhs in alts) for nt, alts in productions.items()}
        self._validate()
        self.actions = {(nt, tuple(rhs)): f for (nt, rhs), f in (actions or {}).items()}
        if any(rhs not in self.productions.get(nt, ()) for nt, rhs in self.actions):
            raise GrammarError("every action must be keyed by a production (nonterminal, rhs)")
        # memoization caches; contents are pure functions of the grammar
        self._counts: dict = {}
        self._count_sym, self._count_seq = _counter(self)
        self.ranked: list = []  # the (word, value) pairs of every bucketed length, in rank order
        self._bucket_end = float("inf")  # the rank where the bucketed lengths end, once known
        self._cum: list[int] = [0]  # _cum[L] = number of words shorter than L
        self._states: dict = {}  # a frozenset of items, or None for the root -> its _Chart
        self._moves = 0  # the moves kept in the interned states' moves dicts

    # -- validation -------------------------------------------------------

    def _validate(self):
        prods = self.productions
        if self.start not in prods:
            raise GrammarError(f"start symbol {self.start!r} has no productions")
        terminal_set = set(self.alphabet.symbols)
        overlap = terminal_set & set(prods)
        if overlap:
            raise GrammarError(f"nonterminal names collide with alphabet symbols: {sorted(overlap)}")
        for nt, alts in prods.items():
            if not alts:
                raise GrammarError(f"nonterminal {nt!r} has no productions")
            for rhs in alts:
                if not rhs:
                    raise GrammarError(f"empty right-hand side for {nt!r} (grammars must be epsilon-free)")
                for sym in rhs:
                    if sym not in prods and sym not in terminal_set:
                        raise GrammarError(f"undeclared symbol {sym!r} in a production of {nt!r}")

        # unit-production cycles (A -> B, B -> A) would make the length
        # dynamic program circular; reject them up front
        unit_edges = {
            nt: {rhs[0] for rhs in alts if len(rhs) == 1 and rhs[0] in prods}
            for nt, alts in prods.items()
        }
        unit_order, cycle = _post_order(prods, unit_edges)  # A -> B puts B before A
        if cycle is not None:
            raise GrammarError(f"unit-production cycle through {cycle!r}")
        self._unit_rank = {nt: i for i, nt in enumerate(unit_order)}

        # Earley prediction: each nonterminal's direct left corners; a chart
        # column closes its awaited set over them
        self._corners = {nt: {rhs[0] for rhs in alts if rhs[0] in prods} for nt, alts in prods.items()}

        # terminal classes (see the module docstring): _rep maps each terminal
        # to the first of its class in alphabet order
        lhs_of: dict = {t: [] for t in self.alphabet.symbols}
        inner = set()  # symbols of longer right-hand sides
        for nt, alts in prods.items():
            for rhs in alts:
                if len(rhs) > 1:
                    inner.update(rhs)
                elif rhs[0] in terminal_set:
                    lhs_of[rhs[0]].append(nt)
        first: dict = {}  # names need not compare, so a multiset is a frozenset of counts
        self._rep = {t: t if t in inner else first.setdefault(frozenset(Counter(lhs).items()), t)
                     for t, lhs in lhs_of.items()}

        # minimum derivable length per nonterminal (None = unproductive), as
        # in Knuth's generalization of Dijkstra's algorithm (IPL 1977): pop
        # the shortest pending minimum, which is then final, and re-total
        # only the productions that mention its nonterminal
        minlen: dict[str, int | None] = {nt: None for nt in prods}
        uses: dict = {nt: [] for nt in prods}
        for nt, alts in prods.items():
            for rhs in alts:
                for sym in dict.fromkeys(rhs):
                    if sym in prods:
                        uses[sym].append((nt, rhs))
        pending: list = []  # (length, tie-break, nonterminal); names need not compare

        def relax(nt, rhs):
            total = 0
            for sym in rhs:
                m = 1 if sym in terminal_set else minlen[sym]
                if m is None:
                    return
                total += m
            if minlen[nt] is None or total < minlen[nt]:
                minlen[nt] = total
                heapq.heappush(pending, (total, self._unit_rank[nt], nt))

        for nt, alts in prods.items():
            for rhs in alts:
                relax(nt, rhs)
        while pending:
            total, _, nt = heapq.heappop(pending)
            if total == minlen[nt]:  # else a stale entry, since superseded
                for user, rhs in uses[nt]:
                    relax(user, rhs)
        if minlen[self.start] is None:
            raise GrammarError("start symbol derives no finite word")
        self._minlen = minlen

        # finiteness: the longest word, over the usable productions (those
        # whose symbols are all productive) reachable from the start.  The
        # language is infinite iff they close a cycle; otherwise the longest
        # word of each nonterminal follows from its children's, in post-order.
        usable = {
            nt: [rhs for rhs in alts if all(s in terminal_set or minlen[s] is not None for s in rhs)]
            for nt, alts in prods.items()
        }
        order, _ = _post_order([self.start], {nt: {s for rhs in alts for s in rhs if s in prods}
                                              for nt, alts in usable.items()})
        maxlen: dict[str, int] = {}
        for nt in order or ():
            maxlen[nt] = max(sum(1 if s in terminal_set else maxlen[s] for s in rhs) for rhs in usable[nt])
        self._max_word_len = maxlen.get(self.start, _UNBOUNDED)

        # precomputed minimum lengths for every production suffix, and where
        # the run of terminals that starts it ends: rhs[i:j] are terminals and
        # rhs[j] is the suffix's first nonterminal, or j == len(rhs)
        suffix_min: dict = {}
        run_end: dict = {}
        big = 1 << 60
        for nt, alts in prods.items():
            for rhs in alts:
                acc = 0
                j = len(rhs)
                suffix_min[(rhs, j)], run_end[(rhs, j)] = 0, j
                for i in range(len(rhs) - 1, -1, -1):
                    sym = rhs[i]
                    if sym in terminal_set:
                        m = 1
                    else:
                        m, j = (minlen[sym] if minlen[sym] is not None else big), i
                    acc = min(acc + m, big)
                    suffix_min[(rhs, i)], run_end[(rhs, i)] = acc, j
        self._suffix_min = suffix_min
        self._run_end = run_end

    # -- caches and recognition ---------------------------------------------

    def cache_sizes(self) -> dict:
        """The number of lengths up to the longest bucketed word, the bucketed
        words, the count memo's entries, split into (production suffix, length)
        and (symbol, length) keys, the interned chart states, the entries of
        their count memos (descent tables included; class-mates share one
        count) and the moves kept on them (one per class of terminals)."""
        seq = sum(len(key) == 3 for key in self._counts)
        return {
            "bucket_lengths": bisect.bisect_left(self._cum, len(self.ranked)),
            "bucket_words": len(self.ranked),
            "chart_counts": sum(len(state.ups) for state in self._states.values()),
            "chart_moves": self._moves,
            "chart_states": len(self._states),
            "count_seq": seq,
            "count_sym": len(self._counts) - seq,
        }

    def recognizes(self, word: str) -> bool:
        """True iff the grammar derives the word."""
        if not word or any(c not in self.alphabet for c in word):
            return False
        state = _Chart.root(self)
        for c in word[:-1]:
            if c not in state.column:
                return False  # no item awaits c, so no word starts with this prefix
            state = state.after(c)
        return state._up(self._rep[word[-1]], 0) > 0


def _length_dp(grammar: Grammar, memo: dict, keep, zero, end, join):
    """(sym, seq): one memoized length-split DP over the caller's algebra.

    sym(nt, l) values the derivations of a nonterminal over l symbols,
    seq(rhs, i, l, lhs) those of rhs[i:].  A run of terminals rhs[i:j] is
    fixed text in front of the suffix's first nonterminal rhs[j], so a split
    joins rhs[j]'s value with rhs[j + 1:]'s directly, and no value is made
    for a suffix that starts after a terminal unless the caller asks for it.
    The algebra is a fresh zero(), +=, end(lhs, rhs, i), the value of a
    suffix rhs[i:] of terminals only (at its one length), and
    join(lhs, rhs, i, j, head, tail) of rhs[j]'s value and rhs[j + 1:]'s
    behind the run rhs[i:j] (lhs matters only for a whole rhs, i == 0).
    keep(key, value) stores an entry in memo, or declines to, under the
    caller's budget; a suffix of terminals only is not offered.  A split
    computes its head first and its tail only for a nonzero head, so the
    memo fills from short lengths up and the recursion deepens with the
    nesting of nonterminals, not the length.
    """
    prods, minlen = grammar.productions, grammar._minlen
    suffix_min, run_end = grammar._suffix_min, grammar._run_end

    def sym(nt, l):
        value = memo.get((nt, l))
        if value is None:
            value = zero()
            for rhs in prods[nt]:
                value += seq(rhs, 0, l, nt)
            keep((nt, l), value)
        return value

    def seq(rhs, i, l, lhs=None):
        value = memo.get((rhs, i, l))
        if value is None:
            j = run_end[(rhs, i)]
            rest = l - (j - i)  # the run rhs[i:j] spans one symbol per terminal
            if j == len(rhs):
                return end(lhs, rhs, i) if rest == 0 else zero()
            value = zero()
            # minlen is None for a nonterminal that derives nothing
            for l1 in range(minlen[rhs[j]] or rest + 1, rest - suffix_min[(rhs, j + 1)] + 1):
                head = sym(rhs[j], l1)
                if head:
                    value += join(lhs, rhs, i, j, head, seq(rhs, j + 1, rest - l1))
            keep((rhs, i, l), value)
        return value

    return sym, seq


def _counter(grammar: Grammar):
    """The counting (sym, seq) over grammar._counts, which Grammar builds once.
    Past _COUNT_ENTRIES entries, read at each store, a count raises."""
    counts = grammar._counts

    def keep(key, value):
        counts[key] = value
        if len(counts) > _COUNT_ENTRIES:
            raise ResourceLimitError("count_entries", _COUNT_ENTRIES, len(counts))

    return _length_dp(grammar, counts, keep, int, lambda lhs, rhs, i: 1, lambda lhs, rhs, i, j, head, tail: head * tail)


def grammar_count(grammar: Grammar, length: int) -> int:
    """Number of distinct words of exactly the given length the grammar derives.
    The counts persist on the grammar, at most _COUNT_ENTRIES of them."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return grammar._count_sym(grammar.start, length)


def _bucket(grammar: Grammar, length: int) -> list:
    """All (word, value) pairs of the given length, in rank order."""
    actions = grammar.actions
    memo: dict = {}
    cells = 0

    def keep(key, pairs):
        nonlocal cells
        if len(key) == 3 and key[1] == 0:
            return  # a whole right-hand side's pairs are not kept, to spare peak memory
        cells += len(pairs)
        if cells > 4 * _BUCKET_WORDS:
            raise ResourceLimitError("bucket_cells", 4 * _BUCKET_WORDS, cells)
        memo[key] = pairs

    # (word, child values) of a suffix, but (word, act(word, child values)) of a
    # whole rhs; a terminal's value is the terminal, so a run of terminals
    # rhs[i:j] adds its text to each word and itself to each child tuple
    def end(lhs, rhs, i):
        word, run = "".join(rhs[i:]), rhs[i:]
        if i:
            return [(word, run)]
        act = actions.get((lhs, rhs))
        return [(word, act and act(word, run))]

    def join(lhs, rhs, i, j, heads, tails):
        text, run = "".join(rhs[i:j]), rhs[i:j]
        heads = [(text + w, run + (v,)) for w, v in heads]
        if i:
            return [(w + t, v + c) for w, v in heads for t, c in tails]
        act = actions.get((lhs, rhs))
        return [(word := w + t, act and act(word, v + c)) for w, v in heads for t, c in tails]

    derive, _ = _length_dp(grammar, memo, keep, list, end, join)
    # the start symbol's pairs of every length already listed are reused, not
    # rebuilt, and not counted again; a stable sort keeps the relative order
    # of an ambiguous grammar's copies of one word, so the result is the same
    start, cum, ranked = grammar.start, grammar._cum, grammar.ranked
    for n in range(bisect.bisect_left(cum, len(ranked))):
        memo[(start, n)] = ranked[cum[n]:cum[n + 1]]
    # every word of one length is ranked by its symbols' ranks; an ASCII
    # word is ranked as bytes, which translate twice as fast as a str
    symbols = "".join(grammar.alphabet.symbols)
    if symbols.isascii():
        ranks = bytes.maketrans(symbols.encode(), bytes(range(len(symbols))))
        key = lambda pair: pair[0].encode().translate(ranks)
    else:
        order = {ord(s): i for i, s in enumerate(symbols)}
        key = lambda pair: pair[0].translate(order)
    # nearly every container the build makes survives it, so a collection
    # would only walk it again: pause the collector, then move everything
    # tracked into the oldest generation at once (freeze, unfreeze), unless
    # the caller keeps objects frozen or had the collector off
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sorted(derive(start, length), key=key)
    finally:
        memo.clear()  # the DP's two functions form a cycle that would keep it alive
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


class _Chart:
    """An interned Earley chart state: one column, its count memo and its level.

    The column maps each item (lhs, rhs, dot, origin) to its inside count, the
    number of derivations of rhs[:dot] over the symbols since the item began,
    grouped by the item's next symbol rhs[dot].  The origin is the state the
    item began in; a prediction's is the state itself, and any other's is at
    a lower level, the level being one more than the highest of the items'
    origins (0 at the root).  Completed items are folded into the items
    waiting for them while the column is built, so no column stores one.  A
    column never changes, and its counts read only it and its items' origins,
    so equal items make one state, count memo included, whatever prefixes
    reached them: the grammar interns states by their items alone, and a
    state keeps each scan from it as a move.  Class-mates (Grammar._rep) give
    equal items and counts, so they share one move and one count.
    """

    __slots__ = ("grammar", "column", "ups", "level", "moves", "awaited")

    def __init__(self, grammar: Grammar, items: dict, level: int, roots=()):
        """The state of items, plus the predictions for what they, or roots, await."""
        self.grammar, self.level = grammar, level
        self.ups: dict = {}  # ups[(sym, r)] = self._up(sym, r); ups[r] a descent table
        self.moves: dict = {}  # _rep of a terminal -> the interned state its scan gives
        column = self.column = {}
        for (lhs, rhs, dot, origin), w in items.items():
            column.setdefault(rhs[dot], []).append((lhs, rhs, dot, origin, w))
        corners, prods = grammar._corners, grammar.productions
        predicted = {sym for sym in column if sym in prods}.union(roots)
        frontier = list(predicted)
        while frontier:  # close the awaited nonterminals over their left corners
            for nxt in corners[frontier.pop()] - predicted:
                predicted.add(nxt)
                frontier.append(nxt)
        for nt in predicted:
            for rhs in prods[nt]:
                column.setdefault(rhs[0], []).append((nt, rhs, 0, self, 1))
        self.awaited = [t for t in grammar.alphabet.symbols if t in column]  # in alphabet order

    @staticmethod
    def root(grammar: Grammar) -> "_Chart":
        """The grammar's state before any symbol, interned under the key None."""
        if None not in grammar._states:
            grammar._states[None] = _Chart(grammar, {}, 0, {grammar.start})
        return grammar._states[None]

    def after(self, c: str) -> "_Chart":
        """The state after c, interned and kept in moves while the table has
        room.  A move is keyed by c's class: one scan serves all its class-mates."""
        grammar = self.grammar
        states, cls = grammar._states, grammar._rep[c]
        state = self.moves.get(cls)
        if state is None:
            items = self._scan(c)
            key = frozenset(items.items())
            state = states.get(key)
            if state is None:
                state = _Chart(grammar, items, 1 + max((item[3].level for item in items), default=0))
                if len(states) + grammar._moves < _CHART_TABLE:
                    states[key] = state
            if len(states) + grammar._moves < _CHART_TABLE:
                self.moves[cls] = state
                grammar._moves += 1
        return state

    def _scan(self, c: str) -> dict:
        """The items that scanning c from this state gives: scan, then complete."""
        rank = self.grammar._unit_rank
        items: dict = {}
        done: dict = {}  # (lhs, origin) -> derivations of lhs over the symbols since origin, c included
        pending: list = []

        def advance(lhs, rhs, dot, origin, w):
            if dot < len(rhs):
                key = (lhs, rhs, dot, origin)
                items[key] = items.get(key, 0) + w
                return
            key = (lhs, origin)
            if key not in done:
                done[key] = 0
                heapq.heappush(pending, (-origin.level, rank[lhs], len(done), key))
            done[key] += w

        for lhs, rhs, dot, origin, w in self.column.get(c, ()):
            advance(lhs, rhs, dot + 1, origin, w)
        # Completing (a, o) can only complete parents that began at a lower
        # level, or in o itself through a unit production; popping higher
        # levels first and unit children before parents finishes every count
        # before it is propagated, so each (a, o) is completed once.
        while pending:
            a, origin = key = heapq.heappop(pending)[3]
            w = done[key]
            for lhs, rhs, dot, o, v in origin.column.get(a, ()):
                advance(lhs, rhs, dot + 1, o, v * w)
        return items

    def _up(self, sym: str, r: int) -> int:
        """Ways to derive a sym from this state on and then r more symbols: over
        the items awaiting sym, the inside count times the ways to finish the
        item and then, begun in its origin, its lhs and all its ancestors."""
        total = self.ups.get((sym, r))
        if total is None:
            grammar = self.grammar
            total = int(sym == grammar.start and r == 0 and not self.level)
            for lhs, rhs, dot, origin, w in self.column.get(sym, ()):
                dot += 1
                n = len(rhs) - dot
                if grammar._run_end[(rhs, dot)] == len(rhs):  # terminals only: one way, over n symbols
                    if r >= n:
                        total += w * origin._up(lhs, r - n)
                    continue
                for r1 in range(grammar._suffix_min[(rhs, dot)], r + 1):
                    c = grammar._count_seq(rhs, dot, r1)
                    if c:
                        total += w * c * origin._up(lhs, r - r1)
            self.ups[(sym, r)] = total
        return total


def _locate(grammar: Grammar, k: int):
    """The k-th word's length and its offset among the words of that length."""
    if k < 0:
        raise ValueError("rank must be >= 0")
    cum = grammar._cum
    length = len(cum) - 1
    while cum[length] <= k:
        if grammar._max_word_len is not _UNBOUNDED and length > grammar._max_word_len:
            raise ValueError(f"rank {k} is beyond the language: only {cum[length]} words exist")
        cum.append(cum[length] + grammar_count(grammar, length))
        if cum[-1] - cum[length] > _BUCKET_WORDS:  # no bucket holds it, so the bucketed lengths end before it
            grammar._bucket_end = min(grammar._bucket_end, cum[length])
        length += 1
    length = bisect.bisect_right(cum, k) - 1
    return length, k - cum[length]


def grammar_unrank(grammar: Grammar, k: int) -> str:
    """The k-th valid word (0-based) of the grammar in length-then-lex order.

    Equivalent to filtering the raw stream through the grammar's recognizer
    and taking element k, but computed from length counts directly, under
    grammar_count's budget.  A bucketed rank is grammar_derivation's word,
    not asked for once the bucketed lengths end before k.  Past them, the
    descent walks from the root chart state one move at a time: each
    position bisects the state's running totals of the words that continue
    the prefix with each awaited terminal, adding totals only until one
    exceeds the offset left, then reads the chosen symbol's move off the state.
    Class-mates share one move and one count, so after "(" the words that
    continue with each of 1-9 are counted once.
    """
    pair = k < grammar._bucket_end and grammar_derivation(grammar, k)  # else it would be None
    if pair:
        return pair[0]
    length, j = _locate(grammar, k)
    state, rep, word = grammar._states.get(None) or _Chart.root(grammar), grammar._rep, []
    for r in range(length - 1, -1, -1):
        totals = state.ups.get(r) or state.ups.setdefault(r, [0])  # an int key, unlike the memo's (sym, r)
        awaited = state.awaited
        while totals[-1] <= j:  # count on only until the running total passes j
            if len(totals) > len(awaited):
                raise AssertionError("prefix descent exhausted the alphabet; counts are inconsistent")
            totals.append(totals[-1] + state._up(rep[awaited[len(totals) - 1]], r))
        i = bisect.bisect_right(totals, j)  # past equal totals: terminals with no word here
        word.append(c := awaited[i - 1])
        j -= totals[i - 1]
        if r:
            state = state.moves.get(rep[c]) or state.after(c)
    return "".join(word)


def grammar_derivation(grammar: Grammar, k: int):
    """(grammar_unrank(grammar, k), its value under the grammar's actions), or
    None past the bucket, where prefix descent builds no derivation."""
    ranked = grammar.ranked
    if 0 <= k < len(ranked):
        return ranked[k]
    if k < grammar._bucket_end:
        cum = grammar._cum
        _locate(grammar, k)  # counts up to k's length, which may end the list before it
        # one build per length, each the next nonempty one, until the list
        # reaches k or a build over its budget ends the list
        while len(ranked) <= k < grammar._bucket_end:
            n = bisect.bisect_right(cum, len(ranked)) - 1
            try:
                ranked += _bucket(grammar, n)
            except ResourceLimitError as exc:
                if exc.budget != "bucket_cells":
                    raise
                grammar._bucket_end = cum[n]
    return ranked[k] if k < len(ranked) else None
