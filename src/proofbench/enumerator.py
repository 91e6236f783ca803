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
with no list for "aexp cmp aexp )".  A split's head is no longer than its
nonterminal's longest word, nor so short that the tail outgrows its own, so
S -> a S | a splits once per length.  One explicit stack fills each entry
after those it needs, as it fills the chart's counts below, so no call
nests however long the word; the caller owns the memo and its budget.
Counting is by derivation, which equals counting by word exactly when the
grammar is unambiguous; every grammar shipped in this package is, and the
test suite checks this against a brute-force oracle.

grammar_unrank finds the word's length from cumulative counts, then the
word itself in one of two ways.  The lengths before the first with more
than 100,000 words are kept in one list in rank order.  A rank first asked
for appends each length the list lacks up to its own, one build each.  A
build starts from the start symbol's pairs of the lengths already listed,
so Q-lang's "!" in front of a listed program wraps that program's own
tree; and it runs under the one collector pause (_kept), shared by parsing
derivation files, so no young collection walks it again.  grammar_derivation
hands out rank k's entry, word and value, in about 0.1 us (2-vCPU x86-64
VM, Python 3.11), and a cold fbar_truth sweep of Q-lang's 64,446 programs
of length <= 7 takes 0.08-0.16 s.  The first length whose build outgrows
its cell budget ends the list; it and every longer length are descended.

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


def _drive(fill) -> None:
    """Run fill from one explicit stack.  A fill is a generator that stores a
    memo entry: it yields the fill of each entry it needs and lacks, and reads
    that entry when it resumes, so no call nests however long the chain."""
    stack = [None]
    while fill:
        need = next(fill, None)
        if need is None:
            fill = stack.pop()
        else:
            stack.append(fill)
            fill = need


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
        counts = self._counts = {}

        def keep(key, value):  # past _COUNT_ENTRIES entries, read at each store, a count raises
            counts[key] = value
            if len(counts) > _COUNT_ENTRIES:
                raise ResourceLimitError("count_entries", _COUNT_ENTRIES, len(counts))

        self._count = _length_dp(self, counts.get, keep, int, lambda lhs, rhs, i: 1,
                                 lambda lhs, rhs, i, j, head, tail: head * tail)
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
        # dynamic program circular; reject them up front.  A -> B ranks B first.
        units = {nt: {rhs[0] for rhs in alts if len(rhs) == 1 and rhs[0] in prods} for nt, alts in prods.items()}
        unit_rank, path = {}, set()

        def rank_units(nt):
            path.add(nt)
            for child in units[nt]:
                if child in path:
                    raise GrammarError(f"unit-production cycle through {child!r}")
                if child not in unit_rank:
                    yield rank_units(child)
            path.remove(nt)
            unit_rank[nt] = len(unit_rank)

        _drive(rank_units(nt) for nt in prods if nt not in unit_rank)
        self._unit_rank = unit_rank

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

        # the longest word of each nonterminal, over its usable productions
        # (those whose symbols are all productive): inf while on the path, so
        # one that reaches itself, and each that reaches it, is unbounded
        maxlen = self._maxlen = {}

        def longest(nt):
            maxlen[nt] = math.inf
            usable = [rhs for rhs in prods[nt] if all(minlen.get(s, 1) for s in rhs)]  # a terminal is one symbol
            for s in (s for rhs in usable for s in rhs if s in prods and s not in maxlen):
                yield longest(s)
            maxlen[nt] = max((sum(maxlen.get(s, 1) for s in rhs) for rhs in usable), default=0)

        _drive(longest(nt) for nt in prods if nt not in maxlen)
        self._max_word_len = maxlen[self.start]

        # precomputed minimum and maximum lengths for every production suffix,
        # and where the run of terminals that starts it ends: rhs[i:j] are
        # terminals and rhs[j] is the suffix's first nonterminal, or j == len(rhs)
        self._suffix_min, self._suffix_max, self._run_end = suffix_min, suffix_max, run_end = {}, {}, {}
        big = 1 << 60
        for nt, alts in prods.items():
            for rhs in alts:
                acc = top = 0
                j = len(rhs)
                suffix_min[(rhs, j)], suffix_max[(rhs, j)], run_end[(rhs, j)] = 0, 0, j
                for i in range(len(rhs) - 1, -1, -1):
                    sym = rhs[i]
                    if sym in terminal_set:
                        m = 1
                    else:
                        m, j = (minlen[sym] if minlen[sym] is not None else big), i
                    acc = min(acc + m, big)
                    top += maxlen.get(sym, 1)
                    suffix_min[(rhs, i)], suffix_max[(rhs, i)], run_end[(rhs, i)] = acc, top, j

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


def _length_dp(grammar: Grammar, look, keep, zero, end, join):
    """entry: one memoized length-split DP over the caller's algebra.

    entry(nt, l) values the derivations of a nonterminal over l symbols,
    entry(rhs, i, l) those of rhs[i:], a suffix with a nonterminal.  A run of
    terminals rhs[i:j] is fixed text in front of the suffix's first
    nonterminal rhs[j], so a split joins rhs[j]'s value with rhs[j + 1:]'s
    directly.  A head is no longer than its nonterminal's longest word, nor
    so short that the tail outgrows its own.  The algebra is a fresh zero(),
    +=, end(lhs, rhs, i), the value of a suffix rhs[i:] of terminals only (at
    its one length), and join(lhs, rhs, i, j, head, tail) of rhs[j]'s value
    and rhs[j + 1:]'s behind the run rhs[i:j] (lhs matters only for a whole
    rhs, i == 0).  look(key) reads an entry or None; keep(key, value) stores
    one, or declines to, under the caller's budget.  _drive fills each entry
    after those it needs, a head first and its tail only for a nonzero head.
    A whole rhs's fill runs inside its nonterminal's, which takes its value.
    """
    prods, minlen, maxlen = grammar.productions, grammar._minlen, grammar._maxlen
    suffix_min, suffix_max, run_end = grammar._suffix_min, grammar._suffix_max, grammar._run_end

    def fill_sym(nt, l):
        value = zero()
        for rhs in prods[nt]:
            if run_end[(rhs, 0)] < len(rhs):
                value += yield from fill_seq(rhs, 0, l, nt)
            elif l == len(rhs):
                value += end(nt, rhs, 0)
        keep((nt, l), value)

    def fill_seq(rhs, i, l, lhs):
        j = run_end[(rhs, i)]
        rest = l - (j - i)  # the run rhs[i:j] spans one symbol per terminal
        nt, k = rhs[j], j + 1
        terminals = run_end[(rhs, k)] == len(rhs)  # a tail of terminals only: the bounds fit it exactly
        value = zero()
        # minlen is None for a nonterminal that derives nothing
        for l1 in range(max(minlen[nt] or rest + 1, rest - suffix_max[(rhs, k)]),
                        min(maxlen[nt], rest - suffix_min[(rhs, k)]) + 1):
            head = look((nt, l1))
            if head is None:
                yield fill_sym(nt, l1)
                head = look((nt, l1))
            if head:
                tail = end(lhs, rhs, k) if terminals else look((rhs, k, rest - l1))
                if tail is None:
                    yield fill_seq(rhs, k, rest - l1, None)
                    tail = look((rhs, k, rest - l1))
                value += join(lhs, rhs, i, j, head, tail)
        keep((rhs, i, l), value)
        return value

    def entry(*key):
        value = look(key)
        if value is None:
            _drive(fill_sym(*key) if len(key) == 2 else fill_seq(*key, None))
            value = look(key)
        return value

    return entry


def grammar_count(grammar: Grammar, length: int) -> int:
    """Number of distinct words of exactly the given length the grammar derives.
    The counts persist on the grammar, at most _COUNT_ENTRIES of them."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return grammar._count(grammar.start, length)


def _bucket(grammar: Grammar, length: int) -> list:
    """All (word, value) pairs of the given length, in rank order."""
    actions = grammar.actions
    start, cum, ranked = grammar.start, grammar._cum, grammar.ranked
    listed = bisect.bisect_left(cum, len(ranked))  # the lengths below it are listed
    memo: dict = {}
    cells = 0

    def look(key):  # the start symbol's listed pairs, read when asked for, are not counted again
        if key[0] == start and key[1] < listed and key not in memo:
            memo[key] = ranked[cum[key[1]]:cum[key[1] + 1]]
        return memo.get(key)

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

    derive = _length_dp(grammar, look, keep, list, end, join)
    # every word of one length is ranked by its symbols' ranks; an ASCII
    # word is ranked as bytes, which translate twice as fast as a str.  A
    # stable sort keeps the relative order of an ambiguous grammar's copies
    # of one word, so a listed length's pairs are those a rebuild would give.
    symbols = "".join(grammar.alphabet.symbols)
    if symbols.isascii():
        ranks = bytes.maketrans(symbols.encode(), bytes(range(len(symbols))))
        key = lambda pair: pair[0].encode().translate(ranks)
    else:
        order = {ord(s): i for i, s in enumerate(symbols)}
        key = lambda pair: pair[0].translate(order)
    try:
        pairs = _kept(derive, start, length)
    finally:
        memo.clear()  # the DP's functions form a cycle that would keep it alive
    return sorted(pairs, key=key) if len(pairs) > 1 else pairs


def _kept(build, *args):
    """build(*args) with the collector paused: the one pause, which _bucket and
    pi_system.parse_derivation_file share.  Nearly every container a build
    makes survives it, so a collection would only walk it again.  The pause
    covers the whole process for the length of the build; then everything
    tracked moves into the oldest generation at once (freeze, unfreeze),
    unless the caller keeps objects frozen or had the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build(*args)
    finally:
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
            _drive(self._fill(sym, r))
            total = self.ups[(sym, r)]
        return total

    def _fill(self, sym: str, r: int):
        """Store _up(sym, r) in ups, after the origins' counts that it reads."""
        grammar = self.grammar
        total = int(sym == grammar.start and r == 0 and not self.level)
        for lhs, rhs, dot, origin, w in self.column.get(sym, ()):
            dot += 1
            if grammar._run_end[(rhs, dot)] == len(rhs):  # terminals only: one way, over its one length
                r2 = r - len(rhs) + dot
                if r2 >= 0:
                    up = origin.ups.get((lhs, r2))
                    if up is None:
                        yield origin._fill(lhs, r2)
                        up = origin.ups[(lhs, r2)]
                    total += w * up
                continue
            for r1 in range(grammar._suffix_min[(rhs, dot)], r + 1):
                c = grammar._count(rhs, dot, r1)
                if c:
                    up = origin.ups.get((lhs, r - r1))
                    if up is None:
                        yield origin._fill(lhs, r - r1)
                        up = origin.ups[(lhs, r - r1)]
                    total += w * c * up
        self.ups[(sym, r)] = total


def _locate(grammar: Grammar, k: int):
    """The k-th word's length and its offset among the words of that length."""
    if k < 0:
        raise ValueError("rank must be >= 0")
    cum = grammar._cum
    length = len(cum) - 1
    while cum[length] <= k:
        if length > grammar._max_word_len:
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
