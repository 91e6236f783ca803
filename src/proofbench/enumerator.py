"""Exhaustive string enumeration in length-then-lexicographic order.

Strings over a finite ordered alphabet are ranked first by length, ties
broken by the alphabet's declared symbol order.  rank/unrank use the closed
mixed-radix form (offset = sum of |A|^l for l < len, plus the base-|A| lex
position) with arbitrary-precision integers, so no enumeration loop is ever
needed to locate a string.

The same order is applied to the valid words of a context-free grammar.
grammar_count and grammar_unrank rest on one memoized dynamic program over
(symbol, length) and (production suffix, length), run over two semirings as
in semiring parsing (Goodman, Computational Linguistics 1999): integers
count the derivations of each length, and lists of (word, value) pairs hold
the words of one length, the value being what the grammar's semantic
actions make of the derivation.  Each split computes its head before its
tail, and the tail only for a nonzero head, so the memo fills from short
lengths up; the caller owns the memo and its budget.  Counting is by
derivation, which equals counting by word exactly when the grammar is
unambiguous; every grammar shipped in this package is, and the test suite
checks this against a brute-force oracle.

grammar_unrank finds the word's length from cumulative counts, then the
word itself in one of two ways.  A length with at most 500,000 words is
materialized once, sorted and indexed, which is cheapest when many words of
one short length are asked for; grammar_derivation hands out such a word
with its value, for Q-lang its syntax tree, so no Q-lang program of length
<= 7 is ever parsed.  Nearly every container a build makes survives it
(about 135,000 for Q-lang's lengths 5-7), so a build pauses the garbage
collector, whose generational passes would only walk the growing heap
again: on a 2-vCPU x86-64 VM with Python 3.11 that cuts those builds from
about 0.26 s to 0.17 s.  A length whose build outgrows its cell budget is
remembered and served by descent instead.

A longer length is found by prefix descent over an Earley chart that
carries derivation counts (Earley, CACM 1970; recursive ranking as in
Hickey & Cohen, SIAM J. Comput. 1983): at each position one probe counts,
for every next terminal, the words that extend the committed prefix, and
committing the chosen terminal appends one column.  Counts for the
committed prefix are kept from probe to probe, so a word of length L costs
L probes and L column extensions.  The descent builds no derivation, so
grammar_derivation returns None for such a word.  recognizes runs the same
chart over all but the last symbol of the word and probes for that symbol.

Grammars must be epsilon-free and contain no unit-production cycles; both
restrictions are enforced at construction time and keep the length dynamic
program well-founded.
"""

from __future__ import annotations

import bisect
import gc
import heapq

from .errors import ResourceLimitError

_UNBOUNDED = None  # sentinel for "no finite maximum word length"

# A length with at most this many words is unranked from its materialized
# bucket; the lists kept while building one may hold at most 4x as many
# entries in all, and a length whose build would exceed that is descended.
_BUCKET_WORDS = 500_000


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
    length, block = 0, 1
    while k >= block:
        k -= block
        length += 1
        block *= n
    symbols = alphabet.symbols
    chars = [""] * length
    for i in range(length - 1, -1, -1):
        k, d = divmod(k, n)
        chars[i] = symbols[d]
    return "".join(chars)


def rank(alphabet: Alphabet, s: str) -> int:
    """Position of s in length-then-lex order; inverse of unrank."""
    n = len(alphabet)
    index = alphabet._index
    offset, block = 0, 1
    for _ in range(len(s)):
        offset += block
        block *= n
    pos = 0
    for i, ch in enumerate(s):
        d = index.get(ch)
        if d is None:
            raise UnknownSymbolError(i, ch)
        pos = pos * n + d
    return offset + pos


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
        self._buckets: dict = {}
        self._unbucketed: set = set()  # lengths whose bucket build exceeded its cell budget
        self._cum: list[int] = [0]  # _cum[L] = number of words shorter than L

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

        # precomputed minimum lengths for every production suffix
        suffix_min: dict = {}
        big = 1 << 60
        for nt, alts in prods.items():
            for rhs in alts:
                acc = 0
                suffix_min[(rhs, len(rhs))] = 0
                for i in range(len(rhs) - 1, -1, -1):
                    sym = rhs[i]
                    m = 1 if sym in terminal_set else (minlen[sym] if minlen[sym] is not None else big)
                    acc = min(acc + m, big)
                    suffix_min[(rhs, i)] = acc
        self._suffix_min = suffix_min

    # -- caches and recognition ---------------------------------------------

    def cache_sizes(self) -> dict:
        """Cached bucket lengths, bucketed words, and the count memo's entries,
        split into (production suffix, length) and (symbol, length) keys."""
        seq = sum(len(key) == 3 for key in self._counts)
        return {
            "bucket_lengths": len(self._buckets),
            "bucket_words": sum(map(len, self._buckets.values())),
            "count_seq": seq,
            "count_sym": len(self._counts) - seq,
        }

    def recognizes(self, word: str, max_entries: int = 1_000_000) -> bool:
        """True iff the grammar derives the word."""
        if not word or any(c not in self.alphabet for c in word):
            return False
        chart = _Chart(self, max_entries)
        for c in word[:-1]:
            chart.commit(c)
        return chart.probe(0).get(word[-1], 0) > 0


def _length_dp(grammar: Grammar, memo: dict, keep, zero, terminal, empty, join):
    """(sym, seq): one memoized length-split DP over the caller's algebra.

    sym(s, l) values the derivations of s over l symbols, seq(rhs, i, l, lhs)
    those of rhs[i:].  The algebra is a fresh zero(), terminal(c), the empty
    suffix's value, +=, and join(lhs, rhs, i, head, tail) of rhs[i]'s value
    and rhs[i + 1:]'s (lhs matters only for a whole rhs, i == 0).
    keep(key, value) stores an entry in memo, or declines to, under the
    caller's budget.  A split computes its head first and its tail only for
    a nonzero head, so the memo fills from short lengths up and the
    recursion deepens with the nesting of nonterminals, not the length.
    """
    prods, minlen, suffix_min = grammar.productions, grammar._minlen, grammar._suffix_min

    def sym(s, l):
        if s not in prods:
            return terminal(s) if l == 1 else zero()
        value = memo.get((s, l))
        if value is None:
            value = zero()
            for rhs in prods[s]:
                value += seq(rhs, 0, l, s)
            keep((s, l), value)
        return value

    def seq(rhs, i, l, lhs=None):
        if i == len(rhs):
            return empty if l == 0 else zero()
        value = memo.get((rhs, i, l))
        if value is None:
            value = zero()
            top = l - suffix_min[(rhs, i + 1)]
            if rhs[i] in prods:
                first_min = minlen[rhs[i]]  # None: derives nothing
            else:
                first_min, top = 1, min(top, 1)  # a terminal spans exactly one symbol
            for l1 in range(first_min or l + 1, top + 1):
                head = sym(rhs[i], l1)
                if head:
                    value += join(lhs, rhs, i, head, seq(rhs, i + 1, l - l1))
            keep((rhs, i, l), value)
        return value

    return sym, seq


def _counter(grammar: Grammar, max_entries: int):
    """The counting (sym, seq) over grammar._counts, at most max_entries entries."""
    counts = grammar._counts

    def keep(key, value):
        counts[key] = value
        if len(counts) > max_entries:
            raise ResourceLimitError(
                f"grammar count table exceeded {max_entries} entries; raise the budget to continue",
                budget="max_entries", limit=max_entries, attempted=len(counts),
            )

    return _length_dp(grammar, counts, keep, int, lambda c: 1, 1, lambda lhs, rhs, i, head, tail: head * tail)


def grammar_count(grammar: Grammar, length: int, max_entries: int = 1_000_000) -> int:
    """Number of distinct words of exactly the given length the grammar derives."""
    if length < 0:
        raise ValueError("length must be >= 0")
    count, _ = _counter(grammar, max_entries)
    return count(grammar.start, length)


def _bucket(grammar: Grammar, length: int) -> list:
    """All (word, value) pairs of the given length, in lex order; cached in grammar._buckets."""
    actions = grammar.actions
    memo: dict = {}
    cells = 0

    def keep(key, pairs):
        nonlocal cells
        if len(key) == 3 and key[1] == 0:
            return  # a whole right-hand side's pairs are not kept, to spare peak memory
        cells += len(pairs)
        if cells > 4 * _BUCKET_WORDS:
            raise ResourceLimitError(
                "word bucket construction exceeded its budget",
                budget="bucket_cells", limit=4 * _BUCKET_WORDS, attempted=cells,
            )
        memo[key] = pairs

    def join(lhs, rhs, i, heads, tails):
        # (word, child values) of a suffix, but (word, act(word, child values)) of a whole rhs
        if i:
            return [(w + t, (v,) + c) for w, v in heads for t, c in tails]
        act = actions.get((lhs, rhs))
        return [(word, act and act(word, (v,) + c)) for w, v in heads for t, c in tails for word in (w + t,)]

    derive, _ = _length_dp(grammar, memo, keep, list, lambda c: [(c, c)], [("", ())], join)
    # nearly every container the build makes survives it, so a collection
    # would only walk the growing heap again; pause the collector meanwhile
    enabled = gc.isenabled()
    gc.disable()
    try:
        bucket = derive(grammar.start, length)
    finally:
        memo.clear()  # the DP's two functions form a cycle that would keep it alive
        if enabled:
            gc.enable()
    # every word here has the same length, so code points in alphabet order sort it
    order = {ord(s): i for i, s in enumerate(grammar.alphabet.symbols)}
    bucket.sort(key=lambda pair: pair[0].translate(order))
    grammar._buckets[length] = bucket
    return bucket


class _Chart:
    """An Earley chart over a committed prefix, carrying derivation counts.

    Column n maps each item (lhs, rhs, dot, origin) to its inside count, the
    number of derivations of rhs[:dot] =>* prefix[origin:n], grouped by the
    item's next symbol rhs[dot].  Completed items are folded into the items
    waiting for them while the column is built, so no column stores one.
    Columns never change once built, so every _up entry (which reads only
    columns at or before its own) stays valid as the prefix grows.
    """

    def __init__(self, grammar: Grammar, max_entries: int):
        self.grammar = grammar
        _, self._count_seq = _counter(grammar, max_entries)
        self.columns: list[dict] = []
        self._ups: dict = {}
        self._add_column({}, {grammar.start})

    def _add_column(self, items: dict, awaited) -> None:
        """Append a column holding items plus the predictions for awaited."""
        n = len(self.columns)
        column: dict = {}
        for (lhs, rhs, dot, origin), w in items.items():
            column.setdefault(rhs[dot], []).append((lhs, rhs, dot, origin, w))
        corners = self.grammar._corners
        predicted, frontier = set(awaited), list(awaited)
        while frontier:  # close the awaited nonterminals over their left corners
            for nxt in corners[frontier.pop()] - predicted:
                predicted.add(nxt)
                frontier.append(nxt)
        for nt in predicted:
            for rhs in self.grammar.productions[nt]:
                column.setdefault(rhs[0], []).append((nt, rhs, 0, n, 1))
        self.columns.append(column)

    def commit(self, c: str) -> None:
        """Extend the prefix by c: scan, complete, predict."""
        prods = self.grammar.productions
        rank = self.grammar._unit_rank
        items: dict = {}
        done: dict = {}  # (lhs, origin) -> derivations of lhs =>* prefix[origin:n+1]
        pending: list = []

        def advance(lhs, rhs, dot, origin, w):
            if dot < len(rhs):
                key = (lhs, rhs, dot, origin)
                items[key] = items.get(key, 0) + w
                return
            key = (lhs, origin)
            if key not in done:
                done[key] = 0
                heapq.heappush(pending, (-origin, rank[lhs], lhs))
            done[key] += w

        for lhs, rhs, dot, origin, w in self.columns[-1].get(c, ()):
            advance(lhs, rhs, dot + 1, origin, w)
        # Completing (a, i) can only complete parents that start at i or
        # earlier, and at i only through a unit production; popping later
        # origins first and unit children before parents finishes every
        # count before it is propagated, so each (a, i) is completed once.
        while pending:
            neg_origin, _, a = heapq.heappop(pending)
            w = done[(a, -neg_origin)]
            for lhs, rhs, dot, origin, v in self.columns[-neg_origin].get(a, ()):
                advance(lhs, rhs, dot + 1, origin, v * w)
        self._add_column(items, {rhs[dot] for _, rhs, dot, _ in items if rhs[dot] in prods})

    def probe(self, r: int) -> dict:
        """For each next terminal c, the derivations of words prefix + c + s, |s| = r."""
        prods = self.grammar.productions
        n = len(self.columns) - 1
        counts = {}
        for sym in self.columns[n]:
            if sym not in prods:
                total = self._up(sym, n, r)
                if total:
                    counts[sym] = total
        return counts

    def _up(self, sym: str, i: int, r: int) -> int:
        """Ways to derive a sym at prefix[i:] and then r more symbols after it.

        Sums, over the items of column i awaiting sym, the item's inside
        count times the ways to complete it and all its ancestors.
        """
        key = (sym, i, r)
        total = self._ups.get(key)
        if total is None:
            total = int(sym == self.grammar.start and i == 0 and r == 0)
            for lhs, rhs, dot, origin, w in self.columns[i].get(sym, ()):
                total += w * self._complete(lhs, rhs, dot + 1, origin, r)
            self._ups[key] = total
        return total

    def _complete(self, lhs, rhs, dot, origin, r) -> int:
        """Ways to finish rhs[dot:], then the ancestors of lhs, with r symbols."""
        if dot == len(rhs):
            return self._up(lhs, origin, r)
        total = 0
        for r1 in range(self.grammar._suffix_min[(rhs, dot)], r + 1):
            c = self._count_seq(rhs, dot, r1)
            if c:
                total += c * self._up(lhs, origin, r - r1)
        return total


def _locate(grammar: Grammar, k: int, max_entries: int):
    """The k-th word's length, its offset among the words of that length, and
    their bucket, or None for a length with more words than a bucket holds."""
    if k < 0:
        raise ValueError("rank must be >= 0")
    cum = grammar._cum
    length = len(cum) - 1
    while cum[length] <= k:
        if grammar._max_word_len is not _UNBOUNDED and length > grammar._max_word_len:
            raise ValueError(f"rank {k} is beyond the language: only {cum[length]} words exist")
        cum.append(cum[length] + grammar_count(grammar, length, max_entries))
        length += 1
    length = bisect.bisect_right(cum, k) - 1
    bucket = grammar._buckets.get(length)
    if bucket is None and length not in grammar._unbucketed and cum[length + 1] - cum[length] <= _BUCKET_WORDS:
        try:
            bucket = _bucket(grammar, length)
        except ResourceLimitError as exc:
            if exc.budget != "bucket_cells":
                raise
            grammar._unbucketed.add(length)  # its suffix lists outgrow the budget: descend
    return length, k - cum[length], bucket


def grammar_unrank(grammar: Grammar, k: int, max_entries: int = 1_000_000) -> str:
    """The k-th valid word (0-based) of the grammar in length-then-lex order.

    Equivalent to filtering the raw stream through the grammar's recognizer
    and taking element k, but computed from length counts directly.
    """
    length, j, bucket = _locate(grammar, k, max_entries)
    if bucket is not None:
        return bucket[j][0]
    chart = _Chart(grammar, max_entries)
    word = []
    for n in range(length):
        counts = chart.probe(length - n - 1)
        for c in grammar.alphabet.symbols:
            m = counts.get(c, 0)
            if j < m:
                break
            j -= m
        else:
            raise AssertionError("prefix descent exhausted the alphabet; counts are inconsistent")
        chart.commit(c)
        word.append(c)
    return "".join(word)


def grammar_derivation(grammar: Grammar, k: int):
    """(grammar_unrank(grammar, k), its value under the grammar's actions), or
    None past the bucket, where prefix descent builds no derivation."""
    _, j, bucket = _locate(grammar, k, 1_000_000)
    return None if bucket is None else bucket[j]
