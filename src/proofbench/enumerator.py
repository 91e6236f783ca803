"""Exhaustive string enumeration in length-then-lexicographic order.

Strings over a finite ordered alphabet are ranked first by length, ties
broken by the alphabet's declared symbol order.  rank/unrank use the closed
mixed-radix form (offset = sum of |A|^l for l < len, plus the base-|A| lex
position) with arbitrary-precision integers, so no enumeration loop is ever
needed to locate a string.

The same order is applied to the valid words of a context-free grammar:
grammar_count computes how many words of a given length the grammar derives
(a dynamic program over lengths) and grammar_unrank returns the k-th valid
word without scanning invalid strings.  Counting is by derivation, which
equals counting by word exactly when the grammar is unambiguous; every
grammar shipped in this package is, and the test suite checks this against
a brute-force oracle.

grammar_unrank finds the word's length from cumulative counts, then the
word itself in one of two ways.  A length with at most 500,000 words
is materialized once, sorted and indexed, which is cheapest when many
words of one short length are asked for.  A longer length is found by
prefix descent over an Earley chart that carries derivation counts
(Earley, CACM 1970; recursive ranking as in Hickey & Cohen, SIAM J.
Comput. 1983): at each position one probe counts, for every next terminal,
the words that extend the committed prefix, and committing the chosen
terminal appends one column.  Counts for the committed prefix are kept from
probe to probe, so a word of length L costs L probes and L column
extensions.  recognizes runs the same chart over all but the last symbol of
the word and probes for that symbol.

Grammars must be epsilon-free and contain no unit-production cycles; both
restrictions are enforced at construction time and keep the length dynamic
program well-founded.
"""

from __future__ import annotations

import heapq

from .errors import ResourceLimitError

_UNBOUNDED = None  # sentinel for "no finite maximum word length"

# A length with at most this many words is unranked from its materialized
# bucket; building one may make at most 4x as many partial words.
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

    def key(self, word: str):
        """Sort key realizing length-then-lex order for words over this alphabet."""
        idx = self._index
        return (len(word), tuple(idx[c] for c in word))


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


class Grammar:
    """A validated context-free grammar over (a subset of) an Alphabet.

    productions maps each nonterminal name to a tuple of right-hand sides;
    a right-hand side is a nonempty tuple of symbols, each either a
    nonterminal name or a terminal character of the alphabet.  Nonterminal
    names must not collide with alphabet symbols.
    """

    def __init__(self, alphabet: Alphabet, start: str, productions: dict):
        self.alphabet = alphabet
        self.start = start
        self.productions = {nt: tuple(tuple(rhs) for rhs in alts) for nt, alts in productions.items()}
        self._validate()
        # memoization caches; contents are pure functions of the grammar
        self._count_sym: dict = {}
        self._count_seq: dict = {}
        self._buckets: dict = {}
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
        state: dict[str, int] = {}
        unit_order: list[str] = []  # post-order: A -> B puts B before A

        def visit(node):
            state[node] = 1
            for nxt in unit_edges.get(node, ()):
                if state.get(nxt) == 1:
                    raise GrammarError(f"unit-production cycle through {nxt!r}")
                if nxt not in state:
                    visit(nxt)
            state[node] = 2
            unit_order.append(node)

        for nt in prods:
            if nt not in state:
                visit(nt)
        self._unit_rank = {nt: i for i, nt in enumerate(unit_order)}

        # Earley prediction closure: the nonterminals whose productions are
        # predicted when a nonterminal is awaited (left corners, reflexively)
        corners = {nt: {rhs[0] for rhs in alts if rhs[0] in prods} for nt, alts in prods.items()}
        self._predicts: dict[str, frozenset] = {}
        for nt in prods:
            seen, frontier = {nt}, [nt]
            while frontier:
                for nxt in corners[frontier.pop()] - seen:
                    seen.add(nxt)
                    frontier.append(nxt)
            self._predicts[nt] = frozenset(seen)

        # minimum derivable length per nonterminal (fixpoint; None = unproductive)
        minlen: dict[str, int | None] = {nt: None for nt in prods}
        changed = True
        while changed:
            changed = False
            for nt, alts in prods.items():
                for rhs in alts:
                    total = 0
                    for sym in rhs:
                        m = 1 if sym in terminal_set else minlen[sym]
                        if m is None:
                            break
                        total += m
                    else:
                        if minlen[nt] is None or total < minlen[nt]:
                            minlen[nt] = total
                            changed = True
        if minlen[self.start] is None:
            raise GrammarError("start symbol derives no finite word")
        self._minlen = minlen

        # finiteness: the longest word, walking the usable productions (those
        # whose symbols are all productive) from the start.  The language is
        # infinite iff that walk meets a nonterminal still on its own stack,
        # so an entry is _UNBOUNDED until its maximum is known.
        maxlen: dict[str, int | None] = {}

        def max_of(sym) -> int | None:
            if sym in terminal_set:
                return 1
            if sym not in maxlen:
                maxlen[sym] = _UNBOUNDED
                best = 0
                for rhs in prods[sym]:
                    if all(s in terminal_set or minlen[s] is not None for s in rhs):
                        lengths = [max_of(s) for s in rhs]
                        if _UNBOUNDED in lengths:
                            return _UNBOUNDED
                        best = max(best, sum(lengths))
                maxlen[sym] = best
            return maxlen[sym]

        self._max_word_len = max_of(self.start)

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

    # -- counting ---------------------------------------------------------

    def _check_budget(self, max_entries: int):
        entries = len(self._count_sym) + len(self._count_seq)
        if entries > max_entries:
            raise ResourceLimitError(
                f"grammar count table exceeded {max_entries} entries; raise the budget to continue",
                budget="max_entries", limit=max_entries, attempted=entries,
            )

    def _csym(self, sym: str, length: int, max_entries: int) -> int:
        if sym not in self.productions:
            return 1 if length == 1 else 0
        key = (sym, length)
        hit = self._count_sym.get(key)
        if hit is not None:
            return hit
        total = 0
        for rhs in self.productions[sym]:
            total += self._cseq(rhs, 0, length, max_entries)
        self._count_sym[key] = total
        self._check_budget(max_entries)
        return total

    def _cseq(self, rhs, i: int, length: int, max_entries: int) -> int:
        if i == len(rhs):
            return 1 if length == 0 else 0
        key = (rhs, i, length)
        hit = self._count_seq.get(key)
        if hit is not None:
            return hit
        first = rhs[i]
        if first in self.productions:
            first_min = self._minlen[first]
            if first_min is None:
                self._count_seq[key] = 0
                return 0
        else:
            first_min = 1
        rest_min = self._suffix_min[(rhs, i + 1)]
        total = 0
        for l1 in range(first_min, length - rest_min + 1):
            c = self._csym(first, l1, max_entries)
            if c:
                total += c * self._cseq(rhs, i + 1, length - l1, max_entries)
        self._count_seq[key] = total
        self._check_budget(max_entries)
        return total

    # -- recognition ------------------------------------------------------

    def recognizes(self, word: str, max_entries: int = 1_000_000) -> bool:
        """True iff the grammar derives the word."""
        if not word or any(c not in self.alphabet for c in word):
            return False
        chart = _Chart(self, max_entries)
        for c in word[:-1]:
            chart.commit(c)
        return chart.probe(0).get(word[-1], 0) > 0


def grammar_count(grammar: Grammar, length: int, max_entries: int = 1_000_000) -> int:
    """Number of distinct words of exactly the given length the grammar derives."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return grammar._csym(grammar.start, length, max_entries)


def _bucket(grammar: Grammar, length: int):
    """All words of the given length, in lex order, materialized and cached."""
    cached = grammar._buckets.get(length)
    if cached is not None:
        return cached
    prods = grammar.productions
    made = {"cells": 0}
    memo: dict = {}

    def words_sym(sym, l):
        if sym not in prods:
            return [sym] if l == 1 else []
        key = (sym, l)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out: list[str] = []
        for rhs in prods[sym]:
            words_seq(rhs, 0, l, "", out)
        made["cells"] += len(out)
        if made["cells"] > 4 * _BUCKET_WORDS:
            raise ResourceLimitError(
                "word bucket construction exceeded its budget",
                budget="bucket_cells", limit=4 * _BUCKET_WORDS, attempted=made["cells"],
            )
        memo[key] = out
        return out

    def words_seq(rhs, i, l, acc, out):
        if i == len(rhs):
            if l == 0:
                out.append(acc)
            return
        first = rhs[i]
        if first in prods:
            fmin = grammar._minlen[first]
            if fmin is None:
                return
        else:
            fmin = 1
        rest_min = grammar._suffix_min[(rhs, i + 1)]
        for l1 in range(fmin, l - rest_min + 1):
            for w in words_sym(first, l1):
                words_seq(rhs, i + 1, l - l1, acc + w, out)

    bucket = sorted(words_sym(grammar.start, length), key=grammar.alphabet.key)
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
        self.max_entries = max_entries
        self.columns: list[dict] = []
        self._ups: dict = {}
        self._add_column({}, {grammar.start})

    def _add_column(self, items: dict, awaited) -> None:
        """Append a column holding items plus the predictions for awaited."""
        n = len(self.columns)
        column: dict = {}
        for (lhs, rhs, dot, origin), w in items.items():
            column.setdefault(rhs[dot], []).append((lhs, rhs, dot, origin, w))
        predicts = self.grammar._predicts
        for nt in set().union(*(predicts[a] for a in awaited)):
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
        g = self.grammar
        total = 0
        for r1 in range(g._suffix_min[(rhs, dot)], r + 1):
            c = g._cseq(rhs, dot, r1, self.max_entries)
            if c:
                total += c * self._up(lhs, origin, r - r1)
        return total


def grammar_unrank(grammar: Grammar, k: int, max_entries: int = 1_000_000) -> str:
    """The k-th valid word (0-based) of the grammar in length-then-lex order.

    Equivalent to filtering the raw stream through the grammar's recognizer
    and taking element k, but computed from length counts directly.
    """
    if k < 0:
        raise ValueError("rank must be >= 0")
    cum = grammar._cum
    length = len(cum) - 1
    while cum[length] <= k:
        if grammar._max_word_len is not _UNBOUNDED and length > grammar._max_word_len:
            raise ValueError(f"rank {k} is beyond the language: only {cum[length]} words exist")
        cum.append(cum[length] + grammar_count(grammar, length, max_entries))
        length += 1
    length -= 1
    while cum[length] > k:
        length -= 1
    j = k - cum[length]
    if grammar_count(grammar, length, max_entries) <= _BUCKET_WORDS:
        return _bucket(grammar, length)[j]
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
