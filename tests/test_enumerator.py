import gc
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofbench import enumerator, pi_system, qlang
from proofbench.enumerator import (
    Alphabet,
    Grammar,
    GrammarError,
    UnknownSymbolError,
    grammar_count,
    grammar_derivation,
    grammar_unrank,
    rank,
    stream,
    unrank,
)
from proofbench.errors import ParseError, ResourceLimitError
from proofbench.qlang import QLANG_ALPHABET, QLANG_GRAMMAR
from proofbench.records import OPEN, walk

from oracles import derive_trees, derive_words, shortlex_key, shortlex_rank, shortlex_strings

BINARY = Alphabet.from_string("01")
ABC = Alphabet.from_string("abc")


# -- alphabets -----------------------------------------------------------------

def test_alphabet_rejects_duplicates_and_empties():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    with pytest.raises(ValueError):
        Alphabet(("",))


def test_alphabet_membership_and_len():
    assert len(ABC) == 3
    assert "b" in ABC
    assert "z" not in ABC


# -- closed-form enumeration -----------------------------------------------------

@pytest.mark.parametrize("alphabet", [BINARY, ABC])
def test_stream_matches_brute_force(alphabet):
    expected = shortlex_strings(alphabet.symbols, 500)
    assert stream(alphabet, 0, 500) == expected


def test_stream_slices_consistently():
    whole = stream(ABC, 0, 100)
    assert stream(ABC, 40, 25) == whole[40:65]


def test_unrank_known_positions():
    assert unrank(ABC, 0) == ""
    assert unrank(ABC, 1) == "a"
    assert unrank(ABC, 3) == "c"
    assert unrank(ABC, 4) == "aa"
    assert unrank(BINARY, 10**12).startswith(("0", "1"))


def test_rank_inverts_unrank():
    for k in list(range(200)) + [10**6, 10**9, 10**15]:
        assert rank(ABC, unrank(ABC, k)) == k


def test_unrank_inverts_rank_on_words():
    for word in ["", "a", "cab", "ccc", "abcabc"]:
        assert unrank(ABC, rank(ABC, word)) == word


ALPHABETS = st.lists(st.characters(), min_size=1, max_size=6, unique=True).map(Alphabet)


@st.composite
def _alphabets_and_ranks(draw):
    alphabet = draw(ALPHABETS)
    # over one symbol the k-th word has length k, so keep those ranks small
    return alphabet, draw(st.integers(0, 10**18 if len(alphabet) > 1 else 1_000))


@settings(max_examples=300, deadline=None)
@given(_alphabets_and_ranks())
def test_rank_inverts_unrank_over_random_alphabets(case):
    alphabet, k = case
    assert rank(alphabet, unrank(alphabet, k)) == k


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unrank_inverts_rank_over_random_alphabets(data):
    alphabet = data.draw(ALPHABETS)
    word = "".join(data.draw(st.lists(st.sampled_from(alphabet.symbols), max_size=40)))
    assert unrank(alphabet, rank(alphabet, word)) == word


@st.composite
def _alphabets_and_words(draw):
    alphabet = draw(ALPHABETS)
    return alphabet, "".join(draw(st.lists(st.sampled_from(alphabet.symbols), max_size=300)))


@settings(max_examples=300, deadline=None)
@given(_alphabets_and_words())
@example((Alphabet("a"), "a" * 200))  # past the divide-and-conquer leaf, over one symbol
@example((ABC, "cab" * 100))
def test_rank_agrees_with_the_left_to_right_oracle(case):
    alphabet, word = case
    assert rank(alphabet, word) == shortlex_rank(alphabet.symbols, word)


@pytest.mark.parametrize("symbols, k", [
    ("ab", 10**3000 + 12345),  # 9,966 symbols, split at powers of 2 down to 64
    ("ab", 2**3000 - 1),  # the first word of length 3,000
    ("αβγ", (3**500 - 1) // 2 - 1),  # the last word of length 499 and the first of 500
    ("αβγ", (3**500 - 1) // 2),
    ("a", 5_000),
])
def test_unrank_round_trips_past_the_split(symbols, k):
    alphabet = Alphabet.from_string(symbols)
    word = unrank(alphabet, k)
    assert rank(alphabet, word) == shortlex_rank(alphabet.symbols, word) == k
    if len(symbols) == 1:
        assert word == symbols * k


def test_unrank_of_a_long_word_splits_instead_of_looping():
    # 99,657 symbols; one divmod per symbol over the shrinking rank took about 2 s
    ab = Alphabet.from_string("ab")
    started = time.perf_counter()
    word = unrank(ab, 10**30000)
    assert time.perf_counter() - started < 0.5
    assert len(word) == 99_657 and rank(ab, word) == 10**30000


def test_stream_is_strictly_increasing_in_shortlex():
    words = stream(ABC, 0, 300)
    keys = [shortlex_key(ABC.symbols, w) for w in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)


def test_rank_rejects_unknown_symbols():
    with pytest.raises(UnknownSymbolError) as info:
        rank(ABC, "abz")
    assert info.value.position == 2
    assert info.value.symbol == "z"


def test_unrank_rejects_negative_rank():
    with pytest.raises(ValueError):
        unrank(ABC, -1)


# -- grammar validation -----------------------------------------------------------

def _grammar(productions, start="S", alphabet=ABC):
    return Grammar(alphabet, start, productions)


def test_grammar_rejects_epsilon_productions():
    with pytest.raises(GrammarError):
        _grammar({"S": [[], ["a"]]})


def test_grammar_rejects_unit_cycles():
    with pytest.raises(GrammarError):
        _grammar({"S": [["T"], ["a"]], "T": [["S"]]})


def test_grammar_rejects_unproductive_start():
    with pytest.raises(GrammarError):
        _grammar({"S": [["S", "a"]]})


def test_grammar_rejects_nonterminal_shadowing_symbol():
    with pytest.raises(GrammarError):
        _grammar({"S": [["a"]], "a": [["b"]]})


def test_grammar_rejects_unknown_rhs_symbol():
    with pytest.raises(GrammarError):
        _grammar({"S": [["q"]]})


def test_grammar_allows_left_recursion():
    g = _grammar({"S": [["S", "a"], ["a"]]})
    assert [grammar_count(g, l) for l in range(1, 5)] == [1, 1, 1, 1]
    assert grammar_unrank(g, 2) == "aaa"


def test_grammar_validates_long_chains_iteratively():
    ab, n = Alphabet.from_string("ab"), 2000
    units = {**{f"N{i}": [[f"N{i + 1}"]] for i in range(n - 1)}, f"N{n - 1}": [["a"]]}
    assert Grammar(ab, "N0", units)._max_word_len == 1
    sequences = {**{f"N{i}": [["a", f"N{i + 1}"]] for i in range(n)}, f"N{n}": [["a"]]}
    assert Grammar(ab, "N0", sequences)._max_word_len == n + 1
    units[f"N{n - 1}"] = [["N0"], ["a"]]
    with pytest.raises(GrammarError, match="unit-production cycle"):
        Grammar(ab, "N0", units)


# -- counting and unranking --------------------------------------------------------

BALANCED = {"S": [["a", "b"], ["a", "S", "b"], ["S", "S"]]}


def test_grammar_count_counts_leftmost_derivations():
    # the balanced-pair grammar is ambiguous: counts track derivations, and
    # derive_words yields one entry per leftmost derivation, so they agree
    g = _grammar(BALANCED, alphabet=Alphabet.from_string("ab"))
    for length in range(0, 11):
        assert grammar_count(g, length) == len(derive_words(BALANCED, "S", length))


def test_grammar_count_equals_words_for_unambiguous_grammar():
    prods = {"S": [["a", "S", "b"], ["a", "b"]]}
    g = _grammar(prods, alphabet=Alphabet.from_string("ab"))
    for length in range(0, 13):
        assert grammar_count(g, length) == len(derive_words(prods, "S", length))


def test_cold_count_of_a_long_qlang_length():
    # the entries are filled from one explicit stack, so no call nests with the
    # length, and each split's head and tail are bounded by their longest words
    g = Grammar(QLANG_GRAMMAR.alphabet, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions)
    count = grammar_count(g, 1000)
    assert (len(str(count)), count % (2**61 - 1)) == (1002, 1751370876803359850)


def test_one_word_per_length_unranks_with_a_fixed_number_of_counts_per_length():
    # S -> a S splits once per length, and each length's build reads the one
    # listed length it wraps: the work is linear in the rank, not quadratic
    g = _grammar({"S": [["a", "S"], ["a"]]})
    assert grammar_unrank(g, 9000) == "a" * 9001
    sizes = g.cache_sizes()
    assert sizes["count_sym"] + sizes["count_seq"] == 2 * 9002  # lengths 0-9001: S and S's a S
    assert (sizes["bucket_lengths"], sizes["bucket_words"]) == (9002, 9001)


@st.composite
def _small_grammars(draw, terminals="ab"):
    """Epsilon-free grammars of 2-4 nonterminals over terminals, right-hand sides of 1-3 symbols."""
    nonterminals = ["S", "T", "U", "V"][: draw(st.integers(2, 4))]
    symbol = st.one_of(st.sampled_from(terminals), st.sampled_from(nonterminals))  # terminals half the time
    rhs = st.lists(symbol, min_size=1, max_size=3)
    return {nt: draw(st.lists(rhs, min_size=1, max_size=3)) for nt in nonterminals}


# "ab" sorts by code point too; "ba" does not, and "βα" is not ASCII, so the
# bucket sorts it by its other key
@pytest.mark.parametrize("symbols", ["ab", "ba", "βα"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_counts_buckets_and_descent_agree_with_the_oracle(symbols, data):
    prods = data.draw(_small_grammars(terminals=symbols))
    alphabet = Alphabet.from_string(symbols)
    try:
        g = Grammar(alphabet, "S", prods)
    except GrammarError:
        return
    counts = [grammar_count(g, length) for length in range(7)]
    if sum(counts) > 3000:
        return  # keep the brute-force oracle small and each bucket within its cell budget
    expected = [sorted(derive_words(prods, "S", length), key=lambda w: shortlex_key(symbols, w)) for length in range(7)]
    assert counts == list(map(len, expected))
    assert [[word for word, _ in enumerator._bucket(g, length)] for length in range(7)] == expected
    words = [word for same_length in expected for word in same_length]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumerator, "_BUCKET_WORDS", 0)
        descended = Grammar(alphabet, "S", prods)
        assert [grammar_unrank(descended, k) for k in range(len(words))] == words


@settings(max_examples=100, deadline=None)
@given(_small_grammars(), st.data())
def test_one_grammar_descends_and_recognizes_in_any_order(prods, data):
    # interned chart states must never carry counts across prefixes or lengths
    ab = Alphabet.from_string("ab")
    try:
        g = Grammar(ab, "S", prods)
    except GrammarError:
        return
    words = [w for n in range(7) for w in sorted(derive_words(prods, "S", n), key=lambda w: shortlex_key("ab", w))]
    ranks = st.integers(0, len(words) - 1) if words else st.nothing()
    asks = data.draw(st.lists(st.one_of(ranks, st.text("ab", min_size=1, max_size=6)), max_size=40))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumerator, "_BUCKET_WORDS", 0)
        for ask in asks:
            if isinstance(ask, int):
                assert grammar_unrank(g, ask) == words[ask]
            else:
                assert g.recognizes(ask) == (ask in words)


@settings(max_examples=100, deadline=None)
@given(_small_grammars("abcD"), st.data())
def test_chart_states_shared_by_different_prefixes_stay_exact(prods, data):
    # D -> b | c lets b and c play one role, as Q-lang's digits do, so the
    # chart after a prefix ending in b is interned as the one ending in c
    prods = dict(prods, D=[["b"], ["c"]])
    abc = Alphabet.from_string("abc")
    try:
        g = Grammar(abc, "S", prods)
    except GrammarError:
        return
    if sum(grammar_count(g, n) for n in range(8)) > 3000:
        return  # keep the brute-force oracle small
    words = [w for n in range(8) for w in sorted(derive_words(prods, "S", n), key=lambda w: shortlex_key("abc", w))]
    ranks = st.integers(0, len(words) - 1) if words else st.nothing()
    asks = data.draw(st.lists(st.one_of(ranks, st.text("abc", min_size=1, max_size=7)), max_size=40))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumerator, "_BUCKET_WORDS", 0)
        for ask in asks:
            if isinstance(ask, int):
                assert grammar_unrank(g, ask) == words[ask]
            else:
                assert g.recognizes(ask) == (ask in words)


@pytest.mark.parametrize("a_rules, mates", [([["a"], ["a"], ["b"]], False), ([["a"], ["b"]], True)], ids=["a-twice", "a-once"])
def test_terminal_classes_compare_multisets_of_left_hand_sides(a_rules, mates, monkeypatch):
    # under A -> a | a | b an A spans a in two derivations but b in one, so a
    # and b, though both only ever a whole A, must not share moves or counts
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 0)
    ab, prods = Alphabet.from_string("ab"), {"S": [["A", "A"]], "A": a_rules}
    g = Grammar(ab, "S", prods)
    assert (g._rep["b"] == "a") == mates
    words = sorted(derive_words(prods, "S", 2), key=lambda w: shortlex_key("ab", w))
    assert [grammar_unrank(g, k) for k in range(len(words))] == words
    assert [grammar_unrank(g, k) for k in reversed(range(len(words)))] == words[::-1]
    assert [g.recognizes(w) for w in ("aa", "ab", "ba", "bb", "a", "aab")] == [True] * 4 + [False] * 2


def test_qlang_terminal_classes_are_the_nonzero_digits_and_the_comparisons():
    rep = QLANG_GRAMMAR._rep
    assert list(rep) == list(QLANG_ALPHABET.symbols)
    assert {t: r for t, r in rep.items() if t != r} == {**dict.fromkeys("23456789", "1"), ">": "="}


@settings(max_examples=100, deadline=None)
@given(_small_grammars("aD"), st.booleans(), st.data())
def test_class_mates_share_moves_and_counts_exactly(prods, repeat, data):
    # b and c occur only in D -> b | c, so they are class-mates, scanned and
    # counted once for both; a repeated D -> b makes them two classes
    prods = dict(prods, D=[["b"], ["c"]] + [["b"]] * repeat)
    abc = Alphabet.from_string("abc")
    try:
        g = Grammar(abc, "S", prods)
    except GrammarError:
        return
    assert (g._rep["c"] == "b") != repeat
    if sum(grammar_count(g, n) for n in range(8)) > 3000:
        return  # keep the brute-force oracle small
    words = [w for n in range(8) for w in sorted(derive_words(prods, "S", n), key=lambda w: shortlex_key("abc", w))]
    ranks = st.integers(0, len(words) - 1) if words else st.nothing()
    asks = data.draw(st.lists(st.one_of(ranks, st.text("abc", min_size=1, max_size=7)), max_size=40))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumerator, "_BUCKET_WORDS", 0)
        for ask in asks:
            if isinstance(ask, int):
                assert grammar_unrank(g, ask) == words[ask]
            else:
                assert g.recognizes(ask) == (ask in words)


def test_a_full_chart_table_keeps_descents_and_recognition_exact(monkeypatch):
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 0)
    monkeypatch.setattr(enumerator, "_CHART_TABLE", 8)

    def fresh():
        return Grammar(QLANG_ALPHABET, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions)

    rng = random.Random(17)
    shared = fresh()
    for _ in range(40):
        k = rng.randrange(_first_rank(rng.randrange(5, 11) + 1))
        word = grammar_unrank(shared, k)
        assert word == grammar_unrank(fresh(), k)
        i = rng.randrange(len(word))
        for text in (word, word[:i] + rng.choice(QLANG_ALPHABET.symbols) + word[i + 1 :]):
            assert shared.recognizes(text) == fresh().recognizes(text)
        sizes = shared.cache_sizes()
        assert sizes["chart_states"] + sizes["chart_moves"] <= 8
    assert sizes["chart_states"] + sizes["chart_moves"] == 8  # the table filled, so later states were private


@pytest.mark.parametrize("prods", [
    {"S": [["T", "T"], ["b"]], "T": [["S"]]},
    {"S": [["T", "T"]], "T": [["a"], ["a", "S"]]},
], ids=["unit", "nested"])
def test_a_scan_completes_items_of_deeper_states_first(prods, monkeypatch):
    # one scan completes items begun in states of several levels, and in
    # these ambiguous grammars a count passed upward before every deeper
    # completion has added to it would be short
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 0)
    g = Grammar(Alphabet.from_string("ab"), "S", prods)
    words = [w for n in range(9) for w in sorted(derive_words(prods, "S", n), key=lambda w: shortlex_key("ab", w))]
    assert [grammar_unrank(g, k) for k in range(len(words))] == words
    assert all(g.recognizes(w) for w in words)


def test_descent_skips_awaited_terminals_with_no_words(monkeypatch):
    # "a" is awaited at position 0 but has no word of length 3: its running
    # total equals the one before it, and the bisection must step past it
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 0)
    ab, prods = Alphabet.from_string("ab"), {"S": [["a"], ["b", "b", "b"]]}
    assert grammar_unrank(Grammar(ab, "S", prods), 1) == "bbb"
    g = Grammar(ab, "S", prods)
    assert [grammar_unrank(g, k) for k in (1, 0, 1)] == ["bbb", "a", "bbb"]


@settings(max_examples=100, deadline=None)
@given(_small_grammars())
def test_descents_into_complete_tables_agree_with_the_oracle(prods):
    # descending ranks fill each table before lower ranks bisect inside it
    ab = Alphabet.from_string("ab")
    try:
        g = Grammar(ab, "S", prods)
    except GrammarError:
        return
    if sum(grammar_count(g, n) for n in range(7)) > 3000:
        return  # keep the brute-force oracle small
    words = [w for n in range(7) for w in sorted(derive_words(prods, "S", n), key=lambda w: shortlex_key("ab", w))]
    ranks = range(len(words) - 1, -1, -1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumerator, "_BUCKET_WORDS", 0)
        assert [grammar_unrank(g, k) for k in ranks] == [words[k] for k in ranks]
        assert [grammar_unrank(g, k) for k in range(len(words))] == words


def test_grammar_unrank_lists_words_in_shortlex_order():
    prods = {"S": [["a", "S", "b"], ["a", "b"], ["c"]]}
    g = _grammar(prods)
    expected = []
    for length in range(0, 10):
        expected.extend(sorted(derive_words(prods, "S", length)))
    got = [grammar_unrank(g, k) for k in range(len(expected))]
    assert got == expected


def test_grammar_unrank_descent_agrees_with_bucket(monkeypatch):
    prods = {"S": [["a", "S", "b"], ["a", "b"], ["c"]]}
    bucketed = _grammar(prods)
    expected = [grammar_unrank(bucketed, k) for k in range(0, 40)]
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 0)
    descended = _grammar(prods)
    assert [grammar_unrank(descended, k) for k in range(0, 40)] == expected


def test_grammar_unrank_beyond_finite_language():
    g = _grammar({"S": [["a"], ["b", "c"]]})
    assert [grammar_unrank(g, k) for k in range(2)] == ["a", "bc"]
    with pytest.raises(ValueError):
        grammar_unrank(g, 2)


@pytest.mark.parametrize(
    "prods, words",
    [
        pytest.param({"S": [["a"], ["T"]], "T": [["T", "b"]]}, ["a"], id="unproductive-cycle"),
        pytest.param(
            {"S": [["a", "U"]], "U": [["b"]], "T": [["T", "c"], ["c"]]}, ["ab"], id="unreachable-cycle"
        ),
        pytest.param({"S": [["T", "T"]], "T": [["a"], ["b"]]}, ["aa", "ab", "ba", "bb"], id="shared-nonterminal"),
    ],
)
def test_grammar_unrank_lists_a_finite_language_then_stops(prods, words):
    g = _grammar(prods)
    # checked first, so that a finite language taken for infinite fails here
    # instead of making grammar_unrank below search lengths forever
    assert g._max_word_len == max(len(w) for w in words)
    assert [grammar_unrank(g, k) for k in range(len(words))] == words
    with pytest.raises(ValueError):
        grammar_unrank(g, len(words))


def test_grammar_unrank_through_an_indirect_cycle():
    prods = {"S": [["a"], ["T", "b"]], "T": [["c", "S"]]}
    g = _grammar(prods)
    expected = [w for length in range(0, 12) for w in sorted(derive_words(prods, "S", length))]
    assert expected[:3] == ["a", "cab", "ccabb"]
    assert [grammar_unrank(g, k) for k in range(len(expected))] == expected
    assert grammar_unrank(g, 10) == "c" * 10 + "a" + "b" * 10


def test_literal_proof_grammar_unranks_a_six_layer_ordering():
    # the proof terms of orderings over w and 1, in literal search's alphabet; rank 499,001 lies
    # at length 30, whose 381,732 words are more than a bucket holds, so it is reached by descent
    alphabet = Alphabet.from_string("0123456789.Fabcprw")
    productions = {
        "int": [["b", "int", "int"], ["p", "w"], ["c", "1", "."]],
        "order": [["a", "int"], ["r", "order", "order"]],
    }
    g = Grammar(alphabet, "order", productions)
    assert grammar_unrank(g, 499_001) == "abbbbbbbbbpwpwpwpwpwpwpwpwpwpw"
    assert grammar_count(g, 30) == 381_732 and grammar_derivation(g, 499_001) is None
    assert g.cache_sizes()["bucket_lengths"] == g.cache_sizes()["bucket_words"] == 0


def test_recognizes():
    g = _grammar({"S": [["a", "S", "b"], ["a", "b"]]}, alphabet=Alphabet.from_string("ab"))
    assert g.recognizes("aabb")
    assert not g.recognizes("abab")
    assert not g.recognizes("")
    assert not g.recognizes("ba")


def test_count_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(enumerator, "_COUNT_ENTRIES", 10)
    prods = {"S": [["a", "S", "b"], ["a", "b"]]}
    g = _grammar(prods, alphabet=Alphabet.from_string("ab"))
    with pytest.raises(ResourceLimitError) as info:
        grammar_count(g, 4000)
    assert (info.value.budget, info.value.limit) == ("count_entries", 10)
    assert info.value.attempted > 10
    assert str(info.value) == f"{info.value.attempted} exceeds the count_entries budget of 10"


def test_bucket_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 2)
    g = _grammar({"S": [["a", "S"], ["b", "S"], ["c", "S"], ["a"], ["b"], ["c"]]})
    with pytest.raises(ResourceLimitError) as info:
        enumerator._bucket(g, 3)
    assert (info.value.budget, info.value.limit) == ("bucket_cells", 8)
    assert info.value.attempted > 8
    assert str(info.value) == f"{info.value.attempted} exceeds the bucket_cells budget of 8"


def test_bucket_budget_counts_suffix_lists(monkeypatch):
    # the lists of S and B hold 2 entries each at length 9 and A's 1; the
    # suffixes A^7 B, ..., A B, B of S's right-hand side keep 8 more lists of 2
    g = _grammar({"S": [["A"] * 8 + ["B"]], "A": [["a"]], "B": [["a"], ["b"]]})
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 4)
    with pytest.raises(ResourceLimitError) as info:
        enumerator._bucket(g, 9)
    assert (info.value.limit, info.value.attempted) == (16, 17)
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 5)  # S's own list is counted too
    with pytest.raises(ResourceLimitError) as info:
        enumerator._bucket(g, 9)
    assert (info.value.limit, info.value.attempted) == (20, 21)
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 6)
    assert [word for word, _ in enumerator._bucket(g, 9)] == ["aaaaaaaaa", "aaaaaaaab"]


def test_a_run_of_terminals_keeps_no_suffix_lists(monkeypatch):
    # a^8 is fixed text in front of B, so only the lists of B and S are kept:
    # 4 cells, where a list per suffix a^7 B, ..., a B, B would take 20
    g = _grammar({"S": [["a"] * 8 + ["B"]], "B": [["a"], ["b"]]})
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 1)
    assert [word for word, _ in enumerator._bucket(g, 9)] == ["aaaaaaaaa", "aaaaaaaab"]


def test_a_bucket_over_its_cell_budget_falls_back_to_descent(monkeypatch):
    # the first grammar above: 2 words of length 9, but 21 cells > 16
    g = _grammar({"S": [["A"] * 8 + ["B"]], "A": [["a"]], "B": [["a"], ["b"]]})
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 4)
    builds = []
    build = enumerator._bucket
    monkeypatch.setattr(enumerator, "_bucket", lambda grammar, length: builds.append(length) or build(grammar, length))
    assert grammar_unrank(g, 1) == "aaaaaaaab"
    assert grammar_unrank(g, 0) == "aaaaaaaaa"
    assert grammar_derivation(g, 1) is None
    assert builds == [9]  # the failed length is remembered, not rebuilt
    assert g.cache_sizes()["bucket_lengths"] == g.cache_sizes()["bucket_words"] == 0


@pytest.mark.parametrize("asks", [[0, 1, 2, 3], [3, 2, 1, 0]], ids=["ascending", "descending"])
def test_a_length_over_its_cell_budget_ends_the_bucketed_lengths(asks, monkeypatch):
    # length 9 keeps 21 cells > 16, as above; lengths 1 and 10 fit alone but
    # come before and after it, so only length 1 is bucketed, whatever the ask order
    prods = {"S": [["c"], ["A"] * 8 + ["B"], ["c"] * 10], "A": [["a"]], "B": [["a"], ["b"]]}
    g = _grammar(prods)
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 4)
    words = [w for n in range(11) for w in sorted(derive_words(prods, "S", n))]
    assert words == ["c", "aaaaaaaaa", "aaaaaaaab", "cccccccccc"]
    assert [grammar_unrank(g, k) for k in asks] == [words[k] for k in asks]
    assert [grammar_derivation(g, k) for k in range(4)] == [("c", None), None, None, None]
    assert g.cache_sizes()["bucket_lengths"] == 2 and g.cache_sizes()["bucket_words"] == 1


def test_a_run_of_lengths_over_the_budget_together_is_built_one_length_at_a_time(monkeypatch):
    # lengths 3 and 10 keep 4 and 11 cells alone (C's list in each), under 12,
    # though 14 > 12 had they shared one memo
    g = _grammar({"S": [["C"] * 3, ["C"] * 10], "C": [["c"]]})
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 3)
    builds = []
    build = enumerator._bucket
    monkeypatch.setattr(enumerator, "_bucket", lambda grammar, length: builds.append(length) or build(grammar, length))
    assert grammar_derivation(g, 1) == ("c" * 10, None)
    assert builds == [3, 10]
    assert grammar_derivation(g, 0) == ("ccc", None) and len(builds) == 2
    assert g.cache_sizes()["bucket_lengths"] == 11 and g.cache_sizes()["bucket_words"] == 2


@settings(max_examples=100, deadline=None)
@given(_small_grammars(), st.data())
def test_bucketed_ranks_list_each_lengths_bucket_in_turn(prods, data):
    # values that spell their words show a pair's value kept with its word
    concat = {(nt, tuple(rhs)): lambda word, children: "".join(children) for nt, alts in prods.items() for rhs in alts}
    try:
        g = Grammar(Alphabet.from_string("ab"), "S", prods, concat)
    except GrammarError:
        return
    if sum(grammar_count(g, n) for n in range(7)) > 3000:
        return  # keep each bucket small
    buckets = [pair for n in range(7) for pair in enumerator._bucket(g, n)]
    if buckets:  # a first ask past the short lengths appends each of them in turn
        first = data.draw(st.integers(0, len(buckets) - 1))
        assert grammar_derivation(g, first) == buckets[first]
    assert [grammar_derivation(g, k) for k in range(len(buckets))] == buckets
    assert all(word == value for word, value in buckets)


@settings(max_examples=100, deadline=None)
@given(_small_grammars())
def test_bucketed_values_are_built_from_each_derivations_children_in_order(prods):
    # a value of (lhs, children) shows each terminal of a run as its own child,
    # where concatenated children could not tell a run passed as one string
    trees = {(nt, tuple(rhs)): lambda word, children, nt=nt: (nt, children) for nt, alts in prods.items() for rhs in alts}
    try:
        g = Grammar(Alphabet.from_string("ab"), "S", prods, trees)
    except GrammarError:
        return
    if sum(grammar_count(g, n) for n in range(7)) > 3000:
        return  # keep the brute-force oracle small
    for length in range(7):
        assert Counter(enumerator._bucket(g, length)) == Counter(derive_trees(prods, "S", length))


def test_only_the_bucket_cell_budget_falls_back_to_descent(monkeypatch):
    def fail(grammar, length):
        raise ResourceLimitError("max_entries", 1, 2)

    monkeypatch.setattr(enumerator, "_bucket", fail)
    with pytest.raises(ResourceLimitError) as info:
        grammar_unrank(_grammar({"S": [["a"], ["b"]]}), 0)
    assert info.value.budget == "max_entries"


def _tree_grammar(prods, spy=lambda: None):
    """A grammar over "ab" whose actions build (nonterminal, children) trees, calling spy first."""
    trees = {(nt, tuple(rhs)): lambda word, children, nt=nt: spy() or (nt, children) for nt, alts in prods.items()
             for rhs in alts}
    return Grammar(Alphabet.from_string("ab"), "S", prods, trees)


@settings(max_examples=100, deadline=None)
@given(_small_grammars())
@example(BALANCED)  # ambiguous: "abab" has two derivations at length 4, five words at length 6
def test_lengths_built_one_at_a_time_reuse_the_listed_ones_and_list_the_same_pairs(prods):
    # each ascending ask builds its length alone, from the start symbol's
    # listed pairs; ambiguous grammars keep their copies of a word in order
    try:
        g = _tree_grammar(prods)
    except GrammarError:
        return
    counts = [grammar_count(g, n) for n in range(7)]
    if sum(counts) > 3000:
        return  # keep each bucket small
    builds = []
    build = enumerator._bucket
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumerator, "_bucket", lambda grammar, length: builds.append(length) or build(grammar, length))
        pairs = [grammar_derivation(g, k) for k in range(sum(counts))]
    assert builds == [n for n in range(7) if counts[n]]
    # the reference builds each length on a fresh grammar, from no listed pairs
    assert pairs == [pair for n in range(7) for pair in enumerator._bucket(_tree_grammar(prods), n)]


def test_a_longer_length_calls_actions_only_for_its_new_top_nodes():
    calls = []
    action = lambda word, children: calls.append(word) or word
    g = Grammar(ABC, "S", {"S": [["a", "S"], ["b"]]}, {("S", ("a", "S")): action, ("S", ("b",)): action})
    for k in range(6):  # rank k is a^k b, the one word of length k + 1
        calls.clear()
        assert grammar_derivation(g, k) == ("a" * k + "b",) * 2
        assert calls == ["a" * k + "b"]


def test_a_qlang_length_wraps_the_listed_trees_of_shorter_ones():
    g = Grammar(QLANG_ALPHABET, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions, QLANG_GRAMMAR.actions)
    k = 0
    for n in (5, 6, 7):  # each length built alone, after the shorter ones
        assert grammar_derivation(g, k) is not None
        k += grammar_count(g, n)
    trees = dict(g.ranked)
    assert trees["!!(x=x)"].arg is trees["!(x=x)"]
    assert trees["!(x=x)"].arg is trees["(x=x)"]


# -- the collector pause that bucket builds and derivation file parses share ---------

def _bucket_build(spy, monkeypatch):
    """Lengths 1-8 of a tree grammar, built one at a time, whose actions call spy; its pairs and trees."""
    g = _tree_grammar({"S": [["a", "S"], ["b", "S"], ["a"], ["b"]]}, spy)
    assert grammar_derivation(g, 509) is not None and len(g.ranked) == 510
    return [obj for pair in g.ranked for obj in (pair, pair[1])]


def _bucket_error(monkeypatch):
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 2)
    with pytest.raises(ResourceLimitError):
        enumerator._bucket(_grammar({"S": [["a", "S"], ["b", "S"], ["c", "S"], ["a"], ["b"], ["c"]]}), 3)


def _derivation_text(n):
    """A canonical derivation file of n lines, every statement shape and justification among them."""
    shapes = ("{k}. int(w+{k}) [axiom A2 {{t1 := w, t2 := {k}}}]", "{k}. (w+{k})+1 > w+{k} [axiom A1 {{t := w+{k}}}]",
              "{k}. fbar({k}) is 1 [axiom FBAR({k})]", "{k}. w+{k} > w [rule R1 1,2]", "{k}. int(w) [premise]")
    return "vars: w\ntarget: int(w)\n" + "".join(shapes[k % 5].format(k=k) + "\n" for k in range(1, n + 1))


def _parse_build(spy, monkeypatch):
    """A 2,000-line file parsed, its scanner calling spy (the target line is scanned); every tuple it made."""
    scan = pi_system._scan_statement
    monkeypatch.setattr(pi_system, "_scan_statement", lambda *args: spy() or scan(*args))
    derivation, target = pi_system.parse_derivation_file(_derivation_text(2000))
    assert len(derivation.lines) == 2000
    return [node for root in (derivation, target) for event, node in walk(root) if event == OPEN]


def _parse_error(monkeypatch):
    with pytest.raises(ParseError):
        pi_system.parse_derivation_file("vars: w\ntarget: int(w)\n1. int(w) [premise]\n3. int(w) [premise]\n")


BUILDS = {"bucket": (_bucket_build, _bucket_error), "parse": (_parse_build, _parse_error)}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("build", BUILDS)
def test_a_build_runs_with_the_collector_paused_and_restores_it(build, enabled, monkeypatch):
    run, fail = BUILDS[build]
    seen = []  # whether the collector ran, each time the build calls the spy
    try:
        if not enabled:
            gc.disable()
        run(lambda: seen.append(gc.isenabled()), monkeypatch)
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
        fail(monkeypatch)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("build", BUILDS)
def test_a_build_leaves_no_young_objects_for_the_collector_to_walk(build, monkeypatch):
    made = BUILDS[build][0](lambda: None, monkeypatch)  # kept alive, so no young object can reuse an id
    young = {id(obj) for generation in (0, 1) for obj in gc.get_objects(generation)}
    assert made and not {id(obj) for obj in made} & young
    assert gc.isenabled() and gc.get_freeze_count() == 0


@pytest.mark.parametrize("build", BUILDS)
def test_a_build_leaves_a_callers_frozen_objects_frozen(build, monkeypatch):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        BUILDS[build][0](lambda: None, monkeypatch)
        assert gc.get_freeze_count() == frozen and gc.isenabled()
    finally:
        gc.unfreeze()


def test_no_collection_starts_while_a_derivation_file_parses():
    text, starts = _derivation_text(2000), []
    note = lambda phase, info: phase == "start" and starts.append(info["generation"])
    gc.callbacks.append(note)
    try:
        pi_system.parse_derivation_file(text)
    finally:
        gc.callbacks.remove(note)
    assert starts == []


# -- prefix descent against the oracles ----------------------------------------------

DESCENT_GRAMMARS = [
    pytest.param({"S": [["a", "S", "b"], ["a", "b"], ["c"]]}, "S", "abc", id="nested"),
    pytest.param(
        {"E": [["E", "+", "T"], ["T"]], "T": [["a"], ["(", "E", ")"]]}, "E", "a+()", id="left-recursive"
    ),
    pytest.param({"S": [["S", "S", "c"], ["a"], ["B"]], "B": [["b"], ["B", "a"]]}, "S", "abc", id="unit-chain"),
]


@pytest.mark.parametrize("prods, start, symbols", DESCENT_GRAMMARS)
def test_descent_matches_derivation_oracle(prods, start, symbols, monkeypatch):
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 0)
    alphabet = Alphabet.from_string(symbols)
    g = Grammar(alphabet, start, prods)
    expected = []
    for length in range(0, 10):
        expected.extend(sorted(derive_words(prods, start, length), key=lambda w: shortlex_key(symbols, w)))
    assert [grammar_unrank(g, k) for k in range(len(expected))] == expected
    assert all(g.recognizes(w) for w in expected)


@pytest.mark.parametrize("prods, start, symbols", DESCENT_GRAMMARS)
def test_concatenating_actions_rebuild_every_bucketed_word(prods, start, symbols):
    alphabet = Alphabet.from_string(symbols)
    concat = {(nt, tuple(rhs)): lambda word, children: "".join(children) for nt, alts in prods.items() for rhs in alts}
    g = Grammar(alphabet, start, prods, concat)
    expected = []
    for length in range(0, 10):
        expected.extend(sorted(derive_words(prods, start, length), key=lambda w: shortlex_key(symbols, w)))
    assert [grammar_derivation(g, k) for k in range(len(expected))] == [(w, w) for w in expected]


def test_actions_must_name_productions():
    for key in [("S", ("b",)), ("T", ("a",))]:
        with pytest.raises(GrammarError):
            Grammar(ABC, "S", {"S": [["a"]]}, {key: lambda word, children: word})


@pytest.mark.parametrize("prods, start, symbols", DESCENT_GRAMMARS)
def test_recognizes_matches_derivation_oracle(prods, start, symbols):
    g = Grammar(Alphabet.from_string(symbols), start, prods)
    words = {w for length in range(0, 7) for w in derive_words(prods, start, length)}
    for candidate in shortlex_strings(symbols, sum(len(symbols) ** l for l in range(0, 7))):
        assert g.recognizes(candidate) == (candidate in words), candidate


def _first_rank(length):
    """Rank of the first Q-lang program of the given length."""
    return sum(grammar_count(QLANG_GRAMMAR, l) for l in range(length))


def _sampled_qlang_ranks():
    """The first, the last and 60 random ranks of each Q-lang length 5-7."""
    rng = random.Random(20)
    ranks = []
    for length in (5, 6, 7):
        count = grammar_count(QLANG_GRAMMAR, length)
        ranks += [_first_rank(length) + j for j in sorted({0, count - 1, *(rng.randrange(count) for _ in range(60))})]
    return ranks


def test_qlang_descent_agrees_with_bucket_on_sampled_ranks(monkeypatch):
    ranks = _sampled_qlang_ranks()
    bucketed = [grammar_unrank(QLANG_GRAMMAR, k) for k in ranks]
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 0)
    descended = Grammar(QLANG_GRAMMAR.alphabet, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions)
    assert [grammar_unrank(descended, k) for k in ranks] == bucketed


def test_nth_program_by_descent_equals_the_bucketed_program(monkeypatch):
    ranks = _sampled_qlang_ranks()
    assert all(grammar_derivation(QLANG_GRAMMAR, k) is not None for k in ranks)
    bucketed = [qlang.nth_program(k + 1) for k in ranks]
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 0)
    cold = Grammar(QLANG_ALPHABET, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions, QLANG_GRAMMAR.actions)
    monkeypatch.setattr(qlang, "QLANG_GRAMMAR", cold)  # a built bucket is served without a recount
    assert all(grammar_derivation(cold, k) is None for k in ranks)
    assert [qlang.nth_program(k + 1) for k in ranks] == bucketed


@settings(max_examples=60, deadline=None)
@given(st.integers(_first_rank(8), _first_rank(13) - 1))
def test_qlang_unrank_past_the_bucket_is_recognized_and_increasing(k):
    word, following = grammar_unrank(QLANG_GRAMMAR, k), grammar_unrank(QLANG_GRAMMAR, k + 1)
    assert 8 <= len(word) <= 12
    assert QLANG_GRAMMAR.recognizes(word)
    assert rank(QLANG_ALPHABET, word) < rank(QLANG_ALPHABET, following)
