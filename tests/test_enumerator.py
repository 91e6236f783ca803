import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench import enumerator, qlang
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
from proofbench.errors import ResourceLimitError
from proofbench.qlang import QLANG_ALPHABET, QLANG_GRAMMAR

from oracles import derive_words, shortlex_key, shortlex_strings

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
    # each split counts its head before its tail, so the memo fills from short
    # lengths up and the recursion does not deepen with the length
    g = Grammar(QLANG_GRAMMAR.alphabet, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions)
    count = grammar_count(g, 1000)
    assert (len(str(count)), count % (2**61 - 1)) == (1002, 1751370876803359850)


@st.composite
def _small_grammars(draw):
    """Epsilon-free grammars of 2-4 nonterminals over ab, right-hand sides of 1-3 symbols."""
    nonterminals = ["S", "T", "U", "V"][: draw(st.integers(2, 4))]
    symbol = st.one_of(st.sampled_from("ab"), st.sampled_from(nonterminals))  # terminals half the time
    rhs = st.lists(symbol, min_size=1, max_size=3)
    return {nt: draw(st.lists(rhs, min_size=1, max_size=3)) for nt in nonterminals}


@settings(max_examples=100, deadline=None)
@given(_small_grammars())
def test_counts_buckets_and_descent_agree_with_the_oracle(prods):
    ab = Alphabet.from_string("ab")
    try:
        g = Grammar(ab, "S", prods)
    except GrammarError:
        return
    expected = [sorted(derive_words(prods, "S", length), key=lambda w: shortlex_key("ab", w)) for length in range(7)]
    assert [grammar_count(g, length) for length in range(7)] == list(map(len, expected))
    assert [[word for word, _ in enumerator._bucket(g, length)] for length in range(7)] == expected
    words = [word for same_length in expected for word in same_length]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumerator, "_BUCKET_WORDS", 0)
        descended = Grammar(ab, "S", prods)
        assert [grammar_unrank(descended, k) for k in range(len(words))] == words


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


def test_recognizes():
    g = _grammar({"S": [["a", "S", "b"], ["a", "b"]]}, alphabet=Alphabet.from_string("ab"))
    assert g.recognizes("aabb")
    assert not g.recognizes("abab")
    assert not g.recognizes("")
    assert not g.recognizes("ba")


def test_count_budget_is_enforced():
    prods = {"S": [["a", "S", "b"], ["a", "b"]]}
    g = _grammar(prods, alphabet=Alphabet.from_string("ab"))
    with pytest.raises(ResourceLimitError) as info:
        grammar_count(g, 4000, max_entries=10)
    assert (info.value.budget, info.value.limit) == ("max_entries", 10)
    assert info.value.attempted > 10
    assert str(info.value) == "grammar count table exceeded 10 entries; raise the budget to continue"


def test_bucket_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 2)
    g = _grammar({"S": [["a", "S"], ["b", "S"], ["c", "S"], ["a"], ["b"], ["c"]]})
    with pytest.raises(ResourceLimitError) as info:
        enumerator._bucket(g, 3)
    assert (info.value.budget, info.value.limit) == ("bucket_cells", 8)
    assert info.value.attempted > 8
    assert str(info.value) == "word bucket construction exceeded its budget"


def test_bucket_budget_counts_suffix_lists(monkeypatch):
    # the lists of S and B hold 2 entries each at length 9; the suffixes
    # a^7 B, ..., a B, B of S's right-hand side keep 8 more lists of 2 entries
    g = _grammar({"S": [["a"] * 8 + ["B"]], "B": [["a"], ["b"]]})
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 4)
    with pytest.raises(ResourceLimitError) as info:
        enumerator._bucket(g, 9)
    assert (info.value.limit, info.value.attempted) == (16, 18)
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 5)
    assert [word for word, _ in enumerator._bucket(g, 9)] == ["aaaaaaaaa", "aaaaaaaab"]


def test_a_bucket_over_its_cell_budget_falls_back_to_descent(monkeypatch):
    # the grammar of the test above: 2 words of length 9, but 18 cells > 16
    g = _grammar({"S": [["a"] * 8 + ["B"]], "B": [["a"], ["b"]]})
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 4)
    builds = []
    build = enumerator._bucket
    monkeypatch.setattr(enumerator, "_bucket", lambda grammar, length: builds.append(length) or build(grammar, length))
    assert grammar_unrank(g, 1) == "aaaaaaaab"
    assert grammar_unrank(g, 0) == "aaaaaaaaa"
    assert grammar_derivation(g, 1) is None
    assert builds == [9]  # the failed length is remembered, not rebuilt
    assert g.cache_sizes()["bucket_lengths"] == g.cache_sizes()["bucket_words"] == 0


def test_only_the_bucket_cell_budget_falls_back_to_descent(monkeypatch):
    def fail(grammar, length):
        raise ResourceLimitError("over", budget="max_entries", limit=1, attempted=2)

    monkeypatch.setattr(enumerator, "_bucket", fail)
    with pytest.raises(ResourceLimitError) as info:
        grammar_unrank(_grammar({"S": [["a"], ["b"]]}), 0)
    assert info.value.budget == "max_entries"


@pytest.mark.parametrize("enabled", [True, False])
def test_bucket_builds_with_the_collector_paused_and_restores_it(enabled, monkeypatch):
    # the action's value records whether the collector ran during the build
    g = Grammar(ABC, "S", {"S": [["a", "S"], ["b"]]}, {("S", ("b",)): lambda word, c: gc.isenabled()})
    over_budget = _grammar({"S": [["a", "S"], ["b", "S"], ["c", "S"], ["a"], ["b"], ["c"]]})
    try:
        if not enabled:
            gc.disable()
        assert enumerator._bucket(g, 1) == [("b", False)]
        assert gc.isenabled() is enabled
        monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 2)
        with pytest.raises(ResourceLimitError):
            enumerator._bucket(over_budget, 3)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


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
    monkeypatch.setattr(QLANG_GRAMMAR, "_buckets", {})  # a built bucket is served without a recount
    assert all(grammar_derivation(QLANG_GRAMMAR, k) is None for k in ranks)
    assert [qlang.nth_program(k + 1) for k in ranks] == bucketed


@settings(max_examples=60, deadline=None)
@given(st.integers(_first_rank(8), _first_rank(13) - 1))
def test_qlang_unrank_past_the_bucket_is_recognized_and_increasing(k):
    word, following = grammar_unrank(QLANG_GRAMMAR, k), grammar_unrank(QLANG_GRAMMAR, k + 1)
    assert 8 <= len(word) <= 12
    assert QLANG_GRAMMAR.recognizes(word)
    assert rank(QLANG_ALPHABET, word) < rank(QLANG_ALPHABET, following)
