import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench.enumerator import (
    Alphabet,
    Grammar,
    GrammarError,
    UnknownSymbolError,
    grammar_count,
    grammar_unrank,
    rank,
    stream,
    unrank,
)
from proofbench.errors import ResourceLimitError
from proofbench.qlang import QLANG_GRAMMAR

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


def test_grammar_unrank_lists_words_in_shortlex_order():
    prods = {"S": [["a", "S", "b"], ["a", "b"], ["c"]]}
    g = _grammar(prods)
    expected = []
    for length in range(0, 10):
        expected.extend(sorted(derive_words(prods, "S", length)))
    got = [grammar_unrank(g, k) for k in range(len(expected))]
    assert got == expected


def test_grammar_unrank_descent_agrees_with_bucket():
    prods = {"S": [["a", "S", "b"], ["a", "b"], ["c"]]}
    bucketed = _grammar(prods)
    descended = _grammar(prods)
    for k in range(0, 40):
        assert grammar_unrank(descended, k, bucket_limit=0) == grammar_unrank(bucketed, k)


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
    with pytest.raises(ResourceLimitError):
        grammar_count(g, 4000, max_entries=10)


# -- prefix descent against the oracles ----------------------------------------------

DESCENT_GRAMMARS = [
    pytest.param({"S": [["a", "S", "b"], ["a", "b"], ["c"]]}, "S", "abc", id="nested"),
    pytest.param(
        {"E": [["E", "+", "T"], ["T"]], "T": [["a"], ["(", "E", ")"]]}, "E", "a+()", id="left-recursive"
    ),
    pytest.param({"S": [["S", "S", "c"], ["a"], ["B"]], "B": [["b"], ["B", "a"]]}, "S", "abc", id="unit-chain"),
]


@pytest.mark.parametrize("prods, start, symbols", DESCENT_GRAMMARS)
def test_descent_matches_derivation_oracle(prods, start, symbols):
    alphabet = Alphabet.from_string(symbols)
    g = Grammar(alphabet, start, prods)
    expected = []
    for length in range(0, 10):
        expected.extend(sorted(derive_words(prods, start, length), key=alphabet.key))
    assert [grammar_unrank(g, k, bucket_limit=0) for k in range(len(expected))] == expected
    assert all(g.recognizes(w) for w in expected)


@pytest.mark.parametrize("prods, start, symbols", DESCENT_GRAMMARS)
def test_recognizes_matches_derivation_oracle(prods, start, symbols):
    g = Grammar(Alphabet.from_string(symbols), start, prods)
    words = {w for length in range(0, 7) for w in derive_words(prods, start, length)}
    for candidate in shortlex_strings(symbols, sum(len(symbols) ** l for l in range(0, 7))):
        assert g.recognizes(candidate) == (candidate in words), candidate


def _first_rank(length):
    """Rank of the first Q-lang program of the given length."""
    return sum(grammar_count(QLANG_GRAMMAR, l) for l in range(length))


def test_qlang_descent_agrees_with_bucket_on_sampled_ranks():
    descended = Grammar(QLANG_GRAMMAR.alphabet, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions)
    rng = random.Random(20)
    for length in (5, 6, 7):
        count = grammar_count(QLANG_GRAMMAR, length)
        for j in sorted({0, count - 1, *(rng.randrange(count) for _ in range(60))}):
            k = _first_rank(length) + j
            assert grammar_unrank(descended, k, bucket_limit=0) == grammar_unrank(QLANG_GRAMMAR, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(_first_rank(8), _first_rank(13) - 1))
def test_qlang_unrank_past_the_bucket_is_recognized_and_increasing(k):
    word, following = grammar_unrank(QLANG_GRAMMAR, k), grammar_unrank(QLANG_GRAMMAR, k + 1)
    assert 8 <= len(word) <= 12
    assert QLANG_GRAMMAR.recognizes(word)
    assert QLANG_GRAMMAR.alphabet.key(word) < QLANG_GRAMMAR.alphabet.key(following)
