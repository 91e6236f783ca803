import gc
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench import enumerator, qlang
from proofbench.enumerator import Grammar, grammar_count, grammar_derivation, grammar_unrank
from proofbench.errors import ParseError, ResourceLimitError
from proofbench.qlang import (
    QLANG_ALPHABET,
    QLANG_GRAMMAR,
    Add,
    And,
    Eq,
    Gt,
    Mod,
    Not,
    Num,
    Or,
    X,
    diagonal,
    diagonal_flip,
    evaluate,
    fbar_truth,
    nth_program,
    parse,
    pretty,
    table,
)

from oracles import derive_words

# counts frozen from the leftmost-derivation expansion oracle (see test below)
WORDS_PER_LENGTH = [0, 0, 0, 0, 0, 242, 4202, 60002]


# -- parsing ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "source",
    [
        "(x=x)",
        "(x>0)",
        "((x%2)=0)",
        "!((x=1)|(x>7))",
        "(((x+1)%3)>(x%5))",
        "((0=0)&!(x=x))",
    ],
)
def test_parse_pretty_round_trip(source):
    assert pretty(parse(source).ast) == source


@pytest.mark.parametrize(
    "source",
    [
        "",
        "x",                # bare arithmetic is not a program
        "(x=07)",           # leading zero
        "(x = x)",          # no whitespace in the language
        "(x=x",             # unbalanced
        "(x=x))",           # trailing junk
        "((x=1)&(x=2)|(x=3))",  # connectives are strictly binary
        "(x+1)",            # arithmetic where a comparison is required
        "(1>2>3)",
    ],
)
def test_parse_rejects(source):
    with pytest.raises(ParseError):
        parse(source)


def test_parse_error_reports_furthest_position():
    # the bad numeral starts at position 3; that's where failure is anchored
    with pytest.raises(ParseError) as info:
        parse("(x=07)")
    assert info.value.position == 3


B_STARTS = ("'!'", "'('")
A_STARTS = ("'('", "'x'", "digit")
LEADING_ZERO = "numeral without a leading zero"


@pytest.mark.parametrize(
    "source, position, expected",
    [
        ("", 0, B_STARTS),
        ("x", 0, B_STARTS),                      # a program is boolean
        ("!", 1, B_STARTS),
        ("(!x=x)", 2, B_STARTS),                 # '!' takes a boolean operand
        ("(x=!x)", 3, A_STARTS),                 # right of a comparison
        ("(( ", 2, ("'!'", *A_STARTS)),          # a boolean or an arithmetic group
        ("(x=07)", 3, (LEADING_ZERO,)),
        ("(07=x)", 1, (*B_STARTS, LEADING_ZERO)),
        ("((07+1)=x)", 2, (*B_STARTS, LEADING_ZERO)),
        ("(x&x)", 2, ("'='", "'>'")),            # arithmetic left of a program's group
        ("((x+1)&(x=x))", 6, ("'='", "'>'")),
        ("((x=1)+x)", 6, ("'&'", "'|'")),        # boolean left
        ("((x&x)=x)", 3, ("'%'", "'+'", "'='", "'>'")),  # arithmetic left of either
        ("((x)", 3, ("'%'", "'+'", "'='", "'>'")),
        ("(x=(x=x))", 5, ("'%'", "'+'")),        # arithmetic group
        ("(x=x", 4, ("')'",)),                   # unbalanced
        ("(x=x))", 5, ("end of input",)),        # trailing input
        ("(x=x)(x=x)", 5, ("end of input",)),
        ("(x=٣)", 3, A_STARTS),                  # digits outside ASCII are not numerals
        ("(x=²)", 3, A_STARTS),
        ("(x=1٣)", 4, ("')'",)),
        ("(٣=x)", 1, ("'!'", *A_STARTS)),
    ],
)
def test_parse_error_position_and_expected(source, position, expected):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.position, info.value.expected) == (position, expected)


def test_huge_numerals_are_parse_errors_at_the_first_digit():
    limit = sys.get_int_max_str_digits()
    assert parse("(x=" + "1" * limit + ")").ast == Eq(X(), Num(int("1" * limit)))
    with pytest.raises(ParseError) as info:
        parse("(x=" + "1" * 5000 + ")")
    assert (info.value.position, info.value.expected) == (3, (f"numeral of at most {limit} digits",))


def test_deep_negation_parses():
    node = parse("!" * 10_000 + "(x=x)").ast
    for _ in range(10_000):
        node = node.arg
    assert node == Eq(X(), X())


def test_deep_nesting_parses():
    depth = 3_000
    node = parse("(" + "(" * depth + "x" + "+1)" * depth + "=0)").ast.left
    for _ in range(depth):
        assert node.right == Num(1)
        node = node.left
    assert node == X()
    node = parse("(" * depth + "(x>1)" + "&(x=x))" * depth).ast
    for _ in range(depth):
        assert type(node) is And
        node = node.left
    assert node == Gt(X(), Num(1))


def test_pretty_writes_deep_trees_without_recursion():
    source = "!" * 10_000 + "(x=x)"
    assert pretty(parse(source).ast) == source
    right = left = X()
    for _ in range(10_000):
        right, left = Add(X(), right), Add(left, Num(1))
    assert pretty(right) == "(x+" * 10_000 + "x" + ")" * 10_000
    assert pretty(Eq(left, X())) == "(" + "(" * 10_000 + "x" + "+1)" * 10_000 + "=x)"


def test_hashing_a_very_deep_tree_succeeds():
    # in a child process: the tuple hash recurses in C with no depth check,
    # so a node that hashed as a tuple would kill the interpreter here
    code = (
        "from proofbench.qlang import parse\n"
        "tree = parse('!' * 10**6 + '(x=x)').ast\n"
        "print(type(hash(tree)).__name__)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert proc.stdout == "int\n"


def test_pretty_rejects_a_foreign_node():
    with pytest.raises(TypeError, match=r"not a Q-lang node: 'x'"):
        pretty(Not(And(Eq(X(), X()), "x")))


def _trees(boolean, depth):
    """Q-lang trees of the given kind, at most `depth` levels deep."""
    if not boolean:
        leaf = st.one_of(st.builds(X), st.integers(0, 10**12).map(Num))
        if depth == 1:
            return leaf
        sub = _trees(False, depth - 1)
        return st.one_of(leaf, st.builds(Add, sub, sub), st.builds(Mod, sub, sub))
    arith = _trees(False, depth - 1)
    compare = st.one_of(st.builds(Eq, arith, arith), st.builds(Gt, arith, arith))
    if depth == 2:
        return compare
    sub = _trees(True, depth - 1)
    return st.one_of(compare, st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub))


@settings(max_examples=300, deadline=None)
@given(_trees(True, 6))
def test_parse_inverts_pretty(ast):
    assert parse(pretty(ast)).ast == ast


# -- evaluation --------------------------------------------------------------------

def test_evaluate_examples():
    assert evaluate(parse("(x=7)"), 7) == 1
    assert evaluate(parse("(x=7)"), 8) == 0
    assert evaluate(parse("((x%2)=0)"), 4) == 1
    assert evaluate(parse("((x%2)=0)"), 5) == 0
    assert evaluate(parse("!(x>3)"), 3) == 1
    assert evaluate(parse("((x=1)|(x>9))"), 10) == 1
    assert evaluate(parse("((x>0)&(x>1))"), 1) == 0


def test_modulo_by_zero_is_zero():
    assert evaluate(parse("((x%0)=0)"), 5) == 1


def test_evaluate_requires_positive_input():
    with pytest.raises(ValueError):
        evaluate(parse("(x=x)"), 0)


def test_every_program_is_total_with_bit_output():
    for i in range(1, 60):
        program = nth_program(i)
        for x in (1, 2, 7, 100):
            assert evaluate(program, x) in (0, 1)


def test_evaluate_is_total_at_any_depth():
    # past the recursion limit evaluate walks the tree from an explicit stack
    assert evaluate(parse("!" * 10_000 + "(x=x)"), 1) == 1
    assert evaluate(parse("!" * 100_001 + "((x%3)>(1+x))"), 5) == 1
    assert evaluate(parse("(" + "(" * 5_000 + "x" + "%0)" * 5_000 + "=0)"), 7) == 1
    assert evaluate(parse("(" * 5_000 + "(x>1)" + "&(x=x))" * 2_500 + "|(x=2))" * 2_500), 1) == 0


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_trees(True, 6), st.integers(1, 10**9).map(lambda i: nth_program(i).ast)),
    st.one_of(st.sampled_from((1, 2, 7, 10**6)), st.integers(1, 10**12)),
)
def test_the_stack_walk_agrees_with_evaluate(ast, x):
    assert (1 if qlang._stack_eval(ast, x) else 0) == evaluate(qlang.QProgram(pretty(ast), ast), x)


# -- enumeration of programs ---------------------------------------------------------

def test_program_counts_per_length_match_oracle():
    productions = QLANG_GRAMMAR.productions
    for length, expected in enumerate(WORDS_PER_LENGTH):
        words = derive_words(productions, "bexp", length)
        assert len(words) == len(set(words)), f"ambiguous at length {length}"
        assert len(words) == expected
        assert grammar_count(QLANG_GRAMMAR, length) == expected


def test_first_programs():
    first = [nth_program(i).source for i in range(1, 13)]
    assert first == [
        "(x=x)",
        "(x=0)", "(x=1)", "(x=2)", "(x=3)", "(x=4)",
        "(x=5)", "(x=6)", "(x=7)", "(x=8)", "(x=9)",
        "(x>x)",
    ]


def test_nth_program_deep_index():
    assert nth_program(500).source == "(0=87)"


def test_nth_program_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        nth_program(0)


def test_every_bucketed_program_is_its_own_parse():
    # programs of length <= 7 take their syntax trees from the bucket, not from parse
    for i in range(1, sum(WORDS_PER_LENGTH) + 1):
        program = nth_program(i)
        assert program == parse(program.source)
        assert program.source == grammar_unrank(QLANG_GRAMMAR, i - 1)


def test_qlang_actions_build_the_parse_tree_of_every_node_kind():
    # '+' and '%' first appear at length 9 and '&' and '|' at 13, past the
    # sweep above; with 'x' and '1' as the only operands those lengths stay small
    g = Grammar(QLANG_ALPHABET, "bexp", dict(QLANG_GRAMMAR.productions, numeral=(("1",),)), QLANG_GRAMMAR.actions)
    derivations = [grammar_derivation(g, k) for k in range(sum(grammar_count(g, l) for l in range(16)))]
    assert set("".join(word for word, _ in derivations)) == set("x1()!&|=>+%")
    for word, ast in derivations:
        assert ast == parse(word).ast


def test_grammar_reports_its_cache_sizes(monkeypatch, capsys):
    g = QLANG_GRAMMAR
    cold = Grammar(g.alphabet, g.start, g.productions, g.actions)
    monkeypatch.setattr(qlang, "QLANG_GRAMMAR", cold)
    assert cold.cache_sizes() == {
        "bucket_lengths": 0, "bucket_words": 0, "chart_counts": 0, "chart_moves": 0, "chart_states": 0,
        "count_seq": 0, "count_sym": 0,
    }
    assert nth_program(5000).source == "(x=655)"
    sizes = cold.cache_sizes()
    assert list(sizes) == sorted(sizes)
    assert sizes == {  # lengths 0-7 are held, the empty lengths 0-4 among them
        "bucket_lengths": 8, "bucket_words": sum(WORDS_PER_LENGTH), "chart_counts": 0, "chart_moves": 0,
        "chart_states": 0, "count_seq": 63, "count_sym": 22,
    }
    assert capsys.readouterr() == ("", "")


def _cold_qlang(monkeypatch):
    g = QLANG_GRAMMAR
    cold = Grammar(g.alphabet, g.start, g.productions, g.actions)
    monkeypatch.setattr(qlang, "QLANG_GRAMMAR", cold)
    return cold


def test_a_lone_past_bucket_lookup_builds_no_bucket(monkeypatch):
    # length 8 has more words than a bucket holds, so lengths 5-7 need not be built
    cold = _cold_qlang(monkeypatch)
    assert nth_program(64447).source == "(x=1000)"
    assert cold.cache_sizes()["bucket_words"] == 0


def test_programs_asked_out_of_order_are_those_of_a_fresh_grammar(monkeypatch):
    asks = {5000: "(x=655)", 1: "(x=x)", 64446: "!!(9>9)", 243: "(x=10)"}
    _cold_qlang(monkeypatch)
    programs = [nth_program(i) for i in asks]
    assert [p.source for p in programs] == list(asks.values())
    assert programs == [parse(source) for source in asks.values()]
    for i, source in asks.items():
        _cold_qlang(monkeypatch)
        assert nth_program(i).source == source


def test_a_swapped_in_cold_grammar_serves_its_own_list(monkeypatch):
    # a listed program is an index into the grammar that QLANG_GRAMMAR names
    # at the call, so a cold grammar swapped in for a warm one builds its own list
    fbar_truth(64_446)
    assert len(QLANG_GRAMMAR.ranked) == sum(WORDS_PER_LENGTH)
    asks = (1, 243, 64_446)
    warm = [fbar_truth(x) for x in asks], diagonal(5), nth_program(243)
    cold = _cold_qlang(monkeypatch)
    assert ([fbar_truth(x) for x in asks], diagonal(5), nth_program(243)) == warm
    assert cold.cache_sizes()["bucket_words"] == sum(WORDS_PER_LENGTH)


def test_past_bucket_lookups_share_interned_chart_states():
    g = Grammar(QLANG_GRAMMAR.alphabet, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions)
    ranks = [x - 1 for x in _descended_indices()[:300]]
    words = [grammar_unrank(g, k) for k in ranks]
    sizes = g.cache_sizes()
    # columns after different prefixes, such as "(1" and "(2", are one state
    prefixes = {word[:n] for word in words for n in range(1, len(word))}
    assert 0 < sizes["chart_states"] < len(prefixes) // 10
    assert sizes["chart_states"] + sizes["chart_moves"] <= enumerator._CHART_TABLE
    assert [grammar_unrank(g, k) for k in ranks] == words
    assert g.cache_sizes() == sizes  # the second pass adds no state and no move


def test_a_past_bucket_lookup_checks_for_a_listed_derivation_once(monkeypatch):
    # qlang._program asks grammar_derivation first; grammar_unrank, called
    # next, must not ask again for a rank past the listed lengths
    _cold_qlang(monkeypatch)
    nth_program(64_447)  # finds where the listed lengths end
    calls = []

    def counted(module):
        fn = module.grammar_derivation
        monkeypatch.setattr(module, "grammar_derivation", lambda *args: calls.append(module) or fn(*args))

    counted(qlang)
    counted(enumerator)
    assert fbar_truth(5_000_000) == 1 - evaluate(parse("(50592=2)"), 5_000_000)
    assert calls == [qlang]
    calls.clear()
    assert nth_program(123_456_789).source == "!(95>9490)"
    assert calls == [qlang]


# 300 seeded past-bucket ranks, the sha256 of their words joined by newlines
# and the tables that descending them fills in a cold grammar, as recorded
# when moves were still kept in one grammar-wide table
PINNED_WORDS_DIGEST = "9c8e3c285480827fc7b1a944e8f31b2682ace21c0010e515fabb6a13f6b00ea6"
PINNED_CACHE_SIZES = {
    "bucket_lengths": 0, "bucket_words": 0, "chart_counts": 707, "chart_moves": 75, "chart_states": 44,
    "count_seq": 138, "count_sym": 40,
}


def test_pinned_past_bucket_lookups_give_their_recorded_words_and_tables():
    g = Grammar(QLANG_GRAMMAR.alphabet, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions, QLANG_GRAMMAR.actions)
    rng = random.Random(21)
    ranks = [rng.randint(64_447, 124_727_108) - 1 for _ in range(300)]
    words = [grammar_unrank(g, k) for k in ranks]
    assert words[:3] == ["(18801>80)", "(48>93272)", "(801136=4)"]
    assert hashlib.sha256("\n".join(words).encode()).hexdigest() == PINNED_WORDS_DIGEST
    assert g.cache_sizes() == PINNED_CACHE_SIZES


def test_prefixes_that_leave_the_same_pending_structure_share_one_state(monkeypatch):
    # an item names the state it started in, not a position, so each group
    # awaits the same operand of the same open comparison and is one state
    monkeypatch.setattr(enumerator, "_BUCKET_WORDS", 0)
    g = Grammar(QLANG_GRAMMAR.alphabet, QLANG_GRAMMAR.start, QLANG_GRAMMAR.productions)

    def state_after(prefix):
        state = enumerator._Chart.root(g)
        for c in prefix:
            state = state.after(c)
        return state

    for group in (["(4>", "(11>", "(x>", "(x="], ["(4>8", "(x=2"], ["(4>80", "(x=25"]):
        assert len({id(state_after(prefix)) for prefix in group}) == 1, group
    assert state_after("!(4>") is not state_after("(4>")  # it waits inside one more negation
    for prefix in ("(4>", "(11>", "(x>", "(x=", "!(4>"):
        for tail in ("8)", "80)", "25)", "x)", "0)", "08)", "(x+1))", ")", "8", "8))"):
            try:
                parse(prefix + tail)
                parses = True
            except ParseError:
                parses = False
            assert g.recognizes(prefix + tail) == parses, prefix + tail
    asks = {1: "(x=x)", 243: "(x=10)", 5000: "(x=655)", 64446: "!!(9>9)", 64447: "(x=1000)",
            844448: "!!!(9>9)", 5000000: "(50592=2)", 123456789: "!(95>9490)"}
    assert {i: grammar_unrank(g, i - 1) for i in asks} == asks


def test_programs_are_immutable_tuple_records_equal_to_their_parse():
    program = nth_program(1)
    assert repr(program) == "QProgram(source='(x=x)', ast=Eq(left=X(), right=X()))"
    with pytest.raises(AttributeError):
        program.source = "(x>x)"
    with pytest.raises(AttributeError):
        program.ast = X()
    for i in (1, 2, 242, 243, 4444, 4445, 64446, 64447):
        program = nth_program(i)
        assert program == parse(program.source)
        assert hash(program) == hash(parse(program.source))


# sha256 of the flipped-diagonal bits fbar_truth(lo..hi), one per program
# length, as recorded with the benchmark's reference outputs
FLIPPED_DIAGONAL_DIGESTS = {
    5: (1, 242, "4ae65cd229cdd9b8d0563f637ddb328b7751d2c225406813b0d5f5718a4c5161"),
    6: (243, 4444, "3221921610c50af57f5e67c7f959d9f5172ec9ab62098cec1ecc1ac87b927101"),
    7: (4445, 64446, "544b70f1aee3b491f804e7ccf0d5b5f4989eb16b17fc762f8a6a0ae52962d402"),
}


def test_the_whole_bucketed_flipped_diagonal_matches_its_digests():
    bits = "".join(str(fbar_truth(x)) for x in range(1, 64_447))
    for length, (lo, hi, digest) in FLIPPED_DIAGONAL_DIGESTS.items():
        assert hashlib.sha256(bits[lo - 1:hi].encode()).hexdigest() == digest, length


def test_every_listed_bit_is_that_of_its_parsed_word():
    # parses each listed word afresh, so the bucket's trees are not the oracle
    xs = range(1, 64_447)
    bits = [1 - evaluate(parse(nth_program(x).source), x) for x in xs]
    assert [fbar_truth(x) for x in xs] == bits
    assert diagonal(64_446) == [1 - bit for bit in bits]


def _python_calls(fn, *args):
    """The names of the Python functions that fn(*args) enters, in call order."""
    # profiling makes a frame object per call, and a collection that those
    # allocations set off would run gc.callbacks (hypothesis keeps one) as calls
    names, enabled = [], gc.isenabled()
    gc.disable()
    sys.setprofile(lambda frame, event, arg: names.append(frame.f_code.co_name) if event == "call" else None)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return names


@pytest.mark.parametrize(
    "x, source, calls", [(1, "(x=x)", 1), (4203, "!(x=x)", 3), (64_446, "!!(9>9)", 4)], ids=["1", "4203", "64446"]
)
def test_a_listed_bit_is_one_walk_of_its_bucketed_tree(x, source, calls):
    # fbar_truth itself, which reads a comparison at the root in place; under
    # '!', one _beval per '!' and one for the comparison
    assert nth_program(x).source == source
    fbar_truth(x)  # warm: the bucket holds x
    assert _python_calls(fbar_truth, x) == ["fbar_truth"] + ["_beval"] * (calls - 1)


def test_a_listed_bit_never_calls_evaluate(monkeypatch):
    def refused(program, x):
        raise AssertionError("a listed program was run through evaluate")

    monkeypatch.setattr(qlang, "evaluate", refused)
    assert diagonal_flip(diagonal(64_446)) == [fbar_truth(x) for x in range(1, 64_447)]


# sha256 of the "x text bit" lines of _descended_indices(), as recorded
# before the descent shared chart columns between lookups
DESCENDED_LINES_DIGEST = "8e7f41033d30bb8762840a5d194a3ba79a9a22db42962661d9d3ed3fd83ff43c"


def _descended_indices():
    """200 seeded indices of each program length 8-10, the first and last of
    them, in shuffled order."""
    rng = random.Random(14)  # firsts[L]: the index of the first program of length L
    firsts = {8: 64_447, 9: 844_449, 10: 10_455_099, 11: 124_727_109}
    indices = [64_447, 124_727_108]
    for length in (8, 9, 10):
        indices += [rng.randrange(firsts[length], firsts[length + 1]) for _ in range(200)]
    rng.shuffle(indices)
    return indices


def test_descended_programs_and_bits_match_their_digest(monkeypatch):
    g = QLANG_GRAMMAR
    monkeypatch.setattr(qlang, "QLANG_GRAMMAR", Grammar(g.alphabet, g.start, g.productions, g.actions))
    lines = "".join(f"{x} {nth_program(x).source} {fbar_truth(x)}\n" for x in _descended_indices())
    assert hashlib.sha256(lines.encode()).hexdigest() == DESCENDED_LINES_DIGEST


def _is_flat(ast) -> bool:
    """Whether a tree is one comparison of two leaves under zero or more '!'."""
    while type(ast) is Not:
        ast = ast.arg
    return type(ast) in (Eq, Gt) and type(ast.left) in (X, Num) and type(ast.right) in (X, Num)


def test_a_past_bucket_lookup_parses_only_a_nested_word(monkeypatch):
    xs = _descended_indices()
    _cold_qlang(monkeypatch)
    nested = sum(not _is_flat(nth_program(x).ast) for x in xs)
    _cold_qlang(monkeypatch)
    calls = []
    monkeypatch.setattr(qlang, "parse", lambda word, parse=parse: calls.append(word) or parse(word))
    [fbar_truth(x) for x in xs]
    assert 0 < len(calls) == nested < len(xs) // 100


@settings(max_examples=300, deadline=None)
@given(st.integers(64_447, 10**40))
def test_a_past_bucket_bit_read_off_its_word_is_the_bit_of_its_tree(x):
    assert fbar_truth(x) == 1 - evaluate(nth_program(x), x)


def test_diagonal_entries_past_the_bucket_are_those_of_the_parsed_programs():
    bits = diagonal(64_446 + 300)[64_446:]
    assert bits == [evaluate(nth_program(x), x) for x in range(64_447, 64_447 + 300)]
    assert bits == [1 - fbar_truth(x) for x in range(64_447, 64_447 + 300)]


@pytest.mark.parametrize("x", [1, 7, 10**639], ids=["1", "7", "10**639"])
@pytest.mark.parametrize(
    "word",
    [
        "(x=7)", "(7=x)", "(x>1)", "(1>x)", "(x=x)", "(x>x)", "(0=x)", "(x>0)", "(0>0)", "(10=10)",
        "!(x=7)", "!!(7>x)", "!!!(0=x)", "!!!(x>9)",
        pytest.param("(" + "9" * 640 + ">x)", id="(9*640>x)"),
        pytest.param("!(x=" + "1" + "0" * 639 + ")", id="!(x=10**639)"),
    ],
)
def test_a_flat_word_has_the_output_of_its_parse(word, x):
    bit = qlang._flat_output(word, x)
    assert type(bit) is int and bit == evaluate(parse(word), x)


@pytest.mark.parametrize(
    "word",
    [
        "((x+1)=x)", "((x=1)&(2>x))", "(x=(x%2))", "!((x=1)|(x=2))", "!!((x+1)>x)",
        pytest.param("(" + "9" * 641 + ">x)", id="(9*641>x)"),
        pytest.param("!(x=" + "1" + "0" * 640 + ")", id="!(x=10**640)"),
    ],
)
def test_a_word_that_is_not_flat_is_left_to_parse(word):
    assert qlang._flat_output(word, 3) is None


def test_programs_parse_back_to_their_source():
    for i in (1, 2, 242, 243, 500, 1000):
        program = nth_program(i)
        assert pretty(parse(program.source).ast) == program.source


# -- table, diagonal, and the flipped diagonal -----------------------------------------

def test_table_cells_match_direct_evaluation():
    t = table(6, 4)
    for i in range(1, 7):
        for x in range(1, 5):
            assert t.cell(i, x) == evaluate(nth_program(i), x)


def test_table_cell_bounds():
    t = table(2, 2)
    with pytest.raises(ValueError):
        t.cell(0, 1)
    with pytest.raises(ValueError):
        t.cell(1, 3)


def test_table_budget():
    with pytest.raises(ResourceLimitError) as info:
        table(100, 100, table_cells=50)
    assert (info.value.budget, info.value.limit, info.value.attempted) == ("table_cells", 50, 10_000)
    assert str(info.value) == "10000 exceeds the table_cells budget of 50"


def test_diagonal_budget():
    with pytest.raises(ResourceLimitError) as info:
        diagonal(100, table_cells=50)
    assert (info.value.budget, info.value.limit, info.value.attempted) == ("table_cells", 50, 100)
    assert str(info.value) == "100 exceeds the table_cells budget of 50"


def test_diagonal_five():
    assert diagonal(5) == [1, 0, 0, 0, 0]


def test_diagonal_flip_flips_bits():
    assert diagonal_flip([1, 0, 0, 1, 0]) == [0, 1, 1, 0, 1]
    assert diagonal_flip([]) == []


def test_diagonal_flip_is_an_involution():
    bits = diagonal(12)
    assert diagonal_flip(diagonal_flip(bits)) == bits


def test_diagonal_flip_validates_bits():
    with pytest.raises(ValueError):
        diagonal_flip([0, 2, 1])


def test_fbar_truth_agrees_with_flipped_diagonal():
    flipped = diagonal_flip(diagonal(8))
    assert [fbar_truth(x) for x in range(1, 9)] == flipped


def test_fbar_truth_differs_from_every_diagonal_entry():
    bits = diagonal(40)
    for x in range(1, 41):
        assert fbar_truth(x) != bits[x - 1]


def test_alphabet_symbols_in_declared_order():
    assert "".join(QLANG_ALPHABET.symbols) == "x0123456789()+%=>!&|"
    assert len(QLANG_ALPHABET) == 20
