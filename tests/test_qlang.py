import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench import qlang
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
    assert cold.cache_sizes() == {"bucket_lengths": 0, "bucket_words": 0, "count_seq": 0, "count_sym": 0}
    assert nth_program(5000).source == "(x=655)"
    sizes = cold.cache_sizes()
    assert list(sizes) == sorted(sizes)
    assert sizes == {"bucket_lengths": 1, "bucket_words": WORDS_PER_LENGTH[7], "count_seq": 110, "count_sym": 27}
    assert capsys.readouterr() == ("", "")


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
        table(100, 100, max_cells=50)
    assert (info.value.budget, info.value.limit, info.value.attempted) == ("max_cells", 50, 10_000)
    assert str(info.value) == "table of 10000 cells exceeds the budget of 50"


def test_diagonal_budget():
    with pytest.raises(ResourceLimitError) as info:
        diagonal(100, max_cells=50)
    assert (info.value.budget, info.value.limit, info.value.attempted) == ("max_cells", 50, 100)
    assert str(info.value) == "diagonal of 100 cells exceeds the budget of 50"


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
