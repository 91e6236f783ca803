"""The record contract: every value type is a typed tuple record that keeps
a frozen dataclass's equality, truth, repr and immutability."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proofbench import records
from proofbench.pi_system import (
    Accept,
    AxiomInstance,
    Derivation,
    FbarAtom,
    Greater,
    IntTyping,
    Line,
    Premise,
    Reject,
    RuleApplication,
    Sum,
    Var,
    parse_statement,
)
from proofbench.pi_system import Num as TermNum
from proofbench.proof_search import AuditReport, DerivedNegation, DerivedTarget, Exhausted, SearchBudget
from proofbench.qlang import Add, And, BitTable, Eq, Gt, Mod, Not, Num, Or, X, parse

DERIVATION = Derivation(("w",), (Line(1, IntTyping(Var("w")), Premise()),))


@pytest.mark.parametrize(
    "a, b",
    [
        (Eq(X(), X()), Gt(X(), X())),
        (Add(X(), Num(1)), Mod(X(), Num(1))),
        (DerivedTarget(DERIVATION, 3), DerivedNegation(DERIVATION, 3)),
        (FbarAtom(3, 1), (3, 1)),
        (Num(1), TermNum(1)),
        (Accept(), ()),
    ],
    ids=["Eq-Gt", "Add-Mod", "DerivedTarget-DerivedNegation", "FbarAtom-tuple", "Num-Num", "Accept-tuple"],
)
def test_same_fields_of_another_class_are_unequal(a, b):
    assert tuple(a) == tuple(b)
    assert not a == b and not b == a
    assert a != b and b != a
    assert len({a, b}) == 2
    assert a in {a} and b not in {a} and a not in {b}


def test_equal_records_are_equal_and_hash_alike():
    assert Sum(Var("w"), TermNum(1)) == Sum(Var("w"), TermNum(1))
    assert not Sum(Var("w"), TermNum(1)) != Sum(Var("w"), TermNum(1))
    assert hash(Sum(Var("w"), TermNum(1))) == hash(Sum(Var("w"), TermNum(1)))
    assert parse("!(x=1)").ast == Not(Eq(X(), Num(1)))
    assert hash(parse("!(x=1)").ast) == hash(Not(Eq(X(), Num(1))))
    assert Sum(Var("w"), TermNum(1)) != Sum(Var("w"), TermNum(2))


def test_a_goal_set_keeps_fbar_atoms_apart_from_id_pairs():
    # search's goal and origin tables hold fbar atoms next to (id, id) pairs
    goals = {FbarAtom(3, 1), (3, 1)}
    assert len(goals) == 2
    assert FbarAtom(3, 1) in goals and (3, 1) in goals
    assert FbarAtom(3, 0) not in goals and (3, 0) not in goals
    goals.discard((3, 1))
    assert goals == {FbarAtom(3, 1)}


@pytest.mark.parametrize("record", [X(), Premise(), Accept()], ids=["X", "Premise", "Accept"])
def test_records_without_fields_are_true(record):
    assert len(record) == 0
    assert record
    assert bool(record) is True


REPRS = [
    (Sum(Var("w"), TermNum(1)), "Sum(left=Var(name='w'), right=Num(value=1))"),
    (Reject(6, "rule-mismatch"), "Reject(line=6, reason='rule-mismatch')"),
    (Accept(), "Accept()"),
    (Not(Gt(X(), Num(0))), "Not(arg=Gt(left=X(), right=Num(value=0)))"),
    (FbarAtom(3, 1), "FbarAtom(x=3, bit=1)"),
    (AxiomInstance("A3", (("c", TermNum(1)),)), "AxiomInstance(schema='A3', subst=(('c', Num(value=1)),))"),
    (SearchBudget(5), "SearchBudget(max_candidates=5)"),
    (Exhausted(7), "Exhausted(candidates=7)"),
    (AuditReport("soundness", 4, ()), "AuditReport(kind='soundness', queries=4, violations=())"),
    (BitTable(1, 1, ((0,),)), "BitTable(rows=1, cols=1, cells=((0,),))"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[text.partition("(")[0] for _, text in REPRS])
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(
    "record, field",
    [
        (Num(1), "value"),
        (Eq(X(), X()), "left"),
        (Var("w"), "name"),
        (FbarAtom(3, 1), "bit"),
        (Reject(6, "rule-mismatch"), "reason"),
        (SearchBudget(5), "max_candidates"),
        (AuditReport("consistency", 2, ()), "violations"),
        (BitTable(1, 1, ((0,),)), "cells"),
    ],
    ids=["Num", "Eq", "Var", "FbarAtom", "Reject", "SearchBudget", "AuditReport", "BitTable"],
)
def test_assigning_a_field_raises_attribute_error(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.no_such_field = 0


def test_fbar_atoms_validate_as_before():
    with pytest.raises(ValueError, match="^fbar indices are positive integers$"):
        FbarAtom(0, 1)
    with pytest.raises(ValueError, match="^fbar bits are 0 or 1$"):
        FbarAtom(3, 2)
    assert FbarAtom(x=3, bit=1) == FbarAtom(3, 1)
    assert (FbarAtom(3, 1).x, FbarAtom(3, 1).bit) == (3, 1)


def test_search_budgets_validate_and_default_as_before():
    with pytest.raises(ValueError, match="^candidate limit must be an int >= 1$"):
        SearchBudget()
    with pytest.raises(ValueError, match="^candidate limit must be an int >= 1$"):
        SearchBudget(0)
    assert SearchBudget(5) == SearchBudget(max_candidates=5)
    assert SearchBudget._fields == ("max_candidates",) and SearchBudget(5).max_candidates == 5


def test_records_report_their_defining_module():
    assert (X.__module__, Sum.__module__, FbarAtom.__module__) == (
        "proofbench.qlang", "proofbench.pi_system", "proofbench.pi_system",
    )
    assert (Greater.__name__, Exhausted.__module__) == ("Greater", "proofbench.proof_search")


# -- deep trees: the walk behind repr, the == fallback and tree_hash ------------------

def test_separately_parsed_deep_trees_are_equal_hash_alike_and_repr():
    a, b = parse("!" * 100_000 + "(x=x)"), parse("!" * 100_000 + "(x=x)")
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a.ast) == "Not(arg=" * 100_000 + "Eq(left=X(), right=X())" + ")" * 100_000
    assert repr(a) == f"QProgram(source={a.source!r}, ast={a.ast!r})"
    c = parse("!" * 100_000 + "(x=1)")
    assert a != c and not a == c
    text = "(" * 499 + "w" + "+1)" * 499 + " > w"
    p, q = parse_statement(text), parse_statement(text)
    assert p == q and not p != q and hash(p) == hash(q)
    lhs = "Sum(left=" * 499 + "Var(name='w')" + ", right=Num(value=1))" * 499
    assert repr(p) == f"Greater(lhs={lhs}, rhs=Var(name='w'))"
    assert p != parse_statement(text.replace("w+1", "w+2"))


NAN = float("nan")  # one object on both sides: tuple equality finds it equal to itself by identity

# a numeral past the small-int cache is a new object at each draw
_AEXPS = st.recursive(st.sampled_from([X(), Num(0), Num(1), Num(NAN), Num(float("nan"))])
                      | st.integers(2**64, 2**64 + 1).map(Num),
                      lambda a: st.builds(Add, a, a) | st.builds(Mod, a, a), max_leaves=4)
_BEXPS = st.recursive(st.builds(Eq, _AEXPS, _AEXPS) | st.builds(Gt, _AEXPS, _AEXPS),
                      lambda b: st.builds(Not, b) | st.builds(And, b, b) | st.builds(Or, b, b), max_leaves=3)
_TERMS = st.recursive(st.sampled_from([Var("w"), Var("v"), TermNum(0), TermNum(1), TermNum(NAN)]),
                      lambda t: st.builds(Sum, t, t), max_leaves=4)
_STATEMENTS = (st.builds(Greater, _TERMS, _TERMS) | st.builds(IntTyping, _TERMS)
               | st.builds(FbarAtom, st.integers(1, 3), st.integers(0, 1)))
_JUSTIFICATIONS = (st.just(Premise())
                   | st.builds(AxiomInstance, st.sampled_from(["A1", "A3"]),
                               st.lists(st.tuples(st.sampled_from(["t", "c"]), _TERMS), max_size=2).map(tuple))
                   | st.builds(RuleApplication, st.just("R1"), st.tuples(st.integers(4, 5), st.integers(4, 5))))
_DERIVATIONS = st.builds(Derivation, st.sampled_from([(), ("w",), ("v", "w")]),
                         st.lists(st.builds(Line, st.integers(1, 2), _STATEMENTS, _JUSTIFICATIONS),
                                  max_size=2).map(tuple))
TREES = _BEXPS | _STATEMENTS | _DERIVATIONS

# each class to a same-shaped record class of another name, or of the same
# name in another module
_OTHER = {Eq: Gt, Gt: Eq, Add: Mod, Mod: Add, And: Or, Or: And, Num: TermNum, TermNum: Num}


def _rebuilt(value, classes=None):
    """An equal copy of value that shares none of its tuples and ints, except
    that classes maps some record classes to others."""
    if not isinstance(value, tuple):
        return value + 0 if type(value) is int else value  # a new int object past the small-int cache
    kind = type(value)
    return tuple.__new__((classes or {}).get(kind, kind), [_rebuilt(item, classes) for item in value])


def _records(value):
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):
            yield value
        for item in value:
            yield from _records(item)


@given(a=TREES, b=TREES)
def test_the_walk_fallbacks_agree_with_the_tuple_methods(a, b):
    for other in (b, a, _rebuilt(a), _rebuilt(a, _OTHER), tuple(a), tuple(_rebuilt(a))):
        assert records._walks_equal(a, other) is (a == other) is not (a != other)
        assert records._walks_equal(tuple(a), other) is (tuple(a) == other)
        if a == other:
            assert records.tree_hash(a) == records.tree_hash(other)
    # repr is the named-tuple base's text at every record, so at the root too
    for record in _records(a):
        base = next(cls for cls in type(record).__mro__ if cls.__bases__ == (tuple,))
        assert repr(record) == base.__repr__(record)
