"""The record contract: every value type is a typed tuple record that keeps
a frozen dataclass's equality, truth, repr and immutability."""

import pytest

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
    Sum,
    Var,
)
from proofbench.pi_system import Num as TermNum
from proofbench.proof_search import AuditReport, DerivedNegation, DerivedTarget, Exhausted, SearchBudget
from proofbench.qlang import Add, BitTable, Eq, Gt, Mod, Not, Num, X, parse

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
