"""Property tests for the clause kernel.

The validated constructor ``Clause(...)`` and the trusted constructors
behind resolvents and gate clauses must produce exactly the clauses a
literal-by-literal reference produces, and the validated path must
still reject every bad literal.  A trusted clause is put in canonical
order only when that order is read, and the replay never reads it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implres import formulas, translate
from implres.circuits import Circuit, Gate, gate_clauses
from implres.correctness import gen_C
from implres.families import php, tseitin_cycle
from implres.formulas import Clause, ClauseSet, FormulaError, canonical_clause, derived_clause
from implres.implicit import implicit_from_tree
from implres.proofs import (
    Axiom,
    ERProof,
    ProofError,
    Resolve,
    ResolutionProof,
    Weaken,
    check_proof,
    proof_clauses,
    resolve_clauses,
)
from implres.prover import dpll_refute, proof_from_tree
from implres.translate import er_to_implicit

VARS = 12
literal = st.integers(-VARS, VARS).filter(bool)
literals = st.lists(literal, max_size=14)
pivot = st.integers(1, VARS)
bad_literal = st.sampled_from([0, True, False, "1", 1.0, None])

SETTINGS = settings(max_examples=200, deadline=None)


def reference_order(lits):
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l > 0)))


def is_ordered(clause):
    """Whether the canonical slot is filled, read without filling it."""
    try:
        Clause.literals.__get__(clause, Clause)
    except AttributeError:
        return False
    return True


@SETTINGS
@given(literals)
def test_clause_literals_are_the_reference_order(lits):
    assert Clause(tuple(lits)).literals == reference_order(lits)
    assert Clause(iter(lits)) == Clause(tuple(reversed(lits)))


@SETTINGS
@given(literals, st.randoms(use_true_random=False))
def test_a_trusted_clause_reads_as_the_validated_one(lits, rnd):
    """len and in answer from the stored tuple, before the order is
    read; every order-reading operation then agrees with Clause(...)."""
    want = Clause(tuple(lits))
    shuffled = list(set(lits))
    rnd.shuffle(shuffled)
    got = derived_clause(set(shuffled))
    assert len(got) == len(want)
    for lit in range(-VARS - 1, VARS + 2):
        assert (lit in got) == (lit in want)
    assert not is_ordered(got)
    assert got.literals == want.literals
    assert is_ordered(got)
    assert tuple(got) == tuple(want)
    assert str(got) == str(want)
    assert got == want and hash(got) == hash(want)


def test_a_clause_holds_one_tuple():
    """No __dict__ and no set: once its order is read a clause holds
    one tuple in both slots."""
    for clause in (Clause((3, -1, 2)), canonical_clause((-1, 2)), derived_clause({3, -1, 2})):
        assert not hasattr(clause, "__dict__")
        assert not isinstance(clause, (set, frozenset))
        assert clause.literals is clause._lits


def test_the_replay_orders_no_resolvent(monkeypatch):
    """check_proof of a synthesized certificate reads only len, in and
    the stored tuples: the one clause it puts in order is the final
    empty resolvent, compared with the empty clause."""
    omega = tseitin_cycle(7)
    ir = implicit_from_tree(omega, dpll_refute(omega).tree)
    carrier = gen_C(omega, ir.beta, ir.iface).clauses
    ordered = []
    lazy = Clause.__getattr__

    def spy(clause, name):
        ordered.append(len(clause))
        return lazy(clause, name)

    monkeypatch.setattr(Clause, "__getattr__", spy)
    assert check_proof(carrier, ir.alpha)
    assert ordered == [0]


@pytest.mark.parametrize("omega", (tseitin_cycle(4), php(3, 2)), ids=("tseitin4", "php32"))
def test_the_fold_orders_no_clause_of_an_aux_free_proof(omega, monkeypatch):
    """An aux-free proof has an empty aux cone, so the fold bridges
    nothing and reads no cited clause's literals: it calls
    formulas._ordered not once."""
    pi = ERProof(Circuit((), (), ()), proof_from_tree(omega, dpll_refute(omega).tree))
    inside, ordered = [], []
    fold, order = translate._fold_proof, formulas._ordered

    def spied_fold(*args):
        inside.append(True)
        try:
            return fold(*args)
        finally:
            inside.pop()

    def spied_order(lits):
        if inside:
            ordered.append(lits)
        return order(lits)

    monkeypatch.setattr(translate, "_fold_proof", spied_fold)
    monkeypatch.setattr(formulas, "_ordered", spied_order)
    er_to_implicit(omega, pi)
    assert ordered == []


@SETTINGS
@given(literals, literals, pivot)
def test_trusted_resolvent_equals_the_validated_union(left, right, p):
    lc, rc = Clause(tuple(left) + (p,)), Clause(tuple(right) + (-p,))
    want = Clause(tuple((set(lc.literals) - {p}) | (set(rc.literals) - {-p})))
    got = resolve_clauses(lc, rc, p)
    assert got == want
    assert got.literals == want.literals
    assert hash(got) == hash(want)


@SETTINGS
@given(literals, bad_literal, st.integers(0, 15))
def test_clause_rejects_a_bad_literal_anywhere(lits, bad, pos):
    pos = min(pos, len(lits))
    with pytest.raises(FormulaError):
        Clause(tuple(lits[:pos]) + (bad,) + tuple(lits[pos:]))


def test_clause_rejects_bool_after_a_valid_duplicate():
    for lits in ((1, True), (1, 1, True), (-1, -1, False), (2, 2, 1.0), (3, 3, "3")):
        with pytest.raises(FormulaError):
            Clause(lits)


@SETTINGS
@given(st.integers(1, VARS), st.lists(literal, min_size=1, max_size=8))
def test_gate_clauses_equal_the_validated_construction(var, body):
    want = [Clause((-var,) + tuple(body))]
    for lit in body:
        cl = Clause((var, -lit))
        if cl not in want[1:] and cl != want[0]:
            want.append(cl)
    got = gate_clauses(Gate(var, tuple(body)))
    assert [c.literals for c in got] == [c.literals for c in want]


def test_materializing_a_carrier_orders_no_wide_clause(monkeypatch):
    """Building a carrier's clause tuple, range check included, reads
    the stored literals: the gate wide clauses stay unordered, and no
    clause is put in order (the unit {-delta} is built in order)."""
    omega = tseitin_cycle(7)
    ir = implicit_from_tree(omega, dpll_refute(omega).tree)
    carrier = gen_C(omega, ir.beta, ir.iface).clauses
    ordered = []
    real = formulas._ordered

    def spy(lits):
        out = real(lits)
        ordered.append(len(out))
        return out

    monkeypatch.setattr(formulas, "_ordered", spy)
    clauses = carrier.clauses
    assert ordered == []
    assert sum(not is_ordered(c) for c in clauses) >= len(ir.beta.gates) * omega.n


def test_clause_set_range_check_names_the_variable():
    with pytest.raises(FormulaError, match="variable 3 out of range"):
        ClauseSet(2, (Clause((1,)), Clause((1, -3))))
    assert len(ClauseSet(3, (Clause((1, -3)), Clause(())))) == 2


@SETTINGS
@given(literals, bad_literal)
def test_check_proof_rejects_a_weakening_with_a_bad_literal(lits, bad):
    """The rejection is a failed report at the weakening step, naming
    the literal, not an exception out of the checker."""
    premises = ClauseSet(1, (Clause((1,)), Clause((-1,))))
    proof = ResolutionProof((Axiom(0), Weaken(0, tuple(lits) + (bad,))))
    report = check_proof(premises, proof)
    assert (report.ok, report.step, report.reason) == (False, 1, f"bad literal {bad!r}")
    with pytest.raises(ProofError, match="step 1: bad literal"):
        proof_clauses(premises, proof)


def test_check_proof_rejects_a_pivot_missing_from_one_side():
    premises = ClauseSet(2, (Clause((1, 2)), Clause((-1,)), Clause((-2,))))
    for steps, side in (
        ((Axiom(0), Axiom(1), Resolve(1, 0, 1)), "left"),  # -1 then 1: positive side wrong
        ((Axiom(0), Axiom(2), Resolve(0, 1, 1)), "right"),  # right clause has no -1
    ):
        report = check_proof(premises, ResolutionProof(steps))
        assert not report
        assert report.step == 2
        assert f"absent from {side} clause" in report.reason
