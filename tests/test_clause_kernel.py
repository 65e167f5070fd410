"""Property tests for the clause kernel.

The validated constructor ``Clause(...)`` and the trusted constructors
behind resolvents and gate clauses must produce exactly the clauses a
literal-by-literal reference produces, and the validated path must
still reject every bad literal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implres.circuits import Gate, gate_clauses
from implres.formulas import Clause, ClauseSet, FormulaError
from implres.proofs import (
    Axiom,
    ProofError,
    Resolve,
    ResolutionProof,
    Weaken,
    check_proof,
    proof_clauses,
    resolve_clauses,
)

VARS = 12
literal = st.integers(-VARS, VARS).filter(bool)
literals = st.lists(literal, max_size=14)
pivot = st.integers(1, VARS)
bad_literal = st.sampled_from([0, True, False, "1", 1.0, None])

SETTINGS = settings(max_examples=200, deadline=None)


def reference_order(lits):
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l > 0)))


@SETTINGS
@given(literals)
def test_clause_literals_are_the_reference_order(lits):
    assert Clause(tuple(lits)).literals == reference_order(lits)
    assert Clause(iter(lits)) == Clause(tuple(reversed(lits)))


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
