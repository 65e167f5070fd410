import pytest

from implres.formulas import (
    Clause,
    ClauseSet,
    FormulaError,
    brute_force_sat,
    parse_dimacs,
    satisfies,
    serialize_dimacs,
)


def test_clause_canonical_order_and_dedup():
    c = Clause((3, -1, 3, 2, -1))
    assert c.literals == (-1, 2, 3)
    assert Clause((1, -1)).literals == (-1, 1)  # negative first per variable


def test_clause_rejects_bad_literals():
    with pytest.raises(FormulaError):
        Clause((0,))
    with pytest.raises(FormulaError):
        Clause((True,))
    with pytest.raises(FormulaError):
        Clause(("1",))


def test_clause_equality_across_orderings():
    assert Clause((2, -5, 1)) == Clause((-5, 1, 2))
    assert hash(Clause((2, 1))) == hash(Clause((1, 2)))


def test_clause_helpers():
    c = Clause((1, -2))
    assert 1 in c and -2 in c and 2 not in c
    assert c.union((3,)) == Clause((1, -2, 3))
    assert Clause((1, -1)).is_tautology()
    assert not c.is_tautology()


def test_clause_set_range_checks():
    with pytest.raises(FormulaError):
        ClauseSet(1, (Clause((2,)),))
    with pytest.raises(FormulaError):
        ClauseSet(-1, ())
    cs = ClauseSet(2, ((1, -2), (2,)))  # bare tuples are coerced
    assert cs[0] == Clause((1, -2))
    assert len(cs) == 2


def test_satisfies():
    c = Clause((1, -2))
    assert satisfies({1: True, 2: True}, c)
    assert satisfies({1: False, 2: False}, c)
    assert not satisfies({1: False, 2: True}, c)


def test_brute_force_sat_agrees_with_hand_counts(omega1, omega2):
    assert brute_force_sat(omega1) is None
    assert brute_force_sat(omega2) is None
    model = brute_force_sat(ClauseSet(2, ((1, 2),)))
    assert model == {1: False, 2: True}  # lexicographically first
    assert brute_force_sat(ClauseSet(0, ())) == {}
    assert brute_force_sat(ClauseSet(1, (Clause(()),))) is None


def test_brute_force_sat_limit_guard():
    with pytest.raises(FormulaError):
        brute_force_sat(ClauseSet(30, ()), limit=25)


def test_dimacs_round_trip(php32):
    text = serialize_dimacs(php32)
    assert parse_dimacs(text) == php32
    assert serialize_dimacs(parse_dimacs(text)) == text


def test_dimacs_parse_errors():
    for bad in (
        "p cnf bogus\n",
        "1 0\n",
        "p cnf 1 1\n1\n",
        "p cnf 1 2\n1 0\n",
        "p cnf 1 1\np cnf 1 1\n1 0\n",
        "p cnf 1 1\nx 0\n",
        "",
    ):
        with pytest.raises(FormulaError):
            parse_dimacs(bad)


def test_dimacs_comments_and_blank_lines():
    cs = parse_dimacs("c header comment\n\np cnf 2 1\nc mid\n1 -2 0\n")
    assert cs == ClauseSet(2, ((1, -2),))
