import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implres.circuits import Circuit
from implres.families import php, tm_halt, tm_right_writer, tm_write_stay, tseitin_cycle
from implres.formulas import Clause, ClauseSet, brute_force_sat, satisfies
from implres.proofs import ERProof, Resolve, UnitPropagation, check_proof
from implres.prover import (
    Leaf,
    Node,
    ProverError,
    balance_tree,
    check_decision_tree,
    dpll_refute,
    parse_dtree,
    proof_from_tree,
    serialize_dtree,
    tree_size,
)
from implres.tableau import gen_tableau, graft_pq, refute_tableau
from test_tableau import halting_grid


def test_tree_metrics():
    t = Node(1, Leaf(0), Node(2, Leaf(1), Leaf(2)))
    assert tree_size(t) == 5


def test_check_decision_tree(omega1, omega2):
    # left branch sets the variable true, so it falsifies the negative unit
    good = Node(1, Leaf(1), Leaf(0))
    assert check_decision_tree(omega1, good)
    swapped = Node(1, Leaf(0), Leaf(1))
    assert not check_decision_tree(omega1, swapped)
    assert not check_decision_tree(omega1, Leaf(7))
    irregular = Node(1, Node(1, Leaf(1), Leaf(1)), Leaf(0))
    assert not check_decision_tree(omega1, irregular)
    t2 = Node(2, Leaf(2), Node(1, Leaf(1), Leaf(0)))
    assert check_decision_tree(omega2, t2)


def test_proof_from_tree_is_tree_like_refutation(omega2):
    t = Node(2, Leaf(2), Node(1, Leaf(1), Leaf(0)))
    proof = proof_from_tree(omega2, t)
    rep = check_proof(omega2, proof)
    assert rep
    # one axiom per leaf, one resolution per node
    assert len(proof.steps) == tree_size(t)


def cited_once(proof) -> bool:
    """No step is a side of two resolutions."""
    sides = [i for s in proof.steps if type(s) is Resolve for i in (s.left, s.right)]
    return len(sides) == len(set(sides))


def test_tree_like_builds_cite_each_step_at_most_once():
    """proof_from_tree reads a tree off as a tree-like proof, so a
    builder that records each distinct step once finds no step to share
    there."""
    for cs in (php(4, 3), php(5, 4), tseitin_cycle(4), tseitin_cycle(9)):
        proof = proof_from_tree(cs, dpll_refute(cs).tree)
        assert check_proof(cs, proof)
        assert cited_once(proof)


def test_refute_tableau_records_each_step_once():
    """refute_tableau resolves each propagated unit once, at its level,
    and shares the reasons its leaves cite: no resolution repeats, so
    graft_pq's import, which records each distinct step once, keeps
    every step of alpha."""
    grids = [fixture() for fixture in (tm_halt, tm_write_stay, tm_right_writer)]
    grids += [halting_grid(m) for m in (2, 3, 4, 5)]
    for tm, tau, beta, iface in grids:
        bundle = gen_tableau(tm, tau, beta, iface)
        alpha = refute_tableau(bundle)
        assert check_proof(bundle.clauses, alpha)
        keys = [(s.left, s.right, s.pivot) for s in alpha.steps if type(s) is Resolve]
        assert len(keys) == len(set(keys))
        grafted = graft_pq(tm, tau, beta, iface, ERProof(Circuit((), (), ()), alpha))
        assert len(grafted.alpha.steps) == len(alpha.steps)
    assert len(alpha.steps) <= 762  # halt5; its tree-like refutation had 3,041


def test_dpll_refute_unsat(omega1, omega2, php32, tseitin4):
    for cs in (omega1, omega2, php32, tseitin4):
        out = dpll_refute(cs)
        assert out.model is None
        assert check_decision_tree(cs, out.tree)
        assert check_proof(cs, proof_from_tree(cs, out.tree))


def test_dpll_refute_sat_model():
    cs = ClauseSet(3, ((1, 2), (-1, 3)))
    out = dpll_refute(cs)
    assert out.tree is None
    assert all(satisfies(out.model, c) for c in cs)


def test_dpll_respects_order_and_node_budget(php32):
    out = dpll_refute(php32, order=tuple(range(php32.n, 0, -1)))
    assert out.model is None
    assert check_decision_tree(php32, out.tree)
    with pytest.raises(ProverError, match="node budget 3 exhausted"):
        dpll_refute(php32, max_nodes=3)


def test_least_completing_budget_is_the_node_count():
    # conflict leaves count against the budget as branching nodes do
    for cs in (php(4, 3), tseitin_cycle(12)):
        nodes = dpll_refute(cs).nodes
        assert dpll_refute(cs, max_nodes=nodes).nodes == nodes
        with pytest.raises(ProverError, match=f"node budget {nodes - 1} exhausted"):
            dpll_refute(cs, max_nodes=nodes - 1)
    with pytest.raises(ProverError, match="node budget 0 exhausted"):
        dpll_refute(ClauseSet(1, ((),)), max_nodes=0)


def test_dpll_default_order_proves_24_variables():
    # unsat only through x12 and x24; x1 forces x24 either way
    cs = ClauseSet(24, ((1, 24), (-1, 24), (-24, 12), (-24, -12)))
    out = dpll_refute(cs)
    assert out.model is None
    assert tree_size(out.tree) <= 11
    assert check_decision_tree(cs, out.tree)
    assert check_proof(cs, proof_from_tree(cs, out.tree))
    wide = ClauseSet(30, (Clause((1,)), Clause((-1,))))
    assert dpll_refute(wide).model is None
    assert dpll_refute(wide, order=(1,)).model is None


def test_balance_tree_queries_every_variable(omega2):
    out = dpll_refute(omega2)
    balanced = balance_tree(out.tree, (1, 2))
    assert check_decision_tree(omega2, balanced)
    assert tree_size(balanced) == 7  # full binary tree over two variables
    # already balanced trees come back unchanged in shape
    again = balance_tree(balanced, (1, 2))
    assert tree_size(again) == 7


def test_balance_tree_rejects_foreign_variables(omega1):
    t = Node(1, Leaf(1), Leaf(0))
    with pytest.raises(ProverError):
        balance_tree(t, (2,))


def test_dtree_serialize_parse_round_trip(omega2, php32):
    for cs in (omega2, php32):
        out = dpll_refute(cs)
        text = serialize_dtree(cs, out.tree)
        back = parse_dtree(text, cs)
        assert check_decision_tree(cs, back)
        assert serialize_dtree(cs, back) == text


def test_parse_dtree_errors(omega1):
    with pytest.raises(ProverError):
        parse_dtree("", omega1)
    with pytest.raises(ProverError):
        parse_dtree("dtree 1\nn 1\n", omega1)  # dangling node
    with pytest.raises(ProverError):
        parse_dtree("dtree 1\nl 5 0\n", omega1)  # no premise with that clause


@st.composite
def small_cnfs(draw):
    """Clause sets over n <= 8 variables: units, tautologies (v and -v
    in one clause), repeated clauses, and now and then an empty one."""
    n = draw(st.integers(0, 8))
    clauses = []
    if n:
        lit = st.builds(lambda v, sign: sign * v, st.integers(1, n), st.sampled_from((1, -1)))
        clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=4), max_size=24))
    if clauses and draw(st.booleans()):
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=4))
    if draw(st.integers(0, 9)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), [])
    return ClauseSet(n, tuple(tuple(c) for c in clauses))


@settings(max_examples=300, deadline=None)
@given(small_cnfs())
def test_dpll_verdict_matches_brute_force(cs):
    """A tree the checker accepts exactly on unsatisfiable sets, and
    otherwise a model of every clause."""
    out = dpll_refute(cs)
    if brute_force_sat(cs) is None:
        assert out.model is None
        assert check_decision_tree(cs, out.tree)
    else:
        assert out.tree is None
        assert all(satisfies(out.model, c) for c in cs)


def _is_true(engine, lit):
    return engine.value.get(abs(lit)) == (lit > 0)


@settings(max_examples=300, deadline=None)
@given(small_cnfs(), st.data())
def test_engine_counts_open_clauses_and_finds_units(cs, data):
    """Through random assign, propagate and undo steps, ``open`` is the
    number of clauses no assigned literal satisfies, and ``next_unit``
    names the one free literal of a clause with no true literal, or
    finds none when no clause is unit."""
    engine = UnitPropagation(cs)
    for _ in range(data.draw(st.integers(0, 12))):
        free = [v for v in range(1, cs.n + 1) if v not in engine.value]
        action = data.draw(st.sampled_from(("assign", "propagate", "undo")))
        if action == "assign" and free:
            engine.assign(data.draw(st.sampled_from(free)) * data.draw(st.sampled_from((1, -1))))
        elif action == "propagate":
            engine.propagate()
        else:
            engine.undo(data.draw(st.integers(0, len(engine.trail))))
        assert engine.open == sum(
            1 for c in cs if not any(_is_true(engine, lit) for lit in c))
        lit = engine.next_unit()
        if lit is None:
            units = [c for c in cs if not any(_is_true(engine, l) for l in c)
                     and sum(abs(l) not in engine.value for l in c) == 1]
            assert units == []
        else:
            clause = cs.clauses[engine.pending[-1]]
            assert not any(_is_true(engine, l) for l in clause)
            assert [l for l in clause if abs(l) not in engine.value] == [lit]
