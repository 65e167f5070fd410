import pytest

from implres import translate
from implres.circuits import Carrier, gate_group, item_gates
from implres.families import contradiction_pair, php, tseitin_cycle, two_var_unsat
from implres.formulas import Clause, ClauseSet, derived_clause
from implres.proofs import Axiom, ResolutionProof, UnitPropagation


@pytest.fixture(scope="session")
def omega1():
    return contradiction_pair()


@pytest.fixture(scope="session")
def omega2():
    return two_var_unsat()


@pytest.fixture(scope="session")
def php32():
    return php(3, 2)


@pytest.fixture(scope="session")
def tseitin4():
    return tseitin_cycle(4)


def laid_out(premises):
    """The gates whose clause groups a premise set (a Premises view,
    such as a Carrier, or a ClauseSet) lays out, in order, a gate
    family or a copy expanded into its gates, and the variables of its
    clauses that no such gate defines."""
    if isinstance(premises, ClauseSet):
        return (), {abs(lit) for c in premises for lit in c}
    gates, frees = (), set()
    for item in premises.laid:
        if isinstance(item, Clause):
            frees |= {abs(lit) for lit in item}
        else:
            laid = item_gates(item)
            gates += laid
            frees |= {abs(lit) for g in laid for lit in g.body}
    return gates, frees - {g.var for g in gates}


@pytest.fixture(scope="session")
def view_oracle():
    """Check a premise set read lazily (a Carrier or a Premises view)
    against the same set built in full.  ``generate`` makes a fresh
    set each call, so the view is read before anything of it is
    materialized.  Its ``variables()`` are those of the clauses, read
    without building them.  Returns the view."""

    def check(generate):
        view = generate()
        full = generate()
        occurring = view.variables()
        assert "clauses" not in vars(view)
        clauses = full.clauses
        assert occurring == {abs(lit) for c in clauses for lit in c}
        assert len(view) == len(clauses)
        assert view.n == full.n
        assert all(abs(lit) <= view.n for c in clauses for lit in c)
        assert [view.clause(p) for p in range(len(clauses))] == list(clauses)
        for p in (-1, -len(clauses), len(clauses)):
            with pytest.raises(IndexError):
                view.clause(p)
        return view

    return check


@pytest.fixture(scope="session")
def position_oracle():
    """Check gate_position and gate_body of a premise set (a Carrier or
    a Premises view) against the same set built in full: every gate it
    lays out has its clause group, wide clause first, at the position
    given (the first place that wide clause occurs) and its body read
    back, and free variables, 0 and the ids just past n raise KeyError.
    A carrier's body of each gate id is its circuit's, and its layout
    walk is its circuit's gates without the verdict block.  The
    branching refuter's engine reads the view's search index, built off
    its items without building the view in full: its rows hold the full
    set's clauses position by position, its occurrence lists are those
    a loop over the full clause tuple builds, each list ascending, and
    each clause's count of literals not false starts at its size.  ``row`` reads the literals of every position
    alone, nothing built or kept, and IndexError at -1 and at the
    length.  Returns the view."""

    def check(generate):
        view = generate()
        full = generate()
        clauses = full.clauses
        engine = UnitPropagation(view)
        assert "clauses" not in vars(view)
        assert list(map(derived_clause, engine.rows)) == list(clauses)
        occur = {}
        for p, c in enumerate(clauses):
            for lit in c:
                occur.setdefault(lit, []).append(p)
        assert engine.occur == occur
        assert engine.free == [len(c) for c in clauses]
        rows = [view.row(p) for p in range(len(clauses))]
        assert [set(row) for row in rows] == [set(c) for c in clauses]
        assert [len(row) for row in rows] == engine.free
        for p in (-1, len(clauses)):
            with pytest.raises(IndexError):
                view.row(p)
        assert "clauses" not in vars(view) and view._memo == {}
        first = {}
        for p, c in enumerate(clauses):
            first.setdefault(c, p)
        gates, frees = laid_out(full)
        for g in gates:
            group = gate_group(g.var, g.body)
            p = view.gate_position(g.var)
            assert p == first[group[0]], g
            assert clauses[p:p + len(group)] == group, g
            assert view.gate_body(g.var) == g.body, g
        for v in (*frees, 0, *range(view.n + 1, view.n + 64)):
            with pytest.raises(KeyError):
                view.gate_position(v)
            with pytest.raises(KeyError):
                view.gate_body(v)
        if isinstance(view, Carrier):
            circuit = full.circuit
            assert {v: view.gate_body(v) for v in circuit.gate_map()} == {
                v: g.body for v, g in circuit.gate_map().items()
            }
            verdict = sum(len(item_gates(item)) for item in full.verdict)
            head = circuit.gates[: len(circuit.gates) - verdict]
            assert list(view.gate_walk()) == [(g.var, g.body) for g in head]
        return view

    return check


@pytest.fixture
def broken_fold(monkeypatch):
    """Replace translate._fold_proof, the one fold every graft calls,
    by one that returns a one-step proof refuting nothing.  Each call
    records the host circuit, the duplicate map and the grown circuit
    it is handed in the returned list."""
    folds = []

    def fold(premises, pi, host, dupmap, new):
        folds.append((host, dupmap, new.laid[-1].circuit))
        return ResolutionProof((Axiom(0),))

    monkeypatch.setattr(translate, "_fold_proof", fold)
    return folds
