import pytest

from implres import translate
from implres.circuits import Carrier, gate_clauses
from implres.families import contradiction_pair, php, tseitin_cycle, two_var_unsat
from implres.formulas import ClauseSet
from implres.proofs import Axiom, ResolutionProof


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
    """The gates whose clause groups a premise set (a Carrier, a
    Premises view or a ClauseSet) lays out, in order, and the free
    variables of the circuit they form."""
    if isinstance(premises, Carrier):
        return premises.circuit.gates, set(premises.circuit.free)
    if isinstance(premises, ClauseSet):
        return (), {abs(lit) for c in premises for lit in c}
    gates, frees = laid_out(premises.base)
    gates += premises.gates
    frees |= {abs(lit) for g in premises.gates for lit in g.body}
    frees |= {abs(lit) for c in premises.units for lit in c}
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
    """Check gate_position of a premise set (a Carrier or a Premises
    view) against the same set built in full: every gate it lays out
    has its clause group, wide clause first, at the position given
    (the first place that wide clause occurs), and free variables, 0
    and the ids just past n raise KeyError.  Returns the view."""

    def check(generate):
        view = generate()
        full = generate()
        clauses = full.clauses
        first = {}
        for p, c in enumerate(clauses):
            first.setdefault(c, p)
        gates, frees = laid_out(full)
        for g in gates:
            group = gate_clauses(g)
            p = view.gate_position(g.var)
            assert p == first[group[0]], g
            assert clauses[p:p + len(group)] == group, g
        for v in (*frees, 0, *range(view.n + 1, view.n + 64)):
            with pytest.raises(KeyError):
                view.gate_position(v)
        return view

    return check


@pytest.fixture
def broken_fold(monkeypatch):
    """Replace translate._fold_proof, the one fold every graft calls,
    by one that returns a one-step proof refuting nothing.  Each call
    records the host circuit, the duplicate map and the grown circuit
    it is handed in the returned list."""
    folds = []

    def fold(old, pi, host, dupmap, new):
        folds.append((host, dupmap, new.beta))
        return ResolutionProof((Axiom(0),))

    monkeypatch.setattr(translate, "_fold_proof", fold)
    return folds
