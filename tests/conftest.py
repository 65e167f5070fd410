import pytest

from implres import translate
from implres.circuits import gate_clauses
from implres.families import contradiction_pair, php, tseitin_cycle, two_var_unsat
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


@pytest.fixture(scope="session")
def view_oracle():
    """Check a carrier read lazily against the same carrier built in
    full.  ``generate`` makes a fresh bundle each call, so the view is
    read before anything of it is materialized.  Returns the view."""

    def check(generate):
        view = generate().clauses
        full = generate().clauses
        clauses = full.clauses
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
    """Check Carrier.gate_position against the same carrier built in
    full: every gate of its circuit has its clause group, wide clause
    first, at the position given (the first place that wide clause
    occurs), and free variables, 0 and the ids past the last copy
    raise KeyError.  Returns the view."""

    def check(generate):
        view = generate().clauses
        full = generate().clauses
        clauses = full.clauses
        first = {}
        for p, c in enumerate(clauses):
            first.setdefault(c, p)
        for g in full.circuit.gates:
            group = gate_clauses(g)
            p = view.gate_position(g.var)
            assert p == first[group[0]], g
            assert clauses[p:p + len(group)] == group, g
        past = range(view.n + 1, view.n + 2 * len(full.ports) + 2)
        for v in (*full.circuit.free, 0, *past):
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

    def fold(old, old_at, old_neg, pi, host, dupmap, new, *rest):
        folds.append((host, dupmap, new.beta))
        return ResolutionProof((Axiom(0),))

    monkeypatch.setattr(translate, "_fold_proof", fold)
    return folds
