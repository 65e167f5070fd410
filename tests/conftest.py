import pytest

from implres.families import contradiction_pair, php, tseitin_cycle, two_var_unsat


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
