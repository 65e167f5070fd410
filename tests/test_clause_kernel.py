"""Property tests for the clause kernel.

The validated constructor ``Clause(...)`` and the trusted constructors
behind resolvents and gate clauses must produce exactly the clauses a
literal-by-literal reference produces, and the validated path must
still reject every bad literal.  A trusted clause is put in canonical
order only when that order is read, and the replay never reads it.
The replay, which resolves into a resolvent's set at its last
citation, must agree with the frozenset reference replay of the mutant
suite, and a carrier builds the clause at a cited position alone,
equal to the one its full clause tuple holds there.
"""

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implres import circuits, formulas, implicit, proofs, translate
from implres.circuits import Circuit, Gate, Premises, gate_group, max_var
from implres.correctness import gen_C
from implres.families import php, tm_halt, tm_right_writer, tm_write_stay, tseitin_cycle
from implres.formulas import Clause, ClauseSet, FormulaError, canonical_clause, derived_clause
from implres.implicit import implicit_from_tree, synthesize_alpha, verify_implicit
from implres.proofs import (
    Axiom,
    ERProof,
    ProofBuilder,
    ProofError,
    Resolve,
    ResolutionProof,
    UnitPropagation,
    Weaken,
    check_proof,
    proof_clauses,
    replay_steps,
    resolve_clauses,
)
from implres.prover import dpll_refute, proof_from_tree
from implres.tableau import gen_tableau, refute_tableau
from implres.translate import er_to_implicit
from test_certificate_mutants import QUICK_VIA_E, reference_clauses

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
    the stored literals, and tests the final clause by its len: it puts
    no clause in order."""
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
    assert ordered == []


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
    g = Gate(var, tuple(body))
    got = gate_group(g.var, g.body)
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


def test_the_engine_range_checks_a_laid_set():
    """The engine reads a Premises by its rows, built off the items,
    and they are range checked as the full clause tuple is."""
    over = Premises((Gate(3, (1, 2)), Clause((-3,))), 2)
    for read in (lambda: over.clauses, over.rows, lambda: UnitPropagation(over)):
        with pytest.raises(FormulaError, match="variable 3 out of range"):
            read()
    rows = UnitPropagation(Premises(over.laid, 3)).rows
    assert list(map(set, rows)) == [{-3, 1, 2}, {-1, 3}, {-2, 3}, {-3}]


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


PREMISE_VARS = 4
small_literal = st.integers(-PREMISE_VARS, PREMISE_VARS).filter(bool)
premise_sets = st.lists(st.lists(small_literal, min_size=1, max_size=3), min_size=1, max_size=5)


def drawn_steps(data, premises):
    """Steps drawn one at a time against the clauses the liberal rule
    derives so far, mostly sound: resolutions favour the latest steps
    (so a parent often dies at its resolvent, whose set is then reused)
    and pick a pivot the two sides share in opposite signs, which
    allows a step resolved with itself (a tautology on the pivot), a
    pivot that comes back from the other side and a step cited by
    several later ones; axioms cite any premise, repeats included, and
    weakenings add random literals, tautologies included.  Now and then
    a step is unsound: a late, missing or out-of-range reference, a
    bad pivot or a pivot absent from one side."""
    clauses, steps = [], []
    for idx in range(data.draw(st.integers(1, 24), label="length")):
        kind = data.draw(st.sampled_from("aaarrrrrrrrrrrrrwwb"), label="kind") if idx else "a"
        lits = frozenset()
        if kind == "r":
            # latest holder first, so a low draw resolves a step just made
            pairs = sorted(
                ((i, j, lit) for i in range(idx) for lit in clauses[i]
                 for j in range(idx) if -lit in clauses[j]),
                reverse=True,
            )
            if not pairs:
                kind = "a"
            else:
                top = len(pairs) - 1
                i, j, lit = pairs[data.draw(st.integers(0, min(top, 5)) | st.integers(0, top))]
                left, right = (i, j) if lit > 0 else (j, i)
                p = abs(lit)
                step = Resolve(left, right, p)
                lits = (clauses[left] - {p}) | (clauses[right] - {-p})
        if kind == "a":
            q = data.draw(st.integers(0, len(premises) - 1))
            step, lits = Axiom(q), frozenset(premises[q].literals)
        elif kind == "w":
            source = data.draw(st.integers(0, idx - 1))
            extra = tuple(data.draw(st.lists(small_literal, max_size=2)))
            step, lits = Weaken(source, extra), clauses[source] | frozenset(extra)
        elif kind == "b":
            late, anywhere = st.integers(idx, idx + 2) | st.just(-1), st.integers(-1, idx + 1)
            earlier = st.integers(0, idx - 1)
            step = data.draw(st.one_of(
                st.builds(Axiom, st.sampled_from((-1, len(premises), len(premises) + 3))),
                st.builds(Resolve, late, anywhere, st.just(1)),
                st.builds(Resolve, anywhere, late, st.just(1)),
                st.builds(Resolve, earlier, earlier, st.integers(-1, 0)),
                st.builds(Resolve, earlier, earlier, st.integers(1, PREMISE_VARS)),
                st.builds(Weaken, late, st.just((1,))),
            ))
        steps.append(step)
        clauses.append(lits)
    return steps


def reference_report(premises, steps):
    """(ok, step, reason) as reference_clauses implies it: the first
    step it finds unsound, named by the check that step fails, else the
    final clause against the empty one."""
    clauses = []
    for i, s in enumerate(steps):
        grown = reference_clauses(premises, steps[: i + 1], clauses)
        if grown is None:
            if type(s) is Axiom:
                return False, i, f"axiom index {s.index} out of range"
            if type(s) is Weaken:
                return False, i, "weaken references a later or missing step"
            if not (0 <= s.left < i and 0 <= s.right < i):
                return False, i, "resolve references a later or missing step"
            if s.pivot < 1:
                return False, i, f"bad pivot {s.pivot}"
            side = "right" if s.pivot in clauses[s.left] else "left"
            return False, i, f"pivot {s.pivot} absent from {side} clause"
        clauses = grown
    final = Clause(tuple(clauses[-1]))
    if final.literals:
        return False, len(steps) - 1, f"final clause {final} != target {{}}"
    return True, len(steps) - 1, ""


@settings(max_examples=400, deadline=None)
@given(premise_sets, st.data())
def test_the_replay_agrees_with_the_reference_replay(lits, data):
    """Differential test of the replay loop, which reuses a resolvent's
    set at its last citation: check_proof's (ok, step, reason) is the
    one the frozenset replay of the mutant suite implies, proof_clauses
    of a sound proof are the reference's clauses, and no premise clause
    changes."""
    premises = ClauseSet(PREMISE_VARS, tuple(Clause(tuple(c)) for c in lits))
    stored = [(c, c._lits) for c in premises]
    steps = drawn_steps(data, premises)
    want = reference_report(premises, steps)
    report = check_proof(premises, ResolutionProof(steps))
    assert (report.ok, report.step, report.reason) == want
    reference = reference_clauses(premises, steps)
    if reference is not None:
        got = proof_clauses(premises, ResolutionProof(steps))
        assert [frozenset(c.literals) for c in got] == reference
    assert [(c, c._lits) for c in premises] == stored
    assert all(c._lits is lits for c, (_, lits) in zip(premises, stored))


def repeated_first_literal(beta):
    """beta with the first gate of fan-in two or more reading its first
    body literal twice, so offset i of its group names the i-th distinct
    literal, not body[i - 1]."""
    g = next(g for g in beta.gates if len(set(g.body)) >= 2)
    gates = tuple(Gate(h.var, h.body[:1] + h.body) if h is g else h for h in beta.gates)
    return dataclasses.replace(beta, gates=gates)


def carriers():
    """Fresh generations of a tree carrier and a grid carrier whose
    circuits have a gate reading one body literal twice, and of a
    Premises view (a carrier's head is one) with such gates."""
    circuit = Circuit((1, 2), (Gate(3, (1, 1, 2)), Gate(4, (-3, 2, -3, 1)), Gate(5, (4, -2))), (5,))
    yield "premises", lambda: Premises(circuit.gates, max_var(circuit))
    omega = tseitin_cycle(4)
    ir = implicit_from_tree(omega, dpll_refute(omega).tree)
    beta = repeated_first_literal(ir.beta)
    yield "gen_C", lambda: gen_C(omega, beta, ir.iface).clauses
    tm, tau, grid, iface = tm_write_stay()
    grid = repeated_first_literal(grid)
    yield "gen_tableau", lambda: gen_tableau(tm, tau, grid, iface).clauses


@pytest.mark.parametrize("generate", [pytest.param(g, id=name) for name, g in carriers()])
def test_a_carrier_builds_the_clause_at_a_position_alone(generate):
    """Carrier.clause(p) (or Premises.clause(p)), read at every position
    before the clause tuple exists, is the clause the tuple holds
    there: the same stored literals and the same canonical order."""
    carrier = generate()
    lazy = [carrier.clause(p) for p in range(len(carrier))]
    stored = [c._lits for c in lazy]
    assert "clauses" not in vars(carrier)
    full = carrier.clauses
    assert [c._lits for c in full] == stored
    assert [c.literals for c in full] == [c.literals for c in lazy]
    assert [c.literals for c in generate().clauses] == [c.literals for c in lazy]


def test_the_verifier_builds_no_clause_group(monkeypatch):
    """verify_implicit of a synthesized certificate reads each cited
    premise alone: circuits.gate_group, which builds a gate's whole
    clause group, is never called, and no premise it read changes."""
    omega = tseitin_cycle(7)
    ir = implicit_from_tree(omega, dpll_refute(omega).tree)
    groups, made = [], []
    real_group, real_gen = circuits.gate_group, implicit.gen_C

    def group(*args):
        groups.append(args)
        return real_group(*args)

    def generate(*args):
        made.append(real_gen(*args))
        return made[-1]

    monkeypatch.setattr(circuits, "gate_group", group)
    monkeypatch.setattr(implicit, "gen_C", generate)
    assert verify_implicit(ir)
    assert groups == []
    monkeypatch.undo()
    carrier = made[0].clauses
    read = carrier._memo
    assert read and "clauses" not in vars(carrier)
    full = gen_C(omega, ir.beta, ir.iface).clauses.clauses
    assert all(c.literals == full[p].literals for p, c in read.items())


def branch_fixtures():
    """(name, premises, branch variables) of the sets branch_refute
    refutes in the tree route (encode's circuits of prove's trees) and
    in the grid route (the three machine fixtures)."""
    for omega, name in (*((tseitin_cycle(k), f"tseitin{k}") for k in range(4, 8)),
                        (php(3, 2), "php32")):
        ir = implicit_from_tree(omega, dpll_refute(omega).tree)
        carrier = gen_C(omega, ir.beta, ir.iface).clauses
        yield name, carrier, carrier.frees
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        carrier = gen_tableau(*fixture()).clauses
        yield fixture.__name__, carrier, carrier.frees


def test_the_builder_clauses_are_the_replay(monkeypatch):
    """Each step branch_refute records holds the clause the replay
    recomputes: those its chains leave unbuilt too, once read.  Read
    from the last step back, a read fills a whole chain at once."""
    builders = []

    class Recording(ProofBuilder):
        def __init__(self, premises):
            super().__init__(premises)
            builders.append(self)

    monkeypatch.setattr(proofs, "ProofBuilder", Recording)
    for name, premises, frees in branch_fixtures():
        builders.clear()
        proofs.branch_refute(premises, frees)
        (b,) = builders
        assert None in b.clauses, name
        want = replay_steps(premises, b.steps)
        got = [b.clause(i) for i in reversed(range(len(b.steps)))][::-1]
        assert got == want, name


def test_a_chain_longer_than_the_recursion_limit_fills():
    """A resolution chain of unbuilt steps, longer than the recursion
    limit, fills from its end without recursing."""
    k = sys.getrecursionlimit() + 100
    cs = ClauseSet(k + 1, ((1,), *((-v, v + 1) for v in range(1, k + 1))))
    b = ProofBuilder(cs)
    cur = b.axiom(0)
    for v in range(1, k + 1):
        cur = b.resolve_lazy(cur, b.axiom(v), v)
    assert b.clauses[cur] is None
    assert b.clause(cur) == Clause((k + 1,))
    assert b.clause(cur - 2) == Clause((k,))


def test_the_branching_refuter_builds_no_carrier_in_full(monkeypatch):
    """synthesize_alpha and refute_tableau read their carrier through
    the engine's rows and the cited clauses alone: circuits.gate_group
    is never called and the full clause tuple is never built, as for
    the verifier."""
    groups = []
    real_group = circuits.gate_group

    def group(*args):
        groups.append(args)
        return real_group(*args)

    omega = tseitin_cycle(7)
    ir = implicit_from_tree(omega, dpll_refute(omega).tree)
    bundles = [gen_C(omega, ir.beta, ir.iface)]
    bundles += [gen_tableau(*fixture()) for fixture in (tm_halt, tm_write_stay, tm_right_writer)]
    monkeypatch.setattr(circuits, "gate_group", group)
    assert synthesize_alpha(bundles[0]).steps == ir.alpha.steps
    for bundle in bundles[1:]:
        assert refute_tableau(bundle) is not None
    assert groups == []
    assert all("clauses" not in vars(bundle.clauses) for bundle in bundles)


def held(view) -> int:
    """How many clauses a premise view keeps by position: in its own
    memo and in that of every view it reads through."""
    views, count = [view], 0
    while views:
        view = views.pop()
        count += len(view._memo)
        views.extend(v for v in vars(view).values() if hasattr(v, "_memo"))
    return count


def test_the_verifier_keeps_each_cited_premise_once(monkeypatch):
    """After verify_implicit, the carrier it replayed against holds one
    clause per distinct position its certificate cites, and no view it
    reads through keeps a second copy."""
    omega = tseitin_cycle(7)
    made = []
    real_gen = implicit.gen_C

    def generate(*args):
        made.append(real_gen(*args))
        return made[-1]

    monkeypatch.setattr(implicit, "gen_C", generate)
    for ir in (
        implicit_from_tree(omega, dpll_refute(omega).tree),
        er_to_implicit(omega, ERProof(Circuit(), proof_from_tree(omega, dpll_refute(omega).tree))),
    ):
        made.clear()
        assert verify_implicit(ir)
        cited = {s.index for s in ir.alpha.steps if type(s) is Axiom}
        carrier = made[0].clauses
        assert set(carrier._memo) == cited
        assert held(carrier) == len(cited)


def test_the_verifier_builds_no_gate_of_a_family(monkeypatch):
    """verify_implicit lays the window cells and the checker's slot and
    literal gates as gate families and reads their clauses by index:
    the carrier it replays against lays at most |omega| + n + 8 items,
    never builds its circuit, and the only gates made while verifying
    are the constant, tt, the w gates and delta."""
    made, built = [], []
    real_gen, real_post = implicit.gen_C, Gate.__post_init__

    def generate(*args):
        made.append(real_gen(*args))
        return made[-1]

    def post_init(gate):
        built.append(gate.var)
        real_post(gate)

    monkeypatch.setattr(implicit, "gen_C", generate)
    seven, php43 = tseitin_cycle(7), php(4, 3)
    pi = ERProof(Circuit(), proof_from_tree(php43, dpll_refute(php43).tree))
    for omega, ir in (
        (seven, implicit_from_tree(seven, dpll_refute(seven).tree)),
        (php43, er_to_implicit(php43, pi)),
    ):
        made.clear()
        monkeypatch.setattr(Gate, "__post_init__", post_init)
        assert verify_implicit(ir)
        monkeypatch.setattr(Gate, "__post_init__", real_post)
        carrier = made[0].clauses
        assert "circuit" not in vars(carrier)
        assert len(carrier.laid) <= len(omega.clauses) + omega.n + 8
        assert len(built) <= len(omega.clauses) + 3
        built.clear()


def test_the_producer_builds_no_carrier_circuit(monkeypatch):
    """er_to_implicit reads C(omega, beta') by position and id, as the
    verifier does: the carrier it refutes never builds its circuit, and
    the only gates made are beta''s own and gen_C's tt, constant, w
    gates and delta, none of a family or a copy.  Run on dpll's
    refutation of php(4, 3) and on the quick-start set refuted through
    e = OR(1, 2)."""
    made, built = [], []
    real_gen, real_post = translate.gen_C, Gate.__post_init__

    def generate(*args):
        made.append(real_gen(*args))
        return made[-1]

    def post_init(gate):
        built.append(gate.var)
        real_post(gate)

    monkeypatch.setattr(translate, "gen_C", generate)
    php43 = php(4, 3)
    for omega, pi in (
        (php43, ERProof(Circuit(), proof_from_tree(php43, dpll_refute(php43).tree))),
        QUICK_VIA_E,
    ):
        made.clear()
        built.clear()
        monkeypatch.setattr(Gate, "__post_init__", post_init)
        ir = er_to_implicit(omega, pi)
        monkeypatch.setattr(Gate, "__post_init__", real_post)
        (carrier,) = (bundle.clauses for bundle in made)
        assert "circuit" not in vars(carrier)
        assert len(built) <= len(ir.beta.gates) + len(omega.clauses) + 3
        assert verify_implicit(ir)


@pytest.mark.parametrize("skew", ["two literals", "opposite unit"])
def test_a_forced_step_that_is_not_its_unit_is_refused(monkeypatch, skew):
    """_unit checks each forced step by length and membership: a first
    forcing step that comes out as its gate's two-literal wide clause,
    or as the opposite unit, stops the translation."""

    class Skewed(proofs.ProofBuilder):
        skewed = False

        def resolve_lit(self, holder, other, lit):
            step = super().resolve_lit(holder, other, lit)
            if self.skewed:
                return step
            self.skewed = True
            if skew == "two literals":
                return other
            return self._push(self.steps[step], Clause(tuple(-l for l in self.clause(step))))

    monkeypatch.setattr(translate, "ProofBuilder", Skewed)
    omega = tseitin_cycle(4)
    pi = ERProof(Circuit(), proof_from_tree(omega, dpll_refute(omega).tree))
    with pytest.raises(translate.TranslateError, match="^expected unit "):
        er_to_implicit(omega, pi)
