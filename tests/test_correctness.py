import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implres.circuits import (
    Circuit,
    Gate,
    Premises,
    VarAlloc,
    evaluate,
    gate_group,
    item_gates,
    map_literal,
    validate_circuit,
)
from implres.correctness import (
    CorrectnessError,
    SearchProblem,
    check_search_problem,
    gen_C,
    gen_correct,
    gen_delta,
    gen_lambda,
    serialize_sidecar,
)
from implres.encoding import (
    TreeInterface,
    canonical_tree_circuit,
    compute_initial_clause,
    output_width,
    tree_to_circuit,
    window_bits,
)
from implres.families import contradiction_pair, not_search, php, tseitin_cycle, two_var_unsat
from implres.formulas import Clause, ClauseSet, brute_force_sat
from implres.proofs import ERProof, er_premises
from implres.prover import balance_tree, dpll_refute, proof_from_tree
from implres.translate import er_to_implicit


def spelled_clause(n, x_bits, y_bits):
    """Decode the clause named by the checker inputs: slot i spells
    variable j (its y row in binary, LSB first) signed by x_i, and
    out-of-range rows spell nothing."""
    lits = []
    for i in range(n):
        j = sum(b << m for m, b in enumerate(y_bits[i]))
        if 1 <= j <= n:
            lits.append(j if x_bits[i] else -j)
    return Clause(tuple(lits))


def standalone_delta(omega, n):
    """gen_delta's gates as a circuit over inputs of their own, x_i = i
    then the y rows, with output delta, the last gate."""
    w = output_width(n)
    ys = tuple(tuple(range(n + 1 + i * w, n + 1 + (i + 1) * w)) for i in range(n))
    items = gen_delta(omega, n, VarAlloc(n * (w + 1) + 1), tuple(range(1, n + 1)), ys)
    gates = tuple(g for item in items for g in item_gates(item))
    return Circuit(tuple(range(1, n * (w + 1) + 1)), gates, (gates[-1].var,))


def standalone_lambda(n):
    """gen_lambda's gates as a circuit over branch variables of their
    own, z_i = i, with every window cell an output; and the cell table,
    cell (i - 1)(n + 1) + j of the family being u_{i,j}."""
    tt, cells = gen_lambda(n, VarAlloc(n + 1), tuple(range(1, n + 1)))
    gates = item_gates(cells)
    grid = {(t // (n + 1) + 1, t % (n + 1)): g.var for t, g in enumerate(gates)}
    return Circuit(tuple(range(1, n + 1)), (tt, *gates), tuple(grid.values())), grid


def delta_value(checker, x_bits, y_bits):
    """The output of standalone_delta's checker on sign bits x_bits and
    index rows y_bits."""
    bits = (*x_bits, *(b for row in y_bits for b in row))
    return evaluate(checker, dict(zip(checker.free, map(bool, bits))))[checker.outputs[0]]


def iter_patterns(n):
    width = output_width(n)
    for xs in itertools.product((0, 1), repeat=n):
        for flat in itertools.product((0, 1), repeat=n * width):
            ys = tuple(flat[i * width : (i + 1) * width] for i in range(n))
            yield xs, ys


def test_gen_delta_small_exhaustive(omega1, omega2):
    omegas = {
        1: [omega1, ClauseSet(1, ()), ClauseSet(1, (Clause(()),))],
        2: [omega2, ClauseSet(2, ((1, -2),)), ClauseSet(2, (Clause(()), Clause((1,))))],
    }
    for n, sets in omegas.items():
        for omega in sets:
            d = standalone_delta(omega, n)
            for xs, ys in iter_patterns(n):
                got = delta_value(d, xs, ys)
                want = any(set(c) <= set(spelled_clause(n, xs, ys)) for c in omega)
                assert got == want, (n, omega, xs, ys, got, want)


def test_gen_delta_input_validation(omega2):
    # gen_C, gen_delta's one caller, refuses both before generating
    beta, iface = canonical_tree_circuit(1)
    with pytest.raises(CorrectnessError, match="omega over 2 variables, interface says 1"):
        gen_C(omega2, beta, iface)  # omega speaks about more variables
    with pytest.raises(CorrectnessError, match="bad variable count 0"):
        gen_C(ClauseSet(0, ()), Circuit((), (), ()), TreeInterface(0, (), ()))


def test_gen_lambda_spells_windows():
    for n in (1, 2, 3):
        lam, grid = standalone_lambda(n)
        assert validate_circuit(lam)
        for zs in itertools.product((0, 1), repeat=n):
            vals = evaluate(lam, {v: bool(b) for v, b in zip(lam.free, zs)})
            for i in range(1, n + 1):
                got = tuple(int(vals[grid[(i, j)]]) for j in range(0, n + 1))
                assert got == window_bits(n, i, zs[: i - 1]), (n, zs, i)


def test_gen_c_satisfiable_iff_some_leaf_misses(omega1, omega2):
    # canonical circuit over omega1 describes the {x}/{-x} split: unsat
    beta, iface = canonical_tree_circuit(1)
    bundle = gen_C(omega1, beta, iface)
    assert brute_force_sat(bundle.clauses) is None
    # same circuit against a satisfiable premise set: some leaf misses
    loose = ClauseSet(1, (Clause((1,)),))
    bundle2 = gen_C(loose, beta, iface)
    model = brute_force_sat(bundle2.clauses)
    assert model is not None
    # the witness branch bits really address a non-weakening leaf
    x = tuple(int(model[z]) for z in bundle2.clauses.frees)
    ic = compute_initial_clause(beta, iface, x)
    assert not any(set(c) <= set(ic.clause) for c in loose)


def test_gen_c_layout_independent_of_beta(omega2):
    beta1, iface1 = canonical_tree_circuit(2)
    out = dpll_refute(omega2)
    beta2, iface2 = tree_to_circuit(balance_tree(out.tree, (1, 2)), 2)
    b1 = gen_C(omega2, beta1, iface1)
    b2 = gen_C(omega2, beta2, iface2)
    c1, c2 = b1.clauses, b2.clauses
    assert c1.frees == c2.frees
    assert c1.laid[:-2] == c2.laid[:-2]  # all but the two copies of beta
    # the w grid: each copy's images of beta's outputs
    assert ([[m[y] for y in iface1.outputs] for m in c1.copy_maps]
            == [[m[y] for y in iface2.outputs] for m in c2.copy_maps])
    assert c1.delta == c2.delta
    assert c1.neg_delta_index == c2.neg_delta_index
    assert c1.clauses[c1.neg_delta_index] == Clause((-c1.delta,))


def test_gen_c_contains_beta_copies(omega2):
    out = dpll_refute(omega2)
    beta, iface = tree_to_circuit(balance_tree(out.tree, (1, 2)), 2)
    bundle = gen_C(omega2, beta, iface)
    assert validate_circuit(bundle.clauses.circuit)
    assert len(bundle.clauses.copy_maps) == 2
    clause_set = set(bundle.clauses.clauses)
    for varmap in bundle.clauses.copy_maps:
        for g in beta.gates:
            remapped = Gate(varmap[g.var], tuple(map_literal(l, varmap) for l in g.body))
            for c in gate_group(remapped.var, remapped.body):
                assert c in clause_set


def test_gen_c_rejects_bad_interface(omega2):
    beta, iface = canonical_tree_circuit(2)
    with pytest.raises(CorrectnessError):
        gen_C(ClauseSet(3, ()), beta, iface)
    chopped = Circuit(beta.free[:2], beta.gates, beta.outputs)
    with pytest.raises(CorrectnessError):
        gen_C(omega2, chopped, iface)


def test_sidecar_deterministic_and_complete(omega2):
    beta, iface = canonical_tree_circuit(2)
    b1 = gen_C(omega2, beta, iface)
    b2 = gen_C(omega2, beta, iface)
    s1 = serialize_sidecar(b1)
    assert s1 == serialize_sidecar(b2)
    assert f"delta {b1.clauses.delta}" in s1.splitlines()


def test_search_problem_shape_checks():
    sp = not_search(2)
    assert check_search_problem(sp)
    bad = SearchProblem(sp.n, sp.xs, sp.ys, sp.checker, sp.checker)
    assert not check_search_problem(bad)
    correct = gen_correct(sp)
    assert correct.clauses[-1] == Clause((-sp.checker.outputs[0],))
    assert brute_force_sat(correct) is None  # bitwise NOT always passes the checker


def _first_gate_rewired(c, reads_later):
    """c with its first gate reading itself, or the gate after it."""
    first, second = c.gates[:2]
    body = (second.var,) if reads_later else (first.var,)
    return Circuit(c.free, (Gate(first.var, body), *c.gates[1:]), c.outputs)


@pytest.mark.parametrize("reads_later", [False, True], ids=["self-citing", "later-gate"])
def test_gen_correct_refuses_an_invalid_circuit(reads_later):
    """An algorithm or checker gate that cites itself or reads a later
    gate is refused, naming the circuit: the laid clause counts assume
    valid gates, and a self-citing gate 3 = OR(3) counts two clauses
    where its group holds one."""
    sp = not_search(2)
    algo = _first_gate_rewired(sp.algorithm, reads_later)
    checker = _first_gate_rewired(sp.checker, reads_later)
    with pytest.raises(CorrectnessError, match="invalid algorithm: gate 3"):
        gen_correct(SearchProblem(sp.n, sp.xs, sp.ys, algo, sp.checker))
    with pytest.raises(CorrectnessError, match="invalid checker: gate 5"):
        gen_correct(SearchProblem(sp.n, sp.xs, sp.ys, sp.algorithm, checker))


def test_gen_correct_catches_buggy_algorithm():
    sp = not_search(2, buggy=True)
    correct = gen_correct(sp)
    model = brute_force_sat(correct)
    assert model is not None  # identity instead of negation errs somewhere


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_gen_correct_reads_by_position(n, view_oracle, position_oracle):
    """gen_correct's view: every clause read by position and every
    gate's group is where the materialized set has it, {-verdict} sits
    at neg_delta_index, and reading builds nothing in full."""
    sp = not_search(n)
    for oracle in (view_oracle, position_oracle):
        view = oracle(lambda: gen_correct(sp))
        assert "clauses" not in vars(view)
    assert view[view.neg_delta_index] == Clause((-sp.checker.outputs[0],))
    assert view.neg_delta_index == len(view) - 1


@pytest.mark.parametrize("n", [2, 6])
def test_er_premises_over_gen_correct_read_by_position(n, view_oracle, position_oracle):
    """er_premises over gen_correct's view with an auxiliary gate that
    reads the verdict.  Every clause and gate group is where the
    materialized set has it, {-verdict} is where gen_correct lays it,
    and the set is not built in full."""
    sp = not_search(n)
    verdict = sp.checker.outputs[0]

    def premises():
        correct = gen_correct(sp)
        aux = Circuit((verdict, 1), (Gate(correct.n + 1, (-verdict, 1, -verdict)),), ())
        return er_premises(correct, aux)

    for oracle in (view_oracle, position_oracle):
        view = oracle(premises)
        assert "clauses" not in vars(view)
    correct = gen_correct(sp)
    assert view.neg_delta_index == correct.neg_delta_index == len(correct) - 1


def test_er_premises_over_a_view_lays_one_flat_sequence(omega2, view_oracle, position_oracle):
    """er_premises over a view that er_premises made over a carrier: one
    sequence, the carrier's items and then both auxiliary circuits'
    gates, with no field holding another premise set, read by position
    and by gate as the materialized set has it."""
    beta, iface = canonical_tree_circuit(2)

    def layers():
        carrier = gen_C(omega2, beta, iface).clauses
        r = carrier.n + 1
        first = Circuit((1,), (Gate(r, (1, -1)),), ())
        second = Circuit((r, 2), (Gate(r + 1, (-r, 2)),), ())
        return carrier, first, second

    def premises():
        carrier, first, second = layers()
        return er_premises(er_premises(carrier, first), second)

    carrier, first, second = layers()
    view = er_premises(er_premises(carrier, first), second)
    assert view.laid == (*carrier.laid, *first.gates, *second.gates)
    assert view.n == carrier.n + 2
    assert not any(isinstance(v, (Premises, ClauseSet)) for v in vars(view).values())
    for oracle in (view_oracle, position_oracle):
        assert "clauses" not in vars(oracle(premises))
    assert view.neg_delta_index == carrier.neg_delta_index


@pytest.mark.parametrize(
    "omega",
    [php(4, 3), tseitin_cycle(12), tseitin_cycle(128)],
    ids=["php43", "tseitin12", "tseitin128"],
)
def test_er_premises_over_a_clause_set_read_by_position(omega, view_oracle, position_oracle):
    """er_premises over a ClauseSet lays each of its clauses as an item
    of one clause, then the aux gates: one over two of omega's
    variables and one whose body repeats a literal.  Every clause and
    gate group is where the materialized set has it, the first aux
    gate's group starts right after omega, and the first clause laid
    as it stands is omega's first."""
    e = omega.n + 1
    aux = Circuit((1, 2), (Gate(e, (1, -2)), Gate(e + 1, (-e, 2, -e))), ())
    for oracle in (view_oracle, position_oracle):
        view = oracle(lambda: er_premises(omega, aux))
        assert "clauses" not in vars(view)
    assert len(view.laid) == len(omega) + 2
    assert view.gate_position(e) == len(omega)
    assert view.gate_position(e + 1) == len(omega) + 3
    assert view.neg_delta_index == 0


@pytest.mark.parametrize(
    "omega",
    [tseitin_cycle(12), php(4, 3), tseitin_cycle(4), php(3, 2)],
    ids=["tseitin12", "php43", "tseitin4", "php32"],
)
def test_lazy_carrier_equals_the_materialized_set_on_grafts(omega, view_oracle):
    """The grafted certificates of the benchmark's ER simulation and of
    the small fixtures: every clause read through the view is the one
    gen_C materializes, and reading all of them builds nothing in full."""
    pi = ERProof(Circuit((), (), ()), proof_from_tree(omega, dpll_refute(omega).tree))
    ir = er_to_implicit(omega, pi)
    view = view_oracle(lambda: gen_C(omega, ir.beta, ir.iface).clauses)
    assert "clauses" not in vars(view) and "circuit" not in vars(view)


@pytest.mark.parametrize(
    "omega",
    [tseitin_cycle(12), php(4, 3), tseitin_cycle(4), php(3, 2), contradiction_pair(), two_var_unsat()],
    ids=["tseitin12", "php43", "tseitin4", "php32", "omega1", "omega2"],
)
def test_gate_position_matches_the_materialized_set_on_grafts(omega, position_oracle):
    """The canonical carrier an ER simulation starts from and the one
    it grows: every gate's group sits where gate_position says, its
    body reads back through gate_body, and asking builds nothing in
    full."""
    pi = ERProof(Circuit((), (), ()), proof_from_tree(omega, dpll_refute(omega).tree))
    ir = er_to_implicit(omega, pi)
    for beta, iface in (canonical_tree_circuit(omega.n), (ir.beta, ir.iface)):
        view = position_oracle(lambda: gen_C(omega, beta, iface).clauses)
        assert "clauses" not in vars(view) and "circuit" not in vars(view)


def signed(draw, pool):
    """A nonempty body over pool, sometimes with a literal repeated."""
    lits = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=4
    ))
    body = [v if pos else -v for v, pos in lits]
    if draw(st.booleans()):
        body.append(body[0])
    return tuple(body)


@st.composite
def small_tuples(draw):
    """(omega, beta, iface) with n <= 4: gates in the outputs' cone read
    the window inputs only; gates outside it may read spare frees
    (ids within 1..n) and anything defined before them.  Omega is
    empty, holds the empty clause, or is a plain clause list."""
    n = draw(st.integers(1, 4))
    inputs = tuple(range(n + 1, 2 * n + 2))
    spares = tuple(sorted(draw(st.sets(st.integers(1, n)))))
    next_var = 2 * n + 2
    gates, cone = [], list(inputs)
    for _ in range(draw(st.integers(0, 3))):
        gates.append(Gate(next_var, signed(draw, cone)))
        cone.append(next_var)
        next_var += 1
    outputs = tuple(range(next_var, next_var + output_width(n)))
    for v in outputs:
        gates.append(Gate(v, signed(draw, cone)))
    pool = cone + list(outputs) + list(spares)
    for v in range(outputs[-1] + 1, outputs[-1] + 1 + draw(st.integers(0, 3))):
        gates.append(Gate(v, signed(draw, pool)))
        pool.append(v)
    kind = draw(st.sampled_from(("empty", "empty clause", "plain")))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = [] if kind == "empty" else draw(st.lists(st.lists(lit, max_size=3), max_size=4))
    if kind == "empty clause":
        clauses.insert(draw(st.integers(0, len(clauses))), [])
    omega = ClauseSet(n, tuple(Clause(tuple(c)) for c in clauses))
    return omega, Circuit(inputs + spares, tuple(gates), outputs), TreeInterface(n, inputs, outputs)


@settings(max_examples=80, deadline=None)
@given(small_tuples())
def test_lazy_carrier_equals_the_materialized_set_on_random_betas(view_oracle, case):
    omega, beta, iface = case
    view = view_oracle(lambda: gen_C(omega, beta, iface).clauses)
    assert "clauses" not in vars(view)


@settings(max_examples=80, deadline=None)
@given(small_tuples())
def test_gate_position_matches_the_materialized_set_on_random_betas(position_oracle, case):
    omega, beta, iface = case
    view = position_oracle(lambda: gen_C(omega, beta, iface).clauses)
    assert "clauses" not in vars(view)
