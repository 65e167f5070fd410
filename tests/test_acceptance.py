"""End-to-end acceptance checks, one test per contract item.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per item.  The suite is deterministic: fixed seeds, no time or
environment dependence besides the per-fixture wall-clock budget.
"""

import dataclasses
import itertools
import random
import time

from implres.circuits import (
    Circuit,
    Gate,
    max_var,
    serialize_circuit,
)
from implres.cli import main
from implres.correctness import gen_C, gen_correct, serialize_sidecar
from implres.encoding import (
    canonical_tree_circuit,
    compute_initial_clause,
    output_width,
    tree_to_circuit,
)
from implres.families import (
    contradiction_pair,
    not_search,
    or_chain,
    php,
    tm_halt,
    tseitin_cycle,
    two_var_unsat,
)
from implres.formulas import (
    Clause,
    ClauseSet,
    brute_force_sat,
    serialize_dimacs,
)
from implres.implicit import implicit_from_tree, verify_implicit
from implres.proofs import (
    ERProof,
    Resolve,
    check_proof,
    serialize_er,
    serialize_proof,
)
from implres.prover import balance_tree, dpll_refute, proof_from_tree, serialize_dtree
from implres.tableau import (
    TableauInterface,
    address_sweep,
    check_run,
    gen_tableau,
    graft_pq,
    read_grid,
    refute_tableau,
    serialize_tm,
    verify_pq,
    verify_refutation,
)
from implres.translate import emb_refute, er_to_implicit, search_translate
from test_correctness import delta_value, standalone_delta, standalone_lambda


def fixtures():
    return [
        ("omega1", contradiction_pair()),
        ("omega2", two_var_unsat()),
        ("php32", php(3, 2)),
        ("tseitin4", tseitin_cycle(4)),
    ]


def er_refutation(cs):
    """Plain dpll refutation packaged with an empty auxiliary circuit."""
    outcome = dpll_refute(cs)
    assert outcome.tree is not None
    return ERProof(Circuit((), (), ()), proof_from_tree(cs, outcome.tree))


# 1. Full pipeline: prove, balance+encode, synthesize, verify, all
#    through the command surface, under 60 s per fixture.
def test_a1_pipeline_prove_encode_synth_verify(tmp_path):
    for name, cs in fixtures():
        start = time.monotonic()
        cnf = tmp_path / f"{name}.cnf"
        cnf.write_text(serialize_dimacs(cs))
        out = tmp_path / name
        assert main(["prove", str(cnf), "-o", str(out)]) == 0
        assert main(["encode", str(out / f"{name}.dtree"), str(cnf), "-o", str(out)]) == 0
        assert main(["synth", str(cnf), str(out / f"{name}.circ"), "-o", str(out)]) == 0
        assert main(["verify", str(out / f"{name}.manifest")]) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, (name, elapsed)


# 2. Simulation of extension-style proofs: translated manifests are
#    accepted and output growth stays within a fixed constant of the
#    input size (proof steps plus generated premise count).
def test_a2_er_translation_accepted_with_bounded_growth():
    worst = 0.0
    for name, cs in fixtures():
        pi = er_refutation(cs)
        ir = er_to_implicit(cs, pi)
        rep = verify_implicit(ir)
        assert rep, (name, rep.stage, rep.reason)
        base = len(pi.proof.steps) + ir.alpha_premises
        ratio = len(ir.alpha.steps) / base
        worst = max(worst, ratio)
        assert ratio <= 16.0, (name, ratio)
    print(f"max translation ratio: {worst:.2f}")


# 3. Embedding refutations stay linear in circuit size over chains of
#    10 to 1000 gates; emb_refute replays each against its premises.
def test_a3_embedding_refutations_linear_in_circuit_size():
    worst = 0.0
    for k in (10, 30, 100, 300, 1000):
        c = or_chain(k, 1)
        f = {v: v for v in c.free} | {g.var: 2 * k + 10 + t for t, g in enumerate(c.gates)}
        y = c.outputs[0]
        for polarity in (True, False):
            pr = emb_refute(c, f, y, polarity)
            ratio = len(pr.steps) / sum(len(g.body) for g in c.gates)
            worst = max(worst, ratio)
            assert ratio <= 16.0, (k, polarity, ratio)
    print(f"max embedding ratio: {worst:.2f}")


# 4. Search-problem translation: outputs check against the enlarged
#    correctness clause set with bounded growth, sizes 1 through 4.
def test_a4_search_translation_checks_with_bounded_growth():
    worst = 0.0
    for n in (1, 2, 3, 4):
        sp = not_search(n)
        correct = gen_correct(sp)
        outcome = dpll_refute(correct, order=tuple(range(1, correct.n + 1)))
        pi = ERProof(Circuit((), (), ()), proof_from_tree(correct, outcome.tree))
        ts = search_translate(sp, pi)
        correct2 = gen_correct(ts.problem)
        assert check_proof(correct2, ts.rho)
        ratio = len(ts.rho.steps) / len(pi.proof.steps)
        worst = max(worst, ratio)
        assert ratio <= 16.0, (n, ratio)
    print(f"max search-translation ratio: {worst:.2f}")


def spelled_clause(n, x_bits, y_rows):
    lits = []
    for i in range(n):
        j = sum(b << m for m, b in enumerate(y_rows[i]))
        if 1 <= j <= n:
            lits.append(j if x_bits[i] else -j)
    return Clause(tuple(lits))


def random_clause_set(rng, n):
    k = rng.randrange(0, 5)
    clauses = []
    for _ in range(k):
        w = rng.randrange(0, n + 1)
        vs = rng.sample(range(1, n + 1), w)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return ClauseSet(n, tuple(clauses))


# 5. The weakening-checker circuit computes exactly the "spelled
#    clause contains some premise" predicate: exhaustively for 1 and 2
#    slots, on 10^4+ random samples for 3 and 4 slots.
def test_a5_weakening_checker_matches_containment_oracle():
    small = {
        1: [ClauseSet(1, ()), ClauseSet(1, ((),)), ClauseSet(1, ((1,),)),
            ClauseSet(1, ((-1,),)), contradiction_pair()],
        2: [ClauseSet(2, ()), ClauseSet(2, ((),)), ClauseSet(2, ((1, -2),)),
            ClauseSet(2, ((2,), (-1,))), two_var_unsat()],
    }
    for n, omegas in small.items():
        width = output_width(n)
        for omega in omegas:
            checker = standalone_delta(omega, n)
            for xs in itertools.product((0, 1), repeat=n):
                for flat in itertools.product((0, 1), repeat=n * width):
                    rows = tuple(flat[i * width:(i + 1) * width] for i in range(n))
                    got = delta_value(checker, xs, rows)
                    want = any(
                        set(l) <= set(spelled_clause(n, xs, rows))
                        for l in omega.clauses
                    )
                    assert got == want, (omega, xs, rows)

    rng = random.Random(20260814)
    samples = 0
    for n, n_omegas, per_omega in ((3, 30, 200), (4, 20, 250)):
        width = output_width(n)
        omegas = [ClauseSet(n, ()), ClauseSet(n, ((),))]
        omegas += [random_clause_set(rng, n) for _ in range(n_omegas)]
        for omega in omegas:
            checker = standalone_delta(omega, n)
            for _ in range(per_omega):
                xs = tuple(rng.randrange(2) for _ in range(n))
                rows = tuple(
                    tuple(rng.randrange(2) for _ in range(width)) for _ in range(n)
                )
                got = delta_value(checker, xs, rows)
                want = any(
                    set(l) <= set(spelled_clause(n, xs, rows))
                    for l in omega.clauses
                )
                assert got == want, (omega, xs, rows)
                samples += 1
    assert samples >= 10**4
    print(f"delta oracle samples: {samples}, zero disagreements")


def tree_beta(cs):
    outcome = dpll_refute(cs)
    tree = balance_tree(outcome.tree, range(1, cs.n + 1))
    return tree_to_circuit(tree, cs.n)


# 6. On every generated clause set small enough to enumerate, brute
#    force agrees with the branch-path oracle: unsatisfiable exactly
#    when every leaf clause contains some premise.
def test_a6_correctness_set_matches_path_enumeration():
    omega1 = contradiction_pair()
    cases = [
        (omega1,) + canonical_tree_circuit(1),
        (omega1,) + tree_beta(omega1),
        (ClauseSet(1, ((),)),) + canonical_tree_circuit(1),
        (ClauseSet(1, ((1,),)),) + canonical_tree_circuit(1),
        (ClauseSet(1, ((-1,),)),) + canonical_tree_circuit(1),
    ]
    verdicts = set()
    for omega, beta, iface in cases:
        bundle = gen_C(omega, beta, iface)
        assert bundle.clauses.n <= 22, bundle.clauses.n
        got_unsat = brute_force_sat(bundle.clauses, limit=22) is None
        want_unsat = all(
            any(
                set(l) <= set(compute_initial_clause(beta, iface, x).clause)
                for l in omega.clauses
            )
            for x in itertools.product((0, 1), repeat=iface.n)
        )
        assert got_unsat == want_unsat, (omega, got_unsat, want_unsat)
        verdicts.add(got_unsat)
    assert verdicts == {True, False}


def flip_body_literal(beta, rng):
    gi = rng.randrange(len(beta.gates))
    g = beta.gates[gi]
    li = rng.randrange(len(g.body))
    body = tuple(l if i != li else -l for i, l in enumerate(g.body))
    gates = tuple(h if i != gi else Gate(g.var, body) for i, h in enumerate(beta.gates))
    return Circuit(beta.free, gates, beta.outputs)


def corrupt_pivot(alpha, n_vars, rng):
    idxs = [i for i, s in enumerate(alpha.steps) if isinstance(s, Resolve)]
    i = rng.choice(idxs)
    step = alpha.steps[i]
    new = rng.randrange(1, n_vars + 1)
    while new == step.pivot:
        new = rng.randrange(1, n_vars + 1)
    steps = list(alpha.steps)
    steps[i] = dataclasses.replace(step, pivot=new)
    return dataclasses.replace(alpha, steps=tuple(steps))


def corrupt_index(alpha, rng):
    idxs = [i for i, s in enumerate(alpha.steps) if isinstance(s, Resolve) and i >= 2]
    i = rng.choice(idxs)
    step = alpha.steps[i]
    side = rng.choice(("left", "right"))
    old = getattr(step, side)
    new = rng.randrange(i)
    while new == old:
        new = rng.randrange(i)
    steps = list(alpha.steps)
    steps[i] = dataclasses.replace(step, **{side: new})
    return dataclasses.replace(alpha, steps=tuple(steps))


def describes_refutation(omega, beta, iface):
    """Ground truth for a circuit mutant: every addressed leaf clause
    must contain some premise."""
    return all(
        any(
            set(l) <= set(compute_initial_clause(beta, iface, x).clause)
            for l in omega.clauses
        )
        for x in itertools.product((0, 1), repeat=iface.n)
    )


# 7. Soundness fuzzing: over 1000 seeded invalidating mutants of valid
#    manifests (circuit literal flips, proof pivot and index
#    corruptions, premise drops that make the set satisfiable), zero
#    accepts.  Flips that land on don't-care bits leave the described
#    object valid, so only flips the leaf oracle confirms as breaking
#    count; accepting such a mutant would certify a satisfiable set.
def test_a7_mutation_fuzzing_rejects_all_mutants():
    rng = random.Random(97)
    bases = {}
    for name, cs in fixtures():
        outcome = dpll_refute(cs)
        ir = implicit_from_tree(cs, outcome.tree)
        assert verify_implicit(ir)
        bases[name] = ir

    # budget per fixture keeps the expensive php32 re-verification rare
    mix = [("omega1", 140), ("omega2", 120), ("tseitin4", 60), ("php32", 20)]
    total = 0
    accepts = []
    dont_care = 0
    for name, count in mix:
        ir = bases[name]
        n_vars = gen_C(ir.omega, ir.beta, ir.iface).clauses.n
        flips = 0
        attempts = 0
        while flips < count:
            attempts += 1
            assert attempts <= 8 * count, (name, "flip quota unreachable")
            beta2 = flip_body_literal(ir.beta, rng)
            if describes_refutation(ir.omega, beta2, ir.iface):
                dont_care += 1
                continue
            flips += 1
            total += 1
            if verify_implicit(dataclasses.replace(ir, beta=beta2)):
                accepts.append((name, "flip"))
        for _ in range(count):
            m2 = dataclasses.replace(ir, alpha=corrupt_pivot(ir.alpha, n_vars, rng))
            m3 = dataclasses.replace(ir, alpha=corrupt_index(ir.alpha, rng))
            for mutant in (m2, m3):
                total += 1
                if verify_implicit(mutant):
                    accepts.append((name, mutant))

    for name, cs in fixtures():
        ir = bases[name]
        for i in range(len(cs.clauses)):
            dropped = ClauseSet(cs.n, cs.clauses[:i] + cs.clauses[i + 1:])
            assert brute_force_sat(dropped) is not None  # drop makes it satisfiable
            total += 1
            if verify_implicit(dataclasses.replace(ir, omega=dropped)):
                accepts.append((name, "drop", i))

    assert total >= 1000, total
    assert not accepts, accepts[:3]
    print(f"mutants rejected: {total} (don't-care flips skipped: {dont_care})")


def flip_cell_bit(beta, iface, j0, k0, b):
    """Splice an address-gated inverter onto output bit b of cell
    (j0, k0); every other cell reads unchanged."""
    j, k = iface.inputs
    jl = j if j0 else -j
    kl = k if k0 else -k
    old = beta.outputs[b]
    v = max_var(beta)
    t0, t1, t2, x = v + 1, v + 2, v + 3, v + 4
    gates = beta.gates + (
        Gate(t0, (-jl, -kl)),   # false exactly on the target address
        Gate(t1, (-old, -t0)),
        Gate(t2, (old, t0)),
        Gate(x, (-t1, -t2)),    # old xor on-target
    )
    outputs = tuple(o if i != b else x for i, o in enumerate(beta.outputs))
    return Circuit(beta.free, gates, outputs), TableauInterface(iface.m, iface.inputs, outputs)


# 8. Machine-grid constraints are unsatisfiable exactly for the
#    correct circuit/output pair: every single-cell flip and every
#    wrong output goes satisfiable (exhaustive address sweep, with a
#    search cross-check), and grafted proofs re-pass the checker.
def test_a8_tableau_exact_for_correct_pair_and_grafts():
    tm, tau, beta, iface = tm_halt()
    bundle = gen_tableau(tm, tau, beta, iface)
    unsat, _ = address_sweep(bundle)
    assert unsat
    alpha = refute_tableau(bundle)
    assert alpha is not None
    assert verify_pq(tm, tau, beta, iface, alpha,
                     alpha_premises=len(bundle.clauses.clauses))

    width = len(iface.outputs)
    for wrong in itertools.product((0, 1), repeat=len(tau)):
        if wrong == tau:
            continue
        b2 = gen_tableau(tm, wrong, beta, iface)
        unsat, witness = address_sweep(b2)
        assert not unsat and witness is not None, wrong
        assert refute_tableau(b2) is None

    mutants = 0
    for j0 in (0, 1):
        for k0 in (0, 1):
            for b in range(width):
                beta2, iface2 = flip_cell_bit(beta, iface, j0, k0, b)
                assert not check_run(tm, tau, read_grid(tm, beta2, iface2))
                b2 = gen_tableau(tm, tau, beta2, iface2)
                unsat, witness = address_sweep(b2)
                assert not unsat and witness is not None, (j0, k0, b)
                assert refute_tableau(b2) is None
                mutants += 1
    assert mutants == 4 * width

    for aux in (Circuit((), (), ()),
                Circuit((1,), (Gate(bundle.clauses.n + 1, (1, -1)),), ())):
        tr = graft_pq(tm, tau, beta, iface, ERProof(aux, alpha))
        assert verify_refutation(tr)
    print(f"cell mutants gone satisfiable: {mutants}; grafts re-verified")


# 9. Byte determinism: generators and serializers produce identical
#    bytes across two runs, library level and command level.
def test_a9_generators_and_serializers_are_byte_stable(tmp_path):
    omega = two_var_unsat()
    beta, iface = canonical_tree_circuit(2)

    def gen_c_bytes():
        bundle = gen_C(omega, beta, iface)
        return (serialize_dimacs(bundle.clauses) + serialize_sidecar(bundle)
                + serialize_circuit(bundle.clauses.circuit))

    assert gen_c_bytes() == gen_c_bytes()
    assert (serialize_circuit(standalone_delta(omega, 3))
            == serialize_circuit(standalone_delta(omega, 3)))
    assert (serialize_circuit(standalone_lambda(3)[0])
            == serialize_circuit(standalone_lambda(3)[0]))

    outcome = dpll_refute(omega)
    tree = balance_tree(outcome.tree, range(1, omega.n + 1))
    c1, _ = tree_to_circuit(tree, omega.n)
    c2, _ = tree_to_circuit(tree, omega.n)
    assert serialize_circuit(c1) == serialize_circuit(c2)

    pi = proof_from_tree(omega, outcome.tree)
    ep = ERProof(c1, pi)
    tm, _, _, _ = tm_halt()
    for once, twice in [
        (serialize_dimacs(omega), serialize_dimacs(omega)),
        (serialize_dtree(omega, tree), serialize_dtree(omega, tree)),
        (serialize_proof(pi, len(omega.clauses)), serialize_proof(pi, len(omega.clauses))),
        (serialize_er(ep, len(omega.clauses)), serialize_er(ep, len(omega.clauses))),
        (serialize_tm(tm), serialize_tm(tm)),
    ]:
        assert once == twice

    cnf = tmp_path / "omega.cnf"
    cnf.write_text(serialize_dimacs(omega))
    assert main(["prove", str(cnf), "-o", str(tmp_path)]) == 0
    assert main(["encode", str(tmp_path / "omega.dtree"), str(cnf), "-o", str(tmp_path)]) == 0
    for d in ("d1", "d2"):
        assert main(["gen-c", str(cnf), str(tmp_path / "omega.circ"),
                     "-o", str(tmp_path / d)]) == 0
    for name in ("omega.gen.cnf", "omega.sidecar"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()
