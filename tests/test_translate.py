import pytest

from implres import implicit, proofs, translate
from implres.circuits import (
    Circuit,
    Gate,
    Premises,
    clause_count,
    gate_group,
    max_var,
)
from implres.correctness import gen_C, gen_correct
from implres.encoding import canonical_tree_circuit, tree_to_circuit
from implres.families import not_search, or_chain, php, tm_halt, tm_right_writer, tm_write_stay
from implres.formulas import ClauseSet
from implres.implicit import synthesize_alpha, verify_implicit
from implres.proofs import (
    Axiom,
    ERProof,
    ProofBuilder,
    ProofReport,
    Resolve,
    ResolutionProof,
    Weaken,
    check_er,
    check_proof,
    er_premises,
)
from implres.prover import balance_tree, dpll_refute, proof_from_tree
from implres.tableau import gen_tableau, graft_pq, refute_tableau, verify_refutation
from implres.translate import (
    TranslateError,
    emb_refute,
    er_to_implicit,
    graft,
    search_translate,
    truthdef_translate,
)
from test_certificate_mutants import QUICK_VIA_E, carrier_refutation, cone_grafts, detour


def n_resolutions(p):
    return sum(1 for s in p.steps if isinstance(s, Resolve))


def empty_aux(proof):
    return ERProof(Circuit((), (), ()), proof)


def dpll_er(omega):
    out = dpll_refute(omega)
    return empty_aux(proof_from_tree(omega, out.tree))


def test_emb_refute_single_gate_both_polarities():
    c = Circuit((1, 2), (Gate(3, (1, 2)),), (3,))
    f = {1: 1, 2: 2, 3: 4}
    for polarity in (True, False):
        pr = emb_refute(c, f, 3, polarity)
        # c's group, its copy's, then the units 3^polarity, 4^(1-polarity)
        units = ((3,), (-4,)) if polarity else ((-3,), (4,))
        premises = ClauseSet(4, (*gate_group(3, (1, 2)), *gate_group(4, (1, 2)), *units))
        assert check_proof(premises, pr)
        assert n_resolutions(pr) <= 5


def test_emb_refute_free_output_is_one_resolution():
    c = Circuit((1,), (), ())
    pr = emb_refute(c, {1: 1}, 1, True)
    assert n_resolutions(pr) == 1


def test_emb_refute_chain_sizes_linear():
    c = or_chain(30, 1)
    f = {v: v for v in c.free} | {g.var: 200 + t for t, g in enumerate(c.gates)}
    for polarity in (True, False):
        pr = emb_refute(c, f, c.outputs[0], polarity)
        assert len(pr.steps) <= 16 * sum(len(g.body) for g in c.gates)
    # an interior gate only demands its own cone
    emb_refute(c, f, c.gates[15].var, False)


def test_emb_refute_cites_each_circuit_by_its_own_layout():
    """c and its copy are laid in one view, so a gate's image must be
    a variable of neither c nor another gate's image, and the map must
    be defined on every variable of c."""
    c = Circuit((1,), (Gate(2, (1,)), Gate(3, (2,))), (3,))
    shared = {1: 1, 2: 3, 3: 4}  # gate 2 onto c's gate 3
    merged = {1: 1, 2: 4, 3: 4}
    missing = {2: 4, 3: 5}  # undefined on the free 1
    for f, reason in ((shared, "onto a variable of c"), (merged, "two gates to one"),
                      (missing, "undefined on 1")):
        for polarity in (True, False):
            with pytest.raises(TranslateError, match=reason):
                emb_refute(c, f, 3, polarity)


def test_emb_refute_rejects_a_map_that_moves_a_free():
    # the units {1} and {-2} are consistent: there is nothing to refute
    free = Circuit((1, 2), (), ())
    with pytest.raises(TranslateError, match="moves free variable 1"):
        emb_refute(free, {1: 2, 2: 1}, 1, True)
    # nor through a gate whose body reads a moved free
    c = Circuit((1, 2), (Gate(3, (1,)),), (3,))
    with pytest.raises(TranslateError, match="moves free variable 1"):
        emb_refute(c, {1: 2, 2: 1, 3: 4}, 3, True)


def test_truthdef_translate_accepted(omega1, omega2):
    """The certificate refutes C(omega, beta') in plain resolution: as
    an aux-free ER refutation, and through the verifier."""
    pi1 = empty_aux(ResolutionProof((Axiom(0), Axiom(1), Resolve(0, 1, 1))))
    assert check_er(omega1, pi1)
    for omega, pi in ((omega1, pi1), (omega2, dpll_er(omega2))):
        ir = truthdef_translate(omega, pi)
        assert verify_implicit(ir)
        assert check_er(gen_C(omega, ir.beta, ir.iface).clauses, empty_aux(ir.alpha))


def test_graft_yields_verified_refutation(omega1):
    pi = empty_aux(ResolutionProof((Axiom(0), Axiom(1), Resolve(0, 1, 1))))
    translated = truthdef_translate(omega1, pi)
    bundle, eta = carrier_refutation(translated)
    ir = graft(omega1, translated.beta, translated.iface, bundle, eta)
    rep = verify_implicit(ir)
    assert rep, (rep.stage, rep.reason)
    # the new carrier clause set contains the old one and the grown circuit
    grown = gen_C(omega1, ir.beta, ir.iface)
    have = set(grown.clauses.clauses)
    assert all(c in have for c in bundle.clauses.clauses)
    assert all(c in have for c in Premises(ir.beta.gates, max_var(ir.beta)).clauses)


def test_graft_rejects_a_certificate_the_grown_carrier_does_not_replay(broken_fold, omega1):
    pi = empty_aux(ResolutionProof((Axiom(0), Axiom(1), Resolve(0, 1, 1))))
    translated = truthdef_translate(omega1, pi)
    bundle, eta = carrier_refutation(translated)
    with pytest.raises(TranslateError, match="grafted refutation rejected"):
        graft(omega1, translated.beta, translated.iface, bundle, eta)
    # an aux-free refutation grafts no gate: the grown circuit is beta
    # rebased onto the first copy, with no duplicate of the host
    [(host, dupmap, beta2)] = broken_fold
    assert all(dupmap[g.var] == g.var for g in host.gates)
    assert len(beta2.gates) == len(translated.beta.gates)


def test_graft_accepts_plain_proof_over_tree_circuit(omega2):
    out = dpll_refute(omega2)
    beta, iface = tree_to_circuit(balance_tree(out.tree, (1, 2)), 2)
    bundle = gen_C(omega2, beta, iface)
    ir = graft(omega2, beta, iface, bundle, empty_aux(synthesize_alpha(bundle)))
    assert verify_implicit(ir)


def test_er_to_implicit_generates_C_once_per_circuit(monkeypatch, tseitin4):
    """translate-er generates C once, for beta' itself, and never
    reaches the graft's fold: the auxiliaries are laid in beta' before
    the certificate is derived, so nothing is left to graft."""
    calls = []
    real = translate.gen_C

    def counting(omega, beta, iface):
        calls.append(beta)
        return real(omega, beta, iface)

    def unreachable(*args):
        raise AssertionError("er_to_implicit reached graft_fold")

    # the verifier's own gen_C counts too, so a re-verification would show
    monkeypatch.setattr(translate, "gen_C", counting)
    monkeypatch.setattr(implicit, "gen_C", counting)
    monkeypatch.setattr(translate, "graft_fold", unreachable)
    for omega, pi in ((tseitin4, dpll_er(tseitin4)), QUICK_VIA_E):
        calls.clear()
        ir = er_to_implicit(omega, pi)
        assert calls == [ir.beta]


def test_er_to_implicit_never_materializes_the_grown_carrier(monkeypatch, php32, tseitin4):
    """truthdef_translate cites C(omega, beta') by position and its
    replay reads the premises alpha cites, so the carrier's clause
    tuple is never built."""
    bundles = []
    real = translate.gen_C

    def spied(omega, beta, iface):
        bundles.append(real(omega, beta, iface))
        return bundles[-1]

    monkeypatch.setattr(translate, "gen_C", spied)
    for omega, pi in ((tseitin4, dpll_er(tseitin4)), (php32, dpll_er(php32)), QUICK_VIA_E):
        bundles.clear()
        ir = er_to_implicit(omega, pi)
        assert [b.clauses.laid[-1].circuit for b in bundles] == [ir.beta]
        assert "clauses" not in vars(bundles[0].clauses)


def test_er_to_implicit_full_pipeline(omega1, omega2, tseitin4, php32):
    """Every translation verifies and declares its carrier's size.  The
    truth-definition step imports pi under p -> -z_p, so beta' is the
    canonical circuit, its gates and its window inputs as they stand,
    then pi's auxiliaries renamed onto fresh ids, reading -z_p where
    they read p; the branch variables 1..n are its spare frees.  An
    aux-free pi adds no gate."""
    cases = [(omega, dpll_er(omega)) for omega in (omega1, omega2, tseitin4, php32)]
    cases.append(QUICK_VIA_E)
    # a set holding the empty clause is refuted by citing it
    cases.append((ClauseSet(1, ((), (1,))), empty_aux(ResolutionProof((Axiom(0),)))))
    for omega, pi in cases:
        assert check_er(omega, pi)
        ir = er_to_implicit(omega, pi)
        assert verify_implicit(ir)
        assert ir.alpha_premises == len(
            gen_C(omega, ir.beta, ir.iface).clauses.clauses
        )
        canon, iface = canonical_tree_circuit(omega.n)
        assert ir.iface == iface
        assert ir.beta.free == canon.free + tuple(range(1, omega.n + 1))
        assert ir.beta.gates[:len(canon.gates)] == canon.gates
        aux = ir.beta.gates[len(canon.gates):]
        assert [len(g.body) for g in aux] == [len(g.body) for g in pi.aux.gates]
        assert all(g.var > max_var(canon) for g in aux)
    assert [len(pi.aux.gates) for _, pi in cases] == [0, 0, 0, 0, 1, 0]
    # e = OR(1, 2) reads the negated branch variables
    assert er_to_implicit(*QUICK_VIA_E).beta.gates[-1].body == (-1, -2)


def test_no_producer_bridges_and_cone_readers_graft(monkeypatch, tseitin4, php32):
    """No producer bridges: er_to_implicit lays any ER proof's
    auxiliaries in beta' and grafts nothing, and graft_pq on
    refute_tableau's output has an empty aux cone.  A refutation of
    C(omega, beta') with an auxiliary reader r = OR(l) of a carrier
    literal l grafts with one demand pass of bridges: the grown circuit
    holds the reader's cone copied and the auxiliaries, and the
    certificate adds at most 6 steps per clause of the cone's gates
    (4.4 measured) to the proof.  The readers read the constant tt (a
    one-gate cone), a gate of a copy of beta, and -delta (the whole
    carrier circuit)."""
    bridged = []
    real = translate._bridge

    def counted(*args):
        bridged.append(args)
        return real(*args)

    monkeypatch.setattr(translate, "_bridge", counted)
    for omega, pi in ((tseitin4, dpll_er(tseitin4)), (php32, dpll_er(php32)), QUICK_VIA_E):
        assert verify_implicit(er_to_implicit(omega, pi))
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, tau, beta, iface = fixture()
        alpha = refute_tableau(gen_tableau(tm, tau, beta, iface))
        assert verify_refutation(graft_pq(tm, tau, beta, iface, empty_aux(alpha)))
    assert not bridged

    cones, worst = {}, 0.0
    for name, bundle, beta, pi, ir in cone_grafts():
        rep = verify_implicit(ir)
        assert rep, (name, rep.stage, rep.reason)
        host = bundle.clauses.circuit
        cone = translate.aux_cone(host, pi.aux)
        cones[name] = len(cone)
        assert len(ir.beta.gates) == len(beta.gates) + len(cone) + len(pi.aux.gates)
        cone_clauses = sum(clause_count(g) for g in host.gates if g.var in cone)
        worst = max(worst, (len(ir.alpha.steps) - len(pi.proof.steps)) / cone_clauses)
    assert len(bridged) == 3
    assert cones["tt"] == 1 and cones["neg-delta"] == len(host.gates)
    print(f"bridge steps per cone clause: at most {worst:.2f}")
    assert worst <= 6


def test_the_fold_renames_eta_without_computing_a_clause(monkeypatch, tseitin4, php32):
    """A refutation eta of C(omega, beta') with no weakening, here
    truthdef_translate's certificate, is folded by graft with each of
    its steps recorded renamed and no resolvent computed; the graft's
    replay of the certificate computes them.  Resolvents are counted at
    proofs._resolvent, the rule that the replay loop and a builder's
    resolve_clauses both run."""
    calls = {True: 0, False: 0}  # keyed by: inside the fold
    inside = []
    real_resolve, real_fold = proofs._resolvent, translate._fold_proof

    def counted(*args):
        calls[bool(inside)] += 1
        return real_resolve(*args)

    def fold(*args):
        inside.append(True)
        try:
            return real_fold(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(proofs, "_resolvent", counted)
    monkeypatch.setattr(translate, "_fold_proof", fold)
    for omega, pi in ((tseitin4, dpll_er(tseitin4)), (php32, dpll_er(php32)), QUICK_VIA_E):
        translated = er_to_implicit(omega, pi)
        bundle, eta = carrier_refutation(translated)
        calls[False] = 0
        assert verify_implicit(graft(omega, translated.beta, translated.iface, bundle, eta))
        assert calls[True] == 0 and calls[False] > 0


def weakened(pi):
    """pi with a weakening detour before its last step, which resolves
    {x} with {-x}: {-x} is weakened to the tautology {-x, x}, resolved
    back to {-x}, and the proof ends as before."""
    steps = list(pi.proof.steps)
    last = steps.pop()
    assert type(last) is Resolve
    k = len(steps)
    steps += [
        Weaken(last.right, (last.pivot,)),
        Resolve(k, last.right, last.pivot),
        Resolve(last.left, k + 1, last.pivot),
    ]
    return ERProof(pi.aux, ResolutionProof(tuple(steps)))


def test_producers_strip_a_weakening_detour(tseitin4):
    """A checked refutation with a weakening step grafts, through each
    producer, into a certificate with no weakening, no longer than its
    input, that verifies: the rewrite recomputes every clause of a
    proof that holds a weakening.  The detour strips to the proof
    without it, so the certificate is the one the plain proof gives."""
    for omega, plain in ((tseitin4, dpll_er(tseitin4)), QUICK_VIA_E):
        pi = weakened(plain)
        assert check_er(omega, pi)
        ir = er_to_implicit(omega, pi)
        assert verify_implicit(ir)
        assert not any(type(s) is Weaken for s in ir.alpha.steps)
        assert ir.alpha == er_to_implicit(omega, plain).alpha

    sp = not_search(3)
    plain = search_refutation(sp)
    pi = weakened(plain)
    assert check_er(gen_correct(sp), pi)
    ts = search_translate(sp, pi)
    assert check_proof(gen_correct(ts.problem), ts.rho)
    assert not any(type(s) is Weaken for s in ts.rho.steps)
    assert len(ts.rho) <= len(pi.proof)
    assert ts.rho == search_translate(sp, plain).rho

    tm, tau, beta, iface = tm_halt()
    plain = empty_aux(refute_tableau(gen_tableau(tm, tau, beta, iface)))
    pi = weakened(plain)
    assert check_er(gen_tableau(tm, tau, beta, iface).clauses, pi)
    tr = graft_pq(tm, tau, beta, iface, pi)
    assert verify_refutation(tr)
    assert not any(type(s) is Weaken for s in tr.alpha.steps)
    assert len(tr.alpha) <= len(pi.proof)
    assert tr.alpha == graft_pq(tm, tau, beta, iface, plain).alpha


def distinct_steps(proof) -> int:
    """The steps of proof counted once per structure: an axiom by its
    premise, a resolution by its pivot and its sides' structures."""
    ids, seen = [], {}
    for s in proof.steps:
        key = ("a", s.index) if type(s) is Axiom else (ids[s.left], ids[s.right], s.pivot)
        ids.append(seen.setdefault(key, len(seen)))
    return len(seen)


def test_repeated_subproofs_are_recorded_once():
    """dpll's tree-like proofs repeat subproofs; every producer records
    each distinct step once, so the certificate follows pi's distinct
    steps, not its tree."""
    omega = php(6, 5)
    assert len(er_to_implicit(omega, dpll_er(omega)).alpha) <= 7400
    sp = not_search(9)
    correct = gen_correct(sp)
    pi = proof_from_tree(correct, dpll_refute(correct, order=tuple(range(1, correct.n + 1))).tree)
    assert (len(pi), distinct_steps(pi)) == (7159, 122)
    assert len(search_translate(sp, empty_aux(pi)).rho) <= distinct_steps(pi)


def test_er_to_implicit_growth_within_simulation_bound(omega1, omega2, tseitin4):
    """The certificate is pi's imported steps plus a truth-definition
    part of a constant number of steps per premise of C(omega, beta')
    (below one measured)."""
    for omega in (omega1, omega2, tseitin4):
        pi = dpll_er(omega)
        ir = er_to_implicit(omega, pi)
        assert len(ir.alpha.steps) <= len(pi.proof.steps) + 3 * ir.alpha_premises


def search_refutation(sp):
    correct = gen_correct(sp)
    out = dpll_refute(correct, order=tuple(range(1, correct.n + 1)))
    return empty_aux(proof_from_tree(correct, out.tree))


def count_replays(monkeypatch):
    """Record the proof of every replay, through check_er (proofs), the
    verifier's proof stage (implicit) or search_translate's replay of
    its refutation (translate)."""
    replayed = []
    real = proofs.check_proof

    def counted(premises, proof, *args):
        replayed.append(proof)
        return real(premises, proof, *args)

    monkeypatch.setattr(proofs, "check_proof", counted)
    monkeypatch.setattr(implicit, "check_proof", counted)
    monkeypatch.setattr(translate, "check_proof", counted)
    return replayed


def test_each_producer_replays_each_proof_once(monkeypatch, tseitin4):
    replayed = count_replays(monkeypatch)
    pi = dpll_er(tseitin4)
    ir = er_to_implicit(tseitin4, pi)
    # pi and the certificate, which truthdef_translate derived from
    # the checked pi and replays before it leaves
    assert len(replayed) == 2
    assert replayed[0] is pi.proof and replayed[1] is ir.alpha

    tm, tau, beta, iface = tm_halt()
    alpha = empty_aux(refute_tableau(gen_tableau(tm, tau, beta, iface)))
    replayed.clear()
    tr = graft_pq(tm, tau, beta, iface, alpha)
    assert len(replayed) == 2
    assert replayed[0] is alpha.proof and replayed[1] is tr.alpha

    sp = not_search(3)
    pi = search_refutation(sp)
    replayed.clear()
    ts = search_translate(sp, pi)
    # pi and the translated refutation rho
    assert len(replayed) == 2
    assert replayed[0] is pi.proof and replayed[1] is ts.rho


def test_producers_check_their_input_before_stripping_it(monkeypatch, tseitin4):
    """ProofBuilder.import_proof trusts its input: each producer must
    refuse a broken ER proof before it reaches the rewrite."""

    def unreachable(*args, **kwargs):
        raise AssertionError("an unchecked proof reached the rebuild")

    monkeypatch.setattr(ProofBuilder, "import_proof", unreachable)
    # a resolve step that cites itself
    loop = empty_aux(ResolutionProof((Axiom(0), Axiom(1), Resolve(2, 2, 1))))
    tm, tau, beta, iface = tm_halt()
    for produce in (
        lambda: er_to_implicit(tseitin4, loop),
        lambda: graft_pq(tm, tau, beta, iface, loop),
        lambda: search_translate(not_search(3), loop),
    ):
        with pytest.raises(TranslateError, match="invalid proof"):
            produce()


def test_fold_refuses_a_proof_that_ends_on_the_unit(monkeypatch):
    """A proof whose last step is the bare unit {-delta} imports as
    {-delta}; the fold names it rather than returning a broken graft,
    through search_translate and graft_pq alike.  check_er would refuse
    such a proof, so it is switched off here."""
    monkeypatch.setattr(translate, "check_er", lambda *args: ProofReport(True))
    sp = not_search(1)
    unit = empty_aux(ResolutionProof((Axiom(len(gen_correct(sp)) - 1),)))
    with pytest.raises(TranslateError, match="grafted refutation missed the empty clause"):
        search_translate(sp, unit)
    tm, tau, beta, iface = tm_halt()
    neg_delta = gen_tableau(tm, tau, beta, iface).clauses.neg_delta_index
    unit = empty_aux(ResolutionProof((Axiom(neg_delta),)))
    with pytest.raises(TranslateError, match="grafted refutation missed the empty clause"):
        graft_pq(tm, tau, beta, iface, unit)


def test_search_translate_replays_its_refutation(monkeypatch):
    """A fold defect in search_translate is caught before rho leaves."""
    sp = not_search(3)
    pi = search_refutation(sp)
    broken = ResolutionProof((Axiom(0), Axiom(1), Resolve(1, 0, 1)))
    monkeypatch.setattr(translate, "_fold_proof", lambda *args: broken)
    with pytest.raises(TranslateError, match="translated refutation rejected: step 2"):
        search_translate(sp, pi)


def test_er_to_implicit_rejects_invalid_proof(omega1):
    broken = empty_aux(ResolutionProof((Axiom(0), Axiom(1), Resolve(1, 0, 1))))
    with pytest.raises((TranslateError, ValueError)):
        er_to_implicit(omega1, broken)


def test_search_translate_transfers_proof():
    """An aux-free refutation leaves the algorithm as it is and comes
    back with its weakening stripped, in no more steps."""
    for n in (1, 2, 3, 4):
        sp = not_search(n)
        correct = gen_correct(sp)
        pi = search_refutation(sp)
        ts = search_translate(sp, pi)
        correct2 = gen_correct(ts.problem)
        assert check_proof(correct2, ts.rho)
        assert ts.rho_premises == len(correct2.clauses)
        assert ts.pi_premises == len(correct.clauses)
        assert ts.problem == sp
        assert len(ts.rho.steps) <= len(pi.proof.steps)


def test_search_translate_bridges_an_auxiliary_that_reads_a_checker_gate():
    """An auxiliary reader of a checker gate's literal puts the reader's
    cone, algorithm and checker gates, and the reader in the grown
    algorithm, and rho refutes the grown correctness set through the
    checker's own verdict."""
    sp = not_search(3)
    correct = gen_correct(sp)
    pi = search_refutation(sp)
    checker = {g.var for g in sp.checker.gates}
    cited = (correct[s.index] for s in pi.proof.steps if isinstance(s, Axiom))
    lit = next(l for c in cited for l in c if abs(l) in checker)
    ep = detour(correct, pi, lit)
    ts = search_translate(sp, ep)
    host = Circuit(sp.xs, sp.algorithm.gates + sp.checker.gates, ())
    cone = translate.aux_cone(host, ep.aux)
    assert cone & checker
    assert len(ts.problem.algorithm.gates) == len(sp.algorithm.gates) + len(cone) + 1
    assert ts.problem.checker == sp.checker
    correct2 = gen_correct(ts.problem)
    assert ts.rho_premises == len(correct2.clauses)
    rep = check_proof(correct2, ts.rho)
    assert rep, (rep.step, rep.reason)
    assert Axiom(len(correct2) - 1) in ts.rho.steps  # {-delta}


def test_search_translate_carries_spurious_aux_gates():
    sp = not_search(1)
    correct = gen_correct(sp)
    out = dpll_refute(correct, order=tuple(range(1, correct.n + 1)))
    plain = empty_aux(proof_from_tree(correct, out.tree))
    ts = search_translate(sp, plain)
    spare = er_premises(correct, Circuit((), (), ())).n + 50
    withaux = ERProof(Circuit((1,), (Gate(spare, (1, 1)),), ()), plain.proof)
    assert check_er(correct, withaux)
    ts2 = search_translate(sp, withaux)
    assert check_proof(gen_correct(ts2.problem), ts2.rho)
    assert ts2.pi_premises == len(er_premises(correct, withaux.aux).clauses)
    assert len(ts2.problem.algorithm.gates) == len(ts.problem.algorithm.gates) + 1


def test_search_translate_rejects_bad_proof():
    sp = not_search(1)
    with pytest.raises(TranslateError):
        search_translate(sp, empty_aux(ResolutionProof((Axiom(0),))))
