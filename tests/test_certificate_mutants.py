"""Mutation fuzzing of grafted and tableau certificates.

Acceptance item 7 mutates certificates synthesized for tree carriers.
This extends its proof mutants to the three fold carriers: alpha from
``er_to_implicit``, the grafted proof from ``graft_pq`` and rho from
``search_translate``, judged against the grown correctness set.  Each mutant
is judged by a reference replay over frozensets written here, which
shares no code with the checker, and by the verifier's proof stage on
the regenerated carrier set.  The two must agree on every mutant, and
no mutant the reference finds invalid may be accepted.  A further kind
mutates the grafted circuit instead of the proof: a spare free wired
into its output cone, which the port check must refuse.  Two more
mutate the auxiliary gates that the cone-free graft lays in the grown
circuit: one deletes such a gate, one rewires its body to read a
carrier gate instead of the variable the certificate relies on.  The
same two kinds mutate the cone copies that a graft lays when an
auxiliary reads a carrier gate, and the auxiliaries of an ER proof that
translate-er lays in its own circuit.  The kind
"re-pointed axiom" sends one axiom step to another premise position,
judged through the lazily read carrier against a reference that reads
a separately materialized copy of the set.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from implres.circuits import Circuit, Gate, gate_group, map_literal, max_var
from implres.correctness import gen_C, gen_correct
from implres.encoding import canonical_tree_circuit
from implres.families import (
    not_search,
    php,
    tm_halt,
    tm_right_writer,
    tm_write_stay,
    tseitin_cycle,
)
from implres.formulas import ClauseSet
from implres.implicit import proof_stage, verify_implicit
from implres.proofs import Axiom, ERProof, Resolve, ResolutionProof, check_er, er_premises
from implres.prover import dpll_refute, proof_from_tree
from implres.tableau import gen_tableau, graft_pq, refute_tableau, verify_refutation
from implres.translate import (
    aux_cone,
    er_to_implicit,
    graft,
    search_translate,
)

EMPTY = Circuit((), (), ())
PER_KIND = 12

# the quick-start set refuted through e = OR(1, 2), variable 3, whose
# gate clauses {-3, 1, 2}, {3, -1}, {3, -2} are premises 4-6
QUICK_VIA_E = (
    ClauseSet(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))),
    ERProof(Circuit((1, 2), (Gate(3, (1, 2)),), ()), ResolutionProof((
        Axiom(0), Axiom(6), Resolve(0, 1, 2), Axiom(4), Resolve(2, 3, 3),
        Axiom(1), Resolve(4, 5, 2), Axiom(2), Axiom(3), Resolve(7, 8, 2), Resolve(6, 9, 1),
    ))),
)


def er_refutations():
    for name, omega in (("tseitin4", tseitin_cycle(4)), ("php32", php(3, 2))):
        pi = ERProof(EMPTY, proof_from_tree(omega, dpll_refute(omega).tree))
        ir = er_to_implicit(omega, pi)
        assert verify_implicit(ir)
        yield name, ir


def er_certificates():
    for name, ir in er_refutations():
        yield name, gen_C(ir.omega, ir.beta, ir.iface), ir.alpha, ir.alpha_premises


def tableau_certificates():
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, tau, beta, iface = fixture()
        alpha = refute_tableau(gen_tableau(tm, tau, beta, iface))
        tr = graft_pq(tm, tau, beta, iface, ERProof(EMPTY, alpha))
        assert verify_refutation(tr)
        bundle = gen_tableau(tm, tau, tr.beta, tr.iface)
        yield fixture.__name__, bundle, tr.alpha, tr.alpha_premises


def search_certificates():
    for n in (4, 6):
        sp = not_search(n)
        correct = gen_correct(sp)
        tree = dpll_refute(correct, order=tuple(range(1, correct.n + 1))).tree
        ts = search_translate(sp, ERProof(EMPTY, proof_from_tree(correct, tree)))
        grown = SimpleNamespace(clauses=gen_correct(ts.problem))
        assert proof_stage(grown, ts.rho, ts.rho_premises)
        yield f"not_search{n}", grown, ts.rho, ts.rho_premises


def reference_clauses(premises, steps, prefix=()):
    """Frozenset replay of ``steps`` continuing after the clauses of
    ``prefix``; None at the first unsound step."""
    clauses = list(prefix)
    for i in range(len(prefix), len(steps)):
        s = steps[i]
        if isinstance(s, Axiom):
            if not 0 <= s.index < len(premises):
                return None
            clauses.append(frozenset(premises[s.index].literals))
        elif isinstance(s, Resolve):
            if not (0 <= s.left < i and 0 <= s.right < i) or s.pivot < 1:
                return None
            left, right = clauses[s.left], clauses[s.right]
            if s.pivot not in left or -s.pivot not in right:
                return None
            clauses.append((left - {s.pivot}) | (right - {-s.pivot}))
        else:
            if not 0 <= s.source < i:
                return None
            clauses.append(clauses[s.source] | frozenset(s.literals))
    return clauses


def mutants(alpha, n_vars, rng):
    """(kind, step index, mutated step) triples: a corrupted pivot, a
    corrupted step index, and a late step that cites itself."""
    resolves = [i for i, s in enumerate(alpha.steps) if isinstance(s, Resolve)]
    late = [i for i in resolves if i >= len(alpha.steps) * 9 // 10]
    for _ in range(PER_KIND):
        i = rng.choice(resolves)
        s = alpha.steps[i]
        new = rng.choice([v for v in range(1, n_vars + 1) if v != s.pivot])
        yield "pivot", i, dataclasses.replace(s, pivot=new)
        i = rng.choice([j for j in resolves if j >= 2])
        s = alpha.steps[i]
        side = rng.choice(("left", "right"))
        new = rng.choice([j for j in range(i) if j != getattr(s, side)])
        yield "index", i, dataclasses.replace(s, **{side: new})
        i = rng.choice(late)
        yield "self", i, dataclasses.replace(alpha.steps[i], left=i)


def test_grafted_and_tableau_certificate_mutants_are_rejected():
    rng = random.Random(311)
    invalid = 0
    accepts = []
    disagreements = []
    certificates = [*er_certificates(), *tableau_certificates(), *search_certificates()]
    for name, bundle, alpha, declared in certificates:
        premises = bundle.clauses.clauses
        genuine = reference_clauses(premises, alpha.steps)
        assert genuine is not None and genuine[-1] == frozenset()
        for kind, i, step in mutants(alpha, bundle.clauses.n, rng):
            steps = alpha.steps[:i] + (step,) + alpha.steps[i + 1:]
            clauses = reference_clauses(premises, steps, genuine[:i])
            sound = clauses is not None and clauses[-1] == frozenset()
            accepted = bool(proof_stage(bundle, ResolutionProof(steps), declared))
            if accepted != sound:
                disagreements.append((name, kind, i))
            if not sound:
                invalid += 1
                if accepted:
                    accepts.append((name, kind, i))
    assert not accepts, accepts[:3]
    assert not disagreements, disagreements[:3]
    print(f"invalid mutants rejected: {invalid}")
    assert invalid >= len(certificates) * 3 * PER_KIND * 9 // 10, invalid


def output_cone(beta):
    """Gates in the transitive fan-in of beta's outputs, by a worklist
    written here rather than the port check's sweep."""
    gates = beta.gate_map()
    cone, work = set(), list(beta.outputs)
    while work:
        v = work.pop()
        if v in cone or v not in gates:
            continue
        cone.add(v)
        work.extend(abs(l) for l in gates[v].body)
    return sorted(cone)


def test_spare_free_wired_into_the_output_cone_is_rejected():
    """Mutant kind "spare free wired into the output cone".  A grafted
    beta carries 1..n as spare frees outside its output cone; a gate of
    the cone that reads one of them makes every copy in C read a branch
    variable in place of its window, so C no longer checks the tree
    that beta describes.  The verifier must refuse every such beta at
    its port check, whatever alpha says."""
    rng = random.Random(313)
    outcomes = []
    for name, ir in er_refutations():
        spares = sorted(set(ir.beta.free) - set(ir.iface.inputs))
        assert spares and all(v <= ir.n for v in spares)
        targets = output_cone(ir.beta)
        for _ in range(PER_KIND):
            var = rng.choice(targets)
            lit = rng.choice(spares) * rng.choice((1, -1))
            gates = tuple(
                Gate(g.var, g.body + (lit,)) if g.var == var else g for g in ir.beta.gates
            )
            beta = dataclasses.replace(ir.beta, gates=gates)
            rep = verify_implicit(dataclasses.replace(ir, beta=beta))
            outcomes.append((name, var, lit, rep.ok, rep.stage))
    accepts = [o for o in outcomes if o[3]]
    assert not accepts, accepts[:3]
    assert all(o[4] == "interface" for o in outcomes), outcomes
    assert len(outcomes) == 2 * PER_KIND


def carrier_views():
    """(name, view, full, beta, alpha, declared) for the grafted tree
    and grid certificates.  view and full are two generations of the
    same carrier: the verdicts read view, never built in full; the
    reference premises and copy starts come from full, found by clause
    value rather than by the view's arithmetic."""
    for name, ir in er_refutations():
        view, full = (gen_C(ir.omega, ir.beta, ir.iface) for _ in range(2))
        yield name, view, full, ir.beta, ir.alpha, ir.alpha_premises
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, tau, beta, iface = fixture()
        alpha = refute_tableau(gen_tableau(tm, tau, beta, iface))
        tr = graft_pq(tm, tau, beta, iface, ERProof(EMPTY, alpha))
        view, full = (gen_tableau(tm, tau, tr.beta, tr.iface) for _ in range(2))
        yield fixture.__name__, view, full, tr.beta, tr.alpha, tr.alpha_premises


def copy_starts(full, beta):
    premises = full.clauses.clauses
    g = beta.gates[0]
    starts = []
    for cm in full.clauses.copy_maps:
        first = gate_group(cm[g.var], tuple(map_literal(l, cm) for l in g.body))[0]
        starts.append(premises.index(first))
    return starts


def test_repointed_axiom_mutants_are_rejected():
    """Mutant kind "re-pointed axiom": one Axiom step of alpha cites
    another position, random in range or a boundary of the layout (0,
    {-delta}, the first clause of each copy, len-1) or just outside it
    (len, -1).  The verdict through the view must agree with the
    reference replay over the materialized tuple, with zero accepts."""
    rng = random.Random(317)
    accepts, disagreements, invalid, total = [], [], 0, 0
    cases = [
        (name, view, full.clauses.clauses,
         [full.clauses.neg_delta_index, *copy_starts(full, beta)], alpha, declared)
        for name, view, full, beta, alpha, declared in carrier_views()
    ]
    cases += [
        (name, bundle, bundle.clauses.clauses, [], alpha, declared)
        for name, bundle, alpha, declared in search_certificates()
    ]
    for name, bundle, premises, marks, alpha, declared in cases:
        size = len(premises)
        genuine = reference_clauses(premises, alpha.steps)
        axioms = [i for i, s in enumerate(alpha.steps) if isinstance(s, Axiom)]
        targets = [0, *marks, size - 1, size, -1]
        targets += [rng.randrange(size) for _ in range(PER_KIND)]
        for target in targets:
            i = rng.choice([j for j in axioms if alpha.steps[j].index != target])
            steps = alpha.steps[:i] + (Axiom(target),) + alpha.steps[i + 1:]
            clauses = reference_clauses(premises, steps, genuine[:i])
            sound = clauses is not None and clauses[-1] == frozenset()
            accepted = bool(proof_stage(bundle, ResolutionProof(steps), declared))
            total += 1
            if accepted != sound:
                disagreements.append((name, target, i))
            if not sound:
                invalid += 1
                if accepted:
                    accepts.append((name, target, i))
        if marks:  # a carrier, read lazily throughout
            view = bundle.clauses
            for p in (-1, -size, size):
                with pytest.raises(IndexError):
                    view[p]
            assert "clauses" not in vars(view), name
    assert not accepts, accepts[:3]
    assert not disagreements, disagreements[:3]
    print(f"re-pointed axiom mutants rejected: {invalid} of {total}")
    assert invalid >= total * 3 // 4, (invalid, total)


def detour(premises, ep, lit):
    """ep with one more auxiliary gate r = OR(lit), which the proof
    cites: the first axiom of premises whose clause C holds lit is
    rederived as C - lit + r from {r, -lit}, then as C from {-r, lit}.
    A reader of a carrier gate's literal gives the graft a nonempty aux
    cone."""
    extended = er_premises(premises, ep.aux)
    r = max(extended.n, max_var(ep.aux)) + 1
    at = len(extended)  # r's clauses: {-r, lit} at at, {r, -lit} at at + 1
    i = next(
        j for j, s in enumerate(ep.proof.steps)
        if isinstance(s, Axiom) and s.index < len(premises)
        and lit in premises[s.index].literals
    )
    var = abs(lit)
    head = (Axiom(ep.proof.steps[i].index), Axiom(at + 1),
            Resolve(0, 1, var) if lit > 0 else Resolve(1, 0, var),
            Axiom(at), Resolve(2, 3, r))
    remap = [4 if j == i else j + len(head) for j in range(len(ep.proof.steps))]
    steps = [
        dataclasses.replace(s, left=remap[s.left], right=remap[s.right])
        if isinstance(s, Resolve) else s
        for s in ep.proof.steps
    ]
    free = ep.aux.free + (() if var in ep.aux.variables() else (var,))
    aux = Circuit(free, ep.aux.gates + (Gate(r, (lit,)),), ())
    out = ERProof(aux, ResolutionProof(head + tuple(steps)))
    assert check_er(premises, out)
    return out


def er_judge(ir):
    """judge(beta2) for an er_to_implicit certificate: the materialized
    carrier of beta2 (None when it is refused), the certificate, the
    carrier's size and the verifier's report on the certificate
    declaring that size."""

    def judge(beta2):
        try:
            cs = gen_C(ir.omega, beta2, ir.iface).clauses
        except ValueError:
            return None, ir.alpha, ir.alpha_premises, verify_implicit(
                dataclasses.replace(ir, beta=beta2))
        rep = verify_implicit(dataclasses.replace(ir, beta=beta2, alpha_premises=len(cs)))
        return cs.clauses, ir.alpha, len(cs), rep

    return judge


def carrier_refutation(ir):
    """The carrier C(omega, beta) of a translated certificate and the
    certificate as an aux-free ER refutation of it, which graft takes
    as a refutation of a carrier generated from a described circuit."""
    return gen_C(ir.omega, ir.beta, ir.iface), ERProof(EMPTY, ir.alpha)


def lean_grafts():
    """(name, host, beta, grown, judge) for the cone-free grafts: host
    is the carrier circuit the proof refuted, beta the circuit it was
    generated from, grown the grafted circuit, whose gates past beta's
    are the proof's auxiliaries; judge is as er_judge gives it.  The er
    half refutes the carrier of each of er_refutations' certificates
    through a reader r = OR(z) of a branch variable z of its first
    cited clause (detour), a free of the carrier, so the aux cone is
    empty."""
    for name, ir in er_refutations():
        bundle, eta = carrier_refutation(ir)
        cs = bundle.clauses
        first = cs[eta.proof.steps[0].index]
        z = next(lit for lit in first.literals if abs(lit) <= ir.n)
        lean = graft(ir.omega, ir.beta, ir.iface, bundle, detour(cs, eta, z))
        assert verify_implicit(lean)
        yield name, cs.circuit, ir.beta, lean.beta, er_judge(lean)
    for fixture in (tm_halt, tm_write_stay, tm_right_writer):
        tm, tau, beta, iface = fixture()
        bundle = gen_tableau(tm, tau, beta, iface)
        pi = detour(bundle.clauses, ERProof(EMPTY, refute_tableau(bundle)), bundle.clauses.frees[0])
        tr = graft_pq(tm, tau, beta, iface, pi)
        assert verify_refutation(tr)

        def judge(beta2, tr=tr):
            try:
                cs = gen_tableau(tr.tm, tr.tau_bits, beta2, tr.iface).clauses
            except ValueError:
                return None, tr.alpha, tr.alpha_premises, verify_refutation(
                    dataclasses.replace(tr, beta=beta2))
            rep = verify_refutation(dataclasses.replace(tr, beta=beta2, alpha_premises=len(cs)))
            return cs.clauses, tr.alpha, len(cs), rep

        yield fixture.__name__, bundle.clauses.circuit, beta, tr.beta, judge


def cone_grafts():
    """(name, bundle, beta, pi, ir) for grafts with a nonempty aux
    cone: beta is er_to_implicit's circuit for tseitin_cycle(4), bundle
    its carrier C(omega, beta), pi the certificate as an aux-free
    refutation eta of that carrier with one more auxiliary reader
    r = OR(lit) (detour) of a carrier literal that eta cites, ir its
    graft.  The readers read the constant gate tt, whose cone is
    itself; a gate of a copy of beta; and -delta, from the premise
    {-delta}, whose cone is the whole carrier circuit."""
    omega = tseitin_cycle(4)
    ir = er_to_implicit(omega, ERProof(EMPTY, proof_from_tree(omega, dpll_refute(omega).tree)))
    bundle, eta = carrier_refutation(ir)
    cs = bundle.clauses
    copies = {cm[g.var] for cm in cs.copy_maps for g in ir.beta.gates}
    cited = (cs[s.index] for s in eta.proof.steps if isinstance(s, Axiom))
    in_copy = next(lit for c in cited for lit in c if abs(lit) in copies)
    for name, lit in (("tt", cs.circuit.gates[0].var), ("copy", in_copy), ("neg-delta", -cs.delta)):
        pi = detour(cs, eta, lit)
        yield name, bundle, ir.beta, pi, graft(omega, ir.beta, ir.iface, bundle, pi)


def judge_gate_mutants(name, host, grown, targets, judge, rng):
    """Outcomes (name, kind, gate, accepted, stage) of the mutants of
    grown that delete a gate of targets, or rewire its first body
    literal to a carrier gate that grown defines, then to one it does
    not, judged with the declared premise count following the mutated
    carrier, so the refusal comes from the circuit or the replay rather
    than from the count.  A reference replay over the materialized
    carrier confirms that each mutant is invalid."""
    defined = grown.variables()
    inside = [g.var for g in host.gates if g.var in defined]
    outside = [g.var for g in host.gates if g.var not in defined]
    outcomes = []
    for g in targets:
        kept = tuple(h for h in grown.gates if h is not g)
        betas = [("deleted", dataclasses.replace(grown, gates=kept))]
        for pool in (inside, outside):
            v, lit = rng.choice(pool), g.body[0]
            body = (v if lit > 0 else -v,) + g.body[1:]
            gates = tuple(Gate(g.var, body) if h is g else h for h in grown.gates)
            betas.append(("rewired", dataclasses.replace(grown, gates=gates)))
        for kind, beta2 in betas:
            premises, alpha, declared, rep = judge(beta2)
            if premises is not None:
                clauses = reference_clauses(premises, alpha.steps)
                assert clauses is None or clauses[-1] != frozenset(), (name, kind, g)
            outcomes.append((name, kind, g.var, rep.ok, rep.stage))
    return outcomes


def test_auxiliary_gate_mutants_of_lean_grafts_are_rejected():
    """Mutant kinds "deleted auxiliary gate" and "rewired auxiliary
    gate".  The cone-free graft leaves the carrier circuit in place and
    lays only the proof's auxiliary gates in the grown circuit, so the
    certificate cites those gates' clauses and reads the carrier
    through them.  Deleting one, or making its body read a carrier gate
    (one the grown circuit defines, or one it does not), must be
    refused (judge_gate_mutants)."""
    rng = random.Random(337)
    outcomes = []
    for name, host, beta, grown, judge in lean_grafts():
        aux = grown.gates[len(beta.gates):]
        assert aux and all(g.var not in host.extension_vars() for g in aux)
        targets = rng.sample(aux, min(PER_KIND, len(aux)))
        outcomes += judge_gate_mutants(name, host, grown, targets, judge, rng)
    accepts = [o for o in outcomes if o[3]]
    assert not accepts, accepts[:3]
    assert {o[1] for o in outcomes} == {"deleted", "rewired"}
    assert {o[4] for o in outcomes} == {"interface", "proof"}
    print(f"auxiliary gate mutants rejected: {len(outcomes)}")


def test_cone_copy_mutants_of_cone_grafts_are_rejected():
    """Mutant kinds "deleted cone copy" and "rewired cone copy".  When
    an auxiliary gate reads a carrier gate, the graft lays a copy of the
    aux cone in the grown circuit before the auxiliaries, and the
    certificate cites the copies' clauses in the bridges that carry the
    auxiliaries' clauses back onto the carrier.  Deleting a copy, or
    rewiring its body, must be refused at the interface or the proof
    stage (judge_gate_mutants)."""
    rng = random.Random(349)
    outcomes = []
    for name, bundle, beta, pi, ir in cone_grafts():
        host = bundle.clauses.circuit
        n_cone = len(aux_cone(host, pi.aux))
        copies = ir.beta.gates[len(beta.gates):len(beta.gates) + n_cone]
        assert copies and all(g.var not in host.variables() for g in copies)
        targets = rng.sample(copies, min(PER_KIND, len(copies)))
        outcomes += judge_gate_mutants(name, host, ir.beta, targets, er_judge(ir), rng)
    accepts = [o for o in outcomes if o[3]]
    assert not accepts, accepts[:3]
    assert {o[1] for o in outcomes} == {"deleted", "rewired"}
    assert {o[4] for o in outcomes} <= {"interface", "proof"}
    print(f"cone copy mutants rejected: {len(outcomes)}")


def er_aux_refutations():
    """(name, omega, pi) for ER refutations with auxiliary gates: the
    quick-start set through e = OR(1, 2), and tseitin_cycle(4)'s dpll
    refutation taken through r = OR(z) for a literal z of its first
    cited premise (detour)."""
    yield "quick-via-e", *QUICK_VIA_E
    omega = tseitin_cycle(4)
    pi = ERProof(EMPTY, proof_from_tree(omega, dpll_refute(omega).tree))
    yield "tseitin4-reader", omega, detour(omega, pi, omega[pi.proof.steps[0].index].literals[0])


def test_auxiliary_gate_mutants_of_translate_er_are_rejected():
    """Mutant kinds "deleted auxiliary gate" and "rewired auxiliary
    gate" on er_to_implicit's own circuit beta': the truth-definition
    step lays the ER proof's auxiliaries, renamed under p -> -z_p, after
    the canonical circuit's gates, and the certificate cites their
    clauses.  Deleting one, or making its body read a gate of the
    carrier circuit (one beta' defines, or one it does not), must be
    refused (judge_gate_mutants)."""
    rng = random.Random(353)
    outcomes = []
    for name, omega, pi in er_aux_refutations():
        ir = er_to_implicit(omega, pi)
        assert verify_implicit(ir)
        aux = ir.beta.gates[-len(pi.aux.gates):]
        assert len(ir.beta.gates) == len(canonical_tree_circuit(ir.n)[0].gates) + len(aux)
        host = gen_C(ir.omega, ir.beta, ir.iface).clauses.circuit
        outcomes += judge_gate_mutants(name, host, ir.beta, aux, er_judge(ir), rng)
    accepts = [o for o in outcomes if o[3]]
    assert not accepts, accepts[:3]
    assert {o[1] for o in outcomes} == {"deleted", "rewired"}
    assert {o[4] for o in outcomes} <= {"interface", "proof"}
    print(f"translate-er auxiliary gate mutants rejected: {len(outcomes)}")
