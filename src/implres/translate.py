"""Constructive proof translations: one graft and the truth definition.

A carrier is a generated clause set together with the circuit whose
gate clauses make it up; that circuit's output is a verdict delta,
and the unit {-delta} is one of the premises.  Grafting folds a
refutation of a carrier into the described object itself.  The grown
carrier holds the old one at the same ids, so only the proof's
auxiliaries and their aux cone, the carrier gates they read directly
or through other carrier gates, get a duplicate in the described
object (_duplicate).  The refutation is rewritten in one walk
(ProofBuilder.import_proof, proofs module): its weakening is stripped,
host clauses and {-delta} are cited where they stand, and each
auxiliary clause is its duplicate's clause with the cone-copy
literals resolved back to the originals through bridge clauses
derived gate by gate (_bridge; emb_refute is its standalone form, over
a circuit, its circuits.Copy under the map and two units).  Each
renamed gate is a Copy's: the duplicate, beta rebased onto a
carrier's first copy, and pi's auxiliaries under p -> -z_p.  Gate
clauses are cited by position, not by value, and the positions are
read off the premise sets folded between: a Carrier or a
circuits.Premises says where each gate's group starts (gate_position)
and where {-delta} sits (neg_delta_index), and pi's own premises are
er_premises(old, aux), one flat sequence that lays old's items and
then the auxiliaries, never a view over another view.
On an empty cone the duplicate is the auxiliaries alone and the
certificate is the input proof renamed.

Every producer builds in one ProofBuilder, which records each distinct
step once: a resolution whose key (left, right, pivot) repeats is the
step already recorded.  So a proof that repeats a subproof, as prove's
tree-like refutations do once their leaves cite shared premise steps,
comes out as a DAG with each subproof once, and the truth-definition
step unfolds each literal gate once however many clauses of omega hold
the literal.  refute_tableau's refutations hold each step once already.

graft_fold does this for carriers generated from a described circuit
beta on a copy stride: C(omega, beta) from gen_C (graft) and
machine-grid sets from gen_tableau (tableau.graft_pq).  It rebases beta
onto the carrier's first copy and lays the duplicate on the same
stride, so the grown circuit regenerates a set that contains the old
one.  search_translate folds into a search problem's algorithm the
same way, over gen_correct's view of its correctness clauses, with
fresh ids for the duplicate.  refute_tableau's refutations have no
auxiliaries, so graft_pq's cone is empty.

truthdef_translate (er_to_implicit) turns any ER refutation pi of
omega into an implicit refutation with nothing left to graft: under
the substitution p -> -z_p, so that negation is a literal's sign and
not a gate, pi's auxiliaries read only branch variables, so they are
laid on the canonical circuit before C(omega, beta') is generated,
once, and the certificate is derived on it.  The truth-definition
step forces the carrier's units by propagation, one pass over its
gates in layout order, so it reads the carrier by position, each gate's
body computed off its laid item (Carrier.gate_walk, Premises.gate_body),
and restates no layout of gen_C or of the canonical circuit; it builds
neither the carrier circuit nor a Gate of a family or a copy.

Each proof is replayed once.  A proof from outside is checked where it
enters (check_input, called by truthdef_translate, search_translate
and tableau.graft_pq); graft, graft_fold and ProofBuilder.import_proof
trust that check, and truthdef_translate, graft_fold, search_translate
and emb_refute replay what they return against the set it refutes;
that replay, not a check of the final clause, is what stands behind a
rewritten proof.  No carrier is built in full.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .circuits import (
    Circuit,
    Copy,
    Gate,
    Premises,
    clause_count,
    map_literal,
    max_var,
    validate_circuit,
)
from .correctness import (
    CorrectnessBundle,
    SearchProblem,
    gen_C,
    gen_correct,
)
from .encoding import TreeInterface, canonical_tree_circuit
from .formulas import EMPTY_CLAUSE, Clause, ClauseSet
from .implicit import ImplicitRefutation, proof_stage
from .proofs import (
    Axiom,
    ERProof,
    ProofBuilder,
    ResolutionProof,
    check_er,
    check_proof,
    er_premises,
)


class TranslateError(ValueError):
    pass


def check_input(premises, pi: ERProof) -> None:
    """Refuse an ER refutation of premises that check_er rejects: the
    one check of a proof a producer takes from outside."""
    rep = check_er(premises, pi)
    if not rep:
        raise TranslateError(f"invalid proof: {rep.reason}")


def _bridge(
    b: ProofBuilder,
    view,
    c: Circuit,
    f: dict[int, int],
    roots: list[tuple[int, bool]],
) -> dict[bool, dict[int, int]]:
    """Derive in b the bridge clause A(y) = {-y, f(y)} (polarity True)
    or B(y) = {y, -f(y)} (False) for each root (y, polarity), a gate y
    of c with f(y) != y, in a constant number of steps per body literal
    of the gates they need.  Returns the step table: table[polarity][e]
    is the step deriving A(e) or B(e), for the roots and every gate one
    demand pass found under them.  Gate clauses are cited by position,
    not by value: view is a premise view whose gate_position says where
    the group of c's gate v, and of the image gate f(v), starts in b's
    premises.  An image gate's body is c's as f maps it."""
    gate_of = c.gate_map()

    # Demand pass: which gates need A (-e or f(e)) and which need B.
    need: dict[bool, set[int]] = {True: set(), False: set()}
    work = list(roots)  # True demands A, False demands B
    while work:
        var, want_a = work.pop()
        if f[var] == var or var in need[want_a]:
            continue
        if var not in gate_of:
            raise TranslateError(f"the map moves free variable {var}; no bridge exists")
        need[want_a].add(var)
        for lit in gate_of[var].body:
            sub = abs(lit)
            if f[sub] != sub:
                work.append((sub, want_a == (lit > 0)))

    # A(e) starts from e's wide clause, substitutes each body literal
    # that f moves through the bridge of its variable, and resolves the
    # image literals away with f(e)'s two-literal clauses; B(e) runs
    # from f(e)'s wide clause to e's two-literal clauses.
    steps: dict[bool, dict[int, int]] = {True: {}, False: {}}
    for g in c.gates:
        e = g.var
        if e not in need[True] and e not in need[False]:
            continue
        body = tuple(dict.fromkeys(g.body))
        image = tuple(map_literal(l, f) for l in body)
        for want_a in (True, False):
            if e not in need[want_a]:
                continue
            src, dst, dst_body = (e, f[e], image) if want_a else (f[e], e, body)
            cur = b.axiom(view.gate_position(src))
            for lit, fl in zip(body, image):
                if fl == lit:
                    continue
                sl = lit if want_a else fl
                bridge = steps[want_a == (lit > 0)][abs(lit)]
                cur = b.resolve_lit(cur, bridge, sl)
            for i, dl in enumerate(dst_body, 1):
                if dl in b.clause(cur):
                    cur = b.resolve_lit(cur, b.axiom(view.gate_position(dst) + i), dl)
            if b.clause(cur) != Clause((-src, dst)):
                raise TranslateError(f"bridge clause for gate {e} came out wrong")
            steps[want_a][e] = cur
    return steps


def emb_refute(c: Circuit, f: dict[int, int], y: int, polarity: bool) -> ResolutionProof:
    """Refute the clauses of c, those of its copy under f and the units
    y^polarity and f(y)^(1-polarity): the fold's bridge for y (see
    _bridge), resolved against the two units.  The premises are one
    view, c's gates, then Copy(c, f), then the two units.  f must be
    defined on every variable of c and send each gate to a variable
    outside c that no other gate is sent to.  The refutation is
    replayed against the view before it leaves."""
    cvars = c.variables()
    if y not in cvars:
        raise TranslateError(f"output {y} is not a variable of the host circuit")
    missing = cvars - f.keys()
    if missing:
        raise TranslateError(f"the map is undefined on {min(missing)}")
    images = {f[g.var] for g in c.gates}
    if len(images) < len(c.gates):
        raise TranslateError("the map sends two gates to one variable")
    if not cvars.isdisjoint(images):
        raise TranslateError("the map sends a gate onto a variable of c")
    fy = f[y]
    units = (Clause((y if polarity else -y,)), Clause((-fy if polarity else fy,)))
    n = max(max_var(c), *(f[v] for v in cvars))
    premises = Premises((*c.gates, Copy(c, f), *units), n)
    b = ProofBuilder(premises)
    bridge = None if fy == y else _bridge(b, premises, c, f, [(y, polarity)])[polarity][y]
    uy = b.axiom(len(premises) - 2)
    ufy = b.axiom(len(premises) - 1)
    ylit, fylit = (y, fy) if polarity else (-y, -fy)
    if bridge is None:
        final = b.resolve_lit(uy, ufy, ylit)
    else:
        final = b.resolve_lit(b.resolve_lit(uy, bridge, ylit), ufy, fylit)
    proof = b.extract(final)
    rep = check_proof(premises, proof)
    if not rep:
        raise TranslateError(f"embedding refutation rejected: step {rep.step}: {rep.reason}")
    return proof


@dataclass(frozen=True)
class TranslatedSearch:
    problem: SearchProblem  # enlarged algorithm, same checker
    rho: ResolutionProof
    rho_premises: int  # size of the grown correctness set rho refutes
    pi_premises: int  # size of the set pi refutes, its auxiliaries included


def aux_cone(host: Circuit, aux: Circuit) -> set[int]:
    """The aux cone: the host gates that a gate of aux reads, directly
    or through other host gates."""
    gate_of = host.gate_map()
    cone: set[int] = set()
    work = [abs(l) for g in aux.gates for l in g.body]
    while work:
        v = work.pop()
        if v in gate_of and v not in cone:
            cone.add(v)
            work.extend(abs(l) for l in gate_of[v].body)
    return cone


def _duplicate(
    host: Circuit, aux: Circuit, start: int, step: int
) -> tuple[tuple[Gate, ...], dict[int, int]]:
    """Copy of the aux cone's gates, in host order, then of aux's
    gates; the t-th copied gate (from 0) gets id start + t * step.
    Returns the gates and the map, which sends each copied gate to its
    copy and every other host variable to itself: a cone copy reads
    host frees and other cone copies, an aux copy reads the host
    outside the cone as it stands.  An empty cone copies aux alone."""
    cone = aux_cone(host, aux)
    copied = Circuit(gates=(*(g for g in host.gates if g.var in cone), *aux.gates))
    dupmap = {v: v for v in host.free}
    dupmap.update((g.var, g.var) for g in host.gates)
    dupmap.update((g.var, start + t * step) for t, g in enumerate(copied.gates))
    return Copy(copied, dupmap).gates, dupmap


def _fold_proof(
    premises, pi: ERProof, host: Circuit, dupmap: dict[int, int], new
) -> ResolutionProof:
    """Refute the grown set new from pi, a refutation of premises.

    premises and new are premise sets that say where a gate's clause
    group starts (gate_position) and where the unit {-delta} for
    host's output delta sits (neg_delta_index).  The caller builds
    premises as er_premises(old, pi.aux): old, a Carrier or
    gen_correct's Premises, holds host's gate clauses, and pi's
    auxiliaries' groups follow them.  new holds host's clauses and the
    clauses of the duplicate (_duplicate's gates, over dupmap).  pi is
    imported once, host variables kept and auxiliaries renamed to
    their copies: host clauses are cited in their own group of new,
    {-delta} at new's, and each auxiliary clause is its copy's clause
    with every cone-copy literal c' resolved back to c through the
    bridges A(c) = {-c, c'} and B(c) = {c, -c'}, derived in the same
    builder (_bridge) for the clauses pi cites.  new is read only where
    the certificate cites it.  pi must be checked; the certificate is
    not checked here but replayed by both callers."""
    original = {dupmap[g.var]: g.var for g in host.gates if dupmap[g.var] != g.var}
    varmap = dict(dupmap)
    varmap.update((v, v) for v in original.values())
    moved = {premises.neg_delta_index: new.neg_delta_index}
    for g in host.gates + pi.aux.gates:
        p = premises.gate_position(g.var)
        r = new.gate_position(varmap[g.var])
        for j in range(clause_count(g)):
            moved[p + j] = r + j
    b = ProofBuilder(new)
    bridges = {}
    if original:
        cited = {moved[s.index] for s in pi.proof.steps if type(s) is Axiom}
        roots = [(original[abs(l)], l < 0) for q in cited for l in new[q]
                 if abs(l) in original]
        bridges = _bridge(b, new, host, dupmap, roots)
    cites: dict[int, int] = {}

    def cite(q: int) -> int:
        if q not in cites:
            step = b.axiom(moved[q])
            for lit in b.clause(step):
                if abs(lit) in original:
                    step = b.resolve_lit(step, bridges[lit < 0][original[abs(lit)]], lit)
            cites[q] = step
        return cites[q]

    # an empty cone bridges nothing: a cited clause is its image as it
    # stands, and its literals are not read
    final = b.import_proof(pi.proof, cite if original else lambda q: b.axiom(moved[q]), varmap)
    # import_proof computes the final clause only for a proof that ends
    # on a premise or holds a weakening; this names one ending on a
    # premise other than the empty clause (say the bare {-delta})
    if b.clause(final) != EMPTY_CLAUSE:
        raise TranslateError("grafted refutation missed the empty clause")
    return b.extract(final)


def graft_fold(bundle, beta: Circuit, iface, alpha_er: ERProof, generate):
    """Fold an ER refutation of a stride-laid carrier into beta.

    bundle holds the carrier generated from beta and iface (gen_C or
    gen_tableau output) in its ``clauses``; generate(beta2, iface2)
    regenerates it for the grown circuit.  The stride is the number of
    copies.  beta is rebased onto the carrier's first copy
    (``copy_maps[0]``), which makes the first copy's clause block
    literally the grown circuit's own clauses, and the grown carrier
    holds the old one at the same ids.  The duplicate (_duplicate: the
    proof's aux cone, then its auxiliary gates) continues the stride
    after beta's non-output gates, on the first copy, and the proof is
    imported onto the grown carrier with the cone bridged back
    (_fold_proof).  The grown circuit's frees are the first copy's
    input images, then the carrier's frees not already listed;
    generate's port check validates it.  Returns the grown circuit,
    its interface, its carrier and the certificate refuting that
    carrier, which is replayed against the grown carrier first: every
    graft, tree or grid, leaves checked.  alpha_er must be a refutation
    that check_er accepted (check_input); it is not replayed here."""
    old = bundle.clauses
    host = old.circuit
    first = old.copy_maps[0]
    stride = len(old.copy_maps)
    # the copies' inner gates take the ids up to old.n, so the
    # duplicate goes on along their stride at old.n + 1
    dup_gates, dupmap = _duplicate(host, alpha_er.aux, old.n + 1, stride)
    inputs = tuple(first[x] for x in iface.inputs)
    beta2 = Circuit(
        inputs + tuple(v for v in host.free if v not in inputs),
        Copy(beta, first).gates + dup_gates,
        tuple(first[y] for y in iface.outputs),
    )
    iface2 = replace(iface, inputs=inputs, outputs=beta2.outputs)
    bundle2 = generate(beta2, iface2)
    new = bundle2.clauses
    alpha2 = _fold_proof(er_premises(old, alpha_er.aux), alpha_er, host, dupmap, new)
    rep = proof_stage(bundle2, alpha2, len(new))
    if not rep:
        raise TranslateError(f"grafted refutation rejected: {rep.reason}")
    return beta2, iface2, bundle2, alpha2


def search_translate(sp: SearchProblem, pi: ERProof) -> TranslatedSearch:
    """Absorb an ER refutation of the correctness clauses into the
    algorithm circuit by the graft's fold: the enlarged algorithm
    carries a duplicate of the proof's aux cone over algorithm and
    checker, then of its auxiliaries, and the returned plain
    refutation is pi imported onto the grown correctness set, which
    still holds the checker's verdict delta.  An aux-free pi leaves the
    algorithm as it is and comes back with its weakening stripped.  The
    refutation is replayed against the grown correctness set before it
    leaves."""
    correct = gen_correct(sp)
    check_input(correct, pi)
    delta = sp.checker.outputs[0]

    host = Circuit(sp.xs, sp.algorithm.gates + sp.checker.gates, (delta,))
    full = Circuit(sp.xs, host.gates + pi.aux.gates, (delta,))
    rep = validate_circuit(full)
    if not rep:
        raise TranslateError(f"proof auxiliaries do not stack: {rep.reason}")
    # aux frees occur in correct, so this clears every premise variable
    start = max(max_var(full), correct.n) + 1
    dup_gates, dupmap = _duplicate(host, pi.aux, start, 1)

    algo2 = Circuit(sp.xs, sp.algorithm.gates + dup_gates, sp.ys)
    sp2 = SearchProblem(sp.n, sp.xs, sp.ys, algo2, sp.checker)
    correct2 = gen_correct(sp2)
    premises = er_premises(correct, pi.aux)
    rho = _fold_proof(premises, pi, host, dupmap, correct2)
    rep = check_proof(correct2, rho)
    if not rep:
        raise TranslateError(f"translated refutation rejected: step {rep.step}: {rep.reason}")
    return TranslatedSearch(sp2, rho, len(correct2), len(premises))


def _unit(b: ProofBuilder, lit: int, step: int) -> int:
    # a Clause holds distinct literals, so this is b.clause(step) ==
    # Clause((lit,)) with no clause built and none put in order
    c = b.clause(step)
    if len(c) != 1 or lit not in c:
        raise TranslateError(f"expected unit {lit}, got {c}")
    return step


def truthdef_translate(omega: ClauseSet, pi: ERProof) -> ImplicitRefutation:
    """Turn an ER refutation of omega into an implicit refutation.  Its
    circuit beta' is the canonical always-branch-on-depth circuit, then
    pi's auxiliaries renamed under p -> -z_p onto ids after it, reading
    -z_p where they read p, with the branch variables 1..n as spare
    frees; an aux-free pi adds no gate.  C(omega, beta') is generated
    once and refuted in one builder.  The proof first forces units by
    propagation over the carrier's gates in layout order
    (Carrier.gate_walk), the pre-block and then the copies: the
    constant tt = OR(z_1, -z_1) is true; a gate with a body literal
    whose unit is derived gets {g}, from that unit and g's two-literal
    clause; a gate whose body literals all have false units gets {-g},
    from g's wide clause; the window's pass-through gates and the
    auxiliaries' copies, which read branch variables alone, get none.
    That forces every copy's outputs (the canonical circuit's answer
    on a depth-i window is i regardless of the branch bits).  The
    proof then converts each weakening-witness gate of the verdict
    block into the branch-bit image {-z_p : p in C} = {-lit : lit in C}
    of its source clause C, which is that premise of pi under the
    substitution; the witness, literal and slot gates it cites are read
    off the bodies of delta (the verdict block's last gate) and of the
    gates below it (Carrier.gate_body), in the order gen_delta states,
    so no id table is kept beside the carrier.  It finally imports pi
    (ProofBuilder.import_proof), citing its auxiliaries in the first
    copy of beta'.  The carrier is read by position and id: neither its
    circuit nor a Gate of a family or a copy is built.

    pi is checked (check_input) and each step derived before the import
    as it is made; the certificate is replayed (proof_stage) before it
    leaves.
    """
    check_input(omega, pi)
    n = omega.n
    if n < 1:
        raise TranslateError("need at least one variable")
    canon, iface = canonical_tree_circuit(n)
    auxmap = {p: -p for p in range(1, n + 1)}
    auxmap.update((g.var, max_var(canon) + 1 + t) for t, g in enumerate(pi.aux.gates))
    beta = Circuit(
        canon.free + tuple(range(1, n + 1)), canon.gates + Copy(pi.aux, auxmap).gates, canon.outputs
    )
    bundle = gen_C(omega, beta, iface)
    cs = bundle.clauses
    body_of = cs.gate_body
    # pi's variables as the carrier names them: the first copy keeps
    # the branch variables in place and holds the auxiliaries
    varmap = {v: map_literal(l, cs.copy_maps[0]) for v, l in auxmap.items()}
    b = ProofBuilder(cs)

    def gate_big(var: int) -> int:
        return b.axiom(cs.gate_position(var))

    def gate_dcl(var: int, body: tuple[int, ...], lit: int) -> int:  # {var, -lit}
        # body is var's distinct body (circuits._distinct_body): clause
        # 1 + i of the group is that of its i-th literal
        return b.axiom(cs.gate_position(var) + 1 + body.index(lit))

    def const_unit(var: int) -> int:  # {var} for var = OR(z, -z)
        body = tuple(dict.fromkeys(body_of(var)))
        z = body[0]
        return _unit(b, var, b.resolve(gate_dcl(var, body, -z), gate_dcl(var, body, z), z))

    # Forcing: units[l] is the step deriving {l}.
    walk = cs.gate_walk()
    tt, _ = next(walk)
    units = {tt: const_unit(tt)}
    for var, body in walk:
        body = tuple(dict.fromkeys(body))
        for wit in body:
            if wit in units:
                step = b.resolve_lit(units[wit], gate_dcl(var, body, wit), wit)
                units[var] = _unit(b, var, step)
                break
        else:
            if all(-l in units for l in body):
                step = gate_big(var)
                for l in body:
                    step = b.resolve_lit(units[-l], step, -l)
                units[-var] = _unit(b, -var, step)

    # Weakening witnesses from the negated verdict, their ids read off
    # the bodies of delta, w and l in the order gen_delta states.
    delta = cs.delta
    delta_body = body_of(delta)
    delta_distinct = tuple(dict.fromkeys(delta_body))
    neg_delta = b.axiom(cs.neg_delta_index)
    f_steps: list[int] = []
    final: Optional[int] = None
    for clause, w_lit in zip(omega.clauses, delta_body):
        wv = -w_lit
        w_unit = _unit(b, wv, b.resolve(gate_dcl(delta, delta_distinct, w_lit), neg_delta, delta))
        cur = b.resolve(w_unit, gate_big(wv), wv)
        w_body = body_of(wv)
        if not clause.literals:
            # This witness gate is the negated constant: contradiction.
            const = -w_body[0]
            final = b.resolve(const_unit(const), cur, const)
            if b.clause(final) != EMPTY_CLAUSE:
                raise TranslateError("translated refutation missed the empty clause")
            break
        for lit, l_lit in zip(clause, w_body):
            lv = -l_lit
            l_body = body_of(lv)
            sv = -l_body[abs(lit) - 1]
            step = b.resolve(gate_dcl(lv, tuple(dict.fromkeys(l_body)), -sv), gate_big(sv), sv)
            for l in body_of(sv):
                if -l in units:  # the index bits, read off copy j's outputs
                    step = b.resolve_lit(units[-l], step, -l)
            if b.clause(step) != Clause((lv, -lit)):
                raise TranslateError("literal-gate unfolding went off the rails")
            cur = b.resolve(step, cur, lv)
        if b.clause(cur) != Clause(tuple(-l for l in clause)):
            raise TranslateError("branch-bit image of a source clause came out wrong")
        f_steps.append(cur)

    if final is None:
        # pi cites omega's clauses, then its auxiliaries' gate clauses,
        # which the first copy lays last, in the same order
        shift = cs.gate_position(varmap[pi.aux.gates[0].var]) - len(f_steps) if pi.aux.gates else 0
        final = b.import_proof(
            pi.proof, lambda q: f_steps[q] if q < len(f_steps) else b.axiom(q + shift), varmap
        )
    alpha = b.extract(final)
    rep = proof_stage(bundle, alpha, len(cs))
    if not rep:
        raise TranslateError(f"translated refutation rejected: {rep.reason}")
    return ImplicitRefutation(n, omega, alpha, beta, iface, alpha_premises=len(cs))


def graft(
    omega: ClauseSet,
    beta: Circuit,
    iface: TreeInterface,
    bundle: CorrectnessBundle,
    alpha_er: ERProof,
) -> ImplicitRefutation:
    """Fold a checked ER refutation of C(omega, beta), whose generated
    bundle is passed in, into the described circuit itself, yielding a
    plain implicit refutation (see graft_fold, which replays the
    certificate against the grown carrier C(omega, beta'))."""
    beta2, iface2, bundle2, alpha2 = graft_fold(
        bundle, beta, iface, alpha_er, lambda b2, i2: gen_C(omega, b2, i2)
    )
    return ImplicitRefutation(
        iface.n, omega, alpha2, beta2, iface2,
        alpha_premises=len(bundle2.clauses),
    )


def er_to_implicit(omega: ClauseSet, pi: ERProof) -> ImplicitRefutation:
    """Full simulation: the truth-definition translation, which lays
    pi's auxiliaries in the described circuit itself, so nothing is
    left to graft."""
    return truthdef_translate(omega, pi)
